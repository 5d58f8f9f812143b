"""Correlation counts, weak discrepancies, and shift-to-element scans.

Everything here is exact integer combinatorics on the sparse occupancy
representation.  The correlation of two label sets under a shift reduces to
counting copy-start pairs at prescribed differences.  A shift m probes the
differences m + a - b of its label pairs, so each shift needs one window
[m + min(a - b), m + max(a - b)] of counts.  :func:`pair_counts` is the one
reader of those windows: every correlation, element model, shift profile
and strong norm asks it for the windows of all its shifts in one batched
query (a scan's element models are the windows at the elements'
exponents, asked in the same query as its shifts).  The occupancy answers
a query with one recursion over its per-stage offsets (numpy passes over
the r_j offsets of each stage, never over the prod r_j copy starts, none
of which is materialized).  Each level of the recursion passes up only its
nonzero counts, and the query lays them into its windows with one
scatter, so a gap shift, whose window is nearly all zeros, costs little
beyond its offset searches.

Scoring is integer too.  Profiles corr(m; A, B)/mu(A) and element models
sum_z Q(z) corr(z; A, B)/mu(A) all share the denominator D = L * lcm|A| * n
(L the lcm of the elements' coefficient denominators, n the copies per
label), so a scan holds them as integer numerators over D and scores every
element against a shift with one integer (elements x pairs) matrix of
Python ints, exact by construction.  A :class:`~fractions.Fraction` or float
is built only where a report needs a value.

The scan machinery matches a lattice shift m = sum a_i * h_{j_i} + z against
the element algebra: the h-adic decomposition of m predicts an element (one
generator power per stage, direct for negative shifts, adjoint for
positive), and the measured correlation profile is compared against every
enumerated element.  Constructions with override metadata also expose the
exact fraction f = N/Dn of stage windows untouched by overrides; dividing
the profile by that factor removes the (known, deterministic) damping the
overrides cause before ranking candidates, which in integers is the score
max |N * model - Dn * profile| over D * N.  Tolerances are always checked
against the uncorrected discrepancy.
"""

from __future__ import annotations

import datetime as _dt
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .construction import ConstructionParams, LevelOccupancy, generator_series
from .series import FormalElement, _to_fraction, adjoint, convolve, power

__all__ = [
    "CorrCount",
    "CorrelationPanel",
    "DiscrepancyReport",
    "HadicDecomposition",
    "PanelModels",
    "ScanEntry",
    "ScanReport",
    "SupportTooWideError",
    "boundary_loss",
    "corr",
    "default_panel",
    "excision_factor",
    "hadic_decompose",
    "pair_counts",
    "predicted_element",
    "sample_gap_shifts",
    "scan_limits",
    "score_elements",
    "strong_norm_sq",
    "timestamp_header",
    "weak_discrepancy",
    "write_scan_csv",
]


def boundary_loss(m: int, window: int) -> Fraction:
    """Fraction of the window a shift by m can push past the edge."""
    if window < 1:
        raise ValueError("window must be positive")
    return Fraction(min(abs(int(m)), window), window)


def _label_set(labels) -> tuple[int, ...]:
    if isinstance(labels, int):
        labels = (labels,)
    out = tuple(sorted({int(b) for b in labels}))
    if not out:
        raise ValueError("empty label set")
    return out


@dataclass(frozen=True)
class CorrCount:
    """Exact count of positions x labeled in A with x + m labeled in B."""

    m: int
    count: int
    mu_a: int
    mu_b: int

    @property
    def normalized_exact(self) -> Fraction:
        return Fraction(self.count, self.mu_a)


def pair_counts(occ: LevelOccupancy, ms: Sequence[int],
                pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[list[int]]:
    """corr(m; A, B) for every shift m in ``ms`` and every pair (A, B): one query.

    Positions of label b are copy_starts + b, so each (a, b) pair contributes
    the number of copy-start pairs differing by exactly m + a - b.  Shift m's
    row counts the differences [m + lo, m + hi], lo and hi the extremes of
    a - b over all pairs, and pair (A, B) reads its entries a - b - lo.
    """
    bad = [b for A, B in pairs for b in (*A, *B) if not 0 <= b < occ.base_height]
    if bad:
        raise ValueError(f"labels outside [0, {occ.base_height}): {bad}")
    diffs = [a - b for A, B in pairs for a in A for b in B]
    lo, hi = min(diffs), max(diffs)
    rows = occ.pair_shift_windows([m + lo for m in ms], hi - lo + 1)
    return [[sum(row[a - b - lo] for a in A for b in B) for A, B in pairs]
            for row in rows]


def corr(occ: LevelOccupancy, m: int, A, B) -> CorrCount:
    """corr(m; A, B) = #{x : x in positions(A), x + m in positions(B)}."""
    A = _label_set(A)
    B = _label_set(B)
    m = int(m)
    [[count]] = pair_counts(occ, [m], [(A, B)])
    n = occ.n_copies
    return CorrCount(m, count, len(A) * n, len(B) * n)


@dataclass(frozen=True)
class CorrelationPanel:
    """A finite family of base-level label-set pairs probed by scans."""

    base_stage: int
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.pairs) != len(self.names):
            raise ValueError("one name per pair required")
        if not self.pairs:
            raise ValueError("panel must contain at least one pair")

    def __len__(self) -> int:
        return len(self.pairs)


def default_panel(occ: LevelOccupancy, span: int = 6,
                  controls: Sequence[int] = (97,),
                  include_union: bool = True) -> CorrelationPanel:
    """Singleton pairs at relative offsets -span..span, plus controls.

    Pair "d=k" compares labels (0, k) (or (-k, 0) for negative k), so its
    correlation under a model element picks out the coefficient at z = k.
    Controls sit outside every candidate support and should read ~0; the
    union pair checks additivity over multi-label sets.
    """
    if span < 1 or span >= occ.base_height:
        raise ValueError("span must be in [1, base_height)")
    pairs = []
    names = []
    for d in range(0, span + 1):
        pairs.append(((0,), (d,)))
        names.append(f"d=+{d}")
    for d in range(1, span + 1):
        pairs.append(((d,), (0,)))
        names.append(f"d=-{d}")
    for c in controls:
        if span < c < occ.base_height:
            pairs.append(((0,), (c,)))
            names.append(f"ctrl+{c}")
    if include_union and occ.base_height > 2:
        pairs.append(((0, 1), (0, 1)))
        names.append("union01")
    return CorrelationPanel(occ.base_stage, tuple(pairs), tuple(names))


class SupportTooWideError(ValueError):
    """Element support too wide relative to the occupancy window."""


@dataclass(frozen=True)
class PairRow:
    name: str
    count: int
    normalized: float
    model: float
    delta: float


@dataclass(frozen=True)
class DiscrepancyReport:
    """Max panel deviation between a shift's counts and an element's model."""

    m: int
    element_word: str
    delta: float
    delta_exact: Fraction
    boundary_loss: float
    rows: tuple[PairRow, ...]


def _integer_coeffs(elements: Sequence[FormalElement]):
    """L, the lcm of the elements' coefficient denominators, and each
    element's coefficients times L as (z, integer) pairs."""
    L = math.lcm(*(q.denominator for Q in elements for _, q in Q.coeffs))
    return L, [[(z, q.numerator * (L // q.denominator)) for z, q in Q.coeffs]
               for Q in elements]


@dataclass(frozen=True)
class PanelModels:
    """The panel models of a list of elements, as integers over one denominator.

    With L the lcm of the elements' coefficient denominators, LA the lcm of
    the panel's |A| and n the copies per label, ``values[e, i]`` is
    sum_z Q_e(z) corr(z; A_i, B_i)/mu(A_i) times ``denominator`` D = L*LA*n,
    and a shift's profile entry corr(m; A_i, B_i)/mu(A_i) is its count times
    ``weights[i]`` = L*LA/|A_i| over the same D.  ``values`` is an object
    array of Python ints.
    """

    denominator: int
    weights: tuple[int, ...]
    values: np.ndarray


def _panel_models(occ: LevelOccupancy, elements: Sequence[FormalElement],
                  panel: CorrelationPanel,
                  ms: Sequence[int]) -> tuple[PanelModels, list[list[int]]]:
    """Every element's model on every panel pair, and corr(m; A, B) for every
    shift m in ``ms`` and pair: one query for the elements' exponents and
    the shifts."""
    L, scaled = _integer_coeffs(elements)
    LA = math.lcm(*(len(A) for A, _ in panel.pairs))
    weights = tuple(L * (LA // len(A)) for A, _ in panel.pairs)
    zs = sorted({z for Q in elements for z, _ in Q.coeffs})
    counts = pair_counts(occ, zs + list(ms), panel.pairs)
    # (elements x zs) coefficients times L, and (zs x pairs) counts times LA/|A|
    col = {z: k for k, z in enumerate(zs)}
    coeffs = [[0] * len(zs) for _ in elements]
    for row, qs in zip(coeffs, scaled):
        for z, q in qs:
            row[col[z]] = q
    at_z = [[c * (LA // len(A)) for c, (A, _) in zip(row, panel.pairs)]
            for row in counts[:len(zs)]]
    values = np.array(coeffs, dtype=object) @ np.array(
        at_z, dtype=object).reshape(len(zs), len(panel))
    return (PanelModels(L * LA * occ.n_copies, weights, values),
            counts[len(zs):])


def _max_abs_diff(models: PanelModels, profile: Sequence[int], a: int,
                  b: int) -> list[int]:
    """max over pairs i of |a * values[e, i] - b * profile[i]|, per element e."""
    diff = a * models.values - b * np.array(profile, dtype=object)
    return np.abs(diff).max(axis=1).tolist()


def score_elements(models: PanelModels, counts: Sequence[int],
                   factor: Fraction = Fraction(1)) -> tuple[list[int], list[int]]:
    """Corrected and raw scores of every element against one shift's counts.

    With p_i = counts[i]/mu(A_i), v the element's model and the excision
    factor f = N/Dn, corrected[e]/(D*N) is max_i |p_i/f - v_i| and
    raw[e]/D is max_i |p_i - v_i|, D being ``models.denominator``.  Both
    share their denominator across elements, so ranking on the integer pair
    (corrected, raw) is ranking on the exact discrepancies.
    """
    profile = [c * w for c, w in zip(counts, models.weights)]
    raw = _max_abs_diff(models, profile, 1, 1)
    if factor == 1:
        return raw, raw
    return _max_abs_diff(models, profile, factor.numerator,
                         factor.denominator), raw


def _pair_rows(panel: CorrelationPanel, counts: Sequence[int],
               models: PanelModels, e: int) -> tuple[PairRow, ...]:
    """The report rows of one shift's counts against element ``e``'s model."""
    D = models.denominator
    return tuple(PairRow(name, c, c * w / D, v / D, abs(c * w - v) / D)
                 for name, c, w, v in zip(panel.names, counts, models.weights,
                                          models.values[e].tolist()))


def _check_support(occ: LevelOccupancy, Q: FormalElement) -> None:
    if Q.max_abs_exponent * 4 >= occ.window:
        raise SupportTooWideError(
            f"element support radius {Q.max_abs_exponent} is not small against "
            f"window {occ.window} (need < window/4)")


def weak_discrepancy(occ: LevelOccupancy, m: int, Q: FormalElement,
                     panel: CorrelationPanel) -> DiscrepancyReport:
    """delta = max over panel pairs of |corr(m)/mu(A) - sum_z Q(z) corr(z)/mu(A)|."""
    _check_support(occ, Q)
    models, [counts] = _panel_models(occ, [Q], panel, [m])
    _, [raw] = score_elements(models, counts)
    delta = Fraction(raw, models.denominator)
    return DiscrepancyReport(int(m), Q.word, float(delta), delta,
                             float(boundary_loss(m, occ.window)),
                             _pair_rows(panel, counts, models, 0))


def strong_norm_sq(occ: LevelOccupancy, Q: FormalElement, A) -> Fraction:
    """||Q 1_A||^2 / mu(A) = sum_{z,w} Q(z) Q(w) corr(z - w; A, A) / mu(A), exact.

    For a fresh label set (no copy-start pairs at small differences) this
    collapses to the coefficient energy sum_z Q(z)^2.
    """
    _check_support(occ, Q)
    A = _label_set(A)
    L, [qs] = _integer_coeffs([Q])
    # corr(-d; A, A) = corr(d; A, A), so only the distinct |z - w| are counted
    ds = sorted({abs(z - w) for z, _ in qs for w, _ in qs})
    count = {d: c for d, [c] in zip(ds, pair_counts(occ, ds, [(A, A)]))}
    total = sum(qz * qw * count[abs(z - w)] for z, qz in qs for w, qw in qs)
    return Fraction(total, L * L * len(A) * occ.n_copies)


# ---------------------------------------------------------------------------
# h-adic decomposition of lattice shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HadicDecomposition:
    """m = sum over terms (stage j, coeff a) of a*h_j, plus remainder z."""

    terms: tuple[tuple[int, int], ...]
    z: int

    @property
    def stages(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.terms)


def hadic_decompose(m: int, heights: Sequence[int], a_bound: int,
                    z_bound: int) -> HadicDecomposition | None:
    """Bounded representation m = sum a_i h_{j_i} + z over distinct stages.

    Among all representations with |a_i| <= a_bound and |z| <= z_bound, the
    preferred one has the fewest nonzero terms, then the smallest total
    |a|-weight, then the smallest |z| (small remainders are absorbed into z
    rather than spent on low-stage terms).  Returns None when no bounded
    representation exists.
    """
    hs = [int(h) for h in heights]
    if any(h < 1 for h in hs) or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError("heights must be positive and strictly increasing")
    if a_bound < 0 or z_bound < 0:
        raise ValueError("a_bound >= 0 and z_bound >= 0 required")
    n = len(hs)
    reach = [0] * (n + 1)  # reach[i] = a_bound * (h_0 + ... + h_{i-1}) + z_bound
    for i in range(n):
        reach[i + 1] = reach[i] + a_bound * hs[i]
    best: tuple[tuple[int, int, int], HadicDecomposition] | None = None

    def consider(terms: list[tuple[int, int]], z: int) -> None:
        nonlocal best
        ordered = tuple(terms)  # DFS descends, so stages come out decreasing
        key = (len(terms), sum(abs(a) for _, a in terms), abs(z), ordered, z)
        if best is None or key < best[0]:
            best = (key, HadicDecomposition(ordered, z))

    def dfs(idx: int, rem: int, terms: list[tuple[int, int]]) -> None:
        if abs(rem) > reach[idx + 1] + z_bound:
            return
        if idx < 0:
            if abs(rem) <= z_bound:
                consider(terms, rem)
            return
        h = hs[idx]
        q = (rem + h // 2) // h
        cands = {0}
        for d in (-1, 0, 1):
            # clamp to the coefficient bound so saturated choices stay in play
            cands.add(min(a_bound, max(-a_bound, q + d)))
        for a in sorted(cands, key=abs):
            if a:
                terms.append((idx + 1, a))
                dfs(idx - 1, rem - a * h, terms)
                terms.pop()
            else:
                dfs(idx - 1, rem, terms)

    dfs(n - 1, int(m), [])
    return best[1] if best else None


def predicted_element(dec: HadicDecomposition,
                      params: ConstructionParams) -> FormalElement:
    """The element a decomposition names under the stage -> generator map.

    Stage j contributes generator index j mod k; negative coefficients use
    the direct series (shifting down realigns forward) and positive ones the
    adjoint.  The remainder z contributes a bare shift power.
    """
    series = generator_series(params)
    k = len(series)
    elem = FormalElement.t_power(dec.z) if dec.z else FormalElement.identity()
    for j, a in dec.terms:
        q = j % k
        gen = FormalElement.from_series(series[q], gen_index=q)
        piece = power(adjoint(gen), a) if a > 0 else power(gen, -a)
        elem = convolve(elem, piece)
    return elem


# ---------------------------------------------------------------------------
# Exact override (excision) bookkeeping
# ---------------------------------------------------------------------------

def _stage_record(params: ConstructionParams, stage_j: int) -> dict | None:
    for rec in params.meta.get("stages", ()):
        if rec.get("j") == stage_j:
            return rec
    return None


def _clean_window_count(r: int, width: int, overridden: Sequence[int]) -> int:
    """#windows [i, i+width-1], 1 <= i <= r-width, avoiding overridden indices.

    Between consecutive cut points p < q (0, the overridden t in (0, r), r)
    the clean windows are those inside [p + 1, q - 1].
    """
    cuts = [0, *sorted({t for t in overridden if 0 < t < r}), r]
    return sum(max(0, q - p - width) for p, q in zip(cuts, cuts[1:]))


def excision_factor(params: ConstructionParams,
                    terms: Iterable[tuple[int, int]]) -> Fraction:
    """Exact fraction of copy pairs whose spacer windows avoid all overrides.

    For a shift with stage coefficients a_j, the copies that can realign are
    the pairs (i, i + |a_j|) at each involved stage; the pair survives when
    the window [i, i + |a_j| - 1] contains no overridden spacer index.  The
    product of the surviving fractions (denominator r_j per stage: the pair
    count relative to all columns) is the deterministic damping the override
    policy applies to the correlation profile.
    """
    factor = Fraction(1)
    for j, a in terms:
        if a == 0:
            continue
        st = params.stages[j - 1]
        rec = _stage_record(params, j)
        overridden = rec.get("sidon_indices", ()) if rec else ()
        factor *= Fraction(_clean_window_count(st.r, abs(a), overridden), st.r)
    return factor


# ---------------------------------------------------------------------------
# The scan: shifts vs the element algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanEntry:
    m: int
    best_word: str
    best_delta: float            # uncorrected delta of the best match
    best_delta_corrected: float  # corrected delta that ranked it first
    tol_effective: float
    passed: bool
    boundary_loss: float
    correction: float            # 1.0 when no override metadata applies
    decomposition: HadicDecomposition | None
    predicted_word: str | None
    predicted_delta: float | None
    predicted_is_best: bool | None
    runner_up_word: str | None
    margin: float | None
    rows: tuple[PairRow, ...]


@dataclass(frozen=True)
class ScanReport:
    base_stage: int
    top_stage: int
    tol: float
    entries: tuple[ScanEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, m: int) -> ScanEntry:
        for e in self.entries:
            if e.m == m:
                return e
        raise KeyError(m)


def scan_limits(occ: LevelOccupancy, heights: Sequence[int],
                semigroup: Sequence[FormalElement], m_set: Sequence[int],
                tol: float, *, panel: CorrelationPanel | None = None,
                params: ConstructionParams | None = None,
                a_bound: int = 3, z_bound: int = 4) -> ScanReport:
    """Match each shift in m_set against every enumerated element.

    Ranking minimizes the corrected panel deviation (profile divided by the
    exact clean-window factor when ``params`` carries override metadata,
    the shift decomposes over stages >= base_stage and the factor is not
    zero), then the raw one; ties break toward smaller words.  ``tol`` is
    checked against the best match's uncorrected delta, loosened by 3x the
    boundary loss of the shift.
    """
    if not semigroup:
        raise ValueError("semigroup must be nonempty")
    if panel is None:
        panel = default_panel(occ)
    for el in semigroup:
        _check_support(occ, el)

    models, profiles = _panel_models(occ, semigroup, panel, m_set)
    D = models.denominator
    words = [el.word for el in semigroup]
    tol_exact = _to_fraction(tol)
    entries = []
    for m, counts in zip(m_set, profiles):
        dec = hadic_decompose(m, heights, a_bound, z_bound)
        factor = Fraction(1)
        if dec is not None and params is not None and dec.terms and \
                min(dec.stages) >= occ.base_stage:
            # a zero factor (no copy pair clear of overrides) corrects nothing
            factor = excision_factor(params, dec.terms) or Fraction(1)
        cor, raw = score_elements(models, counts, factor)
        DN = D * factor.numerator  # the corrected scores' denominator
        order = sorted(range(len(semigroup)),
                       key=lambda e: (cor[e], raw[e], words[e]))
        best = order[0]
        runner = order[1] if len(order) > 1 else None

        predicted = None
        predicted_delta = None
        predicted_is_best = None
        if dec is not None and params is not None and params.meta.get("series"):
            predicted = predicted_element(dec, params)
            hits = [e for e, el in enumerate(semigroup) if el == predicted]
            predicted_delta = raw[hits[0]] / D if hits else None
            predicted_is_best = semigroup[best] == predicted

        bloss = boundary_loss(m, occ.window)
        tol_eff = tol_exact + 3 * bloss
        entries.append(ScanEntry(
            m=int(m), best_word=words[best], best_delta=raw[best] / D,
            best_delta_corrected=cor[best] / DN, tol_effective=float(tol_eff),
            passed=Fraction(raw[best], D) < tol_eff, boundary_loss=float(bloss),
            correction=float(factor), decomposition=dec,
            predicted_word=None if predicted is None else predicted.word,
            predicted_delta=predicted_delta,
            predicted_is_best=predicted_is_best,
            runner_up_word=None if runner is None else words[runner],
            margin=None if runner is None else (cor[runner] - cor[best]) / DN,
            rows=_pair_rows(panel, counts, models, best)))
    return ScanReport(occ.base_stage, occ.top_stage, float(tol), tuple(entries))


def sample_gap_shifts(heights: Sequence[int], n: int, rng_seed, *,
                      lo: int | None = None, hi: int | None = None,
                      a_bound: int = 3, z_bound: int = 128,
                      extra_lattice: Sequence[int] = ()) -> list[int]:
    """n shifts with no bounded h-adic representation (rejection sampling).

    Candidates are uniform over [lo, hi] (defaults: second-largest height up
    to a quarter window) and rejected while they decompose over the height
    lattice extended by ``extra_lattice`` (e.g. an override cap, whose
    echoes would otherwise show up as structured correlations).  A range too
    poor in gap shifts to yield n of them in 1000*n draws is a ValueError.
    """
    if n < 0:
        raise ValueError(f"gap shift count must be >= 0, got {n}")
    hs = sorted(int(h) for h in heights)
    lattice = sorted(set(hs) | {int(v) for v in extra_lattice})
    if lo is None:
        lo = hs[-2] if len(hs) > 1 else 1
    if hi is None:
        hi = hs[-1] // 4
    if not lo < hi:
        raise ValueError(f"empty sampling range [{lo}, {hi}]")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_seed)))
    out: list[int] = []
    attempts = 0
    span = hi - lo + 1
    while len(out) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise ValueError(f"no {n} gap shifts found in [{lo}, {hi}]: "
                             f"rejection sampling is not converging")
        # draw via two 32-bit words so the value is seed-stable for any span
        m = lo + (int(rng.integers(0, 1 << 32)) * span >> 32)
        if hadic_decompose(m, lattice, a_bound, z_bound) is None:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def timestamp_header(enabled: bool = True) -> str:
    """The ``# generated <UTC time>`` header line of output files, or ""."""
    if not enabled:
        return ""
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    return f"# generated {stamp}\n"


def write_scan_csv(report: ScanReport, path=None,
                   include_timestamp: bool = True) -> str:
    """Render a scan report as CSV; optionally write it to ``path``."""
    buf = io.StringIO()
    buf.write(timestamp_header(include_timestamp))
    buf.write(f"# base_stage={report.base_stage} top_stage={report.top_stage} "
              f"tol={report.tol:.6g}\n")
    buf.write("m,id,count,normalized,delta,boundary_loss,best_match_word\n")
    for e in report.entries:
        for row in e.rows:
            buf.write(f"{e.m},{row.name},{row.count},{row.normalized:.6g},"
                      f"{row.delta:.6g},{e.boundary_loss:.6g},{e.best_word}\n")
        buf.write(f"{e.m},OVERALL,,,{e.best_delta:.6g},{e.boundary_loss:.6g},"
                  f"{e.best_word}\n")
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
