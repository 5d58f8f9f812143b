"""Correlation counts, weak discrepancies, and shift-to-element scans.

Everything here is exact integer combinatorics on the sparse occupancy
representation.  The correlation of two label sets under a shift reduces to
counting copy-start pairs at prescribed differences.  A shift m probes the
differences m + a - b of its panel pairs, so each shift asks the occupancy
for one window [m + min(a - b), m + max(a - b)] of counts, and a scan one
window for the models of all its elements; the occupancy answers a window
with a single recursion over its per-stage offsets (numpy passes over the
r_j offsets of each stage, never over the prod r_j copy starts, none of
which is materialized) and returns the counts, which every caller indexes
directly.

The scan machinery matches a lattice shift m = sum a_i * h_{j_i} + z against
the element algebra: the h-adic decomposition of m predicts an element (one
generator power per stage, direct for negative shifts, adjoint for
positive), and the measured correlation profile is compared against every
enumerated element.  Constructions with override metadata also expose the
exact fraction of stage windows untouched by overrides; dividing the profile
by that factor removes the (known, deterministic) damping the overrides
cause before ranking candidates.  Tolerances are always checked against the
uncorrected discrepancy.
"""

from __future__ import annotations

import datetime as _dt
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .construction import ConstructionParams, LevelOccupancy, generator_series
from .series import FormalElement, adjoint, convolve, power

__all__ = [
    "CorrCount",
    "CorrelationPanel",
    "DiscrepancyReport",
    "HadicDecomposition",
    "ScanEntry",
    "ScanReport",
    "SupportTooWideError",
    "boundary_loss",
    "corr",
    "default_panel",
    "excision_factor",
    "hadic_decompose",
    "predicted_element",
    "sample_gap_shifts",
    "scan_limits",
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

    @property
    def normalized(self) -> float:
        return float(self.normalized_exact)


def _window(occ: LevelOccupancy, lo: int,
            hi: int) -> Callable[[int, Sequence[int], Sequence[int]], int]:
    """Count the differences [lo, hi] once; return count(z, A, B) over them.

    count(z, A, B) sums the copy-start pairs at a + z - b over a in A and b
    in B, which must all lie in the window.
    """
    row = occ.pair_shift_window(lo, hi)
    return lambda z, A, B: sum(row[z + a - b - lo] for a in A for b in B)


def corr(occ: LevelOccupancy, m: int, A, B) -> CorrCount:
    """corr(m; A, B) = #{x : x in positions(A), x + m in positions(B)}.

    Positions of label b are copy_starts + b, so each (a, b) pair contributes
    the number of copy-start pairs differing by exactly a + m - b.
    """
    A = _label_set(A)
    B = _label_set(B)
    bad = [b for b in A + B if not 0 <= b < occ.base_height]
    if bad:
        raise ValueError(f"labels outside [0, {occ.base_height}): {bad}")
    m = int(m)
    count = _window(occ, m + A[0] - B[-1], m + A[-1] - B[0])(m, A, B)
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

    @property
    def diff_range(self) -> tuple[int, int]:
        """Smallest and largest a - b over a in A, b in B of every pair.

        A shift m probes copy-start differences m + a - b, so its panel is one
        window [m + lo, m + hi] of pair counts.
        """
        diffs = [a - b for A, B in self.pairs for a in A for b in B]
        return min(diffs), max(diffs)


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


def _panel_profile(occ: LevelOccupancy, m: int,
                   panel: CorrelationPanel) -> tuple[list[int], list[Fraction]]:
    """corr(m; A, B) for every panel pair, raw and over mu(A): one window."""
    lo, hi = panel.diff_range
    count = _window(occ, m + lo, m + hi)
    counts = [count(m, A, B) for A, B in panel.pairs]
    return counts, [Fraction(c, len(A) * occ.n_copies)
                    for c, (A, _) in zip(counts, panel.pairs)]


def _panel_models(occ: LevelOccupancy, elements: Sequence[FormalElement],
                  panel: CorrelationPanel) -> list[list[Fraction]]:
    """sum_z Q(z) corr(z; A, B)/mu(A) per element Q and panel pair: one window."""
    zs = [z for Q in elements for z, _ in Q.coeffs]
    if not zs:  # zero elements only
        return [[Fraction(0)] * len(panel) for _ in elements]
    lo, hi = panel.diff_range
    count = _window(occ, min(zs) + lo, max(zs) + hi)
    return [[sum((q * count(z, A, B) for z, q in Q.coeffs), Fraction(0))
             / (len(A) * occ.n_copies) for A, B in panel.pairs]
            for Q in elements]


def _pair_rows(panel: CorrelationPanel, counts: Sequence[int],
               profile: Sequence[Fraction],
               model: Sequence[Fraction]) -> tuple[PairRow, ...]:
    return tuple(PairRow(name, c, float(p), float(v), float(abs(p - v)))
                 for name, c, p, v in zip(panel.names, counts, profile, model))


def _check_support(occ: LevelOccupancy, Q: FormalElement) -> None:
    if Q.max_abs_exponent * 4 >= occ.window:
        raise SupportTooWideError(
            f"element support radius {Q.max_abs_exponent} is not small against "
            f"window {occ.window} (need < window/4)")


def weak_discrepancy(occ: LevelOccupancy, m: int, Q: FormalElement,
                     panel: CorrelationPanel) -> DiscrepancyReport:
    """delta = max over panel pairs of |corr(m)/mu(A) - sum_z Q(z) corr(z)/mu(A)|."""
    _check_support(occ, Q)
    counts, profile = _panel_profile(occ, m, panel)
    [model] = _panel_models(occ, [Q], panel)
    delta = max(abs(p - v) for p, v in zip(profile, model))
    return DiscrepancyReport(int(m), Q.word, float(delta), delta,
                             float(boundary_loss(m, occ.window)),
                             _pair_rows(panel, counts, profile, model))


def strong_norm_sq(occ: LevelOccupancy, Q: FormalElement, A) -> Fraction:
    """||Q 1_A||^2 / mu(A) = sum_{z,w} Q(z) Q(w) corr(z - w; A, A) / mu(A), exact.

    For a fresh label set (no copy-start pairs at small differences) this
    collapses to the coefficient energy sum_z Q(z)^2.
    """
    _check_support(occ, Q)
    A = _label_set(A)
    if not Q.coeffs:
        return Fraction(0)
    spread = Q.coeffs[-1][0] - Q.coeffs[0][0] + A[-1] - A[0]
    count = _window(occ, -spread, spread)
    return sum((qz * qw * count(z - w, A, A)
                for z, qz in Q.coeffs for w, qw in Q.coeffs),
               Fraction(0)) / (len(A) * occ.n_copies)


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
    """#windows [i, i+width-1], 1 <= i <= r-width, avoiding overridden indices."""
    total = r - width
    if total <= 0:
        return 0
    killed = 0
    prev_end = 0
    for t in sorted(overridden):
        lo = max(1, t - width + 1)
        hi = min(total, t)
        if hi < lo:
            continue
        lo = max(lo, prev_end + 1)
        if hi >= lo:
            killed += hi - lo + 1
            prev_end = hi
    return total - killed


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
    exact clean-window factor when ``params`` carries override metadata and
    the shift decomposes over stages >= base_stage); ties break toward
    smaller words.  ``tol`` is checked against the best match's uncorrected
    delta, loosened by 3x the boundary loss of the shift.
    """
    if not semigroup:
        raise ValueError("semigroup must be nonempty")
    if panel is None:
        panel = default_panel(occ)
    for el in semigroup:
        _check_support(occ, el)

    models = _panel_models(occ, semigroup, panel)
    entries = []
    for m in m_set:
        dec = hadic_decompose(m, heights, a_bound, z_bound)
        factor = Fraction(1)
        if dec is not None and params is not None and dec.terms and \
                min(dec.stages) >= occ.base_stage:
            factor = excision_factor(params, dec.terms)
        counts, profile = _panel_profile(occ, m, panel)
        corrected = [p / factor for p in profile] if factor != 1 else profile

        scored = []
        for el, model in zip(semigroup, models):
            d_raw = max(abs(p - v) for p, v in zip(profile, model))
            d_cor = d_raw if factor == 1 else max(
                abs(p - v) for p, v in zip(corrected, model))
            scored.append((d_cor, d_raw, el, model))
        scored.sort(key=lambda t: (t[0], t[1], t[2].word))
        d_cor, d_raw, best, best_model = scored[0]
        runner = scored[1] if len(scored) > 1 else None

        predicted = None
        predicted_delta = None
        predicted_is_best = None
        if dec is not None and params is not None and params.meta.get("series"):
            predicted = predicted_element(dec, params)
            try:
                idx = [el == predicted for _, _, el, _ in scored].index(True)
            except ValueError:
                idx = -1
            if idx >= 0:
                predicted_delta = float(scored[idx][1])
                predicted_is_best = bool(best == predicted)
            else:
                predicted_is_best = False

        bloss = boundary_loss(m, occ.window)
        tol_eff = Fraction(tol).limit_denominator(10**9) + 3 * bloss
        entries.append(ScanEntry(
            m=int(m), best_word=best.word, best_delta=float(d_raw),
            best_delta_corrected=float(d_cor), tol_effective=float(tol_eff),
            passed=bool(d_raw < tol_eff), boundary_loss=float(bloss),
            correction=float(factor), decomposition=dec,
            predicted_word=None if predicted is None else predicted.word,
            predicted_delta=predicted_delta,
            predicted_is_best=predicted_is_best,
            runner_up_word=None if runner is None else runner[2].word,
            margin=None if runner is None else float(runner[0] - d_cor),
            rows=_pair_rows(panel, counts, profile, best_model)))
    return ScanReport(occ.base_stage, occ.top_stage, float(tol), tuple(entries))


def sample_gap_shifts(heights: Sequence[int], n: int, rng_seed, *,
                      lo: int | None = None, hi: int | None = None,
                      a_bound: int = 3, z_bound: int = 128,
                      extra_lattice: Sequence[int] = ()) -> list[int]:
    """n shifts with no bounded h-adic representation (rejection sampling).

    Candidates are uniform over [lo, hi] (defaults: second-largest height up
    to a quarter window) and rejected while they decompose over the height
    lattice extended by ``extra_lattice`` (e.g. an override cap, whose
    echoes would otherwise show up as structured correlations).
    """
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
            raise RuntimeError("gap-shift rejection sampling is not converging")
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
