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
nonzero counts, and the query lays them into one int64 array of windows
with one scatter and one gather, so a gap shift, whose window is nearly
all zeros, costs little beyond its offset searches.  Each pair's counts
are summed from that array by one ``np.add.reduceat`` over its columns.

Scoring is integer too.  Profiles corr(m; A, B)/mu(A) and element models
sum_z Q(z) corr(z; A, B)/mu(A) all share the denominator D = L * lcm|A| * n
(L the lcm of the elements' coefficient denominators, n the copies per
label), so a scan holds them as integer numerators over D and scores every
element against a block of shifts with one integer (shifts x elements x
pairs) broadcast, int64 where the products provably fit and Python ints
beyond, exact by construction.  Each block of shifts is ranked with one
``np.lexsort``.  Reports hold every value once, exactly: an ``int`` or a
:class:`~fractions.Fraction` built from those numerators, so a shift's
verdict against its tolerance is one exact comparison.  Floats are made
only where text is printed.

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
import functools
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .construction import (
    _INT64_SAFE_WINDOW,
    ConstructionParams,
    LevelOccupancy,
    generator_series,
)
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

# Entries of the broadcast temporary one scan_limits scoring call holds.
_SCORE_BLOCK = 1 << 16

# Bounds on |a_i| and |z| of a decomposition that rejects a sampled gap shift.
_GAP_A_BOUND = 3
_GAP_Z_BOUND = 128


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


def pair_counts(occ: LevelOccupancy, ms: Sequence[int],
                pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[list[int]]:
    """corr(m; A, B) for every shift m in ``ms`` and every pair (A, B): one query.

    Positions of label b are copy_starts + b, so each (a, b) pair contributes
    the number of copy-start pairs differing by exactly m + a - b.  Shift m's
    row counts the differences [m + lo, m + hi], lo and hi the extremes of
    a - b over all pairs, and pair (A, B) reads its entries a - b - lo: one
    ``np.add.reduceat`` over the pairs' columns, laid out pair by pair.
    Each entry is at most n_copies, so the sums are int64 while
    max |A||B| * n_copies < 2**63 and Python ints beyond.
    """
    bad = [b for A, B in pairs for b in (*A, *B) if not 0 <= b < occ.base_height]
    if bad:
        raise ValueError(f"labels outside [0, {occ.base_height}): {bad}")
    if not all(A and B for A, B in pairs):
        raise ValueError("empty label set")
    diffs = [a - b for A, B in pairs for a in A for b in B]
    lo, hi = min(diffs), max(diffs)
    rows = occ.pair_shift_windows([m + lo for m in ms], hi - lo + 1)
    sizes = [len(A) * len(B) for A, B in pairs]
    dtype = np.int64 if max(sizes) * occ.n_copies < 1 << 63 else object
    firsts = list(itertools.accumulate(sizes[:-1], initial=0))
    cols = rows[:, [d - lo for d in diffs]].astype(dtype)
    return np.add.reduceat(cols, firsts, axis=1).tolist()


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
    normalized: Fraction
    model: Fraction
    delta: Fraction


@dataclass(frozen=True)
class DiscrepancyReport:
    """Max panel deviation between a shift's counts and an element's model.

    The panel evidence is held in integers over ``denominator``, as in
    :class:`ScanEntry`: pair names[i] holds counts[i] copy-start pairs,
    read as weights[i] each, against the model's model[i].
    """

    m: int
    element_word: str
    delta: Fraction
    boundary_loss: Fraction
    names: tuple[str, ...]
    counts: tuple[int, ...]
    weights: tuple[int, ...]
    model: tuple[int, ...]
    denominator: int

    @property
    def delta_exact(self) -> Fraction:
        # perfbench reads this; goes with ROADMAP item 1
        return self.delta

    @property
    def rows(self) -> tuple[PairRow, ...]:
        """The report rows of the shift's counts against the element's model."""
        return _pair_rows(self.names, self.counts, self.weights, self.model,
                          self.denominator)


@dataclass(frozen=True)
class PanelModels:
    """The panel models of a list of elements, as integers over one denominator.

    With L the lcm of the elements' denominators, LA the lcm of
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
    L = math.lcm(*(Q.den for Q in elements))
    LA = math.lcm(*(len(A) for A, _ in panel.pairs))
    weights = tuple(L * (LA // len(A)) for A, _ in panel.pairs)
    zs = sorted({z for Q in elements for z, _ in Q.nums})
    counts = pair_counts(occ, zs + list(ms), panel.pairs)
    # (elements x zs) coefficients times L, and (zs x pairs) counts times LA/|A|
    col = {z: k for k, z in enumerate(zs)}
    coeffs = [[0] * len(zs) for _ in elements]
    for row, Q in zip(coeffs, elements):
        for z, q in Q.nums:
            row[col[z]] = q * (L // Q.den)
    at_z = [[c * (LA // len(A)) for c, (A, _) in zip(row, panel.pairs)]
            for row in counts[:len(zs)]]
    values = np.array(coeffs, dtype=object) @ np.array(
        at_z, dtype=object).reshape(len(zs), len(panel))
    return (PanelModels(L * LA * occ.n_copies, weights, values),
            counts[len(zs):])


def score_elements(models: PanelModels, counts: Sequence[Sequence[int]],
                   factors: Sequence[Fraction]) -> tuple[np.ndarray, np.ndarray]:
    """Corrected and raw scores of every element against a block of shifts.

    ``counts[s]`` is shift s's panel counts and ``factors[s]`` its excision
    factor.  With p_i = counts[s][i]/mu(A_i), v the element's model and
    f = N/Dn, corrected[s, e]/(D*N) is max_i |p_i/f - v_i| and
    raw[s, e]/D is max_i |p_i - v_i|, D being ``models.denominator``.  Both
    share their denominator across elements, so ranking on the integer pair
    (corrected, raw) is ranking on the exact discrepancies.  Every score is
    one max over pairs of |a * v - b * p|, with (a, b) = (1, 1) for the raw
    rows and (N, Dn) for the corrected rows of shifts whose factor is not 1,
    all taken in one broadcast.  The two (shifts x elements) arrays are
    int64 while every |a * v| and |b * p| stays below 2**62, and Python ints
    (object dtype) beyond; pass an entry through ``int()`` before building a
    Fraction from it, as an np.int64 numerator overflows.
    """
    profile = [[c * w for c, w in zip(row, models.weights)] for row in counts]
    fixed = [s for s, f in enumerate(factors) if f != 1]
    rows = list(range(len(profile))) + fixed
    a = [1] * len(profile) + [factors[s].numerator for s in fixed]
    b = [1] * len(profile) + [factors[s].denominator for s in fixed]
    top = max(a + b) * max(1, int(np.abs(models.values).max()),
                           max(map(max, profile)))
    dtype = np.int64 if top < _INT64_SAFE_WINDOW else object
    values = models.values.astype(dtype)
    p = np.array(profile, dtype=dtype)[rows]
    score = np.abs(np.array(a, dtype=dtype)[:, None, None] * values[None]
                   - (np.array(b, dtype=dtype)[:, None] * p)[:, None, :])
    score = score.max(axis=2)
    raw = score[:len(profile)]
    corrected = raw.copy()
    corrected[fixed] = score[len(profile):]
    return corrected, raw


def _pair_rows(names: Sequence[str], counts: Sequence[int], weights: Sequence[int],
               model: Sequence[int], D: int) -> tuple[PairRow, ...]:
    """The report rows of one shift's counts against one element's model:
    pair i's profile entry is counts[i] * weights[i] / D and its model entry
    model[i] / D."""
    return tuple(PairRow(name, c, Fraction(c * w, D), Fraction(v, D),
                         Fraction(abs(c * w - v), D))
                 for name, c, w, v in zip(names, counts, weights, model))


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
    _, [[raw]] = score_elements(models, [counts], [Fraction(1)])
    return DiscrepancyReport(int(m), Q.word, Fraction(int(raw), models.denominator),
                             boundary_loss(m, occ.window), panel.names, tuple(counts),
                             models.weights, tuple(models.values[0].tolist()),
                             models.denominator)


def strong_norm_sq(occ: LevelOccupancy, Q: FormalElement, A) -> Fraction:
    """||Q 1_A||^2 / mu(A) = sum_{z,w} Q(z) Q(w) corr(z - w; A, A) / mu(A), exact.

    For a fresh label set (no copy-start pairs at small differences) this
    collapses to the coefficient energy sum_z Q(z)^2.
    """
    _check_support(occ, Q)
    A = _label_set(A)
    # corr(-d; A, A) = corr(d; A, A), so only the distinct |z - w| are counted
    ds = sorted({abs(z - w) for z, _ in Q.nums for w, _ in Q.nums})
    count = {d: c for d, [c] in zip(ds, pair_counts(occ, ds, [(A, A)]))}
    total = sum(qz * qw * count[abs(z - w)] for z, qz in Q.nums for w, qw in Q.nums)
    return Fraction(total, Q.den * Q.den * len(A) * occ.n_copies)


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


@functools.lru_cache(maxsize=16)
def _hadic_reach(hs: tuple[int, ...], a_bound: int, z_bound: int) -> tuple[int, ...]:
    """reach[i] = a_bound * (h_0 + ... + h_{i-1}) + z_bound, the largest |m|
    that stages below i and the remainder can represent; checks the inputs
    (an input that raises is not cached, so it raises on every call)."""
    if any(h < 1 for h in hs) or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError("heights must be positive and strictly increasing")
    if a_bound < 0 or z_bound < 0:
        raise ValueError("a_bound >= 0 and z_bound >= 0 required")
    return tuple(itertools.accumulate((a_bound * h for h in hs), initial=z_bound))


def hadic_decompose(m: int, heights: Sequence[int], a_bound: int,
                    z_bound: int) -> HadicDecomposition | None:
    """Bounded representation m = sum a_i h_{j_i} + z over distinct stages.

    Among all representations with |a_i| <= a_bound and |z| <= z_bound, the
    preferred one has the fewest nonzero terms, then the smallest total
    |a|-weight, then the smallest |z| (small remainders are absorbed into z
    rather than spent on low-stage terms), then the smallest terms (stages
    decreasing).  Returns None exactly when no bounded representation exists.
    """
    hs = tuple(map(int, heights))
    reach = _hadic_reach(hs, a_bound, z_bound)
    memo: dict[tuple[int, int], tuple | None] = {}

    def best(idx: int, rem: int) -> tuple | None:
        # The least (count, weight, |z|, terms, z) for rem over stages <= idx
        # + 1.  A term in front adds the same to every completion's key.
        if idx < 0:
            return (0, 0, abs(rem), (), rem) if abs(rem) <= z_bound else None
        if (idx, rem) not in memo:
            h, r, found = hs[idx], reach[idx], None
            for a in range(max(-a_bound, -((r - rem) // h)),
                           min(a_bound, (rem + r) // h) + 1):
                sub = best(idx - 1, rem - a * h)
                if sub and a:
                    n, w, az, terms, z = sub
                    sub = (n + 1, w + abs(a), az, ((idx + 1, a),) + terms, z)
                if sub and (found is None or sub < found):
                    found = sub
            memo[idx, rem] = found
        return memo[idx, rem]

    found = best(len(hs) - 1, int(m))
    return None if found is None else HadicDecomposition(found[3], found[4])


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

def _clean_window_count(r: int, width: int, overridden: Sequence[int]) -> int:
    """#windows [i, i+width-1], 1 <= i <= r-width, avoiding overridden indices.

    Between consecutive cut points p < q (0, the overridden t in (0, r), r)
    the clean windows are those inside [p + 1, q - 1].
    """
    t = np.asarray(overridden, dtype=np.int64)
    # a repeated cut leaves a gap of 0, which holds no window
    gaps = np.diff(np.sort(np.concatenate(([0, r], t[(t > 0) & (t < r)])))) - width
    return int(gaps[gaps > 0].sum())


def excision_factor(params: ConstructionParams,
                    terms: Iterable[tuple[int, int]]) -> Fraction:
    """Exact fraction of copy pairs whose spacer windows avoid all overrides.

    For a shift with stage coefficients a_j, the copies that can realign are
    the pairs (i, i + |a_j|) at each involved stage; the pair survives when
    the window [i, i + |a_j| - 1] contains no overridden spacer index.  The
    product of the surviving fractions (denominator r_j per stage: the pair
    count relative to all columns) is the deterministic damping the override
    policy applies to the correlation profile.  Stage j's overrides are its
    record's ``sidon_indices`` (none without records), trusted as in
    :func:`recheck_gates`.
    """
    recs = params.meta.get("stages")
    factor = Fraction(1)
    for j, a in terms:
        if a == 0:
            continue
        st = params.stages[j - 1]
        overridden = () if recs is None else recs[j - 1]["sidon_indices"]
        factor *= Fraction(_clean_window_count(st.r, abs(a), overridden), st.r)
    return factor


# ---------------------------------------------------------------------------
# The scan: shifts vs the element algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanEntry:
    """One shift's best match, verdict and evidence, each value held exactly.

    ``delta`` is the best match's raw panel deviation and ``delta_corrected``
    the excision-corrected one that ranked it first; ``tol`` is the scan's
    tolerance plus 3 * ``boundary_loss``; ``correction`` is the excision
    factor (1 when no override metadata applies) and ``margin`` the
    runner-up's corrected deviation minus the best's.
    """

    m: int
    best_word: str
    delta: Fraction
    delta_corrected: Fraction
    tol: Fraction
    boundary_loss: Fraction
    correction: Fraction
    decomposition: HadicDecomposition | None
    predicted_word: str | None
    predicted_delta: Fraction | None
    predicted_is_best: bool | None
    runner_up_word: str | None
    margin: Fraction | None
    # the best match's panel evidence, in integers over ``denominator``: pair
    # names[i] holds counts[i] copy-start pairs, read as weights[i] each,
    # against the model's model[i]
    names: tuple[str, ...]
    counts: tuple[int, ...]
    weights: tuple[int, ...]
    model: tuple[int, ...]
    denominator: int

    @property
    def passed(self) -> bool:
        return self.delta < self.tol

    @property
    def best_delta(self) -> float:
        # perfbench reads this; goes with ROADMAP item 1
        return float(self.delta)

    @property
    def tol_effective(self) -> float:
        # perfbench reads this; goes with ROADMAP item 1
        return float(self.tol)

    @property
    def rows(self) -> tuple[PairRow, ...]:
        """The report rows of the shift's counts against the best match's model."""
        return _pair_rows(self.names, self.counts, self.weights, self.model,
                          self.denominator)


@dataclass(frozen=True)
class ScanReport:
    base_stage: int
    top_stage: int
    tol: Fraction
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
    boundary loss of the shift.  Shifts decompose over the heights below
    the window only: the window's own height h_top has no stage the
    occupancy composes, so a shift through it gets no prediction and a
    correction of 1.
    """
    if not semigroup:
        raise ValueError("semigroup must be nonempty")
    tol_exact = _to_fraction(tol)
    if tol_exact <= 0:
        raise ValueError(f"tolerance must be positive, got {tol_exact}")
    if panel is None:
        panel = default_panel(occ)
    for el in semigroup:
        _check_support(occ, el)

    models, profiles = _panel_models(occ, semigroup, panel, m_set)
    D = models.denominator
    values = models.values.tolist()
    words = [el.word for el in semigroup]
    lattice = [h for h in heights if h < occ.window]
    one = Fraction(1)
    decs, factors = [], []
    for m in m_set:
        dec = hadic_decompose(m, lattice, a_bound, z_bound)
        factor = one
        if dec is not None and params is not None and dec.terms and \
                min(dec.stages) >= occ.base_stage:
            # a zero factor (no copy pair clear of overrides) corrects nothing
            factor = excision_factor(params, dec.terms) or one
        decs.append(dec)
        factors.append(factor)
    # rank[e] is the place of (word, e) in sorted order: ties on the scores
    # break toward smaller words, then toward earlier elements
    rank = np.empty(len(words), dtype=np.int64)
    rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
    cors, raws, ranked = [], [], []
    # shifts per scoring call: its (2 * shifts x elements x pairs)
    # temporary stays within _SCORE_BLOCK entries
    step = max(1, _SCORE_BLOCK // (2 * len(semigroup) * len(panel)))
    for first in range(0, len(m_set), step):
        c, r = score_elements(models, profiles[first:first + step],
                              factors[first:first + step])
        # each shift's best and runner-up, on (corrected, raw, rank)
        order = np.lexsort((np.broadcast_to(rank, c.shape), r, c))
        ranked += order[:, :2].tolist()
        cors.extend(c)
        raws.extend(r)
    # with tol = tn/td and the window W, an entry's tolerance is
    # tol + 3 * min(|m|, W)/W = (tn * W + 3 * td * min(|m|, W)) / (td * W)
    W = occ.window
    tn, td = tol_exact.numerator, tol_exact.denominator
    predicts = params is not None and bool(params.meta.get("series"))
    first_index: dict[FormalElement, int] = {}  # each element's first place
    if predicts:
        for e, el in enumerate(semigroup):
            first_index.setdefault(el, e)
    entries = []
    for m, counts, dec, factor, cor, raw, (best, *runner) in zip(
            m_set, profiles, decs, factors, cors, raws, ranked):
        DN = D * factor.numerator  # the corrected scores' denominator
        runner = runner[0] if runner else None

        predicted = None
        predicted_delta = None
        predicted_is_best = None
        if dec is not None and predicts:
            predicted = predicted_element(dec, params)
            hit = first_index.get(predicted)
            if hit is not None:
                predicted_delta = Fraction(int(raw[hit]), D)
            predicted_is_best = semigroup[best] == predicted

        edge = min(abs(int(m)), W)
        delta = Fraction(int(raw[best]), D)
        entries.append(ScanEntry(
            m=int(m), best_word=words[best], delta=delta,
            # a factor of 1 leaves the corrected scores the raw ones
            delta_corrected=delta if factor == 1 else Fraction(int(cor[best]), DN),
            tol=Fraction(tn * W + 3 * td * edge, td * W),
            boundary_loss=Fraction(edge, W), correction=factor, decomposition=dec,
            predicted_word=None if predicted is None else predicted.word,
            predicted_delta=predicted_delta,
            predicted_is_best=predicted_is_best,
            runner_up_word=None if runner is None else words[runner],
            margin=None if runner is None else
            Fraction(int(cor[runner]) - int(cor[best]), DN),
            names=panel.names, counts=tuple(counts), weights=models.weights,
            model=tuple(values[best]), denominator=D))
    return ScanReport(occ.base_stage, occ.top_stage, tol_exact, tuple(entries))


def sample_gap_shifts(heights: Sequence[int], n: int, rng_seed, *,
                      lo: int | None = None, hi: int | None = None,
                      extra_lattice: Sequence[int] = ()) -> list[int]:
    """n shifts with no bounded h-adic representation (rejection sampling).

    A candidate is lo + floor(w * span / 2^32) for a uniform 32-bit word w,
    span = hi - lo + 1 (defaults: second-largest height up to a quarter
    window): near-uniform for spans up to 2^32, a grid of step about
    span / 2^32 above (about 1,240 on check 5's range [h5, h6/2]).  It is
    rejected while it decomposes (|a_i| <= 3, |z| <= 128) over the height
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
    drawn = 0
    span = hi - lo + 1
    while len(out) < n:
        if drawn == 1000 * n:
            raise ValueError(f"no {n} gap shifts found in [{lo}, {hi}]: "
                             f"rejection sampling is not converging")
        # a batch of k words is the words of k single draws, so batching
        # leaves the shifts as they are: a seed gives the same shifts anywhere
        batch = min(n - len(out), 1000 * n - drawn)
        drawn += batch
        for w in rng.integers(0, 1 << 32, size=batch).tolist():
            m = lo + (w * span >> 32)
            if hadic_decompose(m, lattice, _GAP_A_BOUND, _GAP_Z_BOUND) is None:
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


def write_scan_csv(report: ScanReport, include_timestamp: bool = True) -> str:
    """Render a scan report as CSV text."""
    buf = io.StringIO()
    buf.write(timestamp_header(include_timestamp))
    buf.write(f"# base_stage={report.base_stage} top_stage={report.top_stage} "
              f"tol={float(report.tol):.6g}\n")
    buf.write("m,id,count,normalized,delta,boundary_loss,best_match_word\n")
    for e in report.entries:
        bloss = f"{float(e.boundary_loss):.6g}"
        for row in e.rows:
            buf.write(f"{e.m},{row.name},{row.count},{float(row.normalized):.6g},"
                      f"{float(row.delta):.6g},{bloss},{e.best_word}\n")
        buf.write(f"{e.m},OVERALL,,,{float(e.delta):.6g},{bloss},{e.best_word}\n")
    return buf.getvalue()
