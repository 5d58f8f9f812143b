"""Cutting-and-stacking parameter sets and their generators.

A construction is determined by the base tower height ``h1`` and, for each
stage j, the number of columns ``r_j`` and the spacer counts
``s_j(1..r_j)`` placed on top of the columns before restacking.  Heights
follow the recurrence ``h_{j+1} = h_j * r_j + sum(s_j)`` exactly; all
integers are arbitrary precision.

Besides the hand-written example families, the module provides randomized
constructions whose spacers are i.i.d. draws from the coefficient
distribution of an admissible series, with two kinds of deterministic
overrides:

* indices that are multiples of the stage number are rewritten with a
  rapidly growing ("Sidon-scale") chain, so that sums of spacers involving
  an overridden column leave the small-lag range entirely;
* when the series has total mass c < 1, the trailing (1-c) fraction of
  indices is rewritten the same way, continuing one ascending chain.

The column count at each stage is grown adaptively until the sampled
spacers pass an exact window-sum frequency check against the powers of the
series, which is what makes the shifted-tower correlations track the
series coefficients at later stages.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .series import (
    AdmissibleSeries,
    _dec,
    _dec_int,
    _product,
    _to_fraction,
    make_admissible,
)

__all__ = [
    "ColumnGrowthPolicy",
    "ConstructionParams",
    "FrequencyReport",
    "GenerationError",
    "LevelOccupancy",
    "SidonPolicy",
    "SidonResult",
    "StageParams",
    "apply_sidon",
    "expand_occupancy",
    "gen_example",
    "gen_p_construction",
    "heights",
    "params_from_json",
    "params_to_json",
    "recheck_gates",
    "sample_spacers",
    "truncate_admissible",
    "validate_params",
    "verify_frequencies",
]

# Positions are kept in numpy int64 while every coordinate stays below this;
# beyond it the code switches to exact Python integers.
_INT64_SAFE_WINDOW = 1 << 62
_INT64_MAX = (1 << 63) - 1
# Elements of the (clusters x offsets) arrays one wide-level search step
# holds, and the candidate differences one narrow-level block holds (a
# block of whole clusters may run over by one cluster's candidates).
_WINDOW_BLOCK = 1 << 12
_LAG_BLOCK = 1 << 14
# A recursion level whose 2 * reach reaches this searches wrapped int64
# keys (offset >> s) mod _KEY_MOD instead of the offsets themselves.
_KEY_MOD = 1 << 61
_JSON_INT_LIMIT = 1 << 53


@dataclass(frozen=True)
class StageParams:
    """One cutting stage: r columns, one spacer count per column.

    The spacers are kept as Python ints; numpy integers convert, and a
    float raises TypeError instead of being truncated.
    """

    r: int
    spacers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "spacers", tuple(map(operator.index, self.spacers)))


@dataclass(frozen=True)
class ConstructionParams:
    """Full parameter set (h1 plus one StageParams per stage).

    ``meta`` carries provenance (generator, seed, policies, per-stage
    records); it is excluded from equality.
    """

    h1: int
    stages: tuple[StageParams, ...]
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @cached_property
    def _heights(self) -> tuple[int, ...]:
        violations = validate_params(self)
        if violations:
            raise ValueError("invalid parameters: " + "; ".join(violations))
        hs = [self.h1]
        for st in self.stages:
            hs.append(hs[-1] * st.r + sum(st.spacers))
        return tuple(hs)


def validate_params(params: ConstructionParams) -> list[str]:
    """Every invariant violation, with stage index; empty list iff valid."""
    violations = []
    if not isinstance(params.h1, int) or params.h1 < 1:
        violations.append(f"h1 = {params.h1!r}: must be a positive integer")
    for idx, st in enumerate(params.stages, start=1):
        if st.r < 2:
            violations.append(f"stage {idx}: r = {st.r}, but r >= 2 is required")
        if len(st.spacers) != st.r:
            violations.append(
                f"stage {idx}: {len(st.spacers)} spacer entries for r = {st.r}")
        if st.spacers and min(st.spacers) < 0:
            violations.extend(f"stage {idx}: spacer s({i}) = {s} is negative"
                              for i, s in enumerate(st.spacers, start=1) if s < 0)
    return violations


def heights(params: ConstructionParams) -> list[int]:
    """[h_1, ..., h_J] by the exact recurrence h_{j+1} = h_j*r_j + sum(s_j).

    Parameters are immutable, so each instance validates and sums once.
    """
    return list(params._heights)


# ---------------------------------------------------------------------------
# Occupancy: where the base-stage levels sit inside a taller tower
# ---------------------------------------------------------------------------

def _runs(first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated index runs [first[i], first[i] + lens[i]) over i."""
    return np.repeat(first - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())


def _groups(values: np.ndarray):
    """(order, bounds): ``values[order]`` is sorted, and its runs of equal
    values are [bounds[g], bounds[g + 1]); ``values`` is not empty."""
    order = np.argsort(values)
    values = values[order]
    return order, np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1], [True])))


def _sum_hits(row: np.ndarray, col: np.ndarray, count: np.ndarray, width: int):
    """The hits (row, col, count) with the counts of a repeated (row, col) summed."""
    if row.size == 0:
        return _NO_HITS
    order, bounds = _groups(row * width + col)
    pick = order[bounds[:-1]]
    return row[pick], col[pick], np.add.reduceat(count[order], bounds[:-1])


_NO_HITS = (np.zeros(0, dtype=np.int64),) * 3


def _lag_pieces(bands: tuple, span_lo: np.ndarray, span_hi: np.ndarray):
    """(cluster, lag) of every lag whose band meets the cluster's span.

    The difference offs[i + k] - offs[i] at lag k >= 0 lies in the band
    [lo[k], hi[k]] and at lag -k in [-hi[k], -lo[k]].  Both lo and hi
    increase with k, so the lags k >= 0 whose band meets [a, b] run from
    the first with hi[k] >= a to the last with lo[k] <= b, and the lags
    -k <= -1 are those k >= 1 whose band meets [-b, -a]; lag 0 is counted
    once.  The pieces come sorted by cluster, then by lag.
    """
    lo, hi = bands
    pos = np.searchsorted(hi, span_lo)
    neg = np.maximum(np.searchsorted(hi, -span_hi), 1)
    n_pos = np.maximum(np.searchsorted(lo, span_hi, side="right") - pos, 0)
    n_neg = np.maximum(np.searchsorted(lo, -span_lo, side="right") - neg, 0)
    # cluster c's lags are two runs: from -(neg + n_neg - 1) up to -neg,
    # then from pos up to pos + n_pos - 1
    first = np.stack((1 - neg - n_neg, pos), axis=1).ravel()
    lag = _runs(first, np.stack((n_neg, n_pos), axis=1).ravel())
    return np.repeat(np.arange(span_lo.size), n_neg + n_pos), lag


def _lag_pairs(offs: np.ndarray, bands: tuple, span_lo: np.ndarray, span_hi: np.ndarray):
    """Per block of whole clusters, the distinct differences offs[i'] - offs[i]
    that lie in some cluster's [span_lo, span_hi], sorted, and the number of
    offset pairs at each.

    Each (cluster, lag k) piece of :func:`_lag_pieces` compares the r - |k|
    differences at lag k with the cluster's span directly, so a cluster
    that meets no band costs nothing.  A block holds the pieces of whole
    clusters, about _LAG_BLOCK differences, and the clusters' spans are
    disjoint, so each difference is yielded once.  At a narrow level every
    offset and bound lies within +-2**61, so the search runs in int64 on
    any occupancy.
    """
    offs, span_lo, span_hi = (np.asarray(a, dtype=np.int64) for a in (offs, span_lo, span_hi))
    cluster, lag = _lag_pieces(bands, span_lo, span_hi)
    if cluster.size == 0:
        return
    size = offs.size - np.abs(lag)
    # a cluster's block is the block in which its first piece starts
    start = np.cumsum(size) - size
    block = start[np.searchsorted(cluster, cluster)] // _LAG_BLOCK
    bounds = np.flatnonzero(np.concatenate(([True], block[1:] != block[:-1], [True])))
    for p, q in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        k, n = lag[p:q], size[p:q]
        i = _runs(np.maximum(-k, 0), n)
        diff = offs[i + np.repeat(k, n)] - offs[i]
        c = np.repeat(cluster[p:q], n)
        yield np.unique(diff[(diff >= span_lo[c]) & (diff <= span_hi[c])], return_counts=True)


def _wrapped_pairs(offs: np.ndarray, span_lo: np.ndarray, span_hi: np.ndarray):
    """What :func:`_lag_pairs` yields at a narrow level, found through int64
    keys at a wide one.

    The key of offset O is (O >> s) mod 2**61, with s chosen so that the
    widest cluster covers at most about 2**40 keys.  A difference in
    [a, b] moves the key by (a >> s) to (b >> s) + 1, mod 2**61, so each
    (cluster, i) searches one run of the sorted keys laid out three times,
    at +0, +2**61 and +2**62, where no run wraps and nothing reaches 2**63.
    The run holds every true pair and a few aliases; each candidate's exact
    difference is kept only inside its own cluster's range (an alias could
    land in another cluster's rows), and the kept ones are tallied by
    hashing.
    """
    lo_bounds, hi_bounds = span_lo.tolist(), span_hi.tolist()
    s = max(0, max(map(operator.sub, hi_bounds, lo_bounds)).bit_length() - 40)
    # & (_KEY_MOD - 1) is mod _KEY_MOD, and much cheaper than % on long ints
    keys = ((offs >> s) & (_KEY_MOD - 1)).astype(np.int64)
    order = np.argsort(keys)
    ring = np.concatenate([keys[order] + t * _KEY_MOD for t in range(3)])
    key_lo = np.array([(a >> s) & (_KEY_MOD - 1) for a in lo_bounds], dtype=np.int64)
    key_len = np.array([(b >> s) - (a >> s) + 1 for a, b in zip(lo_bounds, hi_bounds)],
                       dtype=np.int64)
    n = offs.size
    step = max(1, _WINDOW_BLOCK // n)
    for first in range(0, span_lo.size, step):
        needle = (keys[None, :] + key_lo[first:first + step, None]).ravel()
        lo = np.searchsorted(ring, needle)
        hi = np.searchsorted(ring, needle + np.repeat(key_len[first:first + step], n),
                             side="right")
        pair = np.repeat(np.arange(lo.size), hi - lo)
        cluster = first + pair // n
        diff = offs[order[_runs(lo, hi - lo) % n]] - offs[pair % n]
        diff = diff[(diff >= span_lo[cluster]) & (diff <= span_hi[cluster])]
        tally = Counter(diff.tolist())
        delta = sorted(tally)
        yield (np.array(delta, dtype=offs.dtype),
               np.fromiter(map(tally.__getitem__, delta), dtype=np.int64, count=len(delta)))


@dataclass(frozen=True, eq=False)
class LevelOccupancy:
    """Sparse labeling of the stage-J tower by stage-j0 levels.

    Every copy of the stage-j0 tower occupies ``base_height`` consecutive
    positions starting at a copy start; label b therefore sits at
    ``copy_starts + b``.  Positions not covered by any copy are spacers.

    The copy starts are the mixed-radix sumset ``sum_j O_j[i_j]`` of the
    per-stage offsets in ``stage_offsets`` (base stage first), so they are
    stored as those offsets alone: O(sum r_j) numbers for prod r_j copies.
    ``copy_starts`` materializes the sumset, strictly increasing with gaps
    >= base_height, only when something reads it.  Offsets are stored as
    int64 while the window is below 2**62 and as Python ints (object arrays)
    beyond.  Instances compare by identity.
    """

    base_stage: int
    top_stage: int
    base_height: int
    window: int
    stage_offsets: tuple  # tuple[np.ndarray, ...], one per composed stage

    def __post_init__(self):
        object.__setattr__(self, "stage_offsets", tuple(
            np.asarray(offs, dtype=self._dtype) for offs in self.stage_offsets))

    @property
    def uses_int64(self) -> bool:
        return self.window < _INT64_SAFE_WINDOW

    @property
    def n_copies(self) -> int:
        return math.prod(offs.size for offs in self.stage_offsets)

    @cached_property
    def copy_starts(self):
        """Every copy start, increasing: an int64 array, or a tuple of ints past 2**62."""
        starts = np.zeros(1, dtype=self._dtype)
        for offs in self.stage_offsets:
            # offset-major order keeps the result sorted: gaps between
            # consecutive offsets are >= h_j while lower starts stay below h_j
            starts = (offs[:, None] + starts[None, :]).ravel()
        return starts if self.uses_int64 else tuple(starts.tolist())

    def positions(self, label: int):
        """Strictly increasing positions of base label ``label``."""
        if not 0 <= label < self.base_height:
            raise ValueError(f"label {label} outside [0, {self.base_height})")
        if self.uses_int64:
            return self.copy_starts + label
        return tuple(s + label for s in self.copy_starts)

    def measure(self, labels: Sequence[int]) -> int:
        """Total number of positions carrying any label in ``labels``."""
        return len(set(labels)) * self.n_copies

    # -- structural pair counts -------------------------------------------
    #
    # The number of copy-start pairs (s, s') with s' - s = k determines every
    # level correlation: positions of label b are copy_starts + b, so
    # |positions(b) ∩ (positions(a) + d)| = pair_shift_count(b - a - d) ... the
    # callers in weaktop assemble those.
    #
    # Let S_L be the starts of the lowest L composed stages (S_0 = {0}); they
    # lie in [0, reach_L].  A start of S_L is O_L[i] + t with t in S_{L-1},
    # uniquely, because consecutive offsets differ by more than reach_{L-1}.
    # Hence count_L(k) = sum over offset pairs (i, i') with
    # |k - (O_L[i'] - O_L[i])| <= reach_{L-1} of count_{L-1}(k - O_L[i'] + O_L[i]),
    # with count_0(k) = [k == 0].  A query evaluates this for many rows of
    # differences at once, all of one width (a scan asks one query for the
    # panel windows of all its shifts): level L takes rows starting at
    # c_1 < c_2 < ..., merges rows whose ranges of reaching differences
    # overlap or touch into clusters, searches the offset pairs once per
    # cluster (through wrapped int64 keys on a level whose 2 * reach reaches
    # 2**61, a wide level), keeps each distinct difference once with the
    # number of pairs at it, sends it to the rows it reaches, merges the
    # residual starts c - (O_L[i'] - O_L[i]) across all rows and recurses
    # once on those.  A narrow level searches lag by lag: with the r_L - 1
    # positive gaps of O_L, every O_L[i + k] - O_L[i] is a sum of k
    # consecutive gaps, so it lies between the sum of the k smallest and the
    # sum of the k largest gaps, and its negation between their negations
    # (k = 0 gives the band [0, 0]).  Each cluster compares the differences
    # of only the lags whose band meets its range; a gap shift leaves most
    # base-level clusters between bands, where they cost nothing.  Wide
    # levels search keys instead: their override chains make the bands
    # cover the range.
    # Every level returns only its nonzero counts, as (row, column, count)
    # hits: level 0 has at most one per row (column -c, if in [0, width)),
    # and level L joins each residual's hits to the (row, multiplicity) pairs
    # that sent it.  Hits that meet at one (row, column) are summed before a
    # level between 1 and the top passes them up, and by the query's scatter
    # at the top.  A query is one recursion: no level holds a (rows x width)
    # array, and the query fills the only one with one scatter.  Counts are
    # int64 on every occupancy, since none exceeds n_copies; offsets and
    # residual starts keep the occupancy's dtype.  Nothing is kept between
    # queries: the counts are the return value.

    def pair_shift_count(self, k: int) -> int:
        """Number of copy-start pairs (s, s') with s' - s = k, exact."""
        return self.pair_shift_window(k, k)[0]

    # perfbench/spans.py wraps _count_pairs and warm_shift_window by name
    _count_pairs = pair_shift_count

    def pair_shift_window(self, lo: int, hi: int) -> list[int]:
        """pair_shift_count(k) for every k in [lo, hi], as Python ints."""
        return self.pair_shift_windows([lo], int(hi) - int(lo) + 1)[0].tolist()

    def pair_shift_windows(self, los: Sequence[int], width: int) -> np.ndarray:
        """Row i is pair_shift_count(k) for every k in [los[i], los[i] + width).

        Returns a (len(los) x width) int64 array.  ``los`` may be in any
        order, repeat, or lie past the top reach (rows there read as zeros).
        No two starts differ by more than the top reach, so each row is
        counted as a row of width w = min(width, 2 * reach + 1) moved inside
        [-reach, reach].  The distinct moved rows go to the top level
        together, in one recursion, its sparse hits are scattered once into
        the (rows x w) counts, and one gather lays those into the result.
        Below the top, the recursion holds residual (row, start,
        multiplicity) triples, a few per row and offset, and their hits, not
        rows of counts, so what a query holds grows with its rows.  Counts
        are int64, so an occupancy of 2**63 or more copies raises
        OverflowError instead of counting.
        """
        los, width = [int(lo) for lo in los], int(width)
        if width < 1:
            return np.zeros((len(los), 0), dtype=np.int64)
        if self.n_copies >= 1 << 63:
            raise OverflowError(f"{self.n_copies} copies: pair counts overflow int64")
        reach = self._reach[-1]
        w = min(width, 2 * reach + 1)
        moved = {lo: min(max(lo, -reach), reach - w + 1)
                 for lo in los if -reach - width < lo <= reach}
        starts = sorted(set(moved.values()))
        # the last row stays zero: rows that miss [-reach, reach] read it
        counted = np.zeros((len(starts) + 1, w), dtype=np.int64)
        if starts:
            row, col, count = self._window_hits(
                len(self.stage_offsets), np.array(starts, dtype=self._dtype), w)
            np.add.at(counted, (row, col), count)
        index = {c: i for i, c in enumerate(starts)}
        # row lo reads counted[moved[lo], lo - moved[lo] + t]; that offset
        # lies in (-width, w), and entries outside [0, w) read 0
        src = np.array([index[moved[lo]] if lo in moved else len(starts)
                        for lo in los], dtype=np.intp)
        col = np.array([lo - moved.get(lo, lo) for lo in los],
                       dtype=np.intp)[:, None] + np.arange(width)
        out = counted[src[:, None], np.clip(col, 0, w - 1)]
        out[(col < 0) | (col >= w)] = 0
        return out

    @cached_property
    def _dtype(self):
        return np.int64 if self.uses_int64 else object

    @cached_property
    def _reach(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(
            (int(offs[-1]) for offs in self.stage_offsets), initial=0))

    @cached_property
    def _lag_bands(self) -> tuple:
        """Per narrow level, int64 (lo, hi) with lo[k] and hi[k] the sums of
        the k smallest and the k largest offset gaps (k = 0 .. r - 1); None
        at a wide level."""
        bands = []
        for offs, reach in zip(self.stage_offsets, self._reach[1:]):
            if 2 * reach >= _KEY_MOD:
                bands.append(None)
                continue
            gaps = np.sort(np.diff(offs.astype(np.int64)))
            zero = np.zeros(1, dtype=np.int64)
            bands.append((np.concatenate((zero, np.cumsum(gaps))),
                          np.concatenate((zero, np.cumsum(gaps[::-1])))))
        return tuple(bands)

    def _window_hits(self, level: int, starts: np.ndarray, width: int):
        """The nonzero count_level(starts[row] + col), col in [0, width), exact.

        Returns int64 arrays (row, col, count) of positive counts; the
        counts of a (row, col) that repeats add up.  ``starts`` is sorted and
        unique, and each row meets [-reach_level, reach_level].  Row c needs
        the offset differences in [row_lo[c], row_hi[c]]; both bounds are
        nondecreasing in c, so rows whose ranges overlap or touch merge into
        clusters with disjoint union ranges.  Each cluster is searched once,
        and each difference it finds goes to the one contiguous run of rows
        whose range holds it.
        """
        if level == 0:
            col = -starts
            row = np.flatnonzero((col >= 0) & (col < width))
            return row, col[row].astype(np.int64), np.ones(row.size, dtype=np.int64)
        offs = self.stage_offsets[level - 1]
        reach, below = self._reach[level], self._reach[level - 1]
        # clip each row to [-reach, reach], where the counts live; the top
        # row's width is at most 2 * reach + 1, so every int64 value below
        # stays within [-2 * reach, 2 * reach] and cannot wrap.  A difference
        # in [row_lo, row_hi] leaves a residual row that meets [-below, below]
        row_lo = np.maximum(starts, -reach) - below
        row_hi = np.minimum(starts, reach - width + 1) + (width - 1) + below
        split = np.flatnonzero(row_lo[1:] > row_hi[:-1] + 1) + 1
        span_lo = row_lo[np.concatenate(([0], split))]
        span_hi = row_hi[np.concatenate((split - 1, [starts.size - 1]))]
        bands = self._lag_bands[level - 1]
        if bands is None:
            found = _wrapped_pairs(offs, span_lo, span_hi)
        else:
            found = _lag_pairs(offs, bands, span_lo, span_hi)
        row_idx, residual, mult = [], [], []
        # clusters' union ranges are disjoint, so each distinct delta belongs
        # to one cluster and leaves one residual in each of its rows
        for delta, count in found:
            # the rows holding delta are those from the first with
            # row_hi >= delta up to the last with row_lo <= delta
            row_first = np.searchsorted(row_hi, delta)
            n_rows = np.searchsorted(row_lo, delta, side="right") - row_first
            row = _runs(row_first, n_rows)
            row_idx.append(row)
            residual.append(starts[row] - np.repeat(delta, n_rows))
            mult.append(np.repeat(count, n_rows))
        residual = np.concatenate(residual) if residual else _NO_HITS[0]
        if residual.size == 0:
            return _NO_HITS
        # group the (row, residual, multiplicity) triples by residual start
        order, bounds = _groups(residual)
        sub_row, col, sub_count = self._window_hits(
            level - 1, residual[order[bounds[:-1]]], width)
        # each hit of a residual goes to every (row, multiplicity) that sent it
        n = (bounds[1:] - bounds[:-1])[sub_row]
        pair = order[_runs(bounds[sub_row], n)]
        hit = np.repeat(np.arange(sub_row.size), n)
        hits = (np.concatenate(row_idx)[pair], col[hit],
                np.concatenate(mult)[pair] * sub_count[hit])
        # a residual r hits level 0 at column -r only, so level 1 repeats no
        # (row, col); the top's repeats are summed by the query's scatter
        return _sum_hits(*hits, width) if 1 < level < len(self.stage_offsets) else hits

    def warm_shift_window(self, center: int, radius: int) -> None:
        """Count every k in [center-radius, center+radius] and discard the counts."""
        self.pair_shift_window(int(center) - radius, int(center) + radius)


def expand_occupancy(params: ConstructionParams, base_stage: int,
                     top_stage: int) -> LevelOccupancy:
    """Per-stage copy offsets from base_stage up to top_stage.

    Within one stage j -> j+1, copy i of the stage-j tower starts at O_i with
    O_1 = 0 and O_{i+1} = O_i + h_j + s_j(i); composing those offset maps
    across stages gives every copy start of the base tower inside the top
    tower.  The result has exactly prod(r_j, j = base..top-1) copies, but
    holds only the sum(r_j) offsets until ``copy_starts`` is read.
    """
    n = len(params.stages)
    if not (1 <= base_stage <= top_stage <= n + 1):
        raise ValueError(
            f"stage indices out of range: need 1 <= base_stage ({base_stage}) "
            f"<= top_stage ({top_stage}) <= {n + 1}")
    hs = heights(params)
    window = hs[top_stage - 1]
    # the occupancy's dtype: every offset is below the window
    dtype = np.int64 if window < _INT64_SAFE_WINDOW else object
    stage_offsets = []
    for j in range(base_stage, top_stage):
        steps = np.array((0, *params.stages[j - 1].spacers[:-1]), dtype=dtype)
        steps[1:] += hs[j - 1]
        stage_offsets.append(np.cumsum(steps))
    return LevelOccupancy(base_stage, top_stage, hs[base_stage - 1], window,
                          tuple(stage_offsets))


# ---------------------------------------------------------------------------
# Example families
# ---------------------------------------------------------------------------

def gen_example(kind: str, J: int, h1: int | None = None) -> ConstructionParams:
    """Named example constructions.

    * ``mix-identity``: r_j = j+2, s_j(i) = h_j for every column.  Shifting
      by h_j lands every level on a spacer, and shifting by 2*h_j realigns
      all but one column.
    * ``two-column``: r_j = 2, spacers (0, j*h_j).
    * ``all-limits``: r_j = 3, spacers (h_j, h_j + isqrt(j), h_j).
    """
    if J < 2:
        raise ValueError("J >= 2 required")
    if kind == "mix-identity":
        def spacers(j, h):
            return (h,) * (j + 2)
    elif kind == "two-column":
        def spacers(j, h):
            return (0, j * h)
    elif kind == "all-limits":
        def spacers(j, h):
            return (h, h + math.isqrt(j), h)
    else:
        raise ValueError(f"unknown example kind: {kind!r}")
    base = h = (2 if kind == "mix-identity" else 1) if h1 is None else h1
    stages = []
    for j in range(1, J):
        sp = spacers(j, h)
        stages.append(StageParams(len(sp), sp))
        h = h * len(sp) + sum(sp)
    meta = {"generator": "example", "kind": kind, "h1": base}
    return ConstructionParams(base, tuple(stages), meta)


# ---------------------------------------------------------------------------
# Randomized spacers and the frequency gate
# ---------------------------------------------------------------------------

# rng.random() returns exact multiples of 2**-53: u = U / 2**53, U an integer
_UNIFORM_BITS = 53


@lru_cache(maxsize=64)
def _inverse_cdf(P: AdmissibleSeries) -> Callable[[np.ndarray], np.ndarray]:
    """The exact inverse CDF of a mass-1 series, on integer uniforms U.

    With A_k / den the cumulative mass c_0 + ... + c_k, U / 2**53 lies below
    it iff the integer U lies below t_k = ceil(A_k * 2**53 / den), so
    U draws the exponent at #{k : t_k <= U}.  The last threshold is 2**53,
    which no U reaches.  Exponents are int64 while every one stays below
    2**62 and Python ints (object dtype) beyond.  Cached by series value:
    every gate attempt of a stage draws from the same series.
    """
    exponents = [k for k, _ in P.nums]
    support = np.array(exponents, dtype=np.int64 if exponents[-1] < _INT64_SAFE_WINDOW
                       else object)
    thresholds = np.array([-(-(a << _UNIFORM_BITS) // P.den)
                           for a in itertools.accumulate(n for _, n in P.nums)],
                          dtype=np.int64)
    return lambda uniforms: support[np.searchsorted(thresholds, uniforms, side="right")]


def sample_spacers(P: AdmissibleSeries, r: int, rng_seed) -> np.ndarray:
    """r i.i.d. draws from the distribution (c_k); deterministic in the seed.

    ``P`` must have total mass exactly 1.  Sampling is inverse-CDF over the
    exact cumulative distribution: each uniform from a counter-based Philox
    generator is a multiple of 2**-53 and is compared, as an integer, with
    integer thresholds (:func:`_inverse_cdf`), so the draw is reproducible
    across platforms and has no rounding edge.  ``rng_seed`` is an integer
    or a sequence of integers.  Returns an int64 array, or an object array
    of Python ints when an exponent reaches 2**62.
    """
    if sum(n for _, n in P.nums) != P.den:
        raise ValueError(f"sampling needs total mass 1, got {P.declared_mass}")
    if r < 1:
        raise ValueError("r >= 1 required")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_seed)))
    return _inverse_cdf(P)((rng.random(r) * float(1 << _UNIFORM_BITS)).astype(np.int64))


@dataclass(frozen=True)
class FrequencyRow:
    m: int
    k: int
    expected: Fraction
    observed: Fraction

    @property
    def relative_deviation(self) -> Fraction:
        return abs(self.expected - self.observed) / self.expected


def _cell_fails(cell: tuple[int, ...], eps: Fraction) -> bool:
    """|n/d - c/w| >= eps * n/d for the cell (m, k, n, d, c, w), cross-multiplied."""
    _, _, n, d, c, w = cell
    return abs(n * w - c * d) * eps.denominator >= eps.numerator * n * w


@dataclass(frozen=True)
class FrequencyReport:
    """The gate's verdict and one integer cell per (m, k) it checked.

    A cell (m, k, n, d, c, w) says that P^m's coefficient at k is n/d and
    that c of the w windows of length m sum to k.  ``rows`` turns the cells
    into :class:`FrequencyRow` fractions on first read; the verdict never
    needs them.
    """

    passed: bool
    max_m: int
    eps: Fraction
    cells: tuple[tuple[int, int, int, int, int, int], ...]

    @cached_property
    def rows(self) -> tuple[FrequencyRow, ...]:
        return tuple(FrequencyRow(m, k, Fraction(n, d), Fraction(c, w))
                     for m, k, n, d, c, w in self.cells)

    def failures(self) -> list[FrequencyRow]:
        return [row for row, cell in zip(self.rows, self.cells)
                if _cell_fails(cell, self.eps)]

    def summary(self) -> str:
        worst = max(self.rows, key=lambda r: r.relative_deviation)
        return (f"{'pass' if self.passed else 'FAIL'}: "
                f"{len(self.rows)} (m,k) cells, eps={self.eps}, "
                f"worst m={worst.m} k={worst.k} dev={float(worst.relative_deviation):.4f}")


@lru_cache(maxsize=64)
def _power_tables(P: AdmissibleSeries, max_m: int, dtype) -> tuple:
    """P^m for m = 1..max_m as (exponents in a read-only ``dtype`` array,
    (exponent, numerator) pairs, P.den**m).  Cached by series value, as
    :func:`_inverse_cdf` is: every gate attempt of a stage reads the same
    powers."""
    power, tables = [(0, 1)], []
    for m in range(1, max_m + 1):
        power = sorted(_product(power, P.nums).items())  # every numerator > 0
        ks = np.array([k for k, _ in power], dtype=dtype)
        ks.flags.writeable = False
        tables.append((ks, tuple(power), P.den ** m))
    return tuple(tables)


def verify_frequencies(spacers: Sequence[int], P: AdmissibleSeries,
                       max_m: int, eps) -> FrequencyReport:
    """Exact window-sum frequency check against the powers of ``P``.

    For every m = 1..max_m, the sums of the r-m+1 length-m windows of
    ``spacers`` are tallied, and for every k in the support of P^m the
    empirical frequency (denominator r-m+1, windows i = 1..r-m+1 inclusive)
    must satisfy |c_k - freq_k| < eps * c_k, with eps > 0.  P^m's
    coefficients are integer numerators over P.den**m, from tables built
    once per (series, max_m, dtype) (:func:`_power_tables`).  Each spacer is
    first clamped to K + 1, K = max_m * P.max_exponent: spacers are
    nonnegative, so a window holding a clamped spacer sums past every k
    read, before and after the clamp.  The window sums are differences of
    prefix sums held in one array, int64 while r * (K + 1) < 2**62 and
    Python ints beyond; each m's are sorted once and counted at each k by
    two binary searches.  Each cell is tested as it is built, by
    :func:`_cell_fails` in integers, so the verdict has no floating-point
    fuzz at any spacer size.  An int64 array (as :func:`sample_spacers`
    returns) is clamped in int64; any other sequence is read as Python
    ints first.
    """
    if sum(n for _, n in P.nums) != P.den:
        raise ValueError("frequency check is against a mass-1 distribution; "
                         "renormalize first")
    r = len(spacers)
    if max_m < 1 or max_m >= r:
        raise ValueError(f"need 1 <= max_m < len(spacers), got max_m={max_m}, r={r}")
    eps = _to_fraction(eps)
    if eps <= 0:
        raise ValueError(f"tolerance must be positive, got {eps}")
    top = max_m * P.max_exponent + 1
    dtype = np.int64 if r * top < _INT64_SAFE_WINDOW else object
    if isinstance(spacers, np.ndarray) and spacers.dtype == np.int64:
        # no int64 spacer exceeds the int64 maximum, so clamping there is a no-op
        values = np.minimum(spacers, min(top, _INT64_MAX))
    else:
        values = np.minimum(np.array(spacers, dtype=object), top)
    if values.min() < 0:
        raise ValueError(f"spacers must be nonnegative, got {values.min()}")
    # window i of length m sums to prefix[i + m] - prefix[i]
    prefix = np.zeros(r + 1, dtype=dtype)
    np.cumsum(values.astype(dtype, copy=False), out=prefix[1:])
    sums = np.empty(r, dtype=dtype)
    cells, passed = [], True
    for m, (ks, power, d) in enumerate(_power_tables(P, max_m, dtype), 1):
        w = r - m + 1
        window = sums[:w]
        np.subtract(prefix[m:], prefix[:-m], out=window)
        window.sort()
        counts = (window.searchsorted(ks, side="right")
                  - window.searchsorted(ks, side="left")).tolist()
        for (k, n), c in zip(power, counts):
            cell = (m, k, n, d, c, w)
            passed = passed and not _cell_fails(cell, eps)
            cells.append(cell)
    return FrequencyReport(passed, max_m, eps, tuple(cells))


# ---------------------------------------------------------------------------
# Sidon-scale overrides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SidonPolicy:
    """Growth policy for overridden spacer values.

    At stage j the chain starts at j*h_j + 1 and each later value is
    j*previous + 1.  A ``cap`` clamps values for desk-scale builds; clamped
    results are flagged non-conforming.
    """

    cap: int | None = None

    def __post_init__(self):
        if self.cap is not None and self.cap < 0:
            raise ValueError(f"cap must be >= 0, got {self.cap}")


@dataclass(frozen=True)
class SidonResult:
    spacers: tuple[int, ...]
    indices: tuple[int, ...]  # 1-based positions that were overridden
    conforming: bool
    tail_from: int | None = None  # first low-mass tail index, None at mass 1


def apply_sidon(spacers: Sequence[int], stage_j: int, h_j: int,
                policy: SidonPolicy | None = None, mass=1) -> SidonResult:
    """Override entries at 1-based indices j, 2j, 3j, ... with a growth chain.

    When the series mass ``mass`` is below 1, every index from
    floor(mass * r) + 1 on is overridden as well; one ascending chain covers
    the sorted union of both index sets.  The chain values are the minimal
    ones keeping each overridden entry more than j times the previous scale
    (first value past j*h_j, then j*previous + 1), so sums involving an
    overridden column are separated from all small spacer sums.
    """
    if stage_j < 1:
        raise ValueError("stage_j >= 1 required")
    policy = policy or SidonPolicy()
    out = np.asarray(spacers).tolist()
    r = len(out)
    override = set(range(stage_j, r + 1, stage_j))
    tail_from = None
    if mass < 1:
        tail_from = math.floor(mass * r) + 1
        override.update(range(tail_from, r + 1))
    indices = sorted(override)
    conforming = True
    v = stage_j * h_j + 1
    for i in indices:
        if policy.cap is not None and v > policy.cap:
            v = policy.cap
            conforming = False
        out[i - 1] = v
        v = stage_j * v + 1
    return SidonResult(tuple(out), tuple(indices), conforming, tail_from)


# ---------------------------------------------------------------------------
# Randomized construction generator
# ---------------------------------------------------------------------------

# Column growth doubles r_j at most this many times; the gate checks window
# orders up to min(j, _MAX_M).
_MAX_DOUBLINGS = 14
_MAX_M = 4


@dataclass(frozen=True)
class ColumnGrowthPolicy:
    """Where the column count r_j starts before it doubles until the gate passes."""

    start: Callable[[int], int] | None = None  # default max(2j, 16)

    def start_columns(self, stage_j: int) -> int:
        if self.start is None:
            return max(2 * stage_j, 16)
        return int(self.start(stage_j))


class GenerationError(RuntimeError):
    """Column growth exhausted without passing the frequency gate."""

    def __init__(self, stage_j: int, r_final: int, report: FrequencyReport):
        super().__init__(
            f"stage {stage_j}: frequency gate failed up to r={r_final} ({report.summary()})")
        self.stage_j = stage_j
        self.r_final = r_final
        self.report = report


def _default_eps(stage_j: int) -> Fraction:
    return Fraction(1, stage_j + 1)


def gen_p_construction(P_list: Sequence[AdmissibleSeries], J: int, seed: int,
                       eps_schedule: Callable[[int], object] | None = None,
                       r_policy: ColumnGrowthPolicy | None = None,
                       sidon_policy: SidonPolicy | None = None,
                       h1: int = 4) -> ConstructionParams:
    """Generate a randomized construction from one or more admissible series.

    Stage j uses the series of index j mod k.  Spacers are sampled from the
    renormalized distribution; the column count starts at max(2j, 16) and
    doubles (with a fresh draw) until :func:`verify_frequencies` passes at
    tolerance ``eps_schedule(j)`` (default 1/(j+1); a float converts as in
    ``series._to_fraction``, and that fraction is recorded) with window order
    min(j, 4).  Afterwards :func:`apply_sidon` overrides the indices that
    are multiples of j and, if the series mass c is below 1, all indices
    i > floor(c * r_j).  Deterministic given ``seed``: stage j,
    attempt t draws from the seed sequence (seed, j, t).

    The pre-override draws at overridden indices are recorded per stage in
    ``meta`` so the frequency gate can be re-checked from the artifact.
    """
    if J < 2:
        raise ValueError("J >= 2 required")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not P_list:
        raise ValueError("at least one admissible series required")
    eps_schedule = eps_schedule or _default_eps
    r_policy = r_policy or ColumnGrowthPolicy()
    sidon_policy = sidon_policy or SidonPolicy()
    k = len(P_list)

    stages: list[StageParams] = []
    stage_meta: list[dict] = []
    h = h1
    for j in range(1, J):
        q = j % k
        P = P_list[q]
        c = P.declared_mass
        P_norm = P.renormalized()
        eps = _to_fraction(eps_schedule(j))
        max_m = min(j, _MAX_M)
        r = r_policy.start_columns(j)
        report = None
        for attempt in range(_MAX_DOUBLINGS + 1):
            draws = sample_spacers(P_norm, r, [seed, j, attempt])
            report = verify_frequencies(draws, P_norm, max_m, eps)
            if report.passed:
                break
            r *= 2
        else:
            raise GenerationError(j, r // 2, report)

        over = apply_sidon(draws, j, h, sidon_policy, mass=c)
        stages.append(StageParams(r, over.spacers))
        stage_meta.append({
            "j": j, "q": q, "r": r, "attempts": attempt + 1, "eps": str(eps),
            "max_m": max_m, "sidon_indices": list(over.indices),
            "pre_sidon": draws[np.array(over.indices, dtype=np.intp) - 1].tolist(),
            "tail_from": over.tail_from, "conforming": over.conforming,
        })
        h = h * r + sum(over.spacers)

    meta = {
        "generator": "p-construction",
        "seed": seed,
        "h1": h1,
        "k": k,
        "series": [[[kk, v.numerator, v.denominator] for kk, v in P.coeffs]
                   for P in P_list],
        "rng": "numpy-philox4x64 inverse-cdf; stream (seed, stage, attempt)",
        "sidon_policy": {"base_multiplier": "stage", "increment": 1,
                         "cap": sidon_policy.cap},
        "stages": stage_meta,
    }
    return ConstructionParams(h1, tuple(stages), meta)


def generator_series(params: ConstructionParams) -> list[AdmissibleSeries]:
    """Reconstruct the admissible series recorded in a generated params meta."""
    blobs = params.meta.get("series")
    if not blobs:
        raise ValueError("params carry no generator series metadata")
    for term in itertools.chain.from_iterable(blobs):
        if len(term) != 3 or term[2] == 0:
            raise ValueError(f"meta series term {term!r}: must be [k, num, den], den != 0")
    return [make_admissible({kk: Fraction(num, den) for kk, num, den in blob})
            for blob in blobs]


def recheck_gates(params: ConstructionParams) -> list[tuple[int, FrequencyReport]]:
    """Re-run each stage's frequency gate on its recorded pre-override draws.

    Returns one (stage j, report) pair per stage record in ``params.meta``;
    the list is empty for params without stage records (hand-written or
    example builds), which have no gate to re-check.  A record that lacks a
    field, or whose series index or override indices do not fit the params,
    raises ValueError naming the field.
    """
    recs = params.meta.get("stages") if isinstance(params.meta, dict) else None
    if not recs:
        return []
    series = generator_series(params)
    if len(recs) != params.n_stages:
        raise ValueError(f"meta stages holds {len(recs)} records for "
                         f"{params.n_stages} stages")
    out = []
    for n, (rec, st) in enumerate(zip(recs, params.stages), 1):
        where = f"meta stage {n}"
        _dec(rec, dict, where, ("j", "q", "max_m", "eps", "sidon_indices", "pre_sidon"))
        q = _dec_int(rec["q"], f"{where} q")
        if not 0 <= q < len(series):
            raise ValueError(f"{where} q = {q}: must be in 0..{len(series) - 1}")
        indices, pre = rec["sidon_indices"], rec["pre_sidon"]
        if len(indices) != len(pre):
            raise ValueError(f"{where}: {len(indices)} sidon_indices but "
                             f"{len(pre)} pre_sidon entries")
        draws = list(st.spacers)
        if not all(1 <= i <= len(draws) for i in indices):
            raise ValueError(f"{where} sidon_indices: each must be in 1..{len(draws)}")
        if min(pre, default=0) < 0:
            raise ValueError(f"{where} pre_sidon: each must be >= 0")
        try:
            eps = Fraction(rec["eps"])
        except (TypeError, ValueError, ZeroDivisionError):
            eps = 0
        if eps <= 0:
            raise ValueError(f"{where} eps must be a fraction > 0, got {rec['eps']!r}")
        for i, v in zip(indices, pre):
            draws[i - 1] = v
        report = verify_frequencies(draws, series[q].renormalized(),
                                    _dec_int(rec["max_m"], f"{where} max_m"), eps)
        out.append((_dec_int(rec["j"], f"{where} j"), report))
    return out


# ---------------------------------------------------------------------------
# Truncation of infinite admissible series
# ---------------------------------------------------------------------------

def truncate_admissible(pairs: Iterable[tuple[int, object]], declared_mass,
                        tail_tol=Fraction(1, 10**6)) -> AdmissibleSeries:
    """Finite-support approximation of a (possibly infinite) series.

    Consumes (exponent, coefficient) pairs in ascending exponent order until
    the remaining tail mass drops below ``tail_tol``; the leftover mass is
    added to the largest retained coefficient so the declared mass is kept
    exactly.
    """
    declared_mass = Fraction(declared_mass)
    retained: dict[int, Fraction] = {}
    acc = Fraction(0)
    for kk, v in pairs:
        v = Fraction(v)
        retained[int(kk)] = retained.get(int(kk), Fraction(0)) + v
        acc += v
        if declared_mass - acc < tail_tol:
            break
    else:
        if declared_mass - acc >= tail_tol:
            raise ValueError("series exhausted before reaching the declared mass")
    residue = declared_mass - acc
    if residue:
        largest = max(retained, key=lambda kk: (retained[kk], -kk))
        retained[largest] += residue
    return make_admissible(retained)


# ---------------------------------------------------------------------------
# Serialization (decimal strings for integers beyond 2^53)
# ---------------------------------------------------------------------------

def _enc_int(x: int):
    return x if abs(x) <= _JSON_INT_LIMIT else str(x)


def _dec_ints(x, field: str) -> list[int]:
    return [_dec_int(v, field) for v in _dec(x, list, field)]


def _enc_meta(obj):
    if isinstance(obj, dict):
        return {k: _enc_meta(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_enc_meta(v) for v in obj]
    if isinstance(obj, int) and not isinstance(obj, bool):
        return _enc_int(obj)
    return obj


def params_to_json(params: ConstructionParams) -> str:
    doc = {
        "h1": _enc_int(params.h1),
        "stages": [{"r": st.r, "spacers": [_enc_int(s) for s in st.spacers]}
                   for st in params.stages],
        "meta": _enc_meta(params.meta),
    }
    return json.dumps(doc, indent=2)


def _dec_fields(rec, name: str, scalars: Sequence[str] = (),
                lists: Sequence[str] = ()) -> dict:
    out = dict(_dec(rec, dict, name))
    for key in scalars:
        if out.get(key) is not None:
            out[key] = _dec_int(out[key], key)
    for key in lists:
        if key in out:
            out[key] = _dec_ints(out[key], key)
    return out


def _dec_meta(meta) -> dict:
    """Restore the integer fields the generators write; all else is kept as is."""
    out = _dec_fields(meta, "meta", ("seed", "h1", "k"))
    if isinstance(out.get("sidon_policy"), dict):
        out["sidon_policy"] = _dec_fields(out["sidon_policy"], "sidon_policy",
                                          ("cap", "increment"))
    if "series" in out:
        out["series"] = [[_dec_ints(t, "series") for t in _dec(blob, list, "series")]
                         for blob in _dec(out["series"], list, "series")]
    if "stages" in out:
        out["stages"] = [
            _dec_fields(rec, "meta stage", ("j", "q", "r", "attempts", "max_m",
                        "tail_from"), ("sidon_indices", "pre_sidon"))
            for rec in _dec(out["stages"], list, "meta stages")]
    return out


def params_from_json(text: str) -> ConstructionParams:
    """Decode an artifact; a missing or malformed field raises ValueError."""
    doc = _dec(json.loads(text), dict, "params", ("h1", "stages"))
    stages = [_dec(st, dict, f"stage {j}", ("r", "spacers"))
              for j, st in enumerate(_dec(doc["stages"], list, "stages"), 1)]
    return ConstructionParams(
        _dec_int(doc["h1"], "h1"),
        tuple(StageParams(_dec_int(st["r"], f"stage {j} r"),
                          tuple(_dec_ints(st["spacers"], f"stage {j} spacers")))
              for j, st in enumerate(stages, 1)),
        _dec_meta(doc.get("meta", {})))
