"""Property test: structural pair counts against materialized copy starts.

Kept in its own module so that an environment without hypothesis (a ``test``
extra in pyproject.toml) still collects every other construction test.
"""
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankone.construction import (  # noqa: E402
    ConstructionParams,
    LevelOccupancy,
    StageParams,
    expand_occupancy,
)


@st.composite
def occupancies(draw):
    """Small random constructions, expanded over a random stage range."""
    h1 = draw(st.sampled_from([1, 2, 3, 5, 2 ** 62 // 1000, 2 ** 62]))
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.integers(2, 5))
        spacer = st.one_of(st.just(0), st.integers(0, 6), st.integers(0, 10 ** 6))
        stages.append(StageParams(r, tuple(draw(st.lists(spacer, min_size=r, max_size=r)))))
    base = draw(st.integers(1, len(stages) + 1))
    top = draw(st.integers(base, len(stages) + 1))
    return expand_occupancy(ConstructionParams(h1, tuple(stages)), base, top)


def _all_pairs(occ) -> Counter:
    starts = [int(s) for s in occ.copy_starts]
    return Counter(b - a for a in starts for b in starts)


@settings(max_examples=60, deadline=None)
@given(occupancies())
def test_pair_counts_match_materialized_starts(occ):
    """The offset recursion agrees with an all-pairs tally over copy_starts.

    Small windows are checked at every k in [-window, window]; wide ones at
    every difference that occurs, its neighbours (the differences come in
    +-k pairs, so k + 1 for each also covers -k - 1) and the window edges.
    """
    diffs = _all_pairs(occ)
    w = occ.window
    if w <= 600:
        ks = range(-w, w + 1)
    else:
        ks = set(diffs) | {k + 1 for k in diffs} | {-w, 1 - w, w - 1, w}
    for k in ks:
        assert occ.pair_shift_count(k) == diffs.get(k, 0), k


@settings(max_examples=60, deadline=None)
@given(occupancies(), st.data())
def test_window_queries_match_materialized_starts(occ, data):
    """Windows [lo, hi] around occurring differences and the window edges.

    Anchors include 0 and both signs of every difference, and the window
    can reach up to 24 past either side, so windows are negative, straddle
    0, have width 1 or run past +-window.  Queries share one occupancy, so
    later ones also start from a partly filled pair cache.
    """
    diffs = _all_pairs(occ)
    w = occ.window
    anchors = sorted(set(diffs) | {-w, w})
    for _ in range(data.draw(st.integers(1, 6))):
        anchor = data.draw(st.sampled_from(anchors))
        lo = anchor - data.draw(st.integers(0, 24))
        hi = anchor + data.draw(st.integers(0, 24))
        assert occ.pair_shift_window(lo, hi) == [
            diffs.get(k, 0) for k in range(lo, hi + 1)], (lo, hi)
    if w <= 300:
        fresh = LevelOccupancy(occ.base_stage, occ.top_stage, occ.base_height, w,
                               occ.stage_offsets)
        assert fresh.pair_shift_window(-w - 2, w + 2) == [
            diffs.get(k, 0) for k in range(-w - 2, w + 3)]


@pytest.mark.parametrize("params, base, top", [
    # zero composed stages: the only pair is (0, 0)
    (ConstructionParams(3, (StageParams(2, (0, 1)),)), 2, 2),
    # h1 = 2**62: object offsets and Python-int counts
    (ConstructionParams(2 ** 62, (StageParams(2, (0, 5)), StageParams(3, (1, 0, 7)))), 1, 3),
    # int64 offsets in a window of 2**62 - 1, where the search bounds come
    # within 14 of 2**63
    (ConstructionParams(1, (StageParams(2, (0, 5)),
                            StageParams(3, (2 ** 61, 2 ** 61 - 22, 0)))), 1, 3),
])
def test_windows_at_the_dtype_edges(params, base, top):
    """Each window on a fresh occupancy and, in sequence, on one per anchor.

    On the one per anchor, later windows overlap counts already cached at
    either end.
    """
    occ = expand_occupancy(params, base, top)
    diffs = _all_pairs(occ)
    w = occ.window
    for anchor in sorted(set(diffs) | {-w, w}):
        shared = expand_occupancy(params, base, top)
        for lo, hi in ((anchor, anchor), (anchor - 5, anchor + 1),
                       (anchor - 12, anchor + 9), (anchor - 3, anchor + 40)):
            want = [diffs.get(k, 0) for k in range(lo, hi + 1)]
            fresh = expand_occupancy(params, base, top)
            assert fresh.pair_shift_window(lo, hi) == want, (lo, hi)
            assert shared.pair_shift_window(lo, hi) == want, (lo, hi)
