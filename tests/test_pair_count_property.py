"""Property test: structural pair counts against materialized copy starts.

Kept in its own module so that an environment without hypothesis (a ``test``
extra in pyproject.toml) still collects every other construction test.
"""
from collections import Counter
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankone import construction  # noqa: E402
from rankone.construction import (  # noqa: E402
    ConstructionParams,
    LevelOccupancy,
    StageParams,
    expand_occupancy,
)


@st.composite
def occupancies(draw, h1s=(1, 2, 3, 5, 2 ** 62 // 1000, 2 ** 62), min_levels=0):
    """Small random constructions, expanded over a random stage range.

    The range composes at least ``min_levels`` stages.
    """
    h1 = draw(st.sampled_from(h1s))
    stages = []
    for _ in range(draw(st.integers(max(1, min_levels), 4))):
        r = draw(st.integers(2, 5))
        spacer = st.one_of(st.just(0), st.integers(0, 6), st.integers(0, 10 ** 6))
        stages.append(StageParams(r, tuple(draw(st.lists(spacer, min_size=r, max_size=r)))))
    base = draw(st.integers(1, len(stages) + 1 - min_levels))
    top = draw(st.integers(base + min_levels, len(stages) + 1))
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
    none may depend on the ones asked before it.
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


@settings(max_examples=80, deadline=None)
@given(occupancies(), st.data())
def test_multi_row_windows_match_materialized_starts(occ, data):
    """Top-level rows from sorted multi-row starts, vs all pairs.

    Row c asks the top level for the offset differences in
    [s_c - below, s_c + width - 1 + below].  Besides a few uniform starts,
    each drawn top-level difference d gets a row whose range ends at d and
    one whose range starts at d (the two share exactly d), d + 1 (they only
    touch) or d + 2; starts whose row misses [-reach, reach] are dropped.
    """
    level = len(occ.stage_offsets)
    width = data.draw(st.integers(1, 8))
    reach = occ._reach[-1]
    below = occ._reach[-2] if level else 0
    offs = [int(o) for o in occ.stage_offsets[-1]] if level else [0]
    tops = sorted({b - a for a in offs for b in offs})
    starts = data.draw(st.lists(st.integers(-reach - width + 1, reach), max_size=3))
    for _ in range(data.draw(st.integers(1, 6))):
        d = data.draw(st.sampled_from(tops))
        starts += [d - width + 1 - below, d + below + data.draw(st.integers(0, 2))]
    starts = sorted({s for s in starts if -reach - width < s <= reach})
    diffs = _all_pairs(occ)
    row, col, count = occ._window_hits(level, np.array(starts, dtype=occ._dtype), width)
    assert (count > 0).all()
    rows = np.zeros((len(starts), width), dtype=np.int64)
    np.add.at(rows, (row, col), count)
    assert [row.tolist() for row in rows] == [
        [diffs.get(s + t, 0) for t in range(width)] for s in starts]


@settings(max_examples=80, deadline=None)
@given(occupancies(), st.data())
def test_batched_windows_match_single_windows_and_starts(occ, data):
    """pair_shift_windows against per-row pair_shift_window and all pairs.

    Row starts sit around occurring differences and past either side of
    the reach (out to +-2**70), come unsorted and repeated, and on small
    windows the width can exceed 2 * reach + 1.  Whatever _WINDOW_BLOCK
    is (a small one splits each level's (clusters x offsets) search into
    several steps), the query runs one top-level recursion if any row
    meets [-reach, reach] and none otherwise.
    """
    diffs = _all_pairs(occ)
    reach = occ._reach[-1]
    anchors = sorted(set(diffs) | {-reach, reach})
    width = data.draw(st.integers(1, 24))
    if reach <= 300 and data.draw(st.booleans()):
        width += 2 * reach + 1
    los = [data.draw(st.sampled_from(anchors)) - data.draw(st.integers(0, width + 2))
           for _ in range(data.draw(st.integers(1, 12)))]
    los += data.draw(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=2))
    los += data.draw(st.lists(st.sampled_from(los), max_size=3))
    los = data.draw(st.permutations(los))
    want = [[diffs.get(k, 0) for k in range(lo, lo + width)] for lo in los]
    assert [occ.pair_shift_window(lo, lo + width - 1) for lo in los] == want
    block = data.draw(st.sampled_from([1, 3, 16, construction._WINDOW_BLOCK]))
    with mock.patch.object(construction, "_WINDOW_BLOCK", block), \
            mock.patch.object(LevelOccupancy, "_window_hits", autospec=True,
                              side_effect=LevelOccupancy._window_hits) as spy:
        assert occ.pair_shift_windows(los, width) == want, (los, width, block)
    top = len(occ.stage_offsets)
    top_calls = sum(c.args[1] == top for c in spy.call_args_list)
    assert top_calls == any(-reach - width < lo <= reach for lo in los)


@settings(max_examples=40, deadline=None)
@given(occupancies(h1s=(2 ** 62, 2 ** 62 + 3), min_levels=2), st.data())
def test_sparse_hits_past_int64(occ, data):
    """Batched windows on object-dtype occupancies, vs all pairs.

    Counts come back as Python ints equal to the tally.  Rows whose windows
    hold no occurring difference read all zeros, and their recursion stops
    above level 0: no level carries a hit up.  With _WINDOW_BLOCK = 1 every
    search step holds one cluster, the distinct rows still go to the top
    level in one recursion, and they still agree with per-row
    pair_shift_window; when no row meets [-reach, reach], no top-level
    recursion runs at all.
    """
    assert not occ.uses_int64 and len(occ.stage_offsets) >= 2
    diffs = _all_pairs(occ)
    reach = occ._reach[-1]
    width = data.draw(st.integers(1, 8))
    anchors = sorted(set(diffs) | {-reach, reach})
    los = [data.draw(st.sampled_from(anchors)) - data.draw(st.integers(0, width + 2))
           for _ in range(data.draw(st.integers(1, 12)))]
    want = [[diffs.get(k, 0) for k in range(lo, lo + width)] for lo in los]
    got = occ.pair_shift_windows(los, width)
    assert got == want and all(type(c) is int for row in got for c in row)

    # a row starting right after an occurring difference, up to the next one
    gaps = [d + 1 for d in sorted(diffs)
            if not any(d + 1 + t in diffs for t in range(width))]
    if gaps:
        gap_los = data.draw(st.lists(st.sampled_from(gaps), min_size=1, max_size=6))
        with mock.patch.object(LevelOccupancy, "_window_hits", autospec=True,
                               side_effect=LevelOccupancy._window_hits) as spy:
            assert occ.pair_shift_windows(gap_los, width) == [[0] * width] * len(gap_los)
        assert all(c.args[1] > 0 for c in spy.call_args_list)

    # with _WINDOW_BLOCK = 1 the query is still one top-level recursion
    with mock.patch.object(construction, "_WINDOW_BLOCK", 1), \
            mock.patch.object(LevelOccupancy, "_window_hits", autospec=True,
                              side_effect=LevelOccupancy._window_hits) as spy:
        assert occ.pair_shift_windows(los, width) == want
    top = len(occ.stage_offsets)
    top_calls = sum(c.args[1] == top for c in spy.call_args_list)
    assert top_calls == (0 if all(lo + width <= -reach or lo > reach for lo in los) else 1)
    assert [occ.pair_shift_window(lo, lo + width - 1) for lo in los] == want


@settings(max_examples=40, deadline=None)
@given(occupancies(min_levels=3), st.data())
def test_levels_below_the_top_pass_each_cell_up_once(occ, data):
    """Windows on three or more levels, vs all pairs, with every level's hits.

    Between level 1 and the top, a level sums the hits that meet at one
    (row, col) before passing them up, so no (row, col) repeats and what a
    level holds stays within its rows x width however deep it lies.  Level
    1 repeats none by construction, and the top's repeats are summed by the
    query's scatter.
    """
    diffs = _all_pairs(occ)
    anchors = sorted(set(diffs))
    width = data.draw(st.integers(1, 12))
    los = [data.draw(st.sampled_from(anchors)) - data.draw(st.integers(0, width))
           for _ in range(data.draw(st.integers(1, 8)))]
    window_hits, seen = LevelOccupancy._window_hits, []

    def recording(self, level, starts, w):
        hits = window_hits(self, level, starts, w)
        seen.append((level, hits))
        return hits

    with mock.patch.object(LevelOccupancy, "_window_hits", recording):
        assert occ.pair_shift_windows(los, width) == [
            [diffs.get(k, 0) for k in range(lo, lo + width)] for lo in los]
    top = len(occ.stage_offsets)
    for level, (row, col, count) in seen:
        assert (count > 0).all()
        if level < top:
            assert len(set(zip(row.tolist(), col.tolist()))) == row.size, level


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

    On the one per anchor, later windows overlap earlier ones at either end,
    and must not depend on them.
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
    # every anchor's rows at once, in reverse order and twice each, with
    # one cluster per search step at every level
    los = [anchor - t for anchor in sorted(set(diffs) | {-w, w}) for t in (0, 5, 12)]
    los = (los + los)[::-1]
    with mock.patch.object(construction, "_WINDOW_BLOCK", 1):
        assert occ.pair_shift_windows(los, 20) == [
            [diffs.get(k, 0) for k in range(lo, lo + 20)] for lo in los]
