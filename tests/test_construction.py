import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from rankone import construction
from rankone.construction import (
    ColumnGrowthPolicy,
    ConstructionParams,
    GenerationError,
    LevelOccupancy,
    SidonPolicy,
    StageParams,
    apply_sidon,
    expand_occupancy,
    gen_example,
    gen_p_construction,
    generator_series,
    heights,
    params_from_json,
    params_to_json,
    recheck_gates,
    sample_spacers,
    truncate_admissible,
    validate_params,
    verify_frequencies,
)
from rankone.series import make_admissible

F = Fraction
COIN = {0: F(1, 2), 1: F(1, 2)}


def P(coeffs=None):
    return make_admissible(coeffs or COIN)


# --- validation and heights --------------------------------------------------

def test_validate_accepts_legal_params():
    p = ConstructionParams(2, (StageParams(3, (2, 2, 2)),))
    assert validate_params(p) == []


def test_validate_flags_single_column():
    p = ConstructionParams(2, (StageParams(1, (0,)),))
    problems = validate_params(p)
    assert len(problems) == 1 and "r" in problems[0]


def test_validate_flags_spacer_count_mismatch():
    p = ConstructionParams(2, (StageParams(3, (2, 2)),))
    problems = validate_params(p)
    assert len(problems) == 1 and "spacer" in problems[0]


def test_validate_lists_each_negative_spacer():
    p = ConstructionParams(2, (StageParams(3, (2, 2, 2)), StageParams(3, (2, -1, -4))))
    assert validate_params(p) == ["stage 2: spacer s(2) = -1 is negative",
                                  "stage 2: spacer s(3) = -4 is negative"]


def test_heights_single_stage():
    assert heights(ConstructionParams(2, (StageParams(3, (2, 2, 2)),))) == [2, 12]


def test_stage_params_keep_python_ints():
    st = StageParams(3, np.array([2, 0, 7], dtype=np.int64))
    assert st.spacers.tolist() == [2, 0, 7] and all(type(v) is int for v in st.spacers.tolist())
    with pytest.raises(TypeError):
        StageParams(2, (1, 2.5))


SPACER_FORMS = {
    "list": lambda v: list(v),
    "tuple": lambda v: tuple(v),
    "int64": lambda v: np.array(v, dtype=np.int64),
    "numpy-ints": lambda v: [np.int64(x) for x in v],
    "object": lambda v: np.array(v, dtype=object),
}


@pytest.mark.parametrize("form", SPACER_FORMS)
@pytest.mark.parametrize("top, dtype", [(2 ** 62 - 1, np.int64), (2 ** 62, object)],
                         ids=["below-2**62", "at-2**62"])
def test_stage_params_hold_one_read_only_array(form, top, dtype):
    """Every integer input becomes one read-only array, int64 while every
    spacer is below 2**62 and object (Python ints) from 2**62 on; stages
    and params built from any input form compare and hash equal."""
    values = [3, 0, top]
    st = StageParams(3, SPACER_FORMS[form](values))
    assert st.spacers.dtype == dtype
    assert st.spacers.tolist() == values and all(type(v) is int for v in st.spacers.tolist())
    assert st.spacer_sum == sum(values)
    with pytest.raises(ValueError, match="read-only"):
        st.spacers[0] = 1
    ref = StageParams(3, tuple(values))
    assert st == ref and hash(st) == hash(ref)
    params, ref_params = (ConstructionParams(2, (x,)) for x in (st, ref))
    assert params == ref_params and hash(params) == hash(ref_params)
    assert heights(params) == [2, 6 + sum(values)]
    text = params_to_json(params)
    assert params_to_json(params_from_json(text)) == text
    assert params_from_json(text) == params


def test_stage_params_copy_an_int64_input():
    draws = np.array([2, 0, 7], dtype=np.int64)
    st = StageParams(3, draws)
    draws[0] = 5
    assert st.spacers.tolist() == [2, 0, 7] and draws.flags.writeable


@pytest.mark.parametrize("values", [
    (1, 2.5), [1.0, 2.0], np.array([1.0, 2.0]), np.array([1, 2.5], dtype=object),
    [[1, 2], [3, 4]], np.array([[1, 2], [3, 4]], dtype=np.int64)])
def test_stage_params_reject_non_integer_spacers(values):
    with pytest.raises(TypeError):
        StageParams(2, values)


@pytest.mark.parametrize("values", [(2, -1), np.array([2, -1]), (2, -2 ** 70)],
                         ids=["tuple", "int64", "object"])
def test_negative_spacer_is_reported_not_raised(values):
    params = ConstructionParams(2, (StageParams(2, values),))
    assert validate_params(params) == [f"stage 1: spacer s(2) = {int(values[1])} is negative"]
    with pytest.raises(ValueError, match="is negative"):
        heights(params)


def test_heights_are_summed_once_and_returned_fresh(monkeypatch):
    calls = []
    validate = construction.validate_params
    monkeypatch.setattr(construction, "validate_params",
                        lambda params: calls.append(1) or validate(params))
    params = gen_example("two-column", 4)
    hs = heights(params)
    hs.append(0)
    assert heights(params) == [1, 3, 12, 60] and len(calls) == 1
    bad = ConstructionParams(2, (StageParams(1, (0,)),))
    for _ in range(2):
        with pytest.raises(ValueError, match="r >= 2"):
            heights(bad)


def test_heights_two_column_family():
    assert heights(gen_example("two-column", 4)) == [1, 3, 12, 60]


def test_heights_no_stages():
    assert heights(ConstructionParams(5, ())) == [5]


def test_heights_prefix_stable():
    params = gen_example("two-column", 6)
    hs = heights(params)
    for j in range(1, len(params.stages) + 1):
        prefix = ConstructionParams(params.h1, params.stages[:j])
        assert heights(prefix) == hs[:j + 1]


# --- the three example families ----------------------------------------------

def test_two_column_stage_parameters():
    params = gen_example("two-column", 4)
    assert [(st.r, tuple(st.spacers.tolist())) for st in params.stages] == [
        (2, (0, 1)), (2, (0, 6)), (2, (0, 36))]


def test_mix_identity_stage_parameters():
    params = gen_example("mix-identity", 3, h1=2)
    assert [(st.r, tuple(st.spacers.tolist())) for st in params.stages] == [
        (3, (2, 2, 2)), (4, (12, 12, 12, 12))]


def test_all_limits_stage_parameters():
    params = gen_example("all-limits", 3)
    assert [(st.r, tuple(st.spacers.tolist())) for st in params.stages] == [
        (3, (1, 2, 1)), (3, (7, 8, 7))]
    assert heights(params) == [1, 7, 43]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        gen_example("spiral", 3)


# --- occupancy expansion -----------------------------------------------------

def test_expand_two_copies_with_trailing_spacer():
    params = ConstructionParams(1, (StageParams(2, (0, 1)),))
    occ = expand_occupancy(params, 1, 2)
    assert occ.window == 3
    assert list(occ.positions(0)) == [0, 1]


def test_expand_identity_when_base_is_top():
    params = gen_example("two-column", 4)
    occ = expand_occupancy(params, 3, 3)
    assert occ.window == 12
    for b in range(occ.base_height):
        assert list(occ.positions(b)) == [b]


def test_expand_three_columns_uniform_spacers():
    params = ConstructionParams(1, (StageParams(3, (1, 1, 1)),))
    occ = expand_occupancy(params, 1, 2)
    assert occ.window == 6
    assert list(occ.positions(0)) == [0, 2, 4]


def test_expand_copy_count_and_disjointness():
    params = gen_example("two-column", 5)
    occ = expand_occupancy(params, 2, 5)
    expect_copies = 2 * 2 * 2
    all_positions = []
    for b in range(occ.base_height):
        pos = list(occ.positions(b))
        assert len(pos) == expect_copies == occ.n_copies
        assert pos == sorted(pos)
        all_positions += pos
    assert len(set(all_positions)) == len(all_positions)
    assert max(all_positions) < occ.window


def test_expand_transitivity():
    """Expanding 1 -> 3 must equal expanding 1 -> 2 relabeled through 2 -> 3."""
    params = gen_example("all-limits", 4)
    direct = expand_occupancy(params, 1, 4)
    low = expand_occupancy(params, 1, 2)
    high = expand_occupancy(params, 2, 4)
    # a stage-1 label sits at stage-2 offset q (= stage-2 label q), and each
    # stage-2 label's copies inside stage 4 are high.positions(q)
    for b in range(direct.base_height):
        composed = sorted(int(x) for q in low.positions(b)
                          for x in high.positions(int(q)))
        assert composed == [int(x) for x in direct.positions(b)]


def test_expand_rejects_bad_stage_range():
    params = gen_example("two-column", 4)
    with pytest.raises(ValueError):
        expand_occupancy(params, 0, 4)
    with pytest.raises(ValueError):
        expand_occupancy(params, 3, 2)


@pytest.mark.parametrize("h1, int64", [(1, True), (2 ** 62, False)])
def test_pair_shift_count_matches_all_pairs(h1, int64):
    """Pair counts equal a brute-force tally over all copy-start pairs."""
    occ = expand_occupancy(gen_example("two-column", 6, h1=h1), 1, 6)
    assert occ.n_copies == 32 and occ.uses_int64 is int64
    assert occ.window.bit_length() == (12 if int64 else 74)
    starts = [int(s) for s in occ.copy_starts]
    diffs = Counter(b - a for a in starts for b in starts)
    for k, n in diffs.items():
        assert occ.pair_shift_count(k) == n
    near = {k + d for k in diffs for d in (-1, 1)} | {occ.window - 1, occ.window}
    empty = sorted(near - set(diffs), key=abs)
    assert len(empty) > 20
    for k in empty:
        assert occ.pair_shift_count(k) == occ.pair_shift_count(-k) == 0


def test_positions_past_int64_are_tuples_of_python_ints():
    """Past 2**62 copy starts and positions are tuples of Python ints.  The
    two-column offsets scale with h1, so the starts at h1 = 2**62 are 2**62
    times those at h1 = 1."""
    occ = expand_occupancy(gen_example("two-column", 6, h1=2 ** 62), 1, 6)
    small = expand_occupancy(gen_example("two-column", 6, h1=1), 1, 6)
    assert not occ.uses_int64 and isinstance(occ.copy_starts, tuple)
    assert list(occ.copy_starts) == [2 ** 62 * int(s) for s in small.copy_starts]
    for b in (0, 1, occ.base_height - 1):
        assert occ.positions(b) == tuple(s + b for s in occ.copy_starts)
    for bad in (-1, occ.base_height):
        with pytest.raises(ValueError, match="outside"):
            occ.positions(bad)


@pytest.mark.parametrize("params, top", [
    (ConstructionParams(1, (StageParams(4, (1, 0, 2, 1)), StageParams(3, (0, 2, 1)),
                            StageParams(6, (1, 0, 3, 0, 2, 1)))), 4),
    (ConstructionParams(2 ** 62, (StageParams(3, (0, 1, 4)),
                                  StageParams(6, (2, 0, 5, 1, 0, 3)))), 3),
], ids=["int64", "object"])
def test_window_rows_cluster_edges(params, top):
    """Top-level rows that merge, stay apart or run past +-reach, vs all pairs.

    Row c asks the top level for the offset differences in
    [s_c - below, s_c + width - 1 + below] (clipped to +-reach first), so
    rows ``step`` apart share exactly one difference and rows ``step + 1``
    apart only touch.
    """
    occ = expand_occupancy(params, 1, top)
    assert occ.uses_int64 is (params.h1 == 1)
    level, width = len(occ.stage_offsets), 5
    reach, below = occ._reach[-1], occ._reach[-2]
    step = width - 1 + 2 * below
    s0 = -reach - 2          # partly below -reach
    s1 = s0 + step           # overlaps row 0 by one difference: one cluster
    s2 = s1 + step + 1       # only touches row 1: still that cluster
    s3 = s2 + step + 7       # isolated
    s4 = reach - 1           # partly above reach, isolated
    assert s3 + step + 1 < s4
    starts = [s0, s1, s2, s3, s4]
    searched = []

    def spy(name):
        search = getattr(construction, name)

        def recording(*args):
            searched.append((name, args[-2].size))  # args end with span_lo, span_hi
            return search(*args)
        return mock.patch.object(construction, name, recording)

    with spy("_lag_pairs"), spy("_wrapped_pairs"):
        row, col, count = occ._window_hits(level, np.array(starts, dtype=occ._dtype), width)
    # the top level searches 3 clusters: {s0, s1, s2}, {s3} and {s4}; the
    # object build's top level is wide (2 * reach >= 2**61)
    assert searched[0] == ("_lag_pairs" if occ.uses_int64 else "_wrapped_pairs", 3)
    rows = np.zeros((len(starts), width), dtype=np.int64)
    np.add.at(rows, (row, col), count)
    copy_starts = [int(s) for s in occ.copy_starts]
    diffs = Counter(b - a for a in copy_starts for b in copy_starts)
    assert [row.tolist() for row in rows] == [
        [diffs.get(s + t, 0) for t in range(width)] for s in starts]
    assert all(row.any() for row in rows)


def test_wrapped_keys_keep_each_difference_in_its_own_cluster():
    """Offsets 0 and X = 12345 * 2**61 + 5, whose keys differ by only 5.

    The top level is wide, and with rows [-8, 8] and [X - 8, X + 8] it
    searches two clusters whose key runs (s = 0) each also hold the other
    cluster's offset pair.  The exact check keeps each difference in its own
    cluster; without it each difference would reach its rows twice, and the
    rows would read 4, 8, 4 and 2, 4, 2 where they read 2, 4, 2 and 1, 2, 1.
    """
    x = 12345 * 2 ** 61 + 5
    occ = LevelOccupancy(1, 3, 1, x + 2, ([0, 1], [0, x]))
    assert not occ.uses_int64 and 2 * occ._reach[-1] >= construction._KEY_MOD
    starts = [int(s) for s in occ.copy_starts]
    assert starts == [0, 1, x, x + 1]
    diffs = Counter(b - a for a in starts for b in starts)
    los = [-8, x - 8]
    got = occ.pair_shift_windows(los, 17).tolist()
    assert got == [[diffs.get(lo + t, 0) for t in range(17)] for lo in los]
    assert got[0][7:10] == [2, 4, 2] and got[1][7:10] == [1, 2, 1]


def _all_pairs(occ):
    starts = [int(s) for s in occ.copy_starts]
    return Counter(b - a for a in starts for b in starts)


def test_lag_band_edges_are_counted():
    """Level 1's offsets 0, 100, 201, 303 have gaps 100, 101, 102, so its
    lag bands are [0, 0], [100, 102], [201, 203] and [303, 303], with empty
    stretches between them.  A query row that ends exactly at a band's low
    end or starts exactly at its high end, on either sign and under every
    level-2 difference, still counts that band's pair; a row between bands
    reads what the all-pairs tally reads (zeros at level-2 difference 0)."""
    occ = LevelOccupancy(1, 3, 1, 3000, ([0, 100, 201, 303], [0, 1000, 2500]))
    lo, hi = occ._lag_bands[0]
    assert lo.tolist() == [0, 100, 201, 303] and hi.tolist() == [0, 102, 203, 303]
    diffs = _all_pairs(occ)
    for d in (0, 1000, 1500, 2500, -1000, -1500, -2500):
        for k in range(1, 4):
            for sign in (1, -1):
                a, b = sorted((sign * int(lo[k]), sign * int(hi[k])))
                for row_lo, row_hi in ((a - 4, a), (b, b + 4)):
                    want = [diffs.get(d + t, 0) for t in range(row_lo, row_hi + 1)]
                    assert occ.pair_shift_window(d + row_lo, d + row_hi) == want
                    assert sum(want) > 0
        assert occ.pair_shift_window(d + 103, d + 200) == [
            diffs.get(d + t, 0) for t in range(103, 201)]
    assert occ.pair_shift_window(103, 200) == [0] * 98


@pytest.mark.parametrize("window, top", [
    (1000, 40), (2 ** 61, 2 ** 60), (2 ** 62, 40), (2 ** 64, 2 ** 63),
], ids=["int64-narrow", "int64-wide", "object-narrow", "object-wide"])
def test_self_pair_clusters_end_at_the_smallest_gap(monkeypatch, window, top):
    """Level 2's offsets 0, 13, ``top`` have smallest gap g = 13, and level
    1 (offsets 0, 2) widens each query row by 2 on both sides.  A row whose
    range lies inside (-g, g) reaches only difference 0, and a wide top
    level does not search it; a range that ends at +-g needs the search,
    and the pairs at +-13 reach its outermost column.  Every count equals
    the all-pairs tally, at a narrow and a wide top level, int64 and
    object."""
    occ = LevelOccupancy(1, 3, 1, window, ([0, 2], [0, 13, top]))
    wide = occ._lag_bands[1] is None
    assert occ.uses_int64 is (window < 2 ** 62)
    assert wide is (top > 40) and occ._min_gaps == (2, 13)
    top_offs, searched = occ.stage_offsets[1], []
    for name in ("_lag_pairs", "_wrapped_pairs"):
        def recording(offs, *args, search=getattr(construction, name)):
            searched.append(offs is top_offs)
            return search(offs, *args)
        monkeypatch.setattr(construction, name, recording)
    diffs = _all_pairs(occ)
    # (lo, width): the row's top-level range is [lo - 2, lo + width + 1]
    for lo, width, skips in ((-10, 21, True),   # [-12, 12], holds 0
                             (-10, 22, False),  # [-12, 13]
                             (-11, 22, False),  # [-13, 12]
                             (3, 8, True),      # [1, 12], misses 0
                             (3, 9, False),     # [1, 13]
                             (-11, 8, False)):  # [-13, -2]
        searched.clear()
        got = occ.pair_shift_window(lo, lo + width - 1)
        assert got == [diffs.get(lo + t, 0) for t in range(width)]
        assert (True not in searched) is (skips and wide)
        if not skips:
            assert max(got[0], got[-1]) > 0


def test_narrow_levels_of_an_object_occupancy_are_filtered():
    """h1 = 2**52 puts the two-column window past 2**62 (object offsets)
    while levels 1-4 stay narrow, so their spans are cast to int64 before
    the band test.  (At h1 = 2**62 every level is wide.)"""
    occ = expand_occupancy(gen_example("two-column", 6, h1=2 ** 52), 1, 6)
    assert not occ.uses_int64 and occ.n_copies == 32
    assert [bands is not None for bands in occ._lag_bands] == [True] * 4 + [False]
    diffs = _all_pairs(occ)
    ks = sorted({k + t for k in diffs for t in (-1, 0, 1)})
    assert occ.pair_shift_windows([k - 2 for k in ks], 5).tolist() == [
        [diffs.get(k + t, 0) for t in range(-2, 3)] for k in ks]


def test_gap_shifts_skip_most_base_level_searches(monkeypatch):
    """Check 5's 32 stage-4 gap shifts, one panel-wide query: the base
    level forms clusters of residual rows, and the lag bands leave fewer
    (cluster, lag) pieces to search than half those clusters.  The first
    shift's row equals an ``np.intersect1d`` recount over the materialized
    starts."""
    from rankone.acceptance import capped_build
    from rankone.weaktop import sample_gap_shifts

    _, hs, occ = capped_build()
    gaps = sample_gap_shifts(hs, 32, rng_seed=[7, 4], lo=hs[3], hi=hs[4] // 2,
                             extra_lattice=(65537,))
    base_bands = occ._lag_bands[0]
    formed, searched = [], []
    pieces = construction._lag_pieces

    def spy_pieces(bands, span_lo, span_hi):
        cluster, lag = pieces(bands, span_lo, span_hi)
        if bands is base_bands:
            formed.append(span_lo.size)
            searched.append(lag.size)
        return cluster, lag

    monkeypatch.setattr(construction, "_lag_pieces", spy_pieces)
    rows = occ.pair_shift_windows([m - 6 for m in gaps], 13).tolist()
    # the base level is searched once, in one recursion
    assert len(formed) == 1 and formed[0] > 20
    assert 0 < searched[0] < formed[0] / 2
    starts = occ.copy_starts
    m = gaps[0]
    assert rows[0] == [int(np.intersect1d(starts, starts + k, assume_unique=True).size)
                       for k in range(m - 6, m + 7)]


def test_occupancies_compare_by_identity():
    params = gen_example("two-column", 4)
    occ = expand_occupancy(params, 1, 3)
    assert occ == occ and occ != expand_occupancy(params, 1, 3)


def test_pair_counts_refuse_int64_overflow():
    """Counts are int64, so 2**63 copies refuse to count instead of wrapping.

    63 composed stages of two offsets [0, 2**(j+1)] each: every consecutive
    offset gap exceeds the reach below it, as the recursion needs.
    """
    offsets = tuple([0, 2 ** (j + 1)] for j in range(63))
    occ = LevelOccupancy(1, 64, 1, 2 ** 64, offsets)
    assert occ.n_copies == 2 ** 63
    with pytest.raises(OverflowError, match="overflow int64"):
        occ.pair_shift_count(0)
    fits = LevelOccupancy(1, 63, 1, 2 ** 63, offsets[:62])
    assert fits.pair_shift_window(-1, 1) == [0, 2 ** 62, 0]


def test_uncapped_stage_seven_counts_without_materializing():
    """67,108,864 copies in an 870-bit window, counted from 1,664 offsets."""
    params = gen_p_construction([P()], J=7, seed=0,
                                eps_schedule=lambda j: F(2, j + 1))
    occ = expand_occupancy(params, 4, 7)
    assert occ.n_copies == 67_108_864 and occ.window.bit_length() == 870
    assert not occ.uses_int64
    h5, h6 = heights(params)[4:6]
    assert occ.pair_shift_count(0) == occ.n_copies
    for k in (h6, 2 * h6, h6 + h5):
        assert occ.pair_shift_count(-k) == occ.pair_shift_count(k) > 0
    assert "copy_starts" not in occ.__dict__


@pytest.mark.parametrize("cap, dtype", [(65537, np.int64), (None, object)])
def test_expand_offsets_match_accumulate(cap, dtype):
    """Each stage's offsets, built by one cumsum in the occupancy's dtype,
    equal O_1 = 0, O_{i+1} = O_i + h_j + s_j(i) accumulated in Python ints:
    int64 on a capped build, Python ints on the uncapped one past 2**62."""
    params = gen_p_construction([P()], 6, seed=0, eps_schedule=lambda j: F(2, j + 1),
                                sidon_policy=SidonPolicy(cap=cap))
    hs = heights(params)
    occ = expand_occupancy(params, 1, len(hs))
    assert occ._dtype is dtype and (cap is None) == (hs[-1] >= 2 ** 62)
    for j, offs in enumerate(occ.stage_offsets, 1):
        want = list(itertools.accumulate(
            (hs[j - 1] + s for s in params.stages[j - 1].spacers[:-1]), initial=0))
        assert offs.dtype == dtype and offs.tolist() == want
        assert all(type(v) is int for v in offs.tolist())


# --- spacer sampling and the frequency gate ----------------------------------

def test_sample_spacers_regression_pin():
    draws = sample_spacers(P(), 8, 0)
    assert draws.dtype == np.int64
    assert draws.tolist() == [0, 0, 0, 0, 1, 0, 1, 0]


def test_sample_spacers_point_mass():
    # a pure point mass is not admissible as a generator, but the sampler
    # only needs a unit-mass distribution
    from rankone.construction import AdmissibleSeries
    point = AdmissibleSeries(1, ((0, 1),))
    assert sample_spacers(point, 5, 3).tolist() == [0, 0, 0, 0, 0]


def test_sample_spacers_support():
    vals = sample_spacers(P({0: F(1, 2), 2: F(1, 2)}), 6, 5).tolist()
    assert vals == [2, 2, 0, 0, 2, 2]
    assert set(vals) <= {0, 2}


def test_sample_spacers_requires_unit_mass():
    with pytest.raises(ValueError):
        sample_spacers(P({0: F(1, 4), 1: F(1, 4)}), 4, 0)


def test_sample_spacers_past_int64_are_python_ints():
    big = 2 ** 70
    draws = sample_spacers(P({0: F(1, 2), big: F(1, 2)}), 8, 0)
    assert draws.dtype == object
    assert draws.tolist() == [big * s for s in sample_spacers(P(), 8, 0).tolist()]


@pytest.mark.parametrize("seed", [0, [0, 4, 1], [7, 5, 3]])
@pytest.mark.parametrize("coeffs", [COIN, {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)},
                                    {0: F(1, 4), 5: F(1, 2), 2 ** 62 + 3: F(1, 4)}])
def test_sample_spacers_match_the_float_uniforms(seed, coeffs):
    """The raw-word uniforms are the ones Generator.random returns: each
    draw is the exponent the float formula's integer U picks, found by
    comparing U * den with each cumulative numerator times 2**53."""
    series = P(coeffs)
    cums = list(itertools.accumulate(n for _, n in series.nums))
    for r in (1, 2, 3, 5, 17, 4096):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        uniforms = (rng.random(r) * 2.0 ** 53).astype(np.int64).tolist()
        want = [next(k for (k, _), a in zip(series.nums, cums) if u * series.den < a << 53)
                for u in uniforms]
        draws = sample_spacers(series, r, seed)
        assert draws.dtype == (object if max(coeffs) >= 2 ** 62 else np.int64)
        assert draws.tolist() == want, r


def test_inverse_cdf_is_exact_at_the_float_edge():
    """float(1/3) + float(1/3) lies below 2/3, so a float cumulative sum
    draws exponent 2 at the uniform 6004799503160661 / 2**53; the exact
    cumulative distribution gives exponent 1."""
    third = P({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)})
    U = 6004799503160661
    assert F(U, 2 ** 53) < F(2, 3)
    assert np.searchsorted(np.cumsum([1 / 3] * 3), U / 2 ** 53, side="right") == 2
    # U + 1 = ceil(2**54 / 3) is the first uniform at or past 2/3
    draw = construction._inverse_cdf(third)
    assert draw(np.array([U, U + 1], dtype=np.int64)).tolist() == [1, 2]


def test_verify_frequencies_worked_example():
    rep = verify_frequencies((0, 1, 1, 0, 1, 0, 0, 1), P(), 2, F(1, 2))
    assert rep.passed
    by = {(row.m, row.k): row for row in rep.rows}
    assert by[(1, 0)].observed == F(1, 2)
    assert by[(2, 1)].observed == F(5, 7)
    assert by[(2, 0)].observed == F(1, 7)
    assert by[(2, 1)].expected == F(1, 2)


def test_verify_frequencies_degenerate_sample_fails():
    rep = verify_frequencies((0,) * 10, P(), 1, F(1, 10))
    assert not rep.passed
    assert any(row.k == 1 and row.observed == 0 for row in rep.failures())


def test_verify_frequencies_alternating_exact():
    spacers = tuple(i % 2 for i in range(100))
    assert verify_frequencies(spacers, P(), 1, F(1, 20)).passed


def test_verify_frequencies_rejects_short_input():
    with pytest.raises(ValueError):
        verify_frequencies((0, 1), P(), 2, F(1, 2))


@pytest.mark.parametrize("spacers, eps, message", [
    ((0, 1, 1, 0), 0, "tolerance must be positive, got 0"),
    ((0, 1, 1, 0), "-1", "tolerance must be positive, got -1"),
    ((0, 1, -1, 0), F(1, 2), "spacers must be nonnegative, got -1"),
    ((0, 1, -2 ** 70, 2 ** 80), F(1, 2), "spacers must be nonnegative"),
])
def test_verify_frequencies_rejects_bad_input(spacers, eps, message):
    """A tolerance of zero or less would fail every cell; a negative spacer
    could bring a window holding a clamped spacer back into range."""
    with pytest.raises(ValueError, match=message):
        verify_frequencies(spacers, P(), 1, eps)


def test_verify_frequencies_exponents_past_int64():
    """The worked example with exponent 1 moved to 2**70: the window sums
    pass 2**62, are tallied as Python ints, and the cells are unchanged."""
    big = 2 ** 70
    rep = verify_frequencies([big * s for s in (0, 1, 1, 0, 1, 0, 0, 1)],
                             P({0: F(1, 2), big: F(1, 2)}), 2, F(1, 2))
    small = verify_frequencies((0, 1, 1, 0, 1, 0, 0, 1), P(), 2, F(1, 2))
    assert rep.passed and small.passed
    assert [(row.m, row.k, row.expected, row.observed) for row in rep.rows] == \
        [(row.m, row.k * big, row.expected, row.observed) for row in small.rows]


def test_verify_frequencies_cells_equal_across_sequence_types():
    """An int64 array is clamped in int64 and any other sequence as Python
    ints; a spacer past 2**63 clamps like any spacer past the largest k."""
    draws = sample_spacers(P(), 64, 3)
    draws[[5, 40]] = 2 ** 62
    huge = draws.tolist()
    huge[5], huge[40] = 2 ** 64, 2 ** 63 + 1
    reports = [verify_frequencies(s, P(), 3, F(1, 2))
               for s in (draws, draws.tolist(), tuple(draws.tolist()), huge)]
    assert all(rep.cells == reports[0].cells for rep in reports)
    assert any(c for _, _, _, _, c, _ in reports[0].cells)


def test_sampled_draws_pass_gate_statistically():
    # 20 seeds at r = 10^5: at least 18 must pass a 5% relative gate
    n_pass = 0
    for seed in range(20):
        draws = sample_spacers(P(), 100_000, [99, seed])
        if verify_frequencies(draws, P(), 3, F(1, 20)).passed:
            n_pass += 1
    assert n_pass >= 18


# --- Sidon overrides ----------------------------------------------------------

def test_apply_sidon_pinned_chain():
    out = apply_sidon([5] * 9, 3, 12, SidonPolicy())
    assert tuple(out.spacers.tolist()) == (5, 5, 37, 5, 5, 112, 5, 5, 337)
    assert out.indices == (3, 6, 9)
    assert out.conforming


def test_apply_sidon_reads_an_int64_array_as_python_ints():
    draws = np.array([5] * 9, dtype=np.int64)
    out = apply_sidon(draws, 3, 12, SidonPolicy())
    want = apply_sidon([5] * 9, 3, 12, SidonPolicy())
    assert out.spacers.tolist() == want.spacers.tolist()
    assert (out.indices, out.conforming, out.tail_from) == (
        want.indices, want.conforming, want.tail_from)
    assert all(type(v) is int for v in out.spacers.tolist())


def test_apply_sidon_growth_inequalities():
    out = apply_sidon([0] * 20, 4, 7, SidonPolicy())
    vals = [out.spacers[i - 1] for i in out.indices]
    assert vals[0] > 4 * 7
    for a, b in zip(vals, vals[1:]):
        assert b > 4 * a


def test_apply_sidon_stage_one_overrides_everything():
    out = apply_sidon([0, 0, 0], 1, 5, SidonPolicy())
    assert out.indices == (1, 2, 3)
    assert all(v > 0 for v in out.spacers)


def test_apply_sidon_stage_beyond_length_is_noop():
    out = apply_sidon([4, 4], 3, 10, SidonPolicy())
    assert tuple(out.spacers.tolist()) == (4, 4)
    assert out.indices == ()


def test_apply_sidon_cap_clamps_and_flags():
    out = apply_sidon([5] * 9, 3, 12, SidonPolicy(cap=100))
    assert tuple(out.spacers.tolist()) == (5, 5, 37, 5, 5, 100, 5, 5, 100)
    assert not out.conforming


def test_apply_sidon_low_mass_tail_joins_the_chain():
    out = apply_sidon([0] * 8, 3, 5, mass=F(1, 2))
    assert out.tail_from == 5
    assert out.indices == (3, 5, 6, 7, 8)
    assert tuple(out.spacers.tolist()) == (0, 0, 16, 0, 49, 148, 445, 1336)
    assert apply_sidon([0] * 8, 3, 5).tail_from is None


# --- generated constructions ---------------------------------------------------

def test_gen_p_construction_deterministic():
    a = gen_p_construction([P()], 4, seed=5)
    b = gen_p_construction([P()], 4, seed=5)
    assert a == b and a.meta == b.meta
    c = gen_p_construction([P()], 4, seed=6)
    assert a != c


def test_gen_p_construction_gate_passes_on_draws():
    params = gen_p_construction([P()], 3, seed=1)
    rec = params.meta["stages"][1]
    st = params.stages[1]
    draws = list(st.spacers)
    for i, v in zip(rec["sidon_indices"], rec["pre_sidon"]):
        draws[i - 1] = v
    assert verify_frequencies(draws, P(), rec["max_m"], F(rec["eps"])).passed


def test_passing_build_reads_no_frequency_rows(monkeypatch):
    """The gate decides on integer cells: a build whose stages double
    before they pass makes no FrequencyRow, and each attempt of the
    doubling loop is one call of the module's verify_frequencies."""
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return gate(*args)

    def no_rows(*args):
        raise AssertionError("a FrequencyRow was built")

    gate = construction.verify_frequencies
    monkeypatch.setattr(construction, "verify_frequencies", counted)
    monkeypatch.setattr(construction, "FrequencyRow", no_rows)
    params = gen_p_construction([P()], 6, seed=0)
    attempts = [rec["attempts"] for rec in params.meta["stages"]]
    assert max(attempts) > 1
    assert len(calls) == sum(attempts)
    assert calls[-1] == params.stages[-1].r


def test_gen_p_construction_point_mass_draws_zero():
    params = gen_p_construction([P({0: F(1, 2), 1: F(1, 2)})], 3, seed=0,
                                eps_schedule=lambda j: F(1, 2))
    # all non-override entries must come from {0,1}
    for rec, st in zip(params.meta["stages"], params.stages):
        overridden = set(rec["sidon_indices"])
        plain = [v for i, v in enumerate(st.spacers, 1) if i not in overridden]
        assert set(plain) <= {0, 1}


def test_gen_p_construction_low_mass_marks_upper_half():
    params = gen_p_construction([P({0: F(1, 4), 1: F(1, 4)})], 3, seed=0)
    for rec in params.meta["stages"]:
        r, tail = rec["r"], rec["tail_from"]
        assert tail == r // 2 + 1
        assert set(range(tail, r + 1)) <= set(rec["sidon_indices"])


def test_recheck_gates_on_generated_and_example_builds():
    params = gen_p_construction([P({0: F(1, 4), 1: F(1, 4)})], 4, seed=1)
    checks = recheck_gates(params)
    assert [j for j, _ in checks] == [1, 2, 3]
    assert all(rep.passed for _, rep in checks)
    assert recheck_gates(gen_example("two-column", 4)) == []


def test_recheck_gates_reads_restored_draws_past_int64():
    """Restored draws are gated in int64 when they fit, as at build time, and
    as Python ints when a recorded draw passes 2**63: both give the report
    of the same draws handed over as a list."""
    params = gen_p_construction([P()], 5, seed=7)  # uncapped
    doc = json.loads(params_to_json(params))
    doc["meta"]["stages"][3]["pre_sidon"][0] = str(2 ** 70)
    edited = params_from_json(json.dumps(doc))
    for (j, got), rec, st in zip(recheck_gates(edited), edited.meta["stages"], params.stages):
        draws = st.spacers.tolist()
        for i, v in zip(rec["sidon_indices"], rec["pre_sidon"]):
            draws[i - 1] = v
        assert got == verify_frequencies(draws, P(), rec["max_m"], F(rec["eps"])), j
    assert [rep.passed for _, rep in recheck_gates(params)] == [True] * 4


def test_float_eps_schedule_records_the_gate_it_ran():
    """A float tolerance converts once, by the series float rule: the build
    gates at 2/7, records "2/7", and the re-check runs at 2/7 again.  The
    float's decimal string, 0.2857142857142857, was recorded before."""
    params = gen_p_construction([P()], 4, seed=0, eps_schedule=lambda j: 2 / 7)
    assert [rec["eps"] for rec in params.meta["stages"]] == ["2/7"] * 3
    assert params == gen_p_construction([P()], 4, seed=0,
                                        eps_schedule=lambda j: F(2, 7))
    checks = recheck_gates(params)
    assert [rep.eps for _, rep in checks] == [F(2, 7)] * 3
    assert all(rep.passed for _, rep in checks)


@pytest.mark.parametrize("edit, field", [
    (lambda m: m["stages"][1].update(q=7), "meta stage 2 q = 7: must be in 0..0"),
    (lambda m: m["stages"][0].pop("pre_sidon"), "missing field pre_sidon in meta stage 1"),
    (lambda m: m["stages"][2].pop("max_m"), "missing field max_m in meta stage 3"),
    (lambda m: m["stages"][0]["pre_sidon"].pop(), "sidon_indices but"),
    (lambda m: m["stages"][2]["sidon_indices"].__setitem__(0, 0),
     "meta stage 3 sidon_indices: each must be in 1.."),
    (lambda m: m["stages"][0].update(eps=None), "meta stage 1 eps must be a fraction"),
    (lambda m: m["stages"][1].update(eps="-1/3"),
     "meta stage 2 eps must be a fraction > 0, got '-1/3'"),
    (lambda m: m["stages"][0]["pre_sidon"].__setitem__(0, -1),
     "meta stage 1 pre_sidon: each must be >= 0"),
    (lambda m: m["stages"].pop(), "meta stages holds 2 records for 3 stages"),
    (lambda m: m.update(series=[[[0, 1, 2], [1, 1, 0]]]), "meta series term [1, 1, 0]"),
    (lambda m: m["stages"][2].update(j=7), "meta stage 3 j = 7: must be in 3..3"),
    (lambda m: m["stages"][1].update(max_m=0), "meta stage 2 max_m = 0: must be in 1..63"),
    (lambda m: m["stages"][1].update(max_m=64), "meta stage 2 max_m = 64: must be in 1..63"),
    (lambda m: m.pop("stages"), "missing field stages in meta"),
    (lambda m: m.pop("series"), "missing field series in meta"),
])
def test_recheck_gates_names_a_bad_stage_record(edit, field):
    """An artifact's stage records are outside input, checked where the
    artifact is decoded: a record that does not fit its stage makes
    params_from_json raise ValueError naming the field, so recheck_gates and
    excision_factor only ever read records that fit."""
    doc = json.loads(params_to_json(gen_p_construction([P()], 4, seed=1)))
    edit(doc["meta"])
    with pytest.raises(ValueError, match=re.escape(field)):
        params_from_json(json.dumps(doc))


def test_column_growth_start_returning_none_takes_the_default():
    """A start that returns None for a stage leaves that stage at max(2j, 16),
    so a dict's get sets some stages and keeps the default elsewhere."""
    policy = ColumnGrowthPolicy(start={3: 40}.get)
    assert [policy.start_columns(j) for j in (1, 3, 9, 10)] == [16, 40, 18, 20]
    built = gen_p_construction([P()], 4, seed=0, r_policy=ColumnGrowthPolicy(start={2: 64}.get))
    assert built == gen_p_construction([P()], 4, seed=0, r_policy=ColumnGrowthPolicy(
        start=lambda j: 64 if j == 2 else max(2 * j, 16)))
    assert built.stages[1].r >= 64


def test_gen_p_construction_failure_carries_report():
    policy_fail = F(1, 10 ** 6)
    with pytest.raises(GenerationError) as exc:
        gen_p_construction([P()], 3, seed=0,
                           eps_schedule=lambda j: policy_fail)
    assert exc.value.report is not None
    assert not exc.value.report.passed


def test_gen_p_construction_failure_text_is_pinned():
    """The message names the stage, the last column count and the report's
    summary: its cell count, tolerance and worst cell."""
    with pytest.raises(GenerationError) as exc:
        gen_p_construction([P()], J=3, seed=0, eps_schedule=lambda j: F(1, 1000))
    assert str(exc.value) == (
        "stage 2: frequency gate failed up to r=262144 (FAIL: 5 (m,k) cells, "
        "eps=1/1000, worst m=2 k=2 dev=0.0063)")
    assert (exc.value.stage_j, exc.value.r_final) == (2, 262144)
    assert len(exc.value.report.failures()) == 5


def test_generator_series_are_parsed_once_and_returned_fresh(monkeypatch):
    params = gen_p_construction([P(), P({0: F(1, 4), 2: F(3, 4)})], 3, seed=2)
    calls = []
    monkeypatch.setattr(construction, "make_admissible",
                        lambda coeffs: calls.append(1) or make_admissible(coeffs))
    gens = generator_series(params)
    want = list(gens)
    gens.reverse()
    gens.append(P())
    assert generator_series(params) == want and len(calls) == 2
    bare = gen_example("two-column", 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="no generator series"):
            generator_series(bare)


def test_generator_series_roundtrip():
    gens = [P(), P({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)})]
    params = gen_p_construction(gens, 4, seed=2)
    back = generator_series(params)
    assert [g.coeffs for g in back] == [g.coeffs for g in gens]


def test_truncate_admissible_folds_tail():
    pairs = [(k, F(1, 2) ** (k + 1)) for k in range(80)]
    s = truncate_admissible(pairs, declared_mass=F(1))
    assert s.declared_mass == 1
    assert s.max_exponent < 80
    # residue went to the largest coefficient, which stays the k=0 term
    assert s.coeffs[0][1] > F(1, 2)


def test_json_roundtrip_with_big_integers():
    params = gen_p_construction([P()], 5, seed=7)  # uncapped: bigint spacers
    assert any(v > 2 ** 53 for st in params.stages for v in st.spacers)
    text = params_to_json(params)
    back = params_from_json(text)
    assert back == params
    assert back.meta == params.meta
    assert heights(back) == heights(params)


def test_json_meta_keeps_digit_strings():
    meta = {"note": "12345678901234567", "h1": 2 ** 62}
    params = ConstructionParams(2 ** 62, (StageParams(2, (0, 1)),), meta)
    back = params_from_json(params_to_json(params))
    assert back.meta == meta  # the digit string stays a string


ONE_STAGE = [{"r": 2, "spacers": [0, 1]}]


@pytest.mark.parametrize("doc, field", [
    ([1], "params must be an object"),
    ({"stages": ONE_STAGE}, "missing field h1"),
    ({"h1": 1}, "missing field stages"),
    ({"h1": 1, "stages": [{"spacers": [0, 1]}]}, "missing field r in stage 1"),
    ({"h1": 1, "stages": [{"r": 2}]}, "missing field spacers in stage 1"),
    ({"h1": 1, "stages": [5]}, "stage 1 must be an object"),
    ({"h1": 1, "stages": {"r": 2}}, "stages must be a list"),
    ({"h1": 1.5, "stages": ONE_STAGE}, "h1 must be an integer, got 1.5"),
    ({"h1": True, "stages": ONE_STAGE}, "h1 must be an integer, got True"),
    ({"h1": "1e3", "stages": ONE_STAGE}, "h1 must be an integer"),
    ({"h1": 1, "stages": [{"r": 2, "spacers": [0, 1.9]}]},
     "stage 1 spacers must be an integer, got 1.9"),
    ({"h1": 1, "stages": [{"r": "2", "spacers": 3}]}, "stage 1 spacers must be a list"),
    ({"h1": 1, "stages": ONE_STAGE, "meta": [1]}, "meta must be an object"),
    ({"h1": 1, "stages": ONE_STAGE, "meta": {"seed": 2.5}}, "seed must be an integer"),
    ({"h1": 1, "stages": ONE_STAGE, "meta": {"series": 3}}, "series must be a list"),
    ({"h1": 1, "stages": ONE_STAGE, "meta": {"stages": [7]}},
     "meta stage 1 must be an object, got 7"),
    ({"h1": 1, "stages": [{"r": 1, "spacers": [0]}]},
     "invalid parameters: stage 1: r = 1, but r >= 2 is required"),
    ({"h1": 0, "stages": [{"r": 2, "spacers": [0]}]},
     "invalid parameters: h1 = 0: must be a positive integer; stage 1: 1 spacer entries"),
    ({"h1": 1, "stages": ONE_STAGE, "meta": {"seed": "x"}},
     "meta seed must be an integer or null, got 'x'"),
    ({"h1": 1, "stages": ONE_STAGE, "meta": {"sidon_policy": {"cap": "y"}}},
     "meta sidon_policy cap must be an integer or null, got 'y'"),
    ({"h1": 1, "stages": ONE_STAGE, "meta": {"sidon_policy": 5}},
     "meta sidon_policy must be an object, got 5"),
])
def test_params_from_json_names_the_bad_field(doc, field):
    """No field is truncated or guessed: each malformed one raises ValueError."""
    with pytest.raises(ValueError, match=re.escape(field)):
        params_from_json(json.dumps(doc))


def test_params_from_json_reads_decimal_digit_strings():
    doc = {"h1": "36893488147419103232", "stages": [{"r": "2", "spacers": ["0", 7]}]}
    params = params_from_json(json.dumps(doc))
    assert params == ConstructionParams(2 ** 65, (StageParams(2, (0, 7)),))


def test_sidon_policy_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="cap must be >= 0"):
        SidonPolicy(cap=-1)
    assert tuple(apply_sidon([5, 5], 1, 3, SidonPolicy(cap=0)).spacers.tolist()) == (0, 0)
