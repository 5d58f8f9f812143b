from fractions import Fraction

import numpy as np
import pytest

from rankone import weaktop
from rankone.construction import (
    ConstructionParams,
    LevelOccupancy,
    SidonPolicy,
    StageParams,
    expand_occupancy,
    gen_example,
    gen_p_construction,
    generator_series,
    heights,
)
from rankone.series import (
    FormalElement,
    enumerate_semigroup,
    make_admissible,
    power,
)
from rankone.weaktop import (
    CorrelationPanel,
    SupportTooWideError,
    boundary_loss,
    corr,
    default_panel,
    excision_factor,
    hadic_decompose,
    pair_counts,
    sample_gap_shifts,
    scan_limits,
    strong_norm_sq,
    weak_discrepancy,
    write_scan_csv,
)

F = Fraction


def coin():
    return make_admissible({0: F(1, 2), 1: F(1, 2)})


@pytest.fixture(scope="module")
def small_build():
    """Capped 4-stage generated build, expanded over stages 2..4."""
    params = gen_p_construction([coin()], 4, seed=3,
                                sidon_policy=SidonPolicy(cap=4099))
    occ = expand_occupancy(params, 2, 4)
    return params, heights(params), occ


# --- correlations ------------------------------------------------------------

def test_corr_hand_example():
    params = ConstructionParams(1, (StageParams(2, (0, 1)),))
    occ = expand_occupancy(params, 1, 2)
    c = corr(occ, 1, (0,), (0,))
    assert (c.count, c.normalized_exact) == (1, F(1, 2))


def test_corr_zero_shift_is_identity():
    occ = expand_occupancy(gen_example("two-column", 5), 2, 5)
    for b in range(occ.base_height):
        assert corr(occ, 0, (b,), (b,)).normalized_exact == 1
    assert corr(occ, 0, (0,), (1,)).count == 0


def test_corr_symmetry(small_build):
    _, _, occ = small_build
    rng = np.random.default_rng(12)
    for _ in range(25):
        m = int(rng.integers(-occ.window // 2, occ.window // 2))
        a = tuple(int(x) for x in rng.choice(occ.base_height, 2, replace=False))
        b = tuple(int(x) for x in rng.choice(occ.base_height, 2, replace=False))
        assert corr(occ, m, a, b).count == corr(occ, -m, b, a).count


def test_corr_mass_conservation(small_build):
    """Shifted copies of A land on other labels, spacers, or past the edge."""
    _, _, occ = small_build
    A = (0, 1)
    mu = occ.measure(A)
    for m in (1, 17, 4099, -313):
        landed = sum(corr(occ, m, A, (b,)).count
                     for b in range(occ.base_height))
        assert 0 <= landed <= mu
    assert sum(corr(occ, 0, A, (b,)).count
               for b in range(occ.base_height)) == mu


def test_corr_rejects_out_of_range_labels():
    occ = expand_occupancy(gen_example("two-column", 4), 2, 4)
    with pytest.raises(ValueError):
        corr(occ, 0, (occ.base_height,), (0,))


def test_warm_window_matches_scalar_counts(small_build):
    """Window and single counts equal an all-pairs tally over the materialized starts."""
    _, _, occ = small_build
    center = 54321
    occ.warm_shift_window(center, 40)
    window = occ.pair_shift_window(center - 40, center + 40)
    starts = occ.copy_starts
    for d in range(-40, 41):
        k = center + d
        expected = int(np.intersect1d(starts, starts + k, assume_unique=True).size)
        assert window[d + 40] == occ.pair_shift_count(k) == expected


# --- panel discrepancies -------------------------------------------------------

def test_weak_discrepancy_self_match_is_zero(small_build):
    _, _, occ = small_build
    panel = default_panel(occ)
    for m in (0, 5, -1234, 58999):
        rep = weak_discrepancy(occ, m, FormalElement.t_power(m), panel)
        assert rep.delta == 0.0


def test_weak_discrepancy_zero_element_reads_peak(small_build):
    _, _, occ = small_build
    panel = default_panel(occ)
    rep = weak_discrepancy(occ, 0, FormalElement.zero(), panel)
    assert rep.delta == 1.0  # corr(0; A, A) = 1 on singletons


def test_weak_discrepancy_tracks_generator(small_build):
    params, hs, occ = small_build
    panel = default_panel(occ)
    gen = FormalElement.from_series(generator_series(params)[0])
    rec = params.meta["stages"][-1]
    eps = F(rec["eps"])
    rep = weak_discrepancy(occ, -hs[-2], gen, panel)
    assert rep.delta < float(eps) + 3 * float(rep.boundary_loss)


def test_support_too_wide_raises():
    occ = expand_occupancy(gen_example("two-column", 4), 2, 4)  # window 60
    panel = default_panel(occ, span=2, controls=())
    wide = FormalElement.t_power(40)
    with pytest.raises(SupportTooWideError):
        weak_discrepancy(occ, 0, wide, panel)


def test_strong_norm_identity_and_zero(small_build):
    _, _, occ = small_build
    assert strong_norm_sq(occ, FormalElement.identity(), (0, 3)) == 1
    assert strong_norm_sq(occ, FormalElement.zero(), (0,)) == 0


def test_strong_norm_generator_power_decays(small_build):
    params, _, occ = small_build
    gen = FormalElement.from_series(generator_series(params)[0])
    vals = [strong_norm_sq(occ, power(gen, n), (0,)) for n in (1, 4, 16)]
    assert vals[0] > vals[1] > vals[2]


# --- h-adic decomposition ------------------------------------------------------

def test_hadic_pinned_example():
    dec = hadic_decompose(25, [1, 3, 12, 60], 3, 2)
    assert dec is not None
    assert dec.terms == ((3, 2),) and dec.z == 1


def test_hadic_exact_height():
    hs = [1, 3, 12, 60, 360]
    for j, h in enumerate(hs, 1):
        if h == 1:
            continue
        dec = hadic_decompose(h, hs, 3, 0)
        assert dec.terms == ((j, 1),) and dec.z == 0


def test_hadic_unreachable_returns_none():
    assert hadic_decompose(7, [1, 12], 0, 2) is None


def test_hadic_brute_force_agreement():
    """Any value the DFS finds must satisfy the identity and respect bounds;
    absence must match a brute-force search."""
    hs = [2, 11, 61, 500]
    a_bound, z_bound = 2, 3

    def brute(m):
        from itertools import product
        best = None
        for coeffs in product(range(-a_bound, a_bound + 1), repeat=len(hs)):
            val = sum(a * h for a, h in zip(coeffs, hs))
            z = m - val
            if abs(z) <= z_bound:
                return True
        return False

    for m in range(-150, 151):
        dec = hadic_decompose(m, hs, a_bound, z_bound)
        if dec is None:
            assert not brute(m)
        else:
            total = sum(a * hs[j - 1] for j, a in dec.terms) + dec.z
            assert total == m
            assert all(abs(a) <= a_bound for _, a in dec.terms)
            assert abs(dec.z) <= z_bound
            js = [j for j, _ in dec.terms]
            assert js == sorted(js, reverse=True)


# --- gap sampling, excision factor, scans ---------------------------------------

def test_sample_gap_shifts_avoids_lattice():
    hs = [4, 64, 1024, 16384, 262144]
    gaps = sample_gap_shifts(hs, 16, rng_seed=2, a_bound=3, z_bound=32)
    assert len(gaps) == len(set(gaps)) == 16
    for m in gaps:
        assert hadic_decompose(m, hs, 3, 32) is None
        assert hs[-2] <= m < hs[-1] // 4


def test_sample_gap_shifts_rejects_a_negative_count():
    hs = [4, 64, 1024, 16384, 262144]
    assert sample_gap_shifts(hs, 0, rng_seed=2) == []
    with pytest.raises(ValueError, match="got -3"):
        sample_gap_shifts(hs, -3, rng_seed=2)


def test_excision_factor_hand_check():
    params = gen_p_construction([coin()], 3, seed=0)
    rec = params.meta["stages"][1]  # stage j=2
    r, overridden = rec["r"], rec["sidon_indices"]
    # a coefficient a=1 at stage j reads single spacer slots i = 1..r-1;
    # a slot is clean when no overridden index falls in [i, i+width-1]
    width = 1
    clean = sum(1 for i in range(1, r - width + 1)
                if not any(i <= o <= i + width - 1 for o in overridden))
    got = excision_factor(params, [(2, 1)])
    assert clean > 0
    assert got == F(clean, r)


def test_clean_window_count_matches_brute_force():
    """The cut-point sum against every window [i, i + width - 1],
    1 <= i <= r - width, on random cases and on the empty, r <= width and
    out-of-range-index cases."""
    def brute(r, width, overridden):
        return sum(1 for i in range(1, r - width + 1)
                   if not any(i <= t <= i + width - 1 for t in overridden))

    rng = np.random.default_rng(20261018)
    cases = [(10, 3, []), (5, 5, [2]), (4, 9, []), (6, 2, [-2, 0, 6, 9]),
             (7, 1, [3, 3, 7])]
    for _ in range(3000):
        r, width = int(rng.integers(0, 41)), int(rng.integers(0, 46))
        overridden = rng.integers(-2, r + 4, size=int(rng.integers(0, 9))).tolist()
        cases.append((r, width, overridden))
    for r, width, overridden in cases:
        assert weaktop._clean_window_count(r, width, overridden) == brute(
            r, width, overridden), (r, width, overridden)


def test_scan_identifies_trivial_shifts(small_build):
    params, hs, occ = small_build
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    rep = scan_limits(occ, hs, sg, [0, 1, -1], tol=F(1, 4),
                      panel=default_panel(occ), params=params)
    assert rep.entry(0).best_word == "I" and rep.entry(0).best_delta == 0
    assert rep.entry(1).best_word == "T" and rep.entry(1).best_delta == 0
    assert rep.entry(-1).best_word == "T^-1"
    assert rep.passed


def test_counting_never_materializes_copy_starts():
    params = gen_p_construction([coin()], 4, seed=3,
                                sidon_policy=SidonPolicy(cap=4099))
    hs = heights(params)
    occ = expand_occupancy(params, 2, 4)
    panel = default_panel(occ)
    sg = enumerate_semigroup(generator_series(params), 1, 1)
    scan_limits(occ, hs, sg, [hs[-2], -hs[-2] + 1], tol=F(1, 4), panel=panel,
                params=params)
    gen = FormalElement.from_series(generator_series(params)[0])
    weak_discrepancy(occ, -hs[-2], gen, panel)
    assert "copy_starts" not in occ.__dict__


def _spy_queries(monkeypatch):
    """Record the (los, width) of every engine query from here on."""
    calls = []
    windows = LevelOccupancy.pair_shift_windows

    def counting_windows(self, los, width):
        calls.append((list(los), width))
        return windows(self, los, width)

    monkeypatch.setattr(LevelOccupancy, "pair_shift_windows", counting_windows)
    return calls


def test_gap_scan_makes_one_window_query_per_shift(monkeypatch, small_build):
    """One engine query in all: a window at each exponent of the elements,
    for their models, then a window per gap shift.

    Asking each shift on its own would add a query per shift, and counting
    each difference of a panel on its own a width-1 query per difference.
    """
    params, hs, _ = small_build
    occ = expand_occupancy(params, 2, 4)
    panel = default_panel(occ)
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    gaps = sample_gap_shifts(hs, 6, rng_seed=5, lo=hs[2], hi=hs[3] // 2,
                             extra_lattice=(4099,))
    calls = _spy_queries(monkeypatch)
    rep = scan_limits(occ, hs, sg, gaps, tol=0.1, panel=panel, params=params)
    diffs = [a - b for A, B in panel.pairs for a in A for b in B]
    lo, hi = min(diffs), max(diffs)
    zs = sorted({z for el in sg for z, _ in el.coeffs})
    assert calls == [([m + lo for m in zs + gaps], hi - lo + 1)]
    assert all(e.best_word == "0" for e in rep.entries)


def test_weak_discrepancy_makes_one_query(monkeypatch, small_build):
    """The element's model and the shift's profile come from one engine query."""
    params, hs, occ = small_build
    gen = FormalElement.from_series(generator_series(params)[0])
    calls = _spy_queries(monkeypatch)
    weak_discrepancy(occ, -hs[-2], power(gen, 2), default_panel(occ))
    assert [len(los) for los, _ in calls] == [3 + 1]  # exponents 0, 1, 2 and m


def test_pair_counts_match_corr(small_build):
    """Each entry of a batched pair_counts is corr(m; A, B) asked alone."""
    params, hs, occ = small_build
    ms = [0, 5, -hs[-2], 2 * hs[-2] + 1]
    pairs = [((0,), (3,)), ((4, 1), (0, 2)), ((7,), (7,))]
    assert pair_counts(occ, ms, pairs) == [
        [corr(occ, m, A, B).count for A, B in pairs] for m in ms]
    assert pair_counts(occ, [], pairs) == []


def test_every_reader_rejects_out_of_range_labels(small_build):
    """A label outside [0, base_height) is a ValueError in every reader, not a
    count of positions that belong to no level."""
    params, hs, occ = small_build
    hb = occ.base_height
    bad = CorrelationPanel(occ.base_stage, (((0,), (1,)), ((0,), (hb + 1,))),
                           ("ok", "bad"))
    gen = FormalElement.from_series(generator_series(params)[0])
    readers = [
        lambda: pair_counts(occ, [0], [((0,), (hb,))]),
        lambda: corr(occ, 0, (-1,), (0,)),
        lambda: strong_norm_sq(occ, FormalElement.identity(), (-3,)),
        lambda: strong_norm_sq(occ, FormalElement.identity(), (hb + 7,)),
        lambda: strong_norm_sq(occ, FormalElement.zero(), (hb,)),
        lambda: weak_discrepancy(occ, hs[-2], gen, bad),
        lambda: scan_limits(occ, hs, [FormalElement.zero()], [hs[-2]], tol=0.1,
                            panel=bad),
    ]
    for read in readers:
        with pytest.raises(ValueError, match=r"labels outside \[0, %d\)" % hb):
            read()


def test_exact_tolerance_is_not_rounded(small_build):
    """An exact Fraction tol passes through unchanged, and a small float tol
    stays positive: m = 0 matches I at delta exactly 0, which is below a tol
    of 10**-30 or 1e-13."""
    params, hs, occ = small_build
    sg = [FormalElement.zero(), FormalElement.identity()]
    for tol in (F(1, 10 ** 30), 1e-13):
        [e] = scan_limits(occ, hs, sg, [0], tol=tol, params=params).entries
        assert e.best_word == "I" and e.best_delta == 0 and e.passed, tol


def test_row_counts_match_corr_and_materialized_starts(small_build):
    """Every PairRow.count of a scan and a discrepancy is the exact pair count.

    Each equals corr(m, A, B).count and a recount by intersecting the
    materialized starts, the multi-label union01 row included.
    """
    params, hs, occ = small_build
    panel = default_panel(occ)
    assert "union01" in panel.names
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    gen = FormalElement.from_series(generator_series(params)[0])
    ms = [0, 3, hs[-2], -hs[-2] + 1, 2 * hs[-2]]
    scan = scan_limits(occ, hs, sg, ms, tol=F(1, 3), panel=panel, params=params)
    reports = [(e.m, e.rows) for e in scan.entries] + [
        (m, weak_discrepancy(occ, m, gen, panel).rows) for m in (-hs[-2], 7)]
    starts = occ.copy_starts

    def recount(m, A, B):
        return sum(int(np.intersect1d(starts + a + m, starts + b,
                                      assume_unique=True).size)
                   for a in A for b in B)

    for m, rows in reports:
        assert [row.name for row in rows] == list(panel.names)
        for row, (A, B) in zip(rows, panel.pairs):
            assert row.count == corr(occ, m, A, B).count == recount(m, A, B), (m, row)


def test_scan_matches_late_stage_powers(small_build):
    params, hs, occ = small_build
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    ms = [hs[-2], -hs[-2], 2 * hs[-2], -2 * hs[-2]]
    rep = scan_limits(occ, hs, sg, ms, tol=F(1, 3),
                      panel=default_panel(occ), params=params)
    assert rep.entry(hs[-2]).best_word == "P1*"
    assert rep.entry(-hs[-2]).best_word == "P1"
    assert rep.entry(2 * hs[-2]).best_word == "P1*^2"
    assert rep.entry(-2 * hs[-2]).best_word == "P1^2"
    for e in rep.entries:
        assert e.predicted_is_best


def test_scan_csv_shape(tmp_path, small_build):
    params, hs, occ = small_build
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    rep = scan_limits(occ, hs, sg, [0, hs[-2]], tol=F(1, 3),
                      panel=default_panel(occ), params=params)
    out = tmp_path / "scan.csv"
    write_scan_csv(rep, out, include_timestamp=False)
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# base_stage=")
    assert lines[1] == "m,id,count,normalized,delta,boundary_loss,best_match_word"
    n_pairs = len(default_panel(occ).pairs)
    # per shift: one row per panel pair plus an OVERALL row
    assert len(lines) == 2 + 2 * (n_pairs + 1)
    overall = [ln for ln in lines if ",OVERALL," in ln]
    assert len(overall) == 2

    # timestamped variant only adds a header line
    out2 = tmp_path / "scan2.csv"
    write_scan_csv(rep, out2, include_timestamp=True)
    lines2 = out2.read_text().strip().split("\n")
    assert lines2[0].startswith("# generated ")
    assert lines2[1:] == lines


def test_boundary_loss_saturates():
    assert boundary_loss(10, 100) == F(1, 10)
    assert boundary_loss(-10, 100) == F(1, 10)
    assert boundary_loss(1000, 100) == 1
    assert boundary_loss(0, 100) == 0
