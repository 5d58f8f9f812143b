import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rankone import construction, weaktop
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
    _to_fraction,
    adjoint,
    convolve,
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
    predicted_element,
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
    assert (c.count, F(c.count, c.mu_a)) == (1, F(1, 2))


def test_corr_zero_shift_is_identity():
    occ = expand_occupancy(gen_example("two-column", 5), 2, 5)
    for b in range(occ.base_height):
        c = corr(occ, 0, (b,), (b,))
        assert F(c.count, c.mu_a) == 1
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
    mu = len(A) * occ.n_copies
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
        assert rep.delta == 0 and type(rep.delta) is F


def test_weak_discrepancy_zero_element_reads_peak(small_build):
    _, _, occ = small_build
    panel = default_panel(occ)
    rep = weak_discrepancy(occ, 0, FormalElement.zero(), panel)
    assert rep.delta == 1 and type(rep.delta) is F  # corr(0; A, A) = 1 on singletons


def test_weak_discrepancy_tracks_generator(small_build):
    params, hs, occ = small_build
    panel = default_panel(occ)
    gen = FormalElement.from_series(generator_series(params)[0])
    rec = params.meta["stages"][-1]
    eps = F(rec["eps"])
    rep = weak_discrepancy(occ, -hs[-2], gen, panel)
    assert rep.delta < eps + 3 * rep.boundary_loss
    assert type(rep.boundary_loss) is F and rep.delta_exact is rep.delta


def test_weak_discrepancy_rows_match_corr(small_build):
    """Each row read from a report is count / mu(A) against
    sum_z Q(z) corr(z; A, B) / mu(A), and the largest row deviation is the
    report's delta."""
    params, hs, occ = small_build
    panel = default_panel(occ)
    gen = FormalElement.from_series(generator_series(params)[0])
    rep = weak_discrepancy(occ, -hs[-2], gen, panel)
    for row, (A, B) in zip(rep.rows, panel.pairs):
        mu = len(A) * occ.n_copies
        model = sum(q * F(corr(occ, z, A, B).count, mu) for z, q in gen.coeffs)
        assert (row.normalized, row.model) == (F(row.count, mu), model), row.name
        assert row.delta == abs(row.normalized - row.model)
    assert max(row.delta for row in rep.rows) == rep.delta


def test_uncapped_probes_search_one_level(monkeypatch):
    """The uncapped coin build over stages 4..6 has two wide levels.  A
    probe at +-a*h_j (+1) searches the offset pairs of one level; at the
    other its clusters lie inside the smallest offset gap and reach only
    each offset's pair with itself.  The probe at m = 0 searches neither."""
    params = gen_p_construction([coin()], J=6, seed=0, eps_schedule=lambda j: F(2, j + 1))
    hs = heights(params)
    occ = expand_occupancy(params, 4, 6)
    assert occ._lag_bands == (None, None)
    panel = default_panel(occ)
    gen = FormalElement.from_series(generator_series(params)[0])
    searches = []
    search = construction._wrapped_pairs

    def counting(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(construction, "_wrapped_pairs", counting)
    star = power(adjoint(gen), 2)
    for m, Q, n in ((0, FormalElement.identity(), 0),
                    (-hs[3], gen, 1), (2 * hs[3] + 1, convolve(FormalElement.t_power(1), star), 1),
                    (-hs[4], gen, 1), (2 * hs[4], star, 1)):
        searches.clear()
        weak_discrepancy(occ, m, Q, panel)
        assert len(searches) == n, m


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


# check 5's rejection lattice: capped_build's heights and the cap 65537
_STOCK_GAP_LATTICE = [4, 264, 65537, 137068, 20297299, 10400606016, 10650233930334]


def _brute_hadic(m, hs, a_bound, z_bound):
    """The docstring's preferred representation as (terms, z), or None: the
    least key (count, weight, |z|, terms, z) over every bounded
    representation.  Every coefficient vector is walked, pruned only where
    the stages below cannot reach the remainder any more."""
    keys = []

    def walk(i, rem, terms):
        if i < 0:
            if abs(rem) <= z_bound:
                weight = sum(abs(a) for _, a in terms)
                keys.append((len(terms), weight, abs(rem), tuple(terms), rem))
            return
        below = a_bound * sum(hs[:i]) + z_bound
        for a in range(-a_bound, a_bound + 1):
            if abs(rem - a * hs[i]) <= below:
                walk(i - 1, rem - a * hs[i], terms + [(i + 1, a)] if a else terms)

    walk(len(hs) - 1, m, [])
    return min(keys)[3:] if keys else None


def test_hadic_brute_force_agreement():
    """hadic_decompose returns the preferred representation, and None
    exactly when no bounded one exists, also on lattices whose stages lie
    close together."""
    cases = [([2, 11, 61, 500], 2, 3, m) for m in range(-150, 151)]
    cases += [
        ([3, 5], 1, 1, -4),  # -3 - 1 and -5 + 1 tie up to the terms
        ([17, 36, 46], 3, 2, -197),
        ([23, 33, 44, 49], 2, 0, -172),  # -49 - 44 - 33 - 2*23
        # 20297299 - 2*137068 - 4*65537 + 264 + 110
        (_STOCK_GAP_LATTICE, 4, 128, 19761389),
        (_STOCK_GAP_LATTICE, 3, 128, 65403),  # 65537 - 2*4 - 126
    ]
    rng = random.Random(3)
    for _ in range(300):
        hs = sorted(rng.sample(range(1, 60), rng.randint(1, 4)))
        cases.append((hs, rng.randint(0, 3), rng.randint(0, 4), rng.randint(-250, 250)))
    for hs, a_bound, z_bound, m in cases:
        dec = hadic_decompose(m, hs, a_bound, z_bound)
        got = None if dec is None else (dec.terms, dec.z)
        assert got == _brute_hadic(m, hs, a_bound, z_bound), (hs, a_bound, z_bound, m)


# --- gap sampling, excision factor, scans ---------------------------------------

def test_sample_gap_shifts_avoids_lattice():
    hs = [4, 64, 1024, 16384, 262144]
    gaps = sample_gap_shifts(hs, 16, rng_seed=2)
    assert len(gaps) == len(set(gaps)) == 16
    for m in gaps:
        assert hadic_decompose(m, hs, 3, 128) is None
        assert hs[-2] <= m < hs[-1] // 4


def _gap_shifts_one_word_at_a_time(heights, n, rng_seed, lo, hi, extra_lattice=()):
    """The sampler's draw, one 32-bit word per call: (shifts, words drawn),
    or (None, words drawn) when 1000 * n words yield fewer than n shifts."""
    lattice = sorted(set(heights) | set(extra_lattice))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_seed)))
    out, span = [], hi - lo + 1
    for drawn in range(1000 * n):
        if len(out) == n:
            return out, drawn
        m = lo + (int(rng.integers(0, 1 << 32)) * span >> 32)
        if hadic_decompose(m, lattice, 3, 128) is None:
            out.append(m)
    return (out if len(out) == n else None), 1000 * n


def _count_decompositions(monkeypatch):
    """Record the shift of every hadic_decompose call from here on."""
    calls = []
    decompose = weaktop.hadic_decompose

    def counting(m, heights, a_bound, z_bound):
        calls.append(m)
        return decompose(m, heights, a_bound, z_bound)

    monkeypatch.setattr(weaktop, "hadic_decompose", counting)
    return calls


def test_sample_gap_shifts_matches_single_word_draws(monkeypatch):
    """Words drawn in batches are the words of one draw per candidate, so
    the shifts equal those of the one-word oracle, and the sampler
    decomposes exactly the candidates the oracle draws: on spans below
    2**32 over several seeds, on check 5's stage-5 span above 2**32, and
    on a range around h4 where most candidates decompose."""
    from rankone.acceptance import capped_build

    calls = _count_decompositions(monkeypatch)
    hs = [4, 64, 1024, 16384, 262144]
    _, caps, _ = capped_build()
    assert caps[5] // 2 - caps[4] > 2 ** 32
    cases = [(hs, n, seed, hs[-2], hs[-1] // 4, ()) for n, seed in
             ((16, 2), (5, 0), (40, [7, 4]), (1, 2 ** 40))]
    cases += [(caps, 32, [seed, 5], caps[4], caps[5] // 2, (65537,)) for seed in (1, 1003)]
    cases.append((hs, 12, 3, hs[3] - 3000, hs[3] + 3000, ()))
    rejected = 0
    for heights, n, seed, lo, hi, extra in cases:
        want, drawn = _gap_shifts_one_word_at_a_time(heights, n, seed, lo, hi, extra)
        calls.clear()
        got = sample_gap_shifts(heights, n, rng_seed=seed, lo=lo, hi=hi,
                                extra_lattice=extra)
        assert got == want and len(calls) == drawn, (n, seed, lo, hi)
        rejected += drawn - n
    assert rejected > 24


def test_sample_gap_shifts_gives_up_after_1000_draws_per_shift(monkeypatch):
    """Every shift in [1, 100] is its own remainder (|z| <= 128), so no
    candidate is a gap shift: the sampler raises once it has drawn and
    decomposed 1000 * n of them."""
    calls = _count_decompositions(monkeypatch)
    for n in (1, 3):
        calls.clear()
        with pytest.raises(ValueError, match="not converging"):
            sample_gap_shifts([4, 64, 1024], n, rng_seed=0, lo=1, hi=100)
        assert len(calls) == 1000 * n


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
    assert rep.entry(0).best_word == "I" and rep.entry(0).delta == 0
    assert rep.entry(1).best_word == "T" and rep.entry(1).delta == 0
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


def test_pair_counts_sum_past_int64():
    """2**62 copies: pair ((0, 1), (0, 1)) at m = 0 reads 2**62 pairs at each
    of its two diagonal terms, so its sum 2**63 is taken in Python ints,
    where int64 would wrap it to -2**63."""
    occ = LevelOccupancy(1, 63, 2, 2 ** 63, tuple([0, 2 ** (j + 1)] for j in range(62)))
    assert occ.n_copies == 2 ** 62
    assert pair_counts(occ, [0], [((0, 1), (0, 1))]) == [[2 ** 63]]
    [[small, big]] = pair_counts(occ, [0], [((0,), (0,)), ((0, 1), (0, 1))])
    assert (small, big) == (2 ** 62, 2 ** 63) and type(small) is int
    # a repeated label counts twice: |A||B| * n_copies is exactly 2**63 here
    assert pair_counts(occ, [0], [((0, 0), (0,))]) == [[2 ** 63]]


def test_pair_counts_reject_an_empty_label_set(small_build):
    _, _, occ = small_build
    with pytest.raises(ValueError, match="empty label set"):
        pair_counts(occ, [0], [((0,), (1,)), ((), (1,))])


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
        assert e.best_word == "I" and e.delta == 0 and e.passed, tol


@pytest.mark.parametrize("tol", [0, -1, F(-1, 3), -0.25])
def test_scan_rejects_a_tolerance_of_zero_or_less(small_build, tol):
    """No delta is below such a tolerance, so every shift would fail."""
    params, hs, occ = small_build
    with pytest.raises(ValueError, match="tolerance must be positive"):
        scan_limits(occ, hs, [FormalElement.identity()], [0], tol=tol, params=params)


def test_scan_tolerance_forms_give_equal_reports(small_build):
    """A tolerance given as the string "1/3", Fraction(1, 3) or the float
    1/3 is the same exact 1/3, and "0.1" and 0.1 the same 1/10: the
    reports are equal, their exact tol included."""
    params, hs, occ = small_build
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    ms = [0, 3, hs[-2], -hs[-2] + 1, 2 * hs[-2]]
    for forms in (("1/3", F(1, 3), 1 / 3), ("0.1", 0.1)):
        reps = [scan_limits(occ, hs, sg, ms, tol=tol, params=params) for tol in forms]
        assert all(rep == reps[0] for rep in reps[1:]), forms
        assert type(reps[0].tol) is F and reps[0].tol == F(forms[0])


def _ranking_oracle(occ, hs, elems, panel, params, m):
    """(cor, raw, denominator, factor) of shift m as scan_limits scores it,
    and its elements sorted by (corrected, raw, word, index)."""
    factor = F(1)
    dec = hadic_decompose(m, hs, 3, 4)
    if dec is not None and dec.terms and min(dec.stages) >= occ.base_stage:
        factor = excision_factor(params, dec.terms) or F(1)
    models, [counts] = weaktop._panel_models(occ, elems, panel, [m])
    [cor], [raw] = weaktop.score_elements(models, [counts], [factor])
    ranked = sorted(zip(cor, raw, [el.word for el in elems], range(len(elems))))
    return cor, raw, models, factor, [e for *_, e in ranked]


@pytest.mark.parametrize("big", [False, True])
def test_scan_ranking_matches_a_sorted_oracle(small_build, big):
    """Each entry's best and runner-up are the first two of
    sorted(zip(cor, raw, words, range(E))).  The elements tie on
    (cor, raw) under different words (I and its copy "A"), repeat a word
    ("0" on the zero element and on T^2) and repeat an element exactly (a
    second I).  With an element of denominator 2**61 - 1 the scores are
    Python ints (object arrays)."""
    params, hs, occ = small_build
    panel = default_panel(occ)
    ident = FormalElement.identity()
    elems = [FormalElement.zero(), ident, FormalElement.t_power(1),
             FormalElement.from_coeffs({0: 1}, word="A"), ident,
             FormalElement.from_coeffs({2: 1}, word="0"),
             FormalElement.from_coeffs({0: F(1, 2), 1: F(1, 2)}, word="P")]
    if big:
        elems.append(FormalElement.from_coeffs({0: F(1, 2 ** 61 - 1), 1: F(1, 3)},
                                               word="big"))
    ms = [0, 1, -1, 2, 3, hs[-2], -hs[-2] + 1, 2 * hs[-2], -hs[-3] - 2, 3000]
    rep = scan_limits(occ, hs, elems, ms, tol=F(1, 3), panel=panel, params=params)
    assert rep.entry(0).best_word == "A" and rep.entry(0).runner_up_word == "I"
    assert rep.entry(2).best_word == "0" and rep.entry(2).model != rep.entry(3).model
    for m, e in zip(ms, rep.entries):
        cor, raw, models, factor, order = _ranking_oracle(occ, hs, elems, panel, params, m)
        best, runner = order[:2]
        D = models.denominator
        assert (e.best_word, e.runner_up_word) == (elems[best].word, elems[runner].word), m
        assert e.model == tuple(models.values[best].tolist()), m
        assert e.delta == F(int(raw[best]), D) and e.correction == factor
        assert e.delta_corrected == F(int(cor[best]), D * factor.numerator)
        assert e.margin == F(int(cor[runner]) - int(cor[best]), D * factor.numerator)
        assert all(type(v) is int for v in (*e.counts, *e.model, e.denominator))
        assert all(type(v) is F for v in (e.delta, e.delta_corrected, e.tol,
                                          e.boundary_loss, e.correction, e.margin))
    # the big element's scores pass int64, so the block is ranked as objects
    assert (max(int(cor.max()), int(raw.max())) >= 2 ** 63) is big


def test_scan_verdicts_are_decided_exactly_at_the_edge(small_build):
    """passed is raw/D < tol + 3 * bloss, decided in integers: a tolerance
    that puts the edge exactly on raw/D fails, and one that puts it one unit
    1/D above passes.  tol, boundary_loss and correction are those exact
    Fractions, and |m| >= window saturates the loss at 1."""
    params, hs, occ = small_build
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    W = occ.window
    for m in (3, -hs[-2] + 1, hs[-2], 2 * hs[-2]):
        [e] = scan_limits(occ, hs, sg, [m], tol=1, params=params).entries
        D = e.denominator
        raw = max(abs(c * w - v) for c, w, v in zip(e.counts, e.weights, e.model))
        assert F(raw, D) == e.delta
        bloss = boundary_loss(m, W)
        edge = F(raw, D) - 3 * bloss
        assert edge > 0, m
        for tol, passed in ((edge, False), (edge + F(1, D), True)):
            [e] = scan_limits(occ, hs, sg, [m], tol=tol, params=params).entries
            assert e.passed is passed, (m, tol)
            assert e.tol == tol + 3 * bloss and type(e.tol) is F
            assert e.boundary_loss == bloss and type(e.boundary_loss) is F
    for m in (W + 50, -W - 50, 3 * W + 77, -2 * W - 60):
        for tol in (F(1, 3), 0.1, F(1, 10 ** 30)):
            [e] = scan_limits(occ, hs, sg, [m], tol=tol, params=params).entries
            assert e.boundary_loss == 1 and e.passed
            assert e.tol == _to_fraction(tol) + 3
    ms = [0, 1, 7, hs[-2], -hs[-2], 2 * hs[-2] + 1, W // 3, -W // 2]
    for tol in (F(1, 3), 0.1, F(2, 7), F(1, 10 ** 30)):
        rep = scan_limits(occ, hs, sg, ms, tol=tol, params=params)
        for m, e in zip(ms, rep.entries):
            bloss = boundary_loss(m, W)
            assert e.tol == _to_fraction(tol) + 3 * bloss
            assert e.boundary_loss == bloss
            factor = F(1)
            if e.decomposition is not None and e.decomposition.terms and \
                    min(e.decomposition.stages) >= occ.base_stage:
                factor = excision_factor(params, e.decomposition.terms) or F(1)
            assert e.correction == factor and type(e.correction) is F


def test_shifts_through_the_window_height_get_no_prediction(small_build):
    """Shifts decompose over the heights below the window only, as the
    window's own height h_top is no stage the occupancy composes.  h4, -h4,
    2*h4 + 1 and +-(h4 - h3) then have no decomposition, no prediction and
    a correction of 1.  On the occupancy expanded over stages 2..3, whose
    window is h3, h3 - h2 gets none either, though it decomposes over the
    whole tower as h3 - h2, through stage 3's overrides."""
    params, hs, occ = small_build
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    low = expand_occupancy(params, 2, 3)
    assert hadic_decompose(hs[2] - hs[1], hs, 3, 4).terms == ((3, 1), (2, -1))
    for o, ms in ((occ, [hs[3], -hs[3], 2 * hs[3] + 1, hs[3] - hs[2], hs[2] - hs[3]]),
                  (low, [hs[2] - hs[1]])):
        rep = scan_limits(o, hs, sg, ms, tol=F(1, 3), params=params)
        for e in rep.entries:
            assert e.decomposition is None and e.predicted_word is None, e.m
            assert e.predicted_is_best is None and e.correction == 1, e.m


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


def test_predicted_delta_is_the_predicted_elements_discrepancy(small_build):
    """An entry's predicted_delta is weak_discrepancy's exact delta of the
    shift against the element its decomposition predicts."""
    params, hs, occ = small_build
    panel = default_panel(occ)
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    ms = [0, 1, hs[-2], -hs[-2], 2 * hs[-2], -2 * hs[-2], hs[-2] + 1, hs[-3] - hs[-2]]
    rep = scan_limits(occ, hs, sg, ms, tol=F(1, 3), panel=panel, params=params)
    n_predicted = 0
    for e in rep.entries:
        if e.predicted_delta is not None:
            want = weak_discrepancy(occ, e.m, predicted_element(e.decomposition, params),
                                    panel).delta
            assert e.predicted_delta == want and type(e.predicted_delta) is F, e.m
            n_predicted += 1
    assert n_predicted >= 6


def test_predicted_delta_reads_the_first_equal_element(small_build, monkeypatch):
    """Among coefficient-equal candidates under different words, the
    prediction reads the first one's score.  Equal elements score alike, so
    the raw scores are offset by each element's place to tell them apart."""
    params, hs, occ = small_build
    m = hs[-2]
    dec = hadic_decompose(m, [h for h in hs if h < occ.window], 3, 4)
    pred = predicted_element(dec, params)
    candidates = [FormalElement.zero(), FormalElement(pred.den, pred.nums, "twin"), pred]
    plain = scan_limits(occ, hs, candidates, [m], tol=F(1, 3), params=params).entries[0]
    score, denominators = weaktop.score_elements, []

    def offset(models, counts, factors):
        denominators.append(models.denominator)
        c, r = score(models, counts, factors)
        return c, r + np.arange(r.shape[1])

    monkeypatch.setattr(weaktop, "score_elements", offset)
    e = scan_limits(occ, hs, candidates, [m], tol=F(1, 3), params=params).entries[0]
    assert e.decomposition == dec and e.predicted_word == pred.word != "twin"
    assert e.predicted_delta == plain.predicted_delta + F(1, denominators[0])


def test_scan_csv_shape(tmp_path, small_build):
    params, hs, occ = small_build
    sg = enumerate_semigroup(generator_series(params), 2, 1)
    rep = scan_limits(occ, hs, sg, [0, hs[-2]], tol=F(1, 3),
                      panel=default_panel(occ), params=params)
    out = tmp_path / "scan.csv"
    out.write_text(write_scan_csv(rep, include_timestamp=False))
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
    out2.write_text(write_scan_csv(rep, include_timestamp=True))
    lines2 = out2.read_text().strip().split("\n")
    assert lines2[0].startswith("# generated ")
    assert lines2[1:] == lines


def _run_demo(name: str, cwd: Path) -> str:
    """The stdout of ``demos/<name>.py`` run in ``cwd``, which must exit 0."""
    src = Path(weaktop.__file__).resolve().parent.parent
    demo = Path(__file__).resolve().parent.parent / "demos" / f"{name}.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_demo_scan_csv_is_byte_identical(tmp_path):
    """Demo 03 writes the scan CSV checked in as tests/data/scan_demo.csv."""
    _run_demo("03_weak_limit_scan", tmp_path)
    want = Path(__file__).resolve().parent / "data" / "scan_demo.csv"
    assert (tmp_path / "scan_demo.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("name", ["01_build_and_heights", "02_frequency_gate",
                                  "03_weak_limit_scan", "04_semigroup_table"])
def test_demo_stdout_is_byte_identical(tmp_path, name):
    """Each demo prints the text checked in as tests/data/<demo>.stdout."""
    want = Path(__file__).resolve().parent / "data" / f"{name}.stdout"
    assert _run_demo(name, tmp_path).encode() == want.read_bytes()


def test_boundary_loss_saturates():
    assert boundary_loss(10, 100) == F(1, 10)
    assert boundary_loss(-10, 100) == F(1, 10)
    assert boundary_loss(1000, 100) == 1
    assert boundary_loss(0, 100) == 0
