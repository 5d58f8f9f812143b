"""The nine acceptance checks, one test (and one pass/fail line) each.

Heavy builds are shared through the session-scoped cache fixture.  The
frozen values pinned here (column counts, windows, match counts) were
measured once at the pinned seeds and must reproduce exactly.
"""

from fractions import Fraction

import pytest

from rankone import acceptance as acc
from rankone.construction import (
    LevelOccupancy,
    SidonPolicy,
    expand_occupancy,
    gen_p_construction,
    generator_series,
    heights,
)
from rankone.series import (
    FormalElement,
    adjoint,
    enumerate_semigroup,
    make_admissible,
    power,
)
from rankone.weaktop import default_panel, hadic_decompose, scan_limits, weak_discrepancy

F = Fraction

CAPPED_COLUMNS = (16, 16, 128, 512, 1024)
CAPPED_WINDOW = 10650233930334
TWOGEN_COLUMNS = (32, 64, 1024, 2048, 4096)
TWOGEN_WINDOW = 16105285798326349
LITERAL_COLUMNS = (16, 64, 256, 2048, 1024)
LITERAL_WINDOW = 936553966758494
CHECK_2_DETAIL = ("864 disjointness pairs, worst correlation 0.0000; worst "
                  "return margin +0.0042 over floor 1-1/r-2*bloss")
CHECK_5_DETAIL = ("64/64 gap shifts best-match the zero element; "
                  "worst delta 0.0000 (< 0.1)")


def _report(res):
    print(res.line())
    assert res.passed, res.line()
    return res


def test_criterion_1_height_recurrence(crit_cache):
    res = _report(acc.check_height_recurrence(crit_cache))
    assert res.detail == ("200/200 random parameter sets satisfy "
                          "h_next = h*r + sum(spacers) exactly")


def test_criterion_2_level_return_identities(crit_cache):
    res = _report(acc.check_level_return_identities(crit_cache))
    assert res.detail == CHECK_2_DETAIL


def test_criterion_2_asks_one_window_per_shift(monkeypatch):
    """Check 2 reads all its label pairs of a shift from one window, and
    asks the windows of all its shifts in one batched query.

    Three stages, four shifts each (+-h_j, +-2h_j): one query of 12 rows,
    where one query per shift would be 12 and one count per label pair 936.
    """
    calls = []
    windows = LevelOccupancy.pair_shift_windows

    def counting_windows(self, los, width):
        calls.append((list(los), width))
        return windows(self, los, width)

    monkeypatch.setattr(LevelOccupancy, "pair_shift_windows", counting_windows)
    res = acc.check_level_return_identities()
    assert res.passed and res.detail == CHECK_2_DETAIL
    [(los, width)] = calls
    assert len(los) == 12 and width == 2 * 12 - 1  # 12 = base height h_2


def test_criterion_3_frequency_gate(crit_cache):
    res = _report(acc.check_frequency_gate(crit_cache))
    assert res.detail == ("20/20 seeds rebuild and re-pass the stage gates "
                          "(eps_j = 1/(j+1), order min(j,4)); seed 0 ok")


def test_criterion_4_single_power_limits(crit_cache):
    res = _report(acc.check_single_power_limits(crit_cache))
    assert res.detail == ("8 shift/power pairs on stages 4,5; worst delta/tol "
                          "= 0.640 (m=2*h4 vs P1*^2)")
    params, hs, occ = acc.capped_build(crit_cache)
    assert tuple(st.r for st in params.stages) == CAPPED_COLUMNS
    assert hs[-1] == CAPPED_WINDOW
    assert occ.uses_int64 and occ.n_copies == 512 * 1024


def test_criterion_5_gap_shifts(crit_cache):
    res = _report(acc.check_gap_shifts(crit_cache))
    assert res.detail == CHECK_5_DETAIL


def test_criterion_5_counts_the_element_models_once(monkeypatch, crit_cache):
    """Both stage ranges' 64 gap shifts go through one scan, and the scan
    makes one engine query: a row at each exponent of the elements, for
    their models, then the 64 profile rows (one query per shift made 65).
    The detail line is unchanged."""
    params, _, _ = acc.capped_build(crit_cache)
    sg = enumerate_semigroup(generator_series(params)[:1], 2, 1)
    zs = {z for el in sg for z, _ in el.coeffs}
    calls = []
    windows = LevelOccupancy.pair_shift_windows

    def counting_windows(self, los, width):
        calls.append((list(los), width))
        return windows(self, los, width)

    monkeypatch.setattr(LevelOccupancy, "pair_shift_windows", counting_windows)
    res = acc.check_gap_shifts(crit_cache)
    assert res.passed and res.detail == CHECK_5_DETAIL
    assert [len(los) for los, _ in calls] == [len(zs) + 64]


def test_criterion_5_claim_fails_at_a_shift_its_sampler_accepts(crit_cache):
    """A recorded finding, not a target.  m = 4*h5 + 2 lies in check 5's
    stage-5 range and has no bounded decomposition over the lattice its
    sampler rejects (heights and the cap 65537, a <= 3, z <= 128), so the
    sampler would accept it.  A scan with check 5's panel and degree-2
    semigroup ranks 0 best there, but at raw delta 0.1245, not below 0.1:
    check 5 holds for its random samples, not for its whole range."""
    params, hs, occ = acc.capped_build(crit_cache)
    h5, h6 = hs[4], hs[5]
    m = 4 * h5 + 2
    assert h5 <= m <= h6 // 2
    assert hadic_decompose(m, sorted(set(hs) | {65537}), 3, 128) is None
    sg = enumerate_semigroup(generator_series(params)[:1], 2, 1)
    rep = scan_limits(occ, hs, sg, [m], tol=0.1, panel=default_panel(occ),
                      params=params, z_bound=4)
    (entry,) = rep.entries
    assert entry.best_word == "0"
    assert entry.best_delta >= 0.1 and f"{entry.best_delta:.4f}" == "0.1245"


def test_criterion_6_strong_decay(crit_cache):
    res = _report(acc.check_strong_decay(crit_cache))
    assert res.detail == ("norm^2 at n=32 is 0.0993 (= binom(64,32)/4^32 exactly), "
                          "monotone within 0.05; max coefficient of P^32 = 0.1399")


def test_criterion_6_makes_one_recursion_per_norm(monkeypatch, crit_cache):
    """Each of check 6's 32 norms is one query, and each query is one
    recursion from the top level, however narrow its rows."""
    top_calls = []
    window_hits = LevelOccupancy._window_hits

    def counting_hits(self, level, starts, width):
        if level == len(self.stage_offsets):
            top_calls.append(starts.size)
        return window_hits(self, level, starts, width)

    monkeypatch.setattr(LevelOccupancy, "_window_hits", counting_hits)
    assert acc.check_strong_decay(crit_cache).passed
    assert len(top_calls) == 32


def test_criterion_7_algebra_properties(crit_cache):
    res = _report(acc.check_algebra_properties(crit_cache))
    assert res.detail == "333 random triples x 5 exact identities, 0 failures"


def test_criterion_8_sparse_vs_naive(crit_cache):
    res = _report(acc.check_sparse_vs_naive(crit_cache))
    assert res.detail == "100/100 random (m, A, B) agree exactly across 2 small builds"


def test_criterion_9_compound_limits(crit_cache):
    res = _report(acc.check_compound_limits(crit_cache))
    assert res.detail == ("17/17 shifts best-match their predicted product form; "
                          "worst raw delta 0.2529 (tol 1/3 + 3*bloss), "
                          "worst id margin 0.0049")
    params, hs, occ = acc.twogen_build(crit_cache)
    assert tuple(st.r for st in params.stages) == TWOGEN_COLUMNS
    assert hs[-1] == TWOGEN_WINDOW
    assert occ.uses_int64 and occ.n_copies == 2048 * 4096


# --- literal-schedule companion ---------------------------------------------
#
# With the strict 1/(j+1) gate schedule the desk-scale single-power check
# holds at m = 1 but NOT at m = 2: the stage-j override excision removes
# about a 2/j share of the order-2 windows, which exceeds 1/(j+1) at every
# stage.  The m=1 half passes; the m=2 half is pinned as a strict expected
# failure so a behavior change cannot slip by unnoticed.

@pytest.fixture(scope="module")
def literal_build(crit_cache):
    if "literal" not in crit_cache:
        params = gen_p_construction(
            [make_admissible({0: F(1, 2), 1: F(1, 2)})], J=6, seed=0,
            sidon_policy=SidonPolicy(cap=65537))
        crit_cache["literal"] = (params, heights(params),
                                 expand_occupancy(params, 4, 6))
    return crit_cache["literal"]


def _literal_deltas(literal_build, m_abs):
    params, hs, occ = literal_build
    panel = default_panel(occ)
    gen = FormalElement.from_series(generator_series(params)[0])
    out = []
    for j in (4, 5):
        eps = F(next(rec["eps"] for rec in params.meta["stages"]
                     if rec["j"] == j))
        rep = weak_discrepancy(occ, m_abs * hs[j - 1],
                               power(adjoint(gen), m_abs), panel)
        out.append((rep.delta, float(eps + 3 * rep.boundary_loss)))
    return out


def test_literal_schedule_columns_pinned(literal_build):
    params, hs, _ = literal_build
    assert tuple(st.r for st in params.stages) == LITERAL_COLUMNS
    assert hs[-1] == LITERAL_WINDOW


def test_literal_schedule_m1_within_tolerance(literal_build):
    for delta, tol in _literal_deltas(literal_build, 1):
        assert delta < tol


@pytest.mark.xfail(strict=True,
                   reason="order-2 override excision exceeds the literal "
                          "1/(j+1) schedule at desk scale")
def test_literal_schedule_m2_within_tolerance(literal_build):
    for delta, tol in _literal_deltas(literal_build, 2):
        assert delta < tol
