"""The nine acceptance checks, one test (and one pass/fail line) each.

The acceptance module makes each of its two pinned builds once per
process, and a module-scoped fixture makes the literal-schedule build.
The frozen values pinned here (column counts, windows, match counts)
were measured once at the pinned seeds and must reproduce exactly.
"""

import dataclasses
import functools
import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rankone import acceptance as acc
from rankone import weaktop
from rankone.construction import (
    ColumnGrowthPolicy,
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


def test_criterion_1_height_recurrence():
    res = _report(acc.check_height_recurrence())
    assert res.detail == ("200/200 random parameter sets satisfy "
                          "h_next = h*r + sum(spacers) exactly")


def test_criterion_2_level_return_identities():
    res = _report(acc.check_level_return_identities())
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


def test_criterion_3_frequency_gate():
    res = _report(acc.check_frequency_gate())
    assert res.detail == ("20/20 seeds rebuild and re-pass the stage gates "
                          "(eps_j = 1/(j+1), order min(j,4)); seed 0 ok")


def test_criterion_4_single_power_limits():
    res = _report(acc.check_single_power_limits())
    assert res.detail == ("8 shift/power pairs on stages 4,5; worst delta/tol "
                          "= 0.640 (m=2*h4 vs P1*^2)")
    params, hs, occ = acc.capped_build()
    assert tuple(st.r for st in params.stages) == CAPPED_COLUMNS
    assert hs[-1] == CAPPED_WINDOW
    assert occ.uses_int64 and occ.n_copies == 512 * 1024


def test_criterion_5_gap_shifts():
    res = _report(acc.check_gap_shifts())
    assert res.detail == CHECK_5_DETAIL


def test_criterion_5_counts_the_element_models_once(monkeypatch):
    """Both stage ranges' 64 gap shifts go through one scan, and the scan
    makes one engine query: a row at each exponent of the elements, for
    their models, then the 64 profile rows (one query per shift made 65).
    The detail line is unchanged."""
    params, _, _ = acc.capped_build()
    sg = enumerate_semigroup(generator_series(params)[:1], 2, 1)
    zs = {z for el in sg for z, _ in el.coeffs}
    calls = []
    windows = LevelOccupancy.pair_shift_windows

    def counting_windows(self, los, width):
        calls.append((list(los), width))
        return windows(self, los, width)

    monkeypatch.setattr(LevelOccupancy, "pair_shift_windows", counting_windows)
    res = acc.check_gap_shifts()
    assert res.passed and res.detail == CHECK_5_DETAIL
    assert [len(los) for los, _ in calls] == [len(zs) + 64]


def test_criterion_5_claim_fails_at_a_shift_its_sampler_accepts():
    """A recorded finding, not a target.  m = 4*h5 + 2 lies in check 5's
    stage-5 range and has no bounded decomposition over the lattice its
    sampler rejects (heights and the cap 65537, a <= 3, z <= 128), so the
    sampler would accept it.  A scan with check 5's panel and degree-2
    semigroup ranks 0 best there, but at raw delta 0.1245, not below 0.1:
    check 5 holds for its random samples, not for its whole range."""
    params, hs, occ = acc.capped_build()
    h5, h6 = hs[4], hs[5]
    m = 4 * h5 + 2
    assert h5 <= m <= h6 // 2
    assert hadic_decompose(m, sorted(set(hs) | {65537}), 3, 128) is None
    sg = enumerate_semigroup(generator_series(params)[:1], 2, 1)
    rep = scan_limits(occ, hs, sg, [m], tol=0.1, panel=default_panel(occ),
                      params=params, z_bound=4)
    (entry,) = rep.entries
    assert entry.best_word == "0"
    assert entry.delta >= F(1, 10) and f"{float(entry.delta):.4f}" == "0.1245"


def test_criterion_6_strong_decay():
    res = _report(acc.check_strong_decay())
    assert res.detail == ("norm^2 at n=32 is 0.0993 (= binom(64,32)/4^32 exactly), "
                          "monotone within 0.05; max coefficient of P^32 = 0.1399")


def test_criterion_6_makes_one_recursion_per_norm(monkeypatch):
    """Each of check 6's 32 norms is one query, and each query is one
    recursion from the top level, however narrow its rows."""
    top_calls = []
    window_hits = LevelOccupancy._window_hits

    def counting_hits(self, level, starts, width):
        if level == len(self.stage_offsets):
            top_calls.append(starts.size)
        return window_hits(self, level, starts, width)

    monkeypatch.setattr(LevelOccupancy, "_window_hits", counting_hits)
    assert acc.check_strong_decay().passed
    assert len(top_calls) == 32


def test_criterion_7_algebra_properties():
    res = _report(acc.check_algebra_properties())
    assert res.detail == "333 random triples x 5 exact identities, 0 failures"


def test_criterion_8_sparse_vs_naive():
    res = _report(acc.check_sparse_vs_naive())
    assert res.detail == "100/100 random (m, A, B) agree exactly across 2 small builds"


def test_criterion_9_compound_limits():
    res = _report(acc.check_compound_limits())
    assert res.detail == ("17/17 shifts best-match their predicted product form; "
                          "worst raw delta 0.2529 (tol 1/3 + 3*bloss), "
                          "worst id margin 0.0049")
    params, hs, occ = acc.twogen_build()
    assert tuple(st.r for st in params.stages) == TWOGEN_COLUMNS
    assert hs[-1] == TWOGEN_WINDOW
    assert occ.uses_int64 and occ.n_copies == 2048 * 4096


def _check_9_scan(m_set):
    params, hs, occ = acc.twogen_build()
    sg = enumerate_semigroup(generator_series(params), 4, 1)
    panel = default_panel(occ, span=10, controls=(13, 97))
    return scan_limits(occ, hs, sg, m_set, tol=F(1, 3), panel=panel,
                       params=params, a_bound=3, z_bound=4)


def test_criterion_9_scores_its_shifts_in_blocks(monkeypatch):
    """Check 9's 17 shifts scanned in one call (two scoring blocks of 106
    elements x 24 pairs) give the entries of 17 one-shift scans, field by
    field."""
    _, hs, _ = acc.twogen_build()
    h5, h4 = hs[4], hs[3]
    m_set = [0] + [s * (a1 * h5 + a2 * h4) for a1 in (0, 1, 2) for a2 in (0, 1, 2)
                   if a1 or a2 for s in (1, -1)]
    blocks = []
    score = weaktop.score_elements

    def counting_score(models, counts, factors):
        blocks.append(len(counts))
        return score(models, counts, factors)

    monkeypatch.setattr(weaktop, "score_elements", counting_score)
    together = _check_9_scan(m_set).entries
    assert len(together) == 17 and blocks == [12, 5]
    for m, entry in zip(m_set, together):
        (alone,) = _check_9_scan([m]).entries
        assert dataclasses.asdict(entry) == dataclasses.asdict(alone), m
        assert entry.rows == alone.rows, m


def test_gap_and_compound_scans_do_not_import_numpy_ma():
    """Checks 5 and 9, in a fresh interpreter, leave ``numpy.ma`` unimported.
    Plain ``np.unique(x)`` imports it on first use (about 12 ms and its
    memory); ``return_counts=True`` does not."""
    src = str(Path(acc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; from rankone import acceptance as acc; "
            "assert acc.check_gap_shifts().passed and acc.check_compound_limits().passed; "
            "print('numpy.ma' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env)
    assert (res.returncode, res.stdout) == (0, "False\n"), res.stderr


def test_mixed_sign_compound_shifts_miss_on_the_capped_build():
    """A recorded finding, not a target.  At m = +-(h4 - h5) the predicted
    P1(T)*P2(T*) (or its adjoint) does not rank first on check 9's panel.
    The pair count at h5 - h4 is exactly the tally of equal spacers,
    sum over v of #{i < r4 - 1 : s4[i] = v} * #{i < r5 - 1 : s5[i] = v},
    and its v = 65537 term, 511 * 819 (the overrides clamped to the cap on
    either stage), is the cap echo the predicted element does not model."""
    params, hs, occ = acc.twogen_build()
    h4, h5 = hs[3], hs[4]
    minus, plus = _check_9_scan([h4 - h5, h5 - h4]).entries
    assert (minus.best_word, minus.predicted_word) == ("P1^2*P1*", "P1**P2")
    assert (plus.best_word, plus.predicted_word) == ("P1*P1*^2", "P1*P2*")
    for e in (minus, plus):
        assert e.predicted_is_best is False
        assert e.correction == F(4914, 8192)
        assert e.rows[0].name == "d=+0" and e.rows[0].count == 2_066_359
    s4, s5 = (Counter(st.spacers[:-1]) for st in params.stages[3:5])
    assert sum(n * s5[v] for v, n in s4.items()) == occ.pair_shift_count(h5 - h4) == 2_066_359
    assert s4[65537] * s5[65537] == 511 * 819


def _bisect_pair_counts(stage_offsets):
    """count(k): copy-start pairs at difference k, in plain Python.

    count_L(k) sums count_{L-1}(k - (O' - O)) over the offset pairs of
    level L with |k - (O' - O)| <= reach_{L-1}; for each O, ``bisect``
    finds the run of O' in range.  Each level's counts are memoized.
    """
    offsets = [[int(o) for o in offs] for offs in stage_offsets]
    reach = [0]
    for offs in offsets:
        reach.append(reach[-1] + offs[-1])

    @functools.lru_cache(maxsize=None)
    def count(level, k):
        if level == 0:
            return int(k == 0)
        offs, below = offsets[level - 1], reach[level - 1]
        return sum(count(level - 1, k - (o2 - o)) for o in offs
                   for o2 in offs[bisect_left(offs, o + k - below):
                                  bisect_right(offs, o + k + below)])
    return functools.partial(count, len(offsets))


def test_conforming_compound_build_matches_a_bisect_recount():
    """Check 9's build without the cap: a 3,511-bit window, 8,388,608 copies.

    No test can materialize it, so windows [k - 2, k + 2] at lattice shifts
    are recounted by a plain-Python recursion over the offsets.
    """
    params = gen_p_construction(
        [make_admissible({0: F(1, 2), 1: F(1, 2)}),
         make_admissible({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)})], J=6, seed=0,
        eps_schedule=lambda j: F(1, 3),
        r_policy=ColumnGrowthPolicy(start=lambda j: {4: 2048, 5: 4096}.get(j, max(2 * j, 16))),
        sidon_policy=SidonPolicy(cap=None))
    assert tuple(st.r for st in params.stages) == TWOGEN_COLUMNS
    hs = heights(params)
    occ = expand_occupancy(params, 4, 6)
    assert occ.window.bit_length() == 3511 and occ.n_copies == 2048 * 4096
    count = _bisect_pair_counts(occ.stage_offsets)
    h4, h5 = hs[3], hs[4]
    for k in (0, h4, h5 + h4, -(2 * h5 + h4)):
        want = [count(k + t) for t in range(-2, 3)]
        assert occ.pair_shift_window(k - 2, k + 2) == want, k
        assert want[2] > 0
    assert count(0) == occ.n_copies


# --- literal-schedule companion ---------------------------------------------
#
# With the strict 1/(j+1) gate schedule the desk-scale single-power check
# holds at m = 1 but NOT at m = 2: the stage-j override excision removes
# about a 2/j share of the order-2 windows, which exceeds 1/(j+1) at every
# stage.  The m=1 half passes; the m=2 half is pinned as a strict expected
# failure so a behavior change cannot slip by unnoticed.

@pytest.fixture(scope="module")
def literal_build():
    params = gen_p_construction(
        [make_admissible({0: F(1, 2), 1: F(1, 2)})], J=6, seed=0,
        sidon_policy=SidonPolicy(cap=65537))
    return params, heights(params), expand_occupancy(params, 4, 6)


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
        out.append((rep.delta, eps + 3 * rep.boundary_loss))
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
