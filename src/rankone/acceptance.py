"""Runnable acceptance suite: nine numbered checks with pinned seeds.

Each check builds (or reuses from a shared cache) the constructions it
needs, evaluates one verifiable claim about the library, and returns a
:class:`CriterionResult` with a single human-readable detail line.  The
pytest suite and the ``verify`` CLI subcommand both drive these
functions, so there is exactly one source of truth for what "passing"
means.

Checks are deterministic: every random draw goes through a pinned seed,
and all tolerances are written out literally below.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .construction import (
    ColumnGrowthPolicy,
    ConstructionParams,
    GenerationError,
    SidonPolicy,
    StageParams,
    expand_occupancy,
    gen_example,
    gen_p_construction,
    generator_series,
    heights,
    recheck_gates,
)
from .series import (
    AdmissibleSeries,
    FormalElement,
    adjoint,
    convolve,
    enumerate_semigroup,
    make_admissible,
    power,
)
from .weaktop import (
    boundary_loss,
    corr,
    default_panel,
    sample_gap_shifts,
    scan_limits,
    strong_norm_sq,
    weak_discrepancy,
)

__all__ = [
    "CriterionResult",
    "CRITERIA",
    "run_all",
    "resolve_names",
]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    budget_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: {self.detail} "
                f"[{self.seconds:.1f}s / budget {self.budget_s:.0f}s]")


def _coin() -> AdmissibleSeries:
    return make_admissible({0: Fraction(1, 2), 1: Fraction(1, 2)})


def _thirds() -> AdmissibleSeries:
    return make_admissible({0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)})


# ---------------------------------------------------------------------------
# shared pinned builds
# ---------------------------------------------------------------------------

def capped_build(cache: dict | None = None):
    """Single-generator capped build used by checks 4, 5 and 6.

    P = (1/2, 1/2), J = 6, seed 0, gate tolerance 2/(j+1), spacer values
    capped at 65537.  Expanded over stages 4..6 (524288 copies, int64).
    """
    if cache is not None and "capped" in cache:
        return cache["capped"]
    params = gen_p_construction(
        [_coin()], J=6, seed=0,
        eps_schedule=lambda j: Fraction(2, j + 1),
        sidon_policy=SidonPolicy(cap=65537),
    )
    hs = heights(params)
    occ = expand_occupancy(params, 4, 6)
    out = (params, hs, occ)
    if cache is not None:
        cache["capped"] = out
    return out


def twogen_build(cache: dict | None = None):
    """Two-generator build used by check 9.

    Generators alternate by stage parity: odd stages sample from
    (1/2, 1/2), even stages from (1/3, 1/3, 1/3).  Gate tolerance is a
    flat 1/3; stages 4 and 5 start at 2048 and 4096 columns so the
    late-stage statistics are sharp enough to separate coefficient-close
    candidates.  Expanded over stages 4..6 (8388608 copies, int64).
    """
    if cache is not None and "twogen" in cache:
        return cache["twogen"]
    growth = ColumnGrowthPolicy(
        start=lambda j: {4: 2048, 5: 4096}.get(j, max(2 * j, 16)))
    params = gen_p_construction(
        [_coin(), _thirds()], J=6, seed=0,
        eps_schedule=lambda j: Fraction(1, 3),
        r_policy=growth,
        sidon_policy=SidonPolicy(cap=65537),
    )
    hs = heights(params)
    occ = expand_occupancy(params, 4, 6)
    out = (params, hs, occ)
    if cache is not None:
        cache["twogen"] = out
    return out


# ---------------------------------------------------------------------------
# the nine checks
# ---------------------------------------------------------------------------

CRITERIA: dict[str, Callable[[dict | None], CriterionResult]] = {}


def _criterion(name: str, budget_s: float):
    """Register a check under ``name``, timed and held to ``budget_s`` seconds.

    The decorated body returns (ok, detail); the registered check returns a
    :class:`CriterionResult` that passes when ok and within budget.
    """
    def register(body: Callable[[dict | None], tuple[bool, str]]):
        @functools.wraps(body)
        def check(cache: dict | None = None) -> CriterionResult:
            t0 = time.perf_counter()
            ok, detail = body(cache)
            dt = time.perf_counter() - t0
            return CriterionResult(name, ok and dt < budget_s, detail, dt, budget_s)
        CRITERIA[name] = check
        return check
    return register


@_criterion("height-recurrence", 1.0)
def check_height_recurrence(cache: dict | None = None) -> tuple[bool, str]:
    """1: heights follow the stacking recurrence exactly on random input."""
    rng = np.random.default_rng(20260814)
    n_sets, bad = 200, 0
    for _ in range(n_sets):
        h1 = int(rng.integers(1, 50))
        n_stages = int(rng.integers(1, 6))
        stages = []
        for _ in range(n_stages):
            r = int(rng.integers(2, 9))
            spacers = tuple(int(x) for x in rng.integers(0, 100, size=r))
            stages.append(StageParams(r, spacers))
        params = ConstructionParams(h1, tuple(stages))
        got = heights(params)
        h = h1
        expect = [h]
        for st in stages:
            h = h * st.r + sum(st.spacers)
            expect.append(h)
        if got != expect:
            bad += 1
    return bad == 0, (f"{n_sets - bad}/{n_sets} random parameter sets satisfy "
                      f"h_next = h*r + sum(spacers) exactly")


@_criterion("level-returns", 10.0)
def check_level_return_identities(cache: dict | None = None) -> tuple[bool, str]:
    """2: mix-identity family, exact disjointness and return fractions.

    On the J=5 member with column counts (3,4,5,6) and base stage 2:
    shifting by one tower height separates every pair of base levels
    (correlation <= 2*boundary loss; here it is exactly zero), and
    shifting by two tower heights returns at least 1 - 1/r_j - 2*boundary
    loss of each level to itself.
    """
    params = gen_example("mix-identity", 5)
    hs = heights(params)
    occ = expand_occupancy(params, 2, 5)
    labels = range(occ.base_height)
    worst_disj = Fraction(0)
    worst_ret_margin = None
    n_pairs = 0
    ok = True
    for j in (2, 3, 4):
        hj = hs[j - 1]
        r_j = params.stages[j - 1].r
        for m in (hj, -hj):
            bl = boundary_loss(m, occ.window)
            for a in labels:
                for b in labels:
                    v = corr(occ, m, (a,), (b,)).normalized_exact
                    n_pairs += 1
                    worst_disj = max(worst_disj, v)
                    if v > 2 * bl:
                        ok = False
        for m in (2 * hj, -2 * hj):
            bl = boundary_loss(m, occ.window)
            floor = 1 - Fraction(1, r_j) - 2 * bl
            for a in labels:
                v = corr(occ, m, (a,), (a,)).normalized_exact
                margin = v - floor
                if worst_ret_margin is None or margin < worst_ret_margin:
                    worst_ret_margin = margin
                if v < floor:
                    ok = False
    return ok, (
        f"{n_pairs} disjointness pairs, worst correlation {float(worst_disj):.4f}; "
        f"worst return margin {float(worst_ret_margin):+.4f} over floor 1-1/r-2*bloss")


@_criterion("frequency-gate", 60.0)
def check_frequency_gate(cache: dict | None = None) -> tuple[bool, str]:
    """3: pre-override draws re-pass the per-stage frequency gate.

    Twenty seeded J=6 builds of the (1/2, 1/2) construction with the
    default gate tolerance 1/(j+1) and window order min(j, 4).  A seed
    counts as passing when the build completes and the recorded
    pre-override spacer draws (reconstructed from the artifact) re-pass
    verify_frequencies at every stage.  At least 18/20 must pass;
    the pinned seed 0 must be among them.
    """
    P = _coin()
    n_pass = 0
    seed0_ok = False
    for seed in range(20):
        try:
            params = gen_p_construction([P], J=6, seed=seed)
        except GenerationError:
            continue
        if all(rep.passed for _, rep in recheck_gates(params)):
            n_pass += 1
            if seed == 0:
                seed0_ok = True
    return n_pass >= 18 and seed0_ok, (
        f"{n_pass}/20 seeds rebuild and re-pass the stage gates "
        f"(eps_j = 1/(j+1), order min(j,4)); seed 0 {'ok' if seed0_ok else 'FAILED'}")


@_criterion("single-power-limits", 120.0)
def check_single_power_limits(cache: dict | None = None) -> tuple[bool, str]:
    """4: T^{-m h_j} tracks P(T)^m and T^{+m h_j} tracks P(T*)^m.

    Capped build, the two largest expanded stages (4 and 5), m = 1 and 2,
    both shift signs.  The panel discrepancy must stay below the build's
    own stage gate tolerance plus three boundary losses.
    """
    params, hs, occ = capped_build(cache)
    panel = default_panel(occ)
    gen = FormalElement.from_series(generator_series(params)[0])
    worst = -1.0
    worst_tag = ""
    ok = True
    for j in (4, 5):
        hj = hs[j - 1]
        eps = Fraction(next(rec["eps"] for rec in params.meta["stages"]
                            if rec["j"] == j))
        for m_abs in (1, 2):
            for sign in (+1, -1):
                m = sign * m_abs * hj
                Q = power(adjoint(gen), m_abs) if sign > 0 else power(gen, m_abs)
                rep = weak_discrepancy(occ, m, Q, panel)
                tol = float(eps + 3 * rep.boundary_loss)
                gap = rep.delta / tol
                if gap > worst:
                    worst, worst_tag = gap, f"m={sign * m_abs}*h{j} vs {Q.word}"
                if rep.delta >= tol:
                    ok = False
    return ok, (f"8 shift/power pairs on stages 4,5; worst delta/tol = {worst:.3f} "
                f"({worst_tag})")


@_criterion("gap-shifts", 120.0)
def check_gap_shifts(cache: dict | None = None) -> tuple[bool, str]:
    """5: shifts away from the height lattice match the zero element.

    32 rejection-sampled gap shifts per tested stage (4 and 5) on the
    capped build; every one must rank the zero element as best match
    with discrepancy below 0.1.  The rejection lattice includes the
    spacer cap so cap-echo alignments are excluded too.
    """
    params, hs, occ = capped_build(cache)
    panel = default_panel(occ)
    gen = generator_series(params)[0]
    sg = enumerate_semigroup([gen], 2, 1)
    n_zero = 0
    worst = 0.0
    for j in (4, 5):
        gaps = sample_gap_shifts(
            hs, 32, rng_seed=[7, j],
            lo=hs[j - 1], hi=hs[j] // 2 if j < len(hs) else hs[-1] // 4,
            extra_lattice=(65537,))
        rep = scan_limits(occ, hs, sg, gaps, tol=0.1, panel=panel,
                          params=params, z_bound=4)
        for e in rep.entries:
            if e.best_word == "0" and e.best_delta < 0.1:
                n_zero += 1
            worst = max(worst, e.best_delta)
    return n_zero == 64, (f"{n_zero}/64 gap shifts best-match the zero element; "
                          f"worst delta {worst:.4f} (< 0.1)")


@_criterion("strong-decay", 60.0)
def check_strong_decay(cache: dict | None = None) -> tuple[bool, str]:
    """6: squared strong distance of P(T)^n from 0 decays on a base level.

    Exact rational values for n = 1..32 on the capped build with
    A = {level 0}: below 0.3 by n = 32, non-increasing within slack
    0.05, and the largest coefficient of P^32 stays below 0.15.  The
    measured values coincide with binom(2n, n)/4^n exactly, which is
    pinned as well.
    """
    params, hs, occ = capped_build(cache)
    gen = FormalElement.from_series(generator_series(params)[0])
    vals: list[Fraction] = []
    ok = True
    q = gen
    for n in range(1, 33):
        v = strong_norm_sq(occ, q, (0,))
        vals.append(v)
        if v != Fraction(math.comb(2 * n, n), 4 ** n):
            ok = False
        q = convolve(q, gen)
    if vals[-1] > Fraction(3, 10):
        ok = False
    slack = Fraction(1, 20)
    if any(b > a + slack for a, b in zip(vals, vals[1:])):
        ok = False
    p32 = power(gen, 32)
    max_coeff = max(c for _, c in p32.coeffs)
    if max_coeff >= Fraction(15, 100):
        ok = False
    return ok, (
        f"norm^2 at n=32 is {float(vals[-1]):.4f} (= binom(64,32)/4^32 exactly), "
        f"monotone within 0.05; max coefficient of P^32 = {float(max_coeff):.4f}")


@_criterion("algebra-properties", 5.0)
def check_algebra_properties(cache: dict | None = None) -> tuple[bool, str]:
    """7: exact-rational semigroup algebra invariants on random elements.

    1000 random elements with small support and Fraction coefficients;
    convolution commutes and associates, masses multiply, and the
    adjoint is an involution that distributes over products.  All
    comparisons are exact; zero failures allowed.
    """
    rng = np.random.default_rng(1729)

    def rand_elem() -> FormalElement:
        n_terms = int(rng.integers(1, 5))
        coeffs = {}
        for _ in range(n_terms):
            z = int(rng.integers(-4, 5))
            num = int(rng.integers(0, 4))
            den = int(rng.integers(1, 7))
            coeffs[z] = coeffs.get(z, Fraction(0)) + Fraction(num, den)
        return FormalElement.from_coeffs(coeffs, word="x")

    elems = [rand_elem() for _ in range(1000)]
    bad = 0
    for i in range(0, 999, 3):
        a, b, c = elems[i], elems[i + 1], elems[i + 2]
        ab = convolve(a, b)
        if ab != convolve(b, a):
            bad += 1
        if convolve(ab, c) != convolve(a, convolve(b, c)):
            bad += 1
        if ab.mass != a.mass * b.mass:
            bad += 1
        if adjoint(adjoint(a)) != a:
            bad += 1
        if adjoint(ab) != convolve(adjoint(a), adjoint(b)):
            bad += 1
    return bad == 0, f"333 random triples x 5 exact identities, {bad} failures"


@_criterion("sparse-vs-naive", 10.0)
def check_sparse_vs_naive(cache: dict | None = None) -> tuple[bool, str]:
    """8: sparse pair counting agrees exactly with a dense label array.

    Two small builds (window <= 10^4).  The oracle lays every copy of
    every level into a dense array and counts correlation pairs by
    shifted boolean masks; the library counts them from sorted copy
    starts.  100 random (m, A, B) triples must agree exactly.
    """
    rng = np.random.default_rng(4242)
    builds = [
        (gen_example("mix-identity", 4), 2),
        (gen_example("two-column", 6), 3),
    ]
    n_checked, bad = 0, 0
    for params, base in builds:
        occ = expand_occupancy(params, base, params.n_stages + 1)
        window, hb = occ.window, occ.base_height
        dense = np.full(window, -1, dtype=np.int64)
        starts = np.asarray(occ.copy_starts, dtype=np.int64)
        for b in range(hb):
            dense[starts + b] = b
        for _ in range(50):
            m = int(rng.integers(-(window - 1), window))
            A = [int(x) for x in rng.choice(hb, size=int(rng.integers(1, 4)),
                                            replace=False)]
            B = [int(x) for x in rng.choice(hb, size=int(rng.integers(1, 4)),
                                            replace=False)]
            in_a = np.isin(dense, A)
            in_b = np.isin(dense, B)
            if m >= 0:
                naive = int(np.count_nonzero(in_a[:window - m] & in_b[m:]))
            else:
                naive = int(np.count_nonzero(in_a[-m:] & in_b[:window + m]))
            if naive != corr(occ, m, A, B).count:
                bad += 1
            n_checked += 1
    return bad == 0, (f"{n_checked - bad}/{n_checked} random (m, A, B) agree exactly "
                      f"across {len(builds)} small builds")


@_criterion("compound-limits", 300.0)
def check_compound_limits(cache: dict | None = None) -> tuple[bool, str]:
    """9: compound shifts best-match products of adjoint generator powers.

    Two-generator build; m = a1*h5 + a2*h4 with a_i in {0, 1, 2} (both
    signs, 17 shifts with identity).  For every shift the best semigroup
    match over degree <= 4 must equal the element predicted from the
    base-h decomposition (P2(T*)^a1 * P1(T*)^a2 for positive m, direct
    powers for negative), with raw discrepancy below 1/3 + 3*boundary
    loss.  Identity and single-power rows repeat the check-4 contract.
    """
    params, hs, occ = twogen_build(cache)
    gens = generator_series(params)
    sg = enumerate_semigroup(gens, 4, 1)
    panel = default_panel(occ, span=10, controls=(13, 97))
    h5, h4 = hs[4], hs[3]
    m_set = [0]
    for a1 in (0, 1, 2):
        for a2 in (0, 1, 2):
            if a1 == a2 == 0:
                continue
            m_set += [a1 * h5 + a2 * h4, -(a1 * h5 + a2 * h4)]
    rep = scan_limits(occ, hs, sg, m_set, tol=Fraction(1, 3), panel=panel,
                      params=params, a_bound=3, z_bound=4)
    n_pred = sum(1 for e in rep.entries if e.predicted_is_best)
    worst_margin = min((e.margin for e in rep.entries if e.margin is not None),
                       default=float("nan"))
    worst_raw = max(e.best_delta for e in rep.entries)
    return rep.passed and n_pred == len(rep.entries), (
        f"{n_pred}/{len(rep.entries)} shifts best-match their predicted "
        f"product form; worst raw delta {worst_raw:.4f} (tol 1/3 + 3*bloss), "
        f"worst id margin {worst_margin:.4f}")


# ---------------------------------------------------------------------------
# registry / driver
# ---------------------------------------------------------------------------

_ALIASES = {
    "example1": "level-returns",
    **{str(i + 1): name for i, name in enumerate(CRITERIA)},
}


def resolve_names(only: Iterable[str] | None) -> list[str]:
    """Map user-facing criterion selectors (name, alias, or 1-9) to keys."""
    if not only:
        return list(CRITERIA)
    out = []
    for raw in only:
        key = _ALIASES.get(raw, raw)
        if key not in CRITERIA:
            raise KeyError(raw)
        out.append(key)
    return out


def run_all(only: Iterable[str] | None = None,
            cache: dict | None = None) -> list[CriterionResult]:
    cache = {} if cache is None else cache
    return [CRITERIA[name](cache) for name in resolve_names(only)]
