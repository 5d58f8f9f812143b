"""The perfbench workloads: pinned builds, seeded inputs and output checks.

Every workload has the same four steps:

* ``setup()`` builds the pinned construction, expands its occupancy and
  prepares the panel (and the semigroup where one is scanned);
* ``draw(built, seed)`` makes the pass inputs from the seed.  Builds never
  depend on the seed, so every seed does the same amount of work;
* ``verify(built, inputs)`` calls the public functions of ``construction``,
  ``series`` and ``weaktop`` and nothing else;
* ``check(built, inputs, out, seed)`` returns one :class:`Verdict` per
  operation (one shift's verdict).  An operation fails when its pinned
  verdict is not reproduced or when a panel count sampled for recounting
  disagrees with an independent oracle.

Layer functions are called through their modules (``weaktop.scan_limits``)
so that a traced pass sees the wrappers :mod:`spans` installs.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from rankone import construction, series, weaktop
from rankone.series import FormalElement, adjoint, make_admissible

CAP = 65537  # the stock builds' override cap, also in the gap rejection lattice


def coin():
    return make_admissible({0: Fraction(1, 2), 1: Fraction(1, 2)})


def thirds():
    return make_admissible({0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)})


def two_over_j_plus_one(j: int) -> Fraction:
    return Fraction(2, j + 1)


def flat_third(j: int) -> Fraction:
    return Fraction(1, 3)


def twogen_start(j: int) -> int:
    return {4: 2048, 5: 4096}.get(j, max(2 * j, 16))


@dataclass
class Built:
    params: construction.ConstructionParams
    hs: list[int]
    occ: construction.LevelOccupancy
    panel: weaktop.CorrelationPanel
    semigroup: list[FormalElement] = field(default_factory=list)


@dataclass(frozen=True)
class Verdict:
    line: str   # "m,word,delta": the digest input
    ok: bool
    why: str = ""


@dataclass
class Inputs:
    n_ops: int
    shifts: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def stage_eps(params, j: int) -> Fraction:
    return Fraction(next(rec["eps"] for rec in params.meta["stages"] if rec["j"] == j))


# ---------------------------------------------------------------------------
# independent oracle for panel counts
# ---------------------------------------------------------------------------

class PairOracle:
    """Copy-start pairs at a difference, counted without the library.

    int64 starts use ``np.intersect1d``; Python-int starts use a set.
    """

    def __init__(self, starts):
        self.starts = starts
        self.start_set = None if isinstance(starts, np.ndarray) else set(starts)

    def pairs(self, k: int) -> int:
        if self.start_set is None:
            return int(np.intersect1d(self.starts, self.starts + np.int64(k),
                                      assume_unique=True).size)
        start_set = self.start_set
        return sum(1 for s in self.starts if s + k in start_set)

    def corr(self, m: int, A, B) -> int:
        return sum(self.pairs(a + m - b) for a in A for b in B)


def recount_rows(built: Built, rows_by_op: list[tuple[int, tuple]], n: int,
                 rng: random.Random) -> dict[int, str]:
    """Recount ``n`` seeded panel rows; map op index -> mismatch description.

    ``rows_by_op[i]`` is (shift, rows) with rows in panel order.
    """
    cells = [(i, r) for i, (_, rows) in enumerate(rows_by_op) for r in range(len(rows))]
    oracle = PairOracle(built.occ.copy_starts)
    bad = {}
    for i, r in rng.sample(cells, min(n, len(cells))):
        m, rows = rows_by_op[i]
        A, B = built.panel.pairs[r]
        want = oracle.corr(m, A, B)
        if rows[r].count != want:
            bad[i] = f"row {rows[r].name}: count {rows[r].count} != oracle {want}"
    return bad


def verdicts_with_recount(name: str, seed: int, built: Built, lines_ok,
                          rows_by_op, n_recount: int) -> list[Verdict]:
    """Verdicts from (line, ok, why) triples, failing ops whose recount differs."""
    rng = random.Random(f"{name}:{seed}:recount")
    bad = recount_rows(built, rows_by_op, n_recount, rng)
    out = []
    for i, (line, ok, why) in enumerate(lines_ok):
        if i in bad:
            ok, why = False, bad[i]
        out.append(Verdict(line, ok, why))
    return out


# ---------------------------------------------------------------------------
# compound-lattice
# ---------------------------------------------------------------------------

class CompoundLattice:
    """Check 9's two-generator build scanned against semigroup candidates.

    Each pass scans SHIFTS seeded shifts s*(a1*h5 + a2*h4) + z against
    CANDIDATES elements of the degree-4 semigroup: the predicted element of
    every shift plus seeded distractors.  Every candidate costs one warm
    pass over the 8,388,608 copy starts, and so does every shift.
    """

    name = "compound-lattice"
    SHIFTS = 2
    CANDIDATES = 6
    RECOUNTS = 2

    def setup(self) -> Built:
        params = construction.gen_p_construction(
            [coin(), thirds()], J=6, seed=0, eps_schedule=flat_third,
            r_policy=construction.ColumnGrowthPolicy(start=twogen_start),
            sidon_policy=construction.SidonPolicy(cap=CAP))
        hs = construction.heights(params)
        occ = construction.expand_occupancy(params, 4, 6)
        semigroup = series.enumerate_semigroup(
            construction.generator_series(params), 4, 1)
        panel = weaktop.default_panel(occ, span=10, controls=(13, 97))
        return Built(params, hs, occ, panel, semigroup)

    @staticmethod
    def expected(built: Built, sign: int, a1: int, a2: int, z: int) -> FormalElement:
        """T^z * P2^a1 * P1^a2, adjoint powers for positive shifts."""
        p1, p2 = (FormalElement.from_series(P, i) for i, P in
                  enumerate(construction.generator_series(built.params)))
        if sign > 0:
            p1, p2 = adjoint(p1), adjoint(p2)
        el = series.convolve(series.power(p2, a1), series.power(p1, a2))
        return series.convolve(FormalElement.t_power(z), el) if z else el

    def draw(self, built: Built, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        pool = [(1, 0, 0, z) for z in (-1, 0, 1)] + [
            (s, a1, a2, z) for s in (1, -1) for a1 in (0, 1, 2) for a2 in (0, 1, 2)
            if a1 or a2 for z in (-1, 0, 1)]
        h5, h4 = built.hs[4], built.hs[3]
        picks = rng.sample(pool, self.SHIFTS)
        shifts = [s * (a1 * h5 + a2 * h4) + z for s, a1, a2, z in picks]
        sg = built.semigroup
        wanted = [sg.index(self.expected(built, *p)) for p in picks]
        rest = [i for i in range(len(sg)) if i not in wanted]
        chosen = sorted(set(wanted) | set(rng.sample(rest, self.CANDIDATES - len(set(wanted)))))
        return Inputs(len(shifts), shifts, {
            "candidates": [sg[i] for i in chosen],
            "expected_words": [sg[i].word for i in wanted],
            "z": [z for _, _, _, z in picks]})

    def verify(self, built: Built, inputs: Inputs):
        return weaktop.scan_limits(
            built.occ, built.hs, inputs.extra["candidates"], inputs.shifts,
            tol=Fraction(1, 3), panel=built.panel, params=built.params,
            a_bound=3, z_bound=4)

    def check(self, built: Built, inputs: Inputs, report, seed: int) -> list[Verdict]:
        lines_ok = []
        for e, want, z in zip(report.entries, inputs.extra["expected_words"],
                              inputs.extra["z"]):
            # check 9 pins the raw tolerance for its z = 0 shifts only; at
            # m = +-(2*h4 + 1) the raw delta is 0.373 against 1/3 + 3*bloss
            ok = e.predicted_is_best is True and e.best_word == want and (e.passed or z != 0)
            why = "" if ok else (f"best {e.best_word} (want {want}), "
                                 f"delta {e.best_delta:.4f} tol {e.tol_effective:.4f}")
            lines_ok.append((f"{e.m},{e.best_word},{e.best_delta!r}", ok, why))
        rows = [(e.m, e.rows) for e in report.entries]
        return verdicts_with_recount(self.name, seed, built, lines_ok, rows, self.RECOUNTS)


# ---------------------------------------------------------------------------
# gap-sweep
# ---------------------------------------------------------------------------

class GapSweep:
    """Checks 4-6's capped build scanned at seeded gap shifts.

    GAPS shifts per stage range (h4..h5/2 and h5..h6/2) are rejection
    sampled away from the height lattice and the cap, then scanned against
    the degree-2 semigroup.  Every shift is a distinct far offset, so the
    pair cache is of little use here.
    """

    name = "gap-sweep"
    GAPS = 32
    RECOUNTS = 8

    def setup(self) -> Built:
        params = construction.gen_p_construction(
            [coin()], J=6, seed=0, eps_schedule=two_over_j_plus_one,
            sidon_policy=construction.SidonPolicy(cap=CAP))
        hs = construction.heights(params)
        occ = construction.expand_occupancy(params, 4, 6)
        semigroup = series.enumerate_semigroup(
            construction.generator_series(params)[:1], 2, 1)
        panel = weaktop.default_panel(occ)
        return Built(params, hs, occ, panel, semigroup)

    def draw(self, built: Built, seed: int) -> Inputs:
        return Inputs(2 * self.GAPS, extra={"seed": seed})

    def verify(self, built: Built, inputs: Inputs):
        hs = built.hs
        reports = []
        for j in (4, 5):
            gaps = weaktop.sample_gap_shifts(
                hs, self.GAPS, rng_seed=[inputs.extra["seed"], j], lo=hs[j - 1],
                hi=hs[j] // 2, extra_lattice=(CAP,))
            reports.append(weaktop.scan_limits(
                built.occ, hs, built.semigroup, gaps, tol=0.1, panel=built.panel,
                params=built.params, z_bound=4))
        return reports

    def check(self, built: Built, inputs: Inputs, reports, seed: int) -> list[Verdict]:
        entries = [e for rep in reports for e in rep.entries]
        lines_ok = []
        for e in entries:
            ok = e.best_word == "0" and e.best_delta < 0.1
            why = "" if ok else f"best {e.best_word}, delta {e.best_delta:.4f}"
            lines_ok.append((f"{e.m},{e.best_word},{e.best_delta!r}", ok, why))
        rows = [(e.m, e.rows) for e in entries]
        return verdicts_with_recount(self.name, seed, built, lines_ok, rows, self.RECOUNTS)


# ---------------------------------------------------------------------------
# uncapped-bigint
# ---------------------------------------------------------------------------

class UncappedBigint:
    """The uncapped build: an 815-bit window and Python-int copy starts.

    Each pass probes m = s*a*h_j + z once at j = 4 and once at j = 5, with
    a = 1 at one stage and a = 2 at the other, and seeded s and z in
    {-1, 0, 1}, using ``weak_discrepancy`` against T^z * P^a (s < 0) or
    T^z * P*^a (s > 0).  Covering both stages and both powers in every
    pass keeps the work the same for every seed.  Counting goes through
    the fingerprinted bigint path; warm passes are no-ops there.
    """

    name = "uncapped-bigint"
    RECOUNTS = 3

    def setup(self) -> Built:
        params = construction.gen_p_construction(
            [coin()], J=6, seed=0, eps_schedule=two_over_j_plus_one)
        hs = construction.heights(params)
        occ = construction.expand_occupancy(params, 4, 6)
        panel = weaktop.default_panel(occ)
        return Built(params, hs, occ, panel)

    def draw(self, built: Built, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        gen = FormalElement.from_series(construction.generator_series(built.params)[0])
        probes = []
        powers = rng.choice(((1, 2), (2, 1)))
        for j, a in zip((4, 5), powers):
            sign, z = rng.choice((1, -1)), rng.choice((-1, 0, 1))
            m = sign * a * built.hs[j - 1] + z
            Q = series.power(adjoint(gen) if sign > 0 else gen, a)
            if z:
                Q = series.convolve(FormalElement.t_power(z), Q)
            tol = stage_eps(built.params, j) + 3 * weaktop.boundary_loss(m, built.occ.window)
            probes.append((m, Q, tol))
        return Inputs(len(probes), extra={"probes": probes})

    def verify(self, built: Built, inputs: Inputs):
        return [weaktop.weak_discrepancy(built.occ, m, Q, built.panel)
                for m, Q, _ in inputs.extra["probes"]]

    def check(self, built: Built, inputs: Inputs, reports, seed: int) -> list[Verdict]:
        lines_ok = []
        for rep, (m, Q, tol) in zip(reports, inputs.extra["probes"]):
            ok = rep.delta_exact < tol
            why = "" if ok else f"delta {rep.delta_exact} >= tol {tol}"
            lines_ok.append((f"{m},{Q.word},{rep.delta_exact}", ok, why))
        rows = [(rep.m, rep.rows) for rep in reports]
        return verdicts_with_recount(self.name, seed, built, lines_ok, rows, self.RECOUNTS)


WORKLOADS = {w.name: w for w in (CompoundLattice(), GapSweep(), UncappedBigint())}


def occupancy_bytes(occ) -> int:
    """Bytes held by the materialized copy starts."""
    starts = occ.copy_starts
    if isinstance(starts, np.ndarray):
        return int(starts.nbytes)
    return sys.getsizeof(starts) + sum(sys.getsizeof(s) for s in starts)
