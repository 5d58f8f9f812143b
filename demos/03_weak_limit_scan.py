"""Watching powers of the shift converge to series in the generators.

Shifting the whole word by m = -h_j realigns copies of the base tower
across stage-j column boundaries, and the fraction of copies realigned
with offset k is (asymptotically) the spacer-sum frequency, i.e. the
T^k coefficient of the generator power.  So T^{-m h_j} looks weakly
like P(T)^m, T^{+m h_j} like P(T*)^m, and shifts far from every bounded
height combination look like 0.
"""

from fractions import Fraction

from rankone import (
    FormalElement,
    SidonPolicy,
    adjoint,
    default_panel,
    enumerate_semigroup,
    expand_occupancy,
    gen_p_construction,
    generator_series,
    heights,
    make_admissible,
    power,
    sample_gap_shifts,
    scan_limits,
    weak_discrepancy,
    write_scan_csv,
)

P = make_admissible({0: Fraction(1, 2), 1: Fraction(1, 2)})
params = gen_p_construction([P], J=5, seed=3,
                            sidon_policy=SidonPolicy(cap=4099))
hs = heights(params)
occ = expand_occupancy(params, 3, 5)
panel = default_panel(occ)
print(f"build: heights={hs}, expanded 3->5 with {occ.n_copies} copies/label")

# --- single discrepancies ------------------------------------------------------

gen = FormalElement.from_series(generator_series(params)[0])
for m_abs, Q in ((1, gen), (2, power(gen, 2))):
    rep = weak_discrepancy(occ, -m_abs * hs[-2], Q, panel)
    print(f"delta(T^-{m_abs}*h4, {Q.word}) = {float(rep.delta):.4f} "
          f"(boundary loss {float(rep.boundary_loss):.2e})")
rep = weak_discrepancy(occ, hs[-2], adjoint(gen), panel)
print(f"delta(T^+h4, {adjoint(gen).word}) = {float(rep.delta):.4f}")

# --- ranked scan over a whole semigroup -----------------------------------------

sg = enumerate_semigroup(generator_series(params), 2, 1)
shifts = [0, 1, hs[-2], -hs[-2], 2 * hs[-2], -2 * hs[-2]]
shifts += sample_gap_shifts(hs, 3, rng_seed=11, extra_lattice=(4099,))
report = scan_limits(occ, hs, sg, shifts, tol=Fraction(1, 3),
                     panel=panel, params=params)
print(f"\nscan of {len(report.entries)} shifts vs {len(sg)} candidates:")
for e in report.entries:
    print(f"  m={e.m:>12}  best={e.best_word:<6} raw delta={float(e.delta):.4f} "
          f"within tol: {e.passed}")

with open("scan_demo.csv", "w") as fh:
    fh.write(write_scan_csv(report, include_timestamp=False))
print("\nwrote scan_demo.csv (same table the CLI `scan` subcommand emits)")
