"""How randomized constructions are generated and gated.

Spacers are i.i.d. draws from the coefficient distribution of an
admissible series.  A stage is accepted only when the empirical window
frequencies of sums of m consecutive spacers track the coefficients of
the m-th power of the series; otherwise the column count doubles and
the stage redraws.  Indices at multiples of the stage number are then
overridden with a fast-growing separated chain (capped here so the
window stays 64-bit).
"""

from fractions import Fraction

from rankone import (
    SidonPolicy,
    apply_sidon,
    gen_p_construction,
    heights,
    make_admissible,
    recheck_gates,
    sample_spacers,
    verify_frequencies,
)

P = make_admissible({0: Fraction(1, 2), 1: Fraction(1, 2)})

# --- the gate on a tiny hand sample -------------------------------------------

draws = (0, 1, 1, 0, 1, 0, 0, 1)
report = verify_frequencies(draws, P, max_m=2, eps=Fraction(1, 2))
print(f"hand sample {draws}: {report.summary()}")
for row in report.rows:
    print(f"  m={row.m} k={row.k}: expected {row.expected} "
          f"observed {row.observed} (rel dev {float(row.relative_deviation):.3f})")

# --- seeded sampling is reproducible -------------------------------------------

print("\nsample_spacers(P, 8, seed=0):", sample_spacers(P, 8, 0).tolist())
print("sample_spacers(P, 8, seed=0):", sample_spacers(P, 8, 0).tolist(), "(same)")

# --- the separated-override chain ----------------------------------------------

out = apply_sidon([5] * 9, stage_j=3, h_j=12, policy=SidonPolicy())
print("\noverride chain at indices", out.indices, "->",
      [out.spacers.tolist()[i - 1] for i in out.indices])

# --- a full generated construction ----------------------------------------------

params = gen_p_construction([P], J=5, seed=0, sidon_policy=SidonPolicy(cap=65537))
print(f"\ngenerated J=5 build, window h_5 = {heights(params)[-1]:,}")
for rec in params.meta["stages"]:
    print(f"  stage {rec['j']}: r={rec['r']} after {rec['attempts']} attempt(s), "
          f"gate eps={rec['eps']}, {len(rec['sidon_indices'])} overridden")

# the pre-override draws are kept in the artifact, so the gate can be
# re-checked later without regenerating:
print("\nartifact recheck from the recorded pre-override draws:")
for j, rep in recheck_gates(params):
    print(f"  stage {j}: {rep.summary()}")
