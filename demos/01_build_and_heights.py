"""Tour of the construction layer: example families, heights, occupancy.

A construction is just (h1, [(r_1, spacers_1), (r_2, spacers_2), ...]):
cut the current tower of h_j levels into r_j columns, put s_j(i) spacer
levels on top of column i, stack left to right.  Heights follow
h_{j+1} = h_j * r_j + sum(spacers_j).
"""

from rankone import (
    ConstructionParams,
    StageParams,
    expand_occupancy,
    gen_example,
    heights,
    validate_params,
)

# --- hand-rolled parameters --------------------------------------------------

params = ConstructionParams(2, (StageParams(3, (2, 2, 2)),))
print("violations:", validate_params(params) or "none")
print("heights:", heights(params))

# --- the three example families ----------------------------------------------

for kind in ("mix-identity", "two-column", "all-limits"):
    p = gen_example(kind, 5)
    print(f"\n{kind}: heights {heights(p)}")
    for j, st in enumerate(p.stages, 1):
        spacers = tuple(st.spacers.tolist())
        shown = spacers if len(spacers) <= 6 else spacers[:6] + ("...",)
        print(f"  stage {j}: r={st.r} spacers={shown}")

# --- where the base levels live inside a taller tower --------------------------

p = gen_example("two-column", 4)
occ = expand_occupancy(p, base_stage=2, top_stage=4)
print(f"\ntwo-column expanded 2->4: window={occ.window}, "
      f"{occ.n_copies} copies per label")
for b in range(occ.base_height):
    print(f"  label {b} at {[int(x) for x in occ.positions(b)]}")
print("positions not listed are spacer levels")
