"""Property test: structural pair counts against materialized copy starts.

Kept in its own module so that an environment without hypothesis (a ``test``
extra in pyproject.toml) still collects every other construction test.
"""
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankone.construction import (  # noqa: E402
    ConstructionParams,
    StageParams,
    expand_occupancy,
)


@st.composite
def occupancies(draw):
    """Small random constructions, expanded over a random stage range."""
    h1 = draw(st.sampled_from([1, 2, 3, 5, 2 ** 62 // 1000, 2 ** 62]))
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.integers(2, 5))
        spacer = st.one_of(st.just(0), st.integers(0, 6), st.integers(0, 10 ** 6))
        stages.append(StageParams(r, tuple(draw(st.lists(spacer, min_size=r, max_size=r)))))
    base = draw(st.integers(1, len(stages) + 1))
    top = draw(st.integers(base, len(stages) + 1))
    return expand_occupancy(ConstructionParams(h1, tuple(stages)), base, top)


@settings(max_examples=60, deadline=None)
@given(occupancies())
def test_pair_counts_match_materialized_starts(occ):
    """The offset recursion agrees with an all-pairs tally over copy_starts.

    Small windows are checked at every k in [-window, window]; wide ones at
    every difference that occurs, its neighbours (the differences come in
    +-k pairs, so k + 1 for each also covers -k - 1) and the window edges.
    """
    starts = [int(s) for s in occ.copy_starts]
    diffs = Counter(b - a for a in starts for b in starts)
    w = occ.window
    if w <= 600:
        ks = range(-w, w + 1)
    else:
        ks = set(diffs) | {k + 1 for k in diffs} | {-w, 1 - w, w - 1, w}
    for k in ks:
        assert occ.pair_shift_count(k) == diffs.get(k, 0), k
