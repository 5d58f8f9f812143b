"""Property test: integer panel scores against exact Fraction expressions.

Scans score profiles and element models as integer numerators over one
common denominator.  The oracle here is the direct rational form: each
profile entry is Fraction(count, |A| n), each model entry
sum_z Q(z) count(z; A, B) / (|A| n), and the raw and corrected scores are
max |p - v| and max |p/f - v| over the panel pairs.  Kept in its own module
so that an environment without hypothesis still collects the other tests.
"""
import functools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankone.construction import (  # noqa: E402
    SidonPolicy,
    expand_occupancy,
    gen_p_construction,
    generator_series,
    heights,
)
from rankone.series import FormalElement, make_admissible, power  # noqa: E402
from rankone import weaktop  # noqa: E402
from rankone.weaktop import (  # noqa: E402
    CorrelationPanel,
    corr,
    scan_limits,
    score_elements,
    strong_norm_sq,
)

F = Fraction
BIG = 2 ** 61 - 1  # a prime: one such denominator pushes models past int64


def _build():
    params = gen_p_construction([make_admissible({0: F(1, 2), 1: F(1, 2)})], 4,
                                seed=3, sidon_policy=SidonPolicy(cap=4099))
    return params, heights(params), expand_occupancy(params, 2, 4)


PARAMS, HS, OCC = _build()


# --- the Fraction oracle ---------------------------------------------------------

def oracle_scores(occ, m, elements, panel, factor):
    """(d_cor, d_raw) per element, as scan_limits computed them with Fractions."""
    n = occ.n_copies
    count = functools.lru_cache(None)(lambda z, A, B: corr(occ, z, A, B).count)
    profile = [Fraction(count(m, A, B), len(A) * n) for A, B in panel.pairs]
    corrected = [p / factor for p in profile]
    out = []
    for Q in elements:
        model = [sum((q * count(z, A, B) for z, q in Q.coeffs), Fraction(0))
                 / (len(A) * n) for A, B in panel.pairs]
        d_raw = max(abs(p - v) for p, v in zip(profile, model))
        d_cor = max(abs(p - v) for p, v in zip(corrected, model))
        out.append((d_cor, d_raw))
    return out


def integer_scores(occ, m, elements, panel, factor):
    """(d_cor, d_raw) per element from the integer scores, as Fractions."""
    models, [counts] = weaktop._panel_models(occ, elements, panel, [m])
    [cor], [raw] = score_elements(models, [counts], [factor])
    D = models.denominator
    return [(Fraction(int(c), D * factor.numerator), Fraction(int(r), D))
            for c, r in zip(cor, raw)], models


def ranking(scores, elements):
    return sorted(range(len(elements)),
                  key=lambda e: (scores[e][0], scores[e][1], elements[e].word))


def check_entry(e, elems, panel):
    """Best and runner-up words, deltas and margin of a scan entry, against
    the oracle at the entry's excision factor.

    Lattice shifts carry their exact excision factor (below 1 on this
    overridden build, 0 for two h2 steps); other shifts, and a factor of 0,
    a factor of 1.
    """
    factor = Fraction(1)
    dec = e.decomposition
    if dec is not None and dec.terms and min(dec.stages) >= OCC.base_stage:
        factor = weaktop.excision_factor(PARAMS, dec.terms) or Fraction(1)
    assert e.correction == factor
    want = oracle_scores(OCC, e.m, elems, panel, factor)
    order = ranking(want, elems)
    best, runner = order[0], order[1]
    assert e.best_word == elems[best].word
    assert e.delta == want[best][1] and type(e.delta) is Fraction
    assert e.delta_corrected == want[best][0] and type(e.delta_corrected) is Fraction
    assert e.runner_up_word == elems[runner].word
    assert e.margin == want[runner][0] - want[best][0] and type(e.margin) is Fraction
    return factor


# --- strategies ----------------------------------------------------------------

label_sets = st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True).map(
    lambda xs: tuple(sorted(xs)))


@st.composite
def panels(draw):
    """A single-label and a multi-label A, then random pairs: lcm |A| > 1."""
    single = (draw(st.integers(0, 40)),)
    multi = tuple(sorted(draw(st.lists(st.integers(0, 40), min_size=2,
                                       max_size=3, unique=True))))
    pairs = [(single, draw(label_sets)), (multi, draw(label_sets))]
    pairs += draw(st.lists(st.tuples(label_sets, label_sets), max_size=4))
    names = tuple(f"p{i}" for i in range(len(pairs)))
    return CorrelationPanel(OCC.base_stage, tuple(pairs), names)


denominators = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 27, 36, 1296])


@st.composite
def elements(draw, big_denominators=False):
    """The zero element plus random elements with mixed coefficient denominators."""
    dens = st.one_of(denominators, st.just(BIG)) if big_denominators else denominators
    out = [FormalElement.zero()]
    for i in range(draw(st.integers(1, 5))):
        coeffs = draw(st.dictionaries(
            st.integers(-5, 5), st.builds(Fraction, st.integers(1, 9), dens),
            min_size=1, max_size=4))
        out.append(FormalElement.from_coeffs(coeffs, word=f"e{i}"))
    return out


factors = st.one_of(
    st.just(Fraction(1)),
    st.builds(lambda n, d: Fraction(n, n + d), st.integers(1, 2 ** 23),
              st.integers(1, 2 ** 23)),
    st.builds(lambda n, d: Fraction(n, n + d), st.integers(1, 2 ** 40),
              st.integers(2 ** 62, 2 ** 70)))

shifts = st.one_of(st.integers(-3000, 3000),
                   st.sampled_from([HS[-2], -HS[-2], 2 * HS[-2], HS[-2] + 1,
                                    HS[-3], -HS[-3] - 2]))


# --- properties ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(panel=panels(), elems=elements(big_denominators=True), factor=factors,
       m=shifts)
def test_integer_scores_equal_fraction_oracle(panel, elems, factor, m):
    got, _ = integer_scores(OCC, m, elems, panel, factor)
    want = oracle_scores(OCC, m, elems, panel, factor)
    assert got == want
    assert ranking(got, elems) == ranking(want, elems)


@settings(max_examples=25, deadline=None)
@given(panel=panels(), elems=elements(), m=shifts)
def test_scan_entries_equal_fraction_oracle(panel, elems, m):
    """Best and runner-up words, deltas and margin of a scan, against the oracle."""
    rep = scan_limits(OCC, HS, elems, [m], tol=F(1, 3), panel=panel, params=PARAMS)
    [e] = rep.entries
    check_entry(e, elems, panel)


def test_zero_excision_factor_ranks_on_raw_deltas():
    """Every width-2 window of stage 2 holds an override: nothing to correct by."""
    m = 2 * HS[1]
    assert weaktop.excision_factor(PARAMS, [(2, 2)]) == 0
    sg = [FormalElement.zero(), FormalElement.identity(), FormalElement.t_power(1)]
    [e] = scan_limits(OCC, HS, sg, [m], tol=F(1, 3), panel=weaktop.default_panel(OCC),
                      params=PARAMS).entries
    assert e.decomposition.terms == ((2, 2),)
    assert e.correction == 1 and e.delta_corrected == e.delta


# --- scores past int64 ------------------------------------------------------------

def test_models_past_int64_use_python_ints():
    """A coefficient denominator of 2**61 - 1 puts the models past int64: same scores."""
    panel = weaktop.default_panel(OCC)
    elems = [FormalElement.zero(), FormalElement.from_coeffs({0: F(1, BIG), 1: F(1, 3)}),
             FormalElement.identity()]
    for factor in (Fraction(1), Fraction(3, 7)):
        got, models = integer_scores(OCC, HS[-2], elems, panel, factor)
        assert max(models.values.flat) >= 2 ** 63
        assert got == oracle_scores(OCC, HS[-2], elems, panel, factor)


def test_factor_past_int64_uses_python_ints():
    """Models in int64 range whose cross-multiplied scores pass it are scored exactly."""
    panel = weaktop.default_panel(OCC)
    elems = [FormalElement.zero(), FormalElement.identity(), FormalElement.t_power(1)]
    factor = Fraction(2 ** 40 + 1, 2 ** 66)
    got, models = integer_scores(OCC, 7, elems, panel, factor)
    assert max(models.values.flat) < 2 ** 63
    assert got == oracle_scores(OCC, 7, elems, panel, factor)


def test_one_block_mixes_factors_and_python_int_scores():
    """One scoring call over shifts with factor 1 and factors below 1, and
    an element whose denominator 2**61 - 1 puts the scores past int64, equals
    the oracle shift by shift; so does a scan of the same shifts."""
    panel = weaktop.default_panel(OCC)
    elems = [FormalElement.zero(), FormalElement.identity(), FormalElement.t_power(1),
             FormalElement.from_coeffs({0: F(1, BIG), 1: F(1, 3)}, word="big")]
    ms = [7, HS[-2], -HS[-2] + 1, -HS[-3] - 2, 2 * HS[-2], 3000]
    factors = [F(1), F(3, 7), F(1), F(2 ** 40 + 1, 2 ** 66), F(5, 6), F(1)]
    models, counts = weaktop._panel_models(OCC, elems, panel, ms)
    cor, raw = score_elements(models, counts, factors)
    D = models.denominator
    for m, factor, cor_m, raw_m in zip(ms, factors, cor, raw):
        got = [(Fraction(int(c), D * factor.numerator), Fraction(int(r), D))
               for c, r in zip(cor_m, raw_m)]
        assert got == oracle_scores(OCC, m, elems, panel, factor)
    rep = scan_limits(OCC, HS, elems, ms, tol=F(1, 3), panel=panel, params=PARAMS)
    scan_factors = [check_entry(e, elems, panel) for e in rep.entries]
    assert F(1) in scan_factors and min(scan_factors) < 1
    assert max(models.values.flat) >= 2 ** 62


def test_strong_norm_of_generator_powers_is_central_binomial():
    """||P^n 1_A||^2 / mu(A) = binom(2n, n)/4^n on a level with no near returns."""
    gen = FormalElement.from_series(generator_series(PARAMS)[0])
    assert OCC.base_height > 2 * 8  # no copy-start pair closer than P^8's spread
    for n in range(1, 9):
        assert strong_norm_sq(OCC, power(gen, n), (0,)) == F(math.comb(2 * n, n), 4 ** n)
