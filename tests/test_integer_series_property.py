"""Property test: the integer series algebra against its Fraction forms.

``convolve`` multiplies integer numerators over one denominator per operand,
``enumerate_semigroup`` builds each product from its parent exponent vector
and shifts exponents for T^z, and ``verify_frequencies`` tallies its window
sums from prefix sums.  The oracles here are the direct Fraction versions:
a cell-by-cell Fraction convolution, every exponent vector re-multiplied from
the identity with T^z applied as a convolution, and a running window sum
updated one element at a time.  Outputs must be equal: coefficients, words,
factorizations, order and every frequency row.  Kept in its own module so
that an environment without hypothesis still collects the other tests.
"""
import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankone.construction import (  # noqa: E402
    FrequencyReport,
    FrequencyRow,
    verify_frequencies,
)
from rankone.series import (  # noqa: E402
    FormalElement,
    _merge_factorizations,
    _render_word,
    adjoint,
    convolve,
    enumerate_semigroup,
    make_admissible,
    power,
)

SETTINGS = settings(max_examples=150, deadline=None)


# --- the Fraction oracles ------------------------------------------------------

def oracle_convolve(a, b):
    if a.is_zero or b.is_zero:
        return FormalElement.zero()
    out = {}
    for u, x in a.coeffs:
        for v, y in b.coeffs:
            out[u + v] = out.get(u + v, Fraction(0)) + x * y
    fact = _merge_factorizations(a.factorization, b.factorization)
    word = _render_word(fact, f"({a.word})*({b.word})")
    return FormalElement.from_coeffs(out, word, fact)


def oracle_power(a, n):
    result = FormalElement.identity()
    for _ in range(n):
        result = oracle_convolve(result, a)
    return result


def oracle_enumerate(generators, max_total_degree, z_range):
    k = len(generators)
    base = [FormalElement.from_series(g, i) for i, g in enumerate(generators)]
    base_adj = [adjoint(el) for el in base]
    seen = {(): ((0, 0), 0)}
    out = [FormalElement.zero()]
    for total in range(max_total_degree + 1):
        for exps in itertools.product(range(total + 1), repeat=2 * k):
            if sum(exps) != total:
                continue
            el = FormalElement.identity()
            for i in range(k):
                for _ in range(exps[i]):
                    el = oracle_convolve(el, base[i])
                for _ in range(exps[k + i]):
                    el = oracle_convolve(el, base_adj[i])
            for z in range(-z_range, z_range + 1):
                shifted = oracle_convolve(FormalElement.t_power(z), el) if z else el
                cx = (total + abs(z), abs(z))
                prior = seen.get(shifted.coeffs)
                if prior is None:
                    seen[shifted.coeffs] = (cx, len(out))
                    out.append(shifted)
                elif cx < prior[0]:
                    seen[shifted.coeffs] = (cx, prior[1])
                    out[prior[1]] = shifted
    return out


def oracle_frequencies(spacers, P, max_m, eps):
    eps = Fraction(eps)
    values = [int(s) for s in spacers]
    r = len(values)
    rows, passed = [], True
    gen = FormalElement.from_series(P)
    for m in range(1, max_m + 1):
        power_m = oracle_power(gen, m)
        sums = {}
        window = sum(values[:m])
        sums[window] = 1
        for i in range(1, r - m + 1):
            window += values[i + m - 1] - values[i - 1]
            sums[window] = sums.get(window, 0) + 1
        denom = r - m + 1
        for k, c in power_m.coeffs:
            row = FrequencyRow(m, k, c, Fraction(sums.get(k, 0), denom))
            rows.append(row)
            if row.relative_deviation >= eps:
                passed = False
    return FrequencyReport(passed, max_m, eps, tuple(rows))


def full(el):
    return el.coeffs, el.word, el.factorization


# --- strategies -------------------------------------------------------------------

# denominators up to 2**64, so lcms and products pass 2**62 and 2**63
denominators = st.one_of(st.integers(1, 12), st.integers(2 ** 62, 2 ** 64))


@st.composite
def fractions(draw):
    return Fraction(draw(st.integers(1, 2 ** 64)), draw(denominators))


@st.composite
def series(draw):
    """An admissible series: c_0 > 0, some c_k > 0 at k > 0, mass <= 1."""
    exps = [0] + draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    weights = [draw(st.integers(1, 2 ** 64)) for _ in exps]
    below = draw(st.integers(1, 2 ** 64))
    mass = Fraction(below, below + draw(st.integers(0, 2 ** 64)))  # in (0, 1]
    total = sum(weights)
    return make_admissible({k: mass * Fraction(w, total) for k, w in zip(exps, weights)})


# symmetric and small series, whose products collide under shifts (T*P1*P1* = P1^2)
SMALL = [make_admissible({0: Fraction(1, 2), 1: Fraction(1, 2)}),
         make_admissible({0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}),
         make_admissible({0: Fraction(1, 3), 1: Fraction(2, 3)})]
generators = series() | st.sampled_from(SMALL)


@st.composite
def elements(draw):
    """Coefficient maps (the zero element among them) or factorized words."""
    kind = draw(st.sampled_from(["map", "zero", "identity", "shift", "series"]))
    if kind == "map":
        return FormalElement.from_coeffs(draw(st.dictionaries(
            st.integers(-6, 6), fractions(), min_size=1, max_size=5)))
    if kind == "zero":
        return FormalElement.zero()
    if kind == "identity":
        return FormalElement.identity()
    if kind == "shift":
        return FormalElement.t_power(draw(st.integers(-3, 3)))
    el = FormalElement.from_series(draw(series()), draw(st.integers(0, 2)))
    return adjoint(el) if draw(st.booleans()) else el


# --- properties -------------------------------------------------------------------

@SETTINGS
@given(a=elements(), b=elements())
def test_convolve_matches_fraction_cells(a, b):
    assert full(convolve(a, b)) == full(oracle_convolve(a, b))


@SETTINGS
@given(a=elements(), n=st.integers(0, 4))
def test_power_matches_fraction_cells(a, n):
    """n = 0 is the empty product: the identity."""
    assert full(power(a, n)) == full(oracle_power(a, n))


@settings(max_examples=60, deadline=None)
@given(gens=st.lists(generators, min_size=1, max_size=2), degree=st.integers(0, 3),
       z_range=st.integers(0, 2))
def test_enumerate_matches_remultiplied_products(gens, degree, z_range):
    got = enumerate_semigroup(gens, degree, z_range)
    assert [full(e) for e in got] == [full(e) for e in oracle_enumerate(gens, degree, z_range)]


def test_enumerate_with_repeated_generators_matches():
    """Equal generators make equal products under different exponent vectors."""
    coin = make_admissible({0: Fraction(1, 2), 1: Fraction(1, 2)})
    got = enumerate_semigroup([coin, coin], 3, 2)
    assert [full(e) for e in got] == [full(e) for e in oracle_enumerate([coin, coin], 3, 2)]


def test_enumerate_dedups_products_across_denominators():
    """(2/5 + 2/5 T)(1/2 + 1/2 T) = 1/5 + 2/5 T + 1/5 T^2 is the third generator:
    the product's numerators (2, 4, 2) over 10 must meet (1, 2, 1) over 5."""
    gens = [make_admissible({0: Fraction(2, 5), 1: Fraction(2, 5)}), SMALL[0],
            make_admissible({0: Fraction(1, 5), 1: Fraction(2, 5), 2: Fraction(1, 5)})]
    got = enumerate_semigroup(gens, 2, 1)
    assert [full(e) for e in got] == [full(e) for e in oracle_enumerate(gens, 2, 1)]


@st.composite
def gate_inputs(draw):
    P = draw(series()).renormalized()
    support = [k for k, _ in P.coeffs]
    # spacers from the support, some past 2**63 (no window sum reaches them)
    spacer = st.sampled_from(support) | st.integers(2 ** 63, 2 ** 80)
    spacers = draw(st.lists(spacer, min_size=2, max_size=60))
    max_m = draw(st.integers(1, min(4, len(spacers) - 1)))
    eps = Fraction(draw(st.integers(1, 50)), draw(st.integers(1, 50)))
    return spacers, P, max_m, eps


@SETTINGS
@given(args=gate_inputs())
def test_verify_frequencies_matches_running_window(args):
    """The report, and its failing cells, by the Fraction deviation rule."""
    report, want = verify_frequencies(*args), oracle_frequencies(*args)
    assert report == want
    assert report.failures() == [row for row in want.rows
                                 if row.relative_deviation >= want.eps]


def test_verify_frequencies_exact_on_spacers_past_int64():
    """Windows of huge spacers whose sums collide exactly; rows must match."""
    P = make_admissible({0: Fraction(1, 2), 1: Fraction(1, 2)})
    big = 2 ** 64
    spacers = [0, 1, big, 0, 1, 1, 0, big + 1, 1, 0] * 3
    report = verify_frequencies(spacers, P, 3, Fraction(1, 2))
    assert report == oracle_frequencies(spacers, P, 3, Fraction(1, 2))
    assert any(row.observed for row in report.rows)
