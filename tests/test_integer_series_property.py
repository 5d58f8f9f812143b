"""Property test: the integer series algebra against its Fraction forms.

Series and elements hold one denominator and integer numerators.
``convolve`` multiplies numerators and denominators, ``enumerate_semigroup``
builds each product from its parent exponent vector and shifts exponents
for T^z, and ``verify_frequencies`` counts its clamped window sums by binary
search over their sorted prefix-sum differences.  The oracles here are the
direct Fraction versions: a cell-by-cell Fraction convolution, every
exponent vector re-multiplied from the identity with T^z applied as a
convolution, and for the gate both a running window sum of the unclamped
spacers updated one element at a time and a ``Counter`` of window sums
against P^m from ``series.power``.  Outputs must be equal: coefficients,
words, factorizations, order, and the gate's verdict with every frequency
row, also when the gate reads its cached P^m tables a second time.
Every constructor must also leave its result in the one canonical form,
so that equal coefficient maps are equal values with equal hashes.
Kept in its own module so that an environment without hypothesis still
collects the other tests.
"""
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rankone.construction import (  # noqa: E402
    FrequencyRow,
    _inverse_cdf,
    _power_tables,
    sample_spacers,
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
    """(passed, max_m, eps, rows), as a report holds them."""
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
    return passed, max_m, eps, tuple(rows)


def full(el):
    return el.coeffs, el.word, el.factorization


# --- strategies -------------------------------------------------------------------

# denominators up to 2**64, so lcms and products pass 2**62 and 2**63
denominators = st.one_of(st.integers(1, 12), st.integers(2 ** 62, 2 ** 64))


@st.composite
def fractions(draw):
    return Fraction(draw(st.integers(1, 2 ** 64)), draw(denominators))


@st.composite
def series(draw, exponents=st.integers(1, 4)):
    """An admissible series: c_0 > 0, some c_k > 0 at k > 0, mass <= 1."""
    exps = [0] + draw(st.lists(exponents, min_size=1, max_size=3, unique=True))
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
    # exponents past 2**62 / r make the window sums Python ints
    exponents = st.integers(1, 4)
    if draw(st.booleans()):
        exponents |= st.integers(2 ** 60, 2 ** 70)
    P = draw(series(exponents)).renormalized()
    support = [k for k, _ in P.coeffs]
    # spacers from the support, some past 2**63 (a window holding one sums
    # past every exponent, unless the exponents are that large too)
    spacer = st.sampled_from(support) | st.integers(2 ** 63, 2 ** 80)
    spacers = draw(st.lists(spacer, min_size=2, max_size=60))
    max_m = draw(st.integers(1, min(4, len(spacers) - 1)))
    eps = Fraction(draw(st.integers(1, 50)), draw(st.integers(1, 50)))
    return spacers, P, max_m, eps


@SETTINGS
@given(args=gate_inputs())
def test_verify_frequencies_matches_running_window(args):
    """The verdict, every row, and the failing rows, by the Fraction
    deviation rule."""
    report, want = verify_frequencies(*args), oracle_frequencies(*args)
    assert (report.passed, report.max_m, report.eps, report.rows) == want
    _, _, eps, rows = want
    assert report.failures() == [row for row in rows if row.relative_deviation >= eps]


def test_verify_frequencies_exact_on_spacers_past_int64():
    """Windows of huge spacers whose sums collide exactly; rows must match."""
    P = make_admissible({0: Fraction(1, 2), 1: Fraction(1, 2)})
    big = 2 ** 64
    spacers = [0, 1, big, 0, 1, 1, 0, big + 1, 1, 0] * 3
    report = verify_frequencies(spacers, P, 3, Fraction(1, 2))
    want = oracle_frequencies(spacers, P, 3, Fraction(1, 2))
    assert (report.passed, report.max_m, report.eps, report.rows) == want
    assert any(row.observed for row in report.rows)


@SETTINGS
@given(P=generators)
def test_inverse_cdf_matches_fraction_cdf_at_each_edge(P):
    """The uniform U / 2**53 draws the first exponent whose cumulative mass
    A_k exceeds it.  On each side of every edge t_k = ceil(A_k * 2**53),
    at U = t_k - 1 and U = t_k, the integer search picks the exponent that
    comparing Fraction(U, 2**53) with the cumulative masses picks."""
    P = P.renormalized()
    cdf = list(itertools.accumulate(v for _, v in P.coeffs))
    edges = [math.ceil(a * 2 ** 53) for a in cdf]
    uniforms = sorted({U for t in edges for U in (t - 1, t) if 0 <= U < 2 ** 53})
    want = [P.coeffs[sum(1 for a in cdf if a <= Fraction(U, 2 ** 53))][0] for U in uniforms]
    assert _inverse_cdf(P)(np.array(uniforms, dtype=np.int64)).tolist() == want


def counter_oracle(spacers, P, max_m, eps):
    """(passed, rows): each order's window sums tallied by a Counter, and
    P^m's coefficients from ``series.power`` as Fractions."""
    values = [int(s) for s in spacers]
    gen = FormalElement.from_series(P)
    rows = []
    for m in range(1, max_m + 1):
        windows = len(values) - m + 1
        tally = Counter(sum(values[i:i + m]) for i in range(windows))
        rows += [FrequencyRow(m, k, c, Fraction(tally[k], windows))
                 for k, c in power(gen, m).coeffs]
    return all(row.relative_deviation < eps for row in rows), tuple(rows)


@st.composite
def gate_calls(draw):
    """Gate inputs as an int64 array, a list or a tuple.  Exponents may pass
    2**62 (the prefix sums become Python ints); list and tuple spacers may
    pass 2**63, and an array's exponents and spacers stay below it."""
    kind = draw(st.sampled_from(["array", "list", "tuple"]))
    exponents = st.integers(1, 4)
    if draw(st.booleans()):
        exponents |= (st.integers(2 ** 62, 2 ** 63 - 1) if kind == "array"
                      else st.integers(2 ** 62, 2 ** 70))
    P = draw(series(exponents) | st.sampled_from(SMALL)).renormalized()
    # draws from P itself, so that order 1 often passes; sorted, they keep
    # their order-1 cells and fail the longer windows.  A few entries are
    # rewritten to exponents or to large spacers.
    spacers = sample_spacers(P, draw(st.integers(2, 200)), draw(st.integers(0, 2 ** 32))).tolist()
    if draw(st.booleans()):
        spacers.sort()
    big = st.integers(2 ** 62, 2 ** 63 - 1) if kind == "array" else st.integers(2 ** 63, 2 ** 80)
    for i, v in draw(st.lists(st.tuples(st.integers(0, len(spacers) - 1),
                                        st.sampled_from([k for k, _ in P.nums]) | big),
                              max_size=4)):
        spacers[i] = v
    if kind == "array":
        spacers = np.array(spacers, dtype=np.int64)
    elif kind == "tuple":
        spacers = tuple(spacers)
    max_m = draw(st.integers(1, min(4, len(spacers) - 1)))
    eps = Fraction(draw(st.integers(1, 50)), draw(st.integers(1, 50)))
    return spacers, P, max_m, eps


@SETTINGS
@given(args=gate_calls())
def test_verify_frequencies_matches_counter_oracle(args):
    """Every row, the verdict and the failing rows match the oracle; the
    verdict is "no cell fails"; and a second call with an equal series
    reads the cached P^m tables and gives an equal report."""
    spacers, P, max_m, eps = args
    report = verify_frequencies(*args)
    passed, rows = counter_oracle(*args)
    assert (report.passed, report.rows) == (passed, rows)
    assert report.passed == (not report.failures())
    assert report.failures() == [row for row in rows if row.relative_deviation >= eps]
    hits = _power_tables.cache_info().hits
    again = verify_frequencies(spacers, make_admissible(dict(P.coeffs)), max_m, eps)
    assert _power_tables.cache_info().hits == hits + 1
    assert again == report and again.rows == report.rows


@SETTINGS
@given(args=gate_inputs())
def test_verify_frequencies_int64_array_matches_list(args):
    """An int64 array is clamped in int64; its cells equal the list's."""
    spacers, P, max_m, eps = args
    if max(spacers) >= 2 ** 63:
        spacers = [min(s, 2 ** 63 - 1) for s in spacers]
    want = verify_frequencies(spacers, P, max_m, eps)
    got = verify_frequencies(np.array(spacers, dtype=np.int64), P, max_m, eps)
    assert (got.passed, got.cells) == (want.passed, want.cells)


# --- the canonical integer form ------------------------------------------------------

def assert_canonical(x):
    """Lowest terms, increasing exponents, positive integer numerators."""
    zs = [z for z, _ in x.nums]
    assert type(x.den) is int and x.den >= 1
    assert all(type(z) is int and type(n) is int and n > 0 for z, n in x.nums)
    assert zs == sorted(set(zs))
    assert math.gcd(x.den, *(n for _, n in x.nums)) == 1


@st.composite
def built(draw):
    """An element from one constructor, and its coefficients by a Fraction oracle."""
    kind = draw(st.sampled_from(["from_coeffs", "from_series", "zero", "identity",
                                 "t_power", "convolve", "adjoint", "power", "enumerate"]))
    if kind == "from_coeffs":
        coeffs = draw(st.dictionaries(st.integers(-6, 6), fractions() | st.just(Fraction(0)),
                                      max_size=5))
        return FormalElement.from_coeffs(coeffs), tuple(sorted(
            (z, v) for z, v in coeffs.items() if v))
    if kind == "from_series":
        P = draw(generators)
        return FormalElement.from_series(P, draw(st.integers(0, 2))), P.coeffs
    if kind == "zero":
        return FormalElement.zero(), ()
    if kind == "identity":
        return FormalElement.identity(), ((0, Fraction(1)),)
    if kind == "t_power":
        z = draw(st.integers(-3, 3))
        return FormalElement.t_power(z), ((z, Fraction(1)),)
    if kind == "enumerate":
        gens = draw(st.lists(generators, min_size=1, max_size=2))
        got, want = enumerate_semigroup(gens, 2, 1), oracle_enumerate(gens, 2, 1)
        i = draw(st.integers(0, len(got) - 1))
        return got[i], want[i].coeffs
    a = draw(elements())
    if kind == "convolve":
        b = draw(elements())
        return convolve(a, b), oracle_convolve(a, b).coeffs
    if kind == "adjoint":
        return adjoint(a), tuple(sorted((-z, v) for z, v in a.coeffs))
    n = draw(st.integers(0, 3))
    return power(a, n), oracle_power(a, n).coeffs


@SETTINGS
@given(case=built())
def test_every_constructor_holds_the_canonical_form(case):
    el, want = case
    assert_canonical(el)
    assert el.coeffs == want


@SETTINGS
@given(a=built(), b=built(), scale=st.integers(1, 2 ** 64), data=st.data())
def test_equality_is_coefficient_equality(a, b, scale, data):
    """Equal maps are equal elements with equal hashes, whatever their words,
    and the constructor brings any scaled, shuffled, zero-padded form of a
    map to the same one."""
    (a, _), (b, _) = a, b
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)
    pairs = [(z, n * scale) for z, n in a.nums] + [(z, 0) for z in range(7, 9)]
    twin = FormalElement(a.den * scale, tuple(data.draw(st.permutations(pairs))), "twin")
    assert (twin.den, twin.nums) == (a.den, a.nums)
    assert twin == a and hash(twin) == hash(a)


@SETTINGS
@given(P=generators)
def test_series_round_trips_through_its_coefficients(P):
    assert_canonical(P)
    assert make_admissible(dict(P.coeffs)) == P
    R = P.renormalized()
    assert_canonical(R)
    assert R.declared_mass == 1
    assert R.coeffs == tuple((k, v / P.declared_mass) for k, v in P.coeffs)
