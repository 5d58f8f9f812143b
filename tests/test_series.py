import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rankone.series import (
    DEC_INT,
    FRACTION,
    AdmissibleSeries,
    Fields,
    FormalElement,
    SeriesValidationError,
    _render_word,
    _to_fraction,
    adjoint,
    convolve,
    enumerate_semigroup,
    make_admissible,
    power,
    read,
    validate_coeffs,
)

F = Fraction
HALF = {0: F(1, 2), 1: F(1, 2)}


def test_float_conversion_keeps_short_fractions_and_small_floats():
    """A float becomes its nearest short fraction when that converts back to
    the same float, else its exact binary value, so no small float rounds
    to 0."""
    assert _to_fraction(0.1) == F(1, 10) and _to_fraction(1 / 3) == F(1, 3)
    for j in range(1, 200):
        assert _to_fraction(1 / (j + 1)) == F(1, j + 1)
        assert _to_fraction(2 / (j + 1)) == F(2, j + 1)
    for x in (1e-13, 5e-13, 1e-300, 0.1 + 1e-14):
        assert _to_fraction(x) == F(x) != 0
    assert _to_fraction(0.0) == 0 and _to_fraction(F(1, 10 ** 30)) == F(1, 10 ** 30)


def test_make_admissible_valid():
    s = make_admissible(HALF)
    assert s.declared_mass == 1
    assert s.coeffs == ((0, F(1, 2)), (1, F(1, 2)))


def test_make_admissible_rejects_zero_constant_term():
    with pytest.raises(SeriesValidationError, match="c_0"):
        make_admissible({1: F(1)})


def test_make_admissible_rejects_mass_above_one():
    with pytest.raises(SeriesValidationError, match="mass"):
        make_admissible({0: F(7, 10), 1: F(7, 10)})


def test_make_admissible_rejects_negative_and_pure_constant():
    assert validate_coeffs({0: F(1, 2), 1: F(-1, 4)})
    assert validate_coeffs({0: F(1)})  # needs some positive higher term
    with pytest.raises(SeriesValidationError):
        make_admissible({0: F(1)})


def test_make_admissible_rejects_bool_exponents():
    """True is not the exponent 1: a build would record it as ``true`` in its
    meta series, which the artifact reader rejects."""
    with pytest.raises(SeriesValidationError, match="exponent True"):
        make_admissible({0: F(1, 2), True: F(1, 2)})


@pytest.mark.parametrize("den, nums", [
    (0, ((0, 1),)),  # no positive denominator
    (2, ((0, -1), (1, 3))),  # a negative numerator
    (4, ((1, 1), (1, 3))),  # a repeated exponent
])
def test_integer_form_rejects_what_it_cannot_hold(den, nums):
    for cls in (AdmissibleSeries, FormalElement):
        with pytest.raises(ValueError, match="need a positive denominator"):
            cls(den, nums)


def test_renormalized_divides_by_mass():
    s = make_admissible({0: F(1, 4), 1: F(1, 4)})
    r = s.renormalized()
    assert r.declared_mass == 1
    assert dict(r.coeffs) == {0: F(1, 2), 1: F(1, 2)}


def elem(coeffs):
    return FormalElement.from_coeffs(coeffs)


def test_convolve_binomial():
    p = elem(HALF)
    assert dict(convolve(p, p).coeffs) == {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)}


def test_convolve_zero_absorbs():
    p = elem(HALF)
    z = FormalElement.zero()
    assert convolve(p, z).is_zero
    assert convolve(z, p).is_zero


def test_adjoint_reflects_and_involutes():
    p = elem(HALF)
    sym = convolve(adjoint(p), p)
    assert dict(sym.coeffs) == {-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}
    assert adjoint(sym) == sym
    t3 = FormalElement.t_power(3)
    assert dict(adjoint(t3).coeffs) == {-3: F(1)}
    assert adjoint(adjoint(t3)) == t3


def test_power_small_binomials():
    p = elem(HALF)
    assert dict(power(p, 2).coeffs) == {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)}
    assert dict(power(p, 4).coeffs) == {
        k: F(c, 16) for k, c in enumerate((1, 4, 6, 4, 1))}
    assert power(p, 1) == p
    assert power(p, 0) == FormalElement.identity()


def test_power_splits_additively():
    rng = np.random.default_rng(3)
    p = elem({0: F(1, 3), 2: F(1, 5), 5: F(1, 7)})
    for _ in range(10):
        m, n = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        assert power(p, m + n) == convolve(power(p, m), power(p, n))


def test_identity_is_unit():
    p = elem({0: F(1, 2), 3: F(1, 3)})
    i = FormalElement.identity()
    assert convolve(p, i) == p and convolve(i, p) == p


# --- semigroup enumeration -------------------------------------------------

def brute_count(gens, degree, z_range):
    """Independent dedup oracle: raw dict convolution over all factor tuples."""
    def conv(a, b):
        out = {}
        for u, cu in a.items():
            for v, cv in b.items():
                out[u + v] = out.get(u + v, F(0)) + cu * cv
        return out

    seen = set()
    base = [dict(g.coeffs) for g in gens]
    base += [{-k: c for k, c in d.items()} for d in base]
    for z in range(-z_range, z_range + 1):
        for total in range(degree + 1):
            for combo in product(range(len(base)), repeat=total):
                cur = {z: F(1)}
                for i in combo:
                    cur = conv(cur, base[i])
                seen.add(tuple(sorted((k, v) for k, v in cur.items() if v)))
    seen.add(())  # zero element
    return len(seen)


def test_enumerate_degree1_no_shift():
    sg = enumerate_semigroup([make_admissible(HALF)], 1, 0)
    words = {e.word for e in sg}
    assert words == {"0", "I", "P1", "P1*"}


def test_enumerate_symmetric_generator_collapses():
    # T*P1 == P1* etc. for the symmetric generator, so only 13 remain
    gen = make_admissible(HALF)
    sg = enumerate_semigroup([gen], 2, 1)
    assert len(sg) == 13
    assert len(sg) == brute_count([gen], 2, 1)


def test_enumerate_asymmetric_generator_full():
    gen = make_admissible({0: F(1, 3), 1: F(2, 3)})
    sg = enumerate_semigroup([gen], 2, 1)
    assert len(sg) == 19
    assert len(sg) == brute_count([gen], 2, 1)


def test_enumerate_two_identical_generators_dedup():
    gen = make_admissible(HALF)
    assert len(enumerate_semigroup([gen, gen], 2, 1)) == 13


def test_enumerate_two_generators_pinned_size():
    gens = [make_admissible(HALF),
            make_admissible({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)})]
    sg = enumerate_semigroup(gens, 4, 1)
    assert len(sg) == 106
    masses = [e.mass for e in sg]
    assert all(m <= 1 for m in masses)
    # identity and zero are present exactly once
    assert sum(1 for e in sg if e.word == "I") == 1
    assert sum(1 for e in sg if e.is_zero) == 1


# enumerate_semigroup([P1, P2], 4, 1) for P1 = (1/2, 1/2), P2 = (1/3, 1/3, 1/3),
# in output order: by total degree, then exponent vector, then shift
TWO_GENERATOR_WORDS = [
    "0", "T^-1", "I", "T", "T^-1*P2*", "P2*", "T*P2*", "T^-1*P1*", "P1*", "P1",
    "P2", "T*P2", "T*P1", "T^-1*P2*^2", "P2*^2", "T*P2*^2", "T^-1*P1**P2*",
    "P1**P2*", "P1*P2*", "T^-1*P1*^2", "P1*^2", "P1*P1*", "P2*P2*", "T*P2*P2*",
    "P1**P2", "P1*P2", "P2^2", "T*P2^2", "P1^2", "T*P1*P2", "T*P1^2",
    "T^-1*P2*^3", "P2*^3", "T*P2*^3", "T^-1*P1**P2*^2", "P1**P2*^2", "P1*P2*^2",
    "T^-1*P1*^2*P2*", "P1*^2*P2*", "P1*P1**P2*", "T^-1*P1*^3", "P1*^3",
    "P1*P1*^2", "P2*P2*^2", "T*P2*P2*^2", "P1**P2*P2*", "P1*P2*P2*", "P1*^2*P2",
    "P1*P1**P2", "P2^2*P2*", "T*P2^2*P2*", "P1**P2^2", "P1*P2^2", "P2^3",
    "T*P2^3", "P1^2*P1*", "P1^2*P2", "T*P1*P2^2", "P1^3", "T*P1^2*P2", "T*P1^3",
    "T^-1*P2*^4", "P2*^4", "T*P2*^4", "T^-1*P1**P2*^3", "P1**P2*^3", "P1*P2*^3",
    "T^-1*P1*^2*P2*^2", "P1*^2*P2*^2", "P1*P1**P2*^2", "T^-1*P1*^3*P2*",
    "P1*^3*P2*", "P1*P1*^2*P2*", "T^-1*P1*^4", "P1*^4", "P1*P1*^3", "P2*P2*^3",
    "T*P2*P2*^3", "P1**P2*P2*^2", "P1*P2*P2*^2", "P1*^2*P2*P2*", "P1*P1**P2*P2*",
    "P1*^3*P2", "P1*P1*^2*P2", "P2^2*P2*^2", "T*P2^2*P2*^2", "P1**P2^2*P2*",
    "P1*P2^2*P2*", "P1*^2*P2^2", "P1*P1**P2^2", "P2^3*P2*", "T*P2^3*P2*",
    "P1**P2^3", "P1*P2^3", "P2^4", "T*P2^4", "P1^2*P1*^2", "P1^2*P1**P2",
    "P1^2*P2^2", "T*P1*P2^3", "P1^3*P1*", "P1^3*P2", "T*P1^2*P2^2", "P1^4",
    "T*P1^3*P2", "T*P1^4",
]


def test_enumerate_two_generators_pinned_order():
    gens = [make_admissible(HALF),
            make_admissible({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)})]
    sg = enumerate_semigroup(gens, 4, 1)
    assert [e.word for e in sg] == TWO_GENERATOR_WORDS
    # the coefficients too: one line "word z:c z:c ..." per element
    text = "\n".join(f"{e.word} " + " ".join(f"{z}:{c}" for z, c in e.coeffs)
                     for e in sg)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7de549fbc9014e6d2e6f4467bcdd6ad7c9cfed1812cb7e5b513b249566928dc4")


def product_filter_walk(generators, max_total_degree, z_range):
    """Reference walk: every exponent vector of each total degree, found by
    filtering itertools.product, each built from its parent vector (the
    first nonzero entry lowered by one) and deduplicated by (lo, form)."""
    k = len(generators)
    factors = [(g.nums, g.den) for g in generators]
    factors += [([(-z, n) for z, n in nums], d) for nums, d in factors]
    best = {(0, (1, (), ())): ((0, 0), None)}
    parents = {}
    for total in range(max_total_degree + 1):
        products = {}
        for exps in product(range(total + 1), repeat=2 * k):
            if sum(exps) != total:
                continue
            if total == 0:
                plo, nums, d = 0, {0: 1}, 1
            else:
                i = next(i for i, e in enumerate(exps) if e)
                plo, (pd, offsets, pnums) = parents[exps[:i] + (exps[i] - 1,) + exps[i + 1:]]
                nums, d = {}, pd * factors[i][1]
                for u, x in zip(offsets, pnums):
                    for v, y in factors[i][0]:
                        nums[u + v] = nums.get(u + v, 0) + x * y
            g = math.gcd(d, *nums.values())
            items = sorted(nums.items())
            low = items[0][0]
            form = (d // g, tuple(z - low for z, _ in items), tuple(n // g for _, n in items))
            lo = plo + low
            products[exps] = (lo, form)
            powers = tuple((i, exps[i], exps[k + i]) for i in range(k)
                           if exps[i] or exps[k + i])
            for z in range(-z_range, z_range + 1):
                key = (lo + z, form)
                cx = (total + abs(z), abs(z))
                if key not in best or cx < best[key][0]:
                    best[key] = (cx, (z, powers))
        parents = products
    return [(d, tuple((lo + u, n) for u, n in zip(offsets, nums)), _render_word(fact, "0"), fact)
            for (lo, (d, offsets, nums)), (_, fact) in best.items()]


SKEWED_PAIR = [{0: F(1, 5), 3: F(2, 5), 7: F(1, 5)}, {0: F(1, 2), 2: F(1, 4)}]


@pytest.mark.parametrize("coeffs", [
    [HALF], [HALF, {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}],
    [HALF, {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}, {0: F(1, 4), 3: F(1, 2)}],
    # no two products of this pair share a form, so the walk reuses none
    SKEWED_PAIR], ids=["1", "2", "3", "skewed-pair"])
def test_enumerate_matches_the_product_filter_walk(coeffs):
    """Each exponent vector made once from its parent, and each (form,
    generator) product made once, gives the same elements, in the same
    order, with the same words and factorizations.  Every element is a
    FormalElement already in the form its constructor would normalize to."""
    gens = [make_admissible(c) for c in coeffs]
    for degree in range(5):
        for z_range in range(3):
            got = enumerate_semigroup(gens, degree, z_range)
            want = product_filter_walk(gens, degree, z_range)
            assert [(e.den, e.nums, e.word, e.factorization) for e in got] == want
            for el in got:
                rebuilt = FormalElement(el.den, el.nums)
                assert type(el) is FormalElement
                assert (el.den, el.nums) == (rebuilt.den, rebuilt.nums)
                assert hash(el) == hash(rebuilt)


def test_enumerate_prefers_short_canonical_words():
    gen = make_admissible(HALF)
    sg = enumerate_semigroup([gen], 2, 1)
    by_coeffs = {e.coeffs: e.word for e in sg}
    p2 = power(FormalElement.from_series(gen), 2)
    # the shared coefficient map renders as the plain square, not T*P1*P1*
    assert by_coeffs[p2.coeffs] == "P1^2"


RECORD = Fields({"j": DEC_INT, "eps": FRACTION, "draws": [DEC_INT]}, ("j",))
DOC = Fields({"stages": [RECORD], "cap": (DEC_INT, None),
              "starts": {int: int}, "panel": Fields({"span": int}, closed="scan")})


def test_read_decodes_by_declaration():
    """Decimal strings become ints, a fraction string stays the string, an
    undeclared field of an open object is kept as it is, and data keys
    declared int become ints."""
    doc = {"stages": [{"j": "12345678901234567890", "eps": "2/7", "draws": [3, "-4"],
                       "note": [1.5]}], "cap": None, "starts": {"3": 40}}
    assert read(doc, DOC, "doc") == {
        "stages": [{"j": 12345678901234567890, "eps": "2/7", "draws": [3, -4],
                    "note": [1.5]}], "cap": None, "starts": {3: 40}}


@pytest.mark.parametrize("doc, message", [
    ([], "doc must be an object, got []"),
    ({"stages": {}}, "stages must be a list, got {}"),
    ({"stages": [{}]}, "missing field j in stage 1"),
    ({"stages": [{"j": 1}, 7]}, "stage 2 must be an object, got 7"),
    ({"stages": [{"j": True}]}, "stage 1 j must be an integer, got True"),
    ({"stages": [{"j": "1e3"}]}, "stage 1 j must be an integer, got '1e3'"),
    ({"stages": [{"j": 1, "eps": True}]}, "stage 1 eps must be a fraction string, got True"),
    ({"stages": [{"j": 1, "eps": 0.5}]}, "stage 1 eps must be a fraction string, got 0.5"),
    ({"stages": [{"j": 1, "eps": "1/0"}]}, "stage 1 eps must be a fraction string, got '1/0'"),
    ({"stages": [{"j": 1, "draws": [0, 1.5, 2]}]},
     "stage 1 draws must be an integer, got 1.5"),
    ({"cap": "y"}, "cap must be an integer or null, got 'y'"),
    ({"starts": {"a": 1}}, "starts must be an object, each key a decimal integer, got key 'a'"),
    ({"starts": {"2": False}}, "starts 2 must be an integer, got False"),
    ({"panel": {"span": "x"}}, "panel span must be an integer, got 'x'"),
    ({"panel": {"spam": 3}}, "unknown config key 'panel spam' for scan"),
])
def test_read_names_the_full_path(doc, message):
    """Each fault is one ValueError naming its full path and the kind it
    needs; a bad list entry is shown alone, never the whole list."""
    with pytest.raises(ValueError) as exc:
        read(doc, DOC, "doc")
    assert str(exc.value) == message
