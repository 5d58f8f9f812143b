import hashlib
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rankone.series import (
    AdmissibleSeries,
    FormalElement,
    SeriesValidationError,
    _to_fraction,
    adjoint,
    convolve,
    element_from_json,
    element_to_json,
    enumerate_semigroup,
    make_admissible,
    power,
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


def test_enumerate_prefers_short_canonical_words():
    gen = make_admissible(HALF)
    sg = enumerate_semigroup([gen], 2, 1)
    by_coeffs = {e.coeffs: e.word for e in sg}
    p2 = power(FormalElement.from_series(gen), 2)
    # the shared coefficient map renders as the plain square, not T*P1*P1*
    assert by_coeffs[p2.coeffs] == "P1^2"


def test_element_json_roundtrip():
    p = elem({-2: F(1, 3), 0: F(1, 6), 7: F(1, 2)})
    text = element_to_json(p)
    back = element_from_json(text)
    assert back == p
    # canonical ordering by exponent
    assert [t[0] for t in back.coeffs] == [-2, 0, 7]


@pytest.mark.parametrize("text, message", [
    ('{"coeffs": [[0.5, 1, 2]]}', "element exponent must be an integer"),
    ('{"coeffs": [[0, 1.9, 2]]}', "element numerator must be an integer"),
    ('{"coeffs": [[0, true, 2]]}', "element numerator must be an integer"),
    ('{}', "missing field coeffs in element"),
    ('{"coeffs": [[0, 1, 0]]}', "element denominator must be positive"),
])
def test_element_json_rejects_malformed_fields(text, message):
    """A malformed element is one ValueError naming the field, never a guess."""
    with pytest.raises(ValueError, match=message):
        element_from_json(text)
