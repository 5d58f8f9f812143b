"""Admissible coefficient series and the semigroup algebra over them.

An *admissible series* is a finitely supported map k -> c_k (k >= 0) with
c_k >= 0, sum c_k <= 1, c_0 > 0 and at least one positive coefficient at
k > 0.  It plays two roles: as the sampling distribution for spacer columns
(see :mod:`rankone.construction`) and as a generator of the operator
semigroup spanned by a shift operator T, the series evaluated at T, and
their adjoints.

Because T is invertible and everything here commutes, every semigroup
element is fully described by a finitely supported map z -> q_z over the
integers (negative z encoding adjoint powers).  :class:`FormalElement`
holds that map together with a symbolic word; products are coefficient
convolutions.  A product multiplies integer numerators over one common
denominator per operand (the lcm of its coefficient denominators) and
builds one :class:`fractions.Fraction` per output coefficient, at the edge
where ``coeffs`` is stored.  All arithmetic is exact, so element equality
-- and hence deduplication during enumeration -- is decidable.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "AdmissibleSeries",
    "FormalElement",
    "SeriesValidationError",
    "adjoint",
    "convolve",
    "element_from_json",
    "element_to_json",
    "enumerate_semigroup",
    "make_admissible",
    "power",
    "validate_coeffs",
]


def _to_fraction(x) -> Fraction:
    if isinstance(x, float):
        # Floats are accepted for convenience: the nearest fraction with a
        # denominator up to 10**12 (0.1 -> 1/10) when it converts back to
        # the same float, else the float's exact binary value.  Callers
        # wanting exact decimals should pass strings or Fractions.
        near = Fraction(x).limit_denominator(10**12)
        return near if float(near) == x else Fraction(x)
    return Fraction(x)


class SeriesValidationError(ValueError):
    """Raised when a coefficient map is not admissible.

    The individual failed conditions are available as ``violations``.
    """

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def validate_coeffs(coeffs: Mapping[int, object]) -> list[str]:
    """Return every admissibility violation of ``coeffs`` (empty list = ok)."""
    violations = []
    frac = {}
    for k, v in coeffs.items():
        if not isinstance(k, int) or k < 0:
            violations.append(f"exponent {k!r} is not a nonnegative integer")
            continue
        frac[k] = _to_fraction(v)
    for k, v in sorted(frac.items()):
        if v < 0:
            violations.append(f"coefficient c_{k} = {v} is negative")
    mass = sum(frac.values(), Fraction(0))
    if mass > 1:
        violations.append(f"total mass {mass} exceeds 1")
    if frac.get(0, Fraction(0)) <= 0:
        violations.append("constant coefficient c_0 must be positive")
    if not any(v > 0 for k, v in frac.items() if k > 0):
        violations.append("some coefficient c_k with k > 0 must be positive")
    return violations


@dataclass(frozen=True)
class AdmissibleSeries:
    """Finitely supported admissible coefficient series.

    ``coeffs`` is stored as a sorted tuple of (exponent, Fraction) pairs with
    zero entries dropped; ``declared_mass`` is the exact total mass (<= 1).
    """

    coeffs: tuple[tuple[int, Fraction], ...]
    declared_mass: Fraction

    @property
    def max_exponent(self) -> int:
        return self.coeffs[-1][0]

    def renormalized(self) -> "AdmissibleSeries":
        """The conditional distribution: coefficients divided by total mass."""
        if self.declared_mass == 1:
            return self
        scaled = tuple((k, v / self.declared_mass) for k, v in self.coeffs)
        return AdmissibleSeries(scaled, Fraction(1))

    def __str__(self) -> str:
        return " + ".join(f"{v}*T^{k}" for k, v in self.coeffs)


def make_admissible(coeffs: Mapping[int, object]) -> AdmissibleSeries:
    """Validate ``coeffs`` and build an :class:`AdmissibleSeries`.

    Raises :class:`SeriesValidationError` listing every failed condition.
    """
    violations = validate_coeffs(coeffs)
    if violations:
        raise SeriesValidationError(violations)
    frac = sorted((k, _to_fraction(v)) for k, v in coeffs.items() if _to_fraction(v) != 0)
    mass = sum((v for _, v in frac), Fraction(0))
    return AdmissibleSeries(tuple(frac), mass)


# ---------------------------------------------------------------------------
# Formal semigroup elements
# ---------------------------------------------------------------------------

# A factorization is (t_exp, ((gen_index, direct_exp, adjoint_exp), ...)).
# It is carried for reporting only; equality ignores it.
Factorization = tuple[int, tuple[tuple[int, int, int], ...]]


def _render_word(fact: Factorization | None, fallback: str) -> str:
    if fact is None:
        return fallback
    t_exp, powers = fact
    parts = []
    if t_exp:
        parts.append("T" if t_exp == 1 else f"T^{t_exp}")
    for gen, direct, adj in powers:
        name = f"P{gen + 1}"
        if direct:
            parts.append(name if direct == 1 else f"{name}^{direct}")
        if adj:
            parts.append(f"{name}*" if adj == 1 else f"{name}*^{adj}")
    return "*".join(parts) if parts else "I"


@dataclass(frozen=True)
class FormalElement:
    """A semigroup element as a finitely supported map z -> coefficient.

    ``coeffs`` is a sorted tuple of (z, Fraction) with strictly positive
    entries; the empty tuple is the zero element.  ``word`` is a symbolic
    factorization kept for reports; two elements are equal iff their
    coefficient maps are equal (the weak topology only sees coefficients).
    """

    coeffs: tuple[tuple[int, Fraction], ...]
    word: str = "?"
    factorization: Factorization | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(sorted(self.coeffs)))

    # equality / hashing on coefficients only
    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[int, object], word: str = "?",
                    factorization: Factorization | None = None) -> "FormalElement":
        items = tuple(sorted((int(z), _to_fraction(v)) for z, v in coeffs.items()
                             if _to_fraction(v) != 0))
        if any(v < 0 for _, v in items):
            raise ValueError("formal elements have nonnegative coefficients")
        return cls(items, word, factorization)

    @classmethod
    def zero(cls) -> "FormalElement":
        return cls((), "0", None)

    @classmethod
    def identity(cls) -> "FormalElement":
        return cls(((0, Fraction(1)),), "I", (0, ()))

    @classmethod
    def t_power(cls, z: int) -> "FormalElement":
        fact = (z, ())
        return cls(((z, Fraction(1)),), _render_word(fact, ""), fact)

    @classmethod
    def from_series(cls, series: AdmissibleSeries, gen_index: int = 0) -> "FormalElement":
        fact = (0, ((gen_index, 1, 0),))
        return cls(tuple(series.coeffs), _render_word(fact, ""), fact)

    @property
    def mass(self) -> Fraction:
        return sum((v for _, v in self.coeffs), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_abs_exponent(self) -> int:
        return max((abs(z) for z, _ in self.coeffs), default=0)

    def __str__(self) -> str:
        return self.word


def _merge_factorizations(a: Factorization | None, b: Factorization | None) -> Factorization | None:
    if a is None or b is None:
        return None
    ta, pa = a
    tb, pb = b
    powers: dict[int, list[int]] = {}
    for gen, direct, adj in itertools.chain(pa, pb):
        cur = powers.setdefault(gen, [0, 0])
        cur[0] += direct
        cur[1] += adj
    merged = tuple((g, d, s) for g, (d, s) in sorted(powers.items()) if d or s)
    return (ta + tb, merged)


def _numerators(coeffs) -> tuple[list[tuple[int, int]], int]:
    """``coeffs`` as (z, numerator) pairs over d = lcm of the denominators, and d."""
    d = math.lcm(*(v.denominator for _, v in coeffs))
    return [(z, v.numerator * (d // v.denominator)) for z, v in coeffs], d


def _product(a: Iterable[tuple[int, int]], b: Sequence[tuple[int, int]]) -> dict[int, int]:
    """Convolution of two (z, numerator) sequences; the denominators multiply."""
    out: dict[int, int] = {}
    for u, x in a:
        for v, y in b:
            out[u + v] = out.get(u + v, 0) + x * y
    return out


def convolve(a: FormalElement, b: FormalElement) -> FormalElement:
    """Semigroup product: coefficient convolution, words concatenated."""
    if a.is_zero or b.is_zero:
        return FormalElement.zero()
    (na, da), (nb, db) = _numerators(a.coeffs), _numerators(b.coeffs)
    d = da * db
    coeffs = tuple((z, Fraction(n, d)) for z, n in _product(na, nb).items())
    fact = _merge_factorizations(a.factorization, b.factorization)
    return FormalElement(coeffs, _render_word(fact, f"({a.word})*({b.word})"), fact)


def adjoint(a: FormalElement) -> FormalElement:
    """Reflect exponents: z -> -z.  Involutive."""
    if a.is_zero:
        return a
    fact = None
    if a.factorization is not None:
        t_exp, powers = a.factorization
        fact = (-t_exp, tuple((g, s, d) for g, d, s in powers))
    word = _render_word(fact, f"({a.word})*adj")
    return FormalElement(tuple((-z, v) for z, v in a.coeffs), word, fact)


def power(a: FormalElement, n: int) -> FormalElement:
    """n-fold product; n = 0 gives the identity."""
    if n < 0:
        raise ValueError("power requires n >= 0")
    result = FormalElement.identity()
    for _ in range(n):
        result = convolve(result, a)
    return result


def enumerate_semigroup(generators: Sequence[AdmissibleSeries],
                        max_total_degree: int,
                        z_range: int) -> list[FormalElement]:
    """Enumerate T^z * prod P_i^{b_i} * prod P_i(T*)^{c_i}, deduplicated.

    Covers sum(b_i + c_i) <= max_total_degree and |z| <= z_range, plus the
    zero element.  Two elements are equal iff their coefficient maps are
    equal; among coefficient-equal words the one with the fewest factors
    (then the smallest bare shift) is kept, so e.g. T*P1*P1* displays as
    P1^2.
    """
    if not generators:
        raise ValueError("at least one generator required")
    if max_total_degree < 0 or z_range < 0:
        raise ValueError("bounds must be nonnegative")
    k = len(generators)
    factors = [_numerators(g.coeffs) for g in generators]
    factors += [([(-z, n) for z, n in nums], d) for nums, d in factors]

    # A product is kept as its lowest exponent lo and a form (d, offsets,
    # numerators): its coefficients are the numerators over d, divided by
    # their gcd with d, at exponents lo + offset.  Equal coefficient maps have
    # equal (lo, form), and T^z only moves lo.  ``best`` maps each (lo, form),
    # in first-seen order, to its simplest word so far; (0, (1, (), ())) is
    # the zero element.
    best: dict[tuple, tuple[tuple[int, int], Factorization | None]] = {
        (0, (1, (), ())): ((0, 0), None)}
    parents: dict[tuple[int, ...], tuple] = {}
    for total in range(max_total_degree + 1):
        products = {}
        # exponent vectors (b_1..b_k, c_1..c_k) by total degree
        for exps in itertools.product(range(total + 1), repeat=2 * k):
            if sum(exps) != total:
                continue
            if total == 0:
                plo, nums, d = 0, {0: 1}, 1
            else:  # the parent vector times one generator
                i = next(i for i, e in enumerate(exps) if e)
                plo, (pd, offsets, pnums) = parents[exps[:i] + (exps[i] - 1,) + exps[i + 1:]]
                nums, d = _product(zip(offsets, pnums), factors[i][0]), pd * factors[i][1]
            g = math.gcd(d, *nums.values())
            items = sorted(nums.items())  # every numerator is positive
            low = items[0][0]
            form = (d // g, tuple(z - low for z, _ in items), tuple(n // g for _, n in items))
            lo = plo + low
            products[exps] = (lo, form)
            powers = tuple((i, exps[i], exps[k + i]) for i in range(k)
                           if exps[i] or exps[k + i])
            for z in range(-z_range, z_range + 1):
                key = (lo + z, form)
                cx = (total + abs(z), abs(z))  # fewest factors, then |z|
                if key not in best or cx < best[key][0]:
                    best[key] = (cx, (z, powers))
        parents = products

    return [FormalElement.zero() if fact is None else
            FormalElement(tuple((lo + u, Fraction(n, d)) for u, n in zip(offsets, nums)),
                          _render_word(fact, ""), fact)
            for (lo, (d, offsets, nums)), (_, fact) in best.items()]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def element_to_json(el: FormalElement) -> str:
    """Serialize as {"word": ..., "coeffs": [[z, num, den], ...]} (z-sorted)."""
    rows = [[z, v.numerator, v.denominator] for z, v in el.coeffs]
    return json.dumps({"word": el.word, "coeffs": rows})


def _dec_int(x, field: str) -> int:
    """A JSON integer (not a bool) or a decimal digit string, else ValueError."""
    if type(x) is int or isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    raise ValueError(f"{field} must be an integer, got {x!r}")


def _dec(x, kind: type, field: str, keys: Sequence[str] = ()):
    """``x`` if it is a JSON list or object (``kind``) holding ``keys``."""
    if not isinstance(x, kind):
        name = "a list" if kind is list else "an object"
        raise ValueError(f"{field} must be {name}, got {x!r}")
    for key in keys:
        if key not in x:
            raise ValueError(f"missing field {key} in {field}")
    return x


def element_from_json(text: str) -> FormalElement:
    """Decode :func:`element_to_json`; a missing or malformed field raises ValueError."""
    blob = _dec(json.loads(text), dict, "element", ("coeffs",))
    coeffs = {}
    for row in _dec(blob["coeffs"], list, "element coeffs"):
        if len(_dec(row, list, "element coeff")) != 3:
            raise ValueError(f"element coeff must be [z, num, den], got {row!r}")
        z, num, den = (_dec_int(x, f"element {name}") for x, name in
                       zip(row, ("exponent", "numerator", "denominator")))
        if den < 1:
            raise ValueError(f"element denominator must be positive, got {den}")
        if z in coeffs:
            raise ValueError(f"element exponent {z} repeats")
        coeffs[z] = Fraction(num, den)
    word = blob.get("word", "?")
    if not isinstance(word, str):
        raise ValueError(f"element word must be a string, got {word!r}")
    return FormalElement.from_coeffs(coeffs, word)
