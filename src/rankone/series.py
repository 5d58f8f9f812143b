"""Admissible coefficient series and the semigroup algebra over them.

An *admissible series* is a finitely supported map k -> c_k (k >= 0) with
c_k >= 0, sum c_k <= 1, c_0 > 0 and at least one positive coefficient at
k > 0.  It plays two roles: as the sampling distribution for spacer columns
(see :mod:`rankone.construction`) and as a generator of the operator
semigroup spanned by a shift operator T, the series evaluated at T, and
their adjoints.

Because T is invertible and everything here commutes, every semigroup
element is fully described by a finitely supported map z -> q_z over the
integers (negative z encoding adjoint powers).  A series and an element
hold that map once, in integers: a positive denominator ``den`` and a
tuple ``nums`` of (exponent, numerator) pairs, in lowest terms, with
increasing exponents and positive numerators, so that q_z = n / den.
Equal maps have equal forms, so equality and hashing compare the two
fields, and deduplication during enumeration is exact.  A product
multiplies numerators and denominators.  ``coeffs`` and the masses are
:class:`fractions.Fraction` views, built only when read, for printing.
:class:`FormalElement` carries a symbolic word beside its map.
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
    violations = [f"exponent {k!r} is not a nonnegative integer"
                  for k in coeffs if type(k) is not int or k < 0]  # True is not 1
    frac = {k: _to_fraction(v) for k, v in coeffs.items() if type(k) is int and k >= 0}
    violations += [f"coefficient c_{k} = {v} is negative"
                   for k, v in sorted(frac.items()) if v < 0]
    mass = sum(frac.values(), Fraction(0))
    if mass > 1:
        violations.append(f"total mass {mass} exceeds 1")
    if frac.get(0, Fraction(0)) <= 0:
        violations.append("constant coefficient c_0 must be positive")
    if not any(v > 0 for k, v in frac.items() if k > 0):
        violations.append("some coefficient c_k with k > 0 must be positive")
    return violations


@dataclass(frozen=True)
class _IntegerForm:
    """A map z -> n / den held once: ``den`` and (z, n) pairs ``nums``.

    Every constructor ends here.  ``nums`` may come in any order and hold
    zeros; it is stored in lowest terms, with increasing exponents and
    positive numerators.  A bad denominator or numerator raises ValueError.
    """

    den: int
    nums: tuple[tuple[int, int], ...]

    def __post_init__(self):
        nums = sorted(p for p in self.nums if p[1])
        ns = [n for _, n in nums]
        if self.den < 1 or min(ns, default=0) < 0 or len({z for z, _ in nums}) < len(nums):
            raise ValueError("need a positive denominator, nonnegative numerators "
                             "and distinct exponents")
        g = math.gcd(self.den, *ns)
        if g > 1:
            nums = [(z, n // g) for z, n in nums]
        object.__setattr__(self, "den", self.den // g)
        object.__setattr__(self, "nums", tuple(nums))

    @property
    def coeffs(self) -> tuple[tuple[int, Fraction], ...]:
        """The (exponent, coefficient) pairs as Fractions, built on each read."""
        return tuple((z, Fraction(n, self.den)) for z, n in self.nums)


@dataclass(frozen=True)
class AdmissibleSeries(_IntegerForm):
    """Finitely supported admissible coefficient series: c_k = n / den for
    each (k, n) in ``nums``, zero coefficients absent.  ``declared_mass``
    is the exact total mass (<= 1)."""

    @property
    def declared_mass(self) -> Fraction:
        return Fraction(sum(n for _, n in self.nums), self.den)

    @property
    def max_exponent(self) -> int:
        return self.nums[-1][0]

    def renormalized(self) -> "AdmissibleSeries":
        """The conditional distribution: coefficients divided by total mass."""
        total = sum(n for _, n in self.nums)
        return self if total == self.den else AdmissibleSeries(total, self.nums)

    def __str__(self) -> str:
        return " + ".join(f"{v}*T^{k}" for k, v in self.coeffs)


def make_admissible(coeffs: Mapping[int, object]) -> AdmissibleSeries:
    """Validate ``coeffs`` and build an :class:`AdmissibleSeries`.

    Raises :class:`SeriesValidationError` listing every failed condition.
    """
    violations = validate_coeffs(coeffs)
    if violations:
        raise SeriesValidationError(violations)
    return AdmissibleSeries(*_integer_form(coeffs))


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
class FormalElement(_IntegerForm):
    """A semigroup element: the map z -> n / den for each (z, n) in ``nums``;
    the zero element has no pairs.  ``word`` is a symbolic factorization
    kept for reports; equality and hashing see only the map (the weak
    topology only sees coefficients)."""

    word: str = field(default="?", compare=False)
    factorization: Factorization | None = field(default=None, compare=False)

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[int, object], word: str = "?",
                    factorization: Factorization | None = None) -> "FormalElement":
        return cls(*_integer_form(coeffs), word, factorization)

    @classmethod
    def _reduced(cls, den: int, nums: tuple[tuple[int, int], ...], word: str,
                 factorization: Factorization | None) -> "FormalElement":
        """An element whose ``nums`` are already in lowest terms over ``den``,
        with increasing exponents and positive numerators, kept as given.

        It skips ``__post_init__``, so only :func:`enumerate_semigroup`,
        whose walk reduces every form it keeps, calls it; every other input
        is normalized by the dataclass constructor.
        """
        el = object.__new__(cls)
        el.__dict__.update(den=den, nums=nums, word=word, factorization=factorization)
        return el

    @classmethod
    def zero(cls) -> "FormalElement":
        return cls(1, (), "0", None)

    @classmethod
    def identity(cls) -> "FormalElement":
        return cls(1, ((0, 1),), "I", (0, ()))

    @classmethod
    def t_power(cls, z: int) -> "FormalElement":
        fact = (z, ())
        return cls(1, ((z, 1),), _render_word(fact, ""), fact)

    @classmethod
    def from_series(cls, series: AdmissibleSeries, gen_index: int = 0) -> "FormalElement":
        fact = (0, ((gen_index, 1, 0),))
        return cls(series.den, series.nums, _render_word(fact, ""), fact)

    @property
    def mass(self) -> Fraction:
        return Fraction(sum(n for _, n in self.nums), self.den)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def max_abs_exponent(self) -> int:
        return max((abs(z) for z, _ in self.nums), default=0)

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


def _integer_form(coeffs: Mapping[int, object]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """d, the lcm of the denominators of ``coeffs`` (each value read by
    :func:`_to_fraction`), and ``coeffs`` as (z, numerator) pairs over d."""
    fracs = [(int(z), _to_fraction(v)) for z, v in coeffs.items()]
    d = math.lcm(*(v.denominator for _, v in fracs))
    return d, tuple((z, v.numerator * (d // v.denominator)) for z, v in fracs)


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
    fact = _merge_factorizations(a.factorization, b.factorization)
    return FormalElement(a.den * b.den, tuple(_product(a.nums, b.nums).items()),
                         _render_word(fact, f"({a.word})*({b.word})"), fact)


def adjoint(a: FormalElement) -> FormalElement:
    """Reflect exponents: z -> -z.  Involutive."""
    if a.is_zero:
        return a
    fact = None
    if a.factorization is not None:
        t_exp, powers = a.factorization
        fact = (-t_exp, tuple((g, s, d) for g, d, s in powers))
    word = _render_word(fact, f"({a.word})*adj")
    return FormalElement(a.den, tuple((-z, n) for z, n in a.nums), word, fact)


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

    The walk makes each product of a form with a generator or its adjoint
    once, however many exponent vectors reach it, and the elements keep
    the lowest-terms forms the walk made, so none is normalized again.
    """
    if not generators:
        raise ValueError("at least one generator required")
    if max_total_degree < 0 or z_range < 0:
        raise ValueError("bounds must be nonnegative")
    k = len(generators)
    factors = [(g.nums, g.den) for g in generators]
    factors += [([(-z, n) for z, n in nums], d) for nums, d in factors]

    # A product is kept as its lowest exponent lo and the id of its form
    # (d, pairs), in lowest terms: its coefficients are n / d at exponents
    # lo + u for each (u, n) in pairs, whose first u is 0.  Equal
    # coefficient maps have equal (lo, form), and T^z only moves lo.  Each
    # form is interned once: ``forms`` maps it to its id, ``table`` the id
    # back to it.  ``best`` maps each (lo, form id), in first-seen order, to
    # its simplest word so far; (0, 0) is the zero element.
    table = [(1, ()), (1, ((0, 1),))]
    forms = {form: fid for fid, form in enumerate(table)}
    best: dict[tuple[int, int], tuple[tuple[int, int], Factorization | None]] = {
        (0, 0): ((0, 0), None)}
    # (parent form id, factor index) -> (shift of lo, child form id): the
    # first vector to reach a pair makes its product, later ones reuse it
    made: dict[tuple[int, int], tuple[int, int]] = {}
    # ``level`` maps the exponent vectors (b_1..b_k, c_1..c_k) of one total
    # degree, in itertools.product's order, to (lo, form id) of their
    # products.  A vector's parent is the vector with its first nonzero
    # entry lowered by one, so raising each parent's entries at or before
    # its first nonzero one makes every vector of the next degree once.
    level = {(0,) * (2 * k): (0, 1)}
    for total in range(max_total_degree + 1):
        if total:
            children = []
            for exps, parent in level.items():
                first = next((i for i, e in enumerate(exps) if e), 2 * k - 1)
                children += [(exps[:i] + (exps[i] + 1,) + exps[i + 1:], i, parent)
                             for i in range(first + 1)]
            level = {}
            # each child is the parent's product times factor i
            for exps, i, (plo, pfid) in sorted(children):
                child = made.get((pfid, i))
                if child is None:
                    d, pairs = table[pfid]
                    nums, d = _product(pairs, factors[i][0]), d * factors[i][1]
                    g = math.gcd(d, *nums.values())
                    items = sorted(nums.items())  # every numerator is positive
                    low = items[0][0]
                    form = (d // g, tuple((z - low, n // g) for z, n in items))
                    fid = forms.get(form)
                    if fid is None:
                        fid = forms[form] = len(table)
                        table.append(form)
                    child = made[pfid, i] = (low, fid)
                level[exps] = (plo + child[0], child[1])
        for exps, (lo, fid) in level.items():
            powers = tuple((i, exps[i], exps[k + i]) for i in range(k)
                           if exps[i] or exps[k + i])
            for z in range(-z_range, z_range + 1):
                key = (lo + z, fid)
                cx = (total + abs(z), abs(z))  # fewest factors, then |z|
                if key not in best or cx < best[key][0]:
                    best[key] = (cx, (z, powers))

    elements = []
    for (lo, fid), (_, fact) in best.items():
        d, pairs = table[fid]
        if lo:
            pairs = tuple((lo + u, n) for u, n in pairs)
        elements.append(FormalElement._reduced(d, pairs, _render_word(fact, "0"), fact))
    return elements


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
