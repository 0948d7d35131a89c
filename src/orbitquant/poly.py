"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to ``fractions.Fraction``
coefficients, one exponent slot per variable.  No floating point is ever
involved and zero coefficients are never stored, so equality of
polynomials is literal dictionary equality.

Exponents are tuples of nonnegative ints, checked where a polynomial is
built from outside data.  Every product goes through one kernel,
``sum_of_products``: it works on integer numerators over one denominator
per operand and builds a single Fraction per output term, and it keys its
accumulator by packed exponents, each monomial one Python int with a
fixed-width slot per variable, so that multiplying two monomials is one
integer addition.  ``MultiPoly.evaluate`` works the same way: the
point's numerators over the lcm of its denominators, the coefficients'
numerators over theirs, and one Fraction for the value.

Monomial orders are graded (degree first); the default is graded reverse
lexicographic, which tends to give the smallest sets of standard
monomials in quotient-ring computations.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, StructuralError

Exponent = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise StructuralError(f"not an exact rational value: {value!r}")


@dataclass(frozen=True)
class MonomialOrder:
    """A graded monomial order with an explicit variable priority.

    ``priority`` is a permutation of variable indices; priority[0] is the
    most significant variable.  ``kind`` is ``"grevlex"`` or ``"grlex"``.
    Both orders are total, multiplicative and well-founded, which is what
    the division and completion algorithms require.
    """

    kind: str = "grevlex"
    priority: tuple[int, ...] | None = None

    def key(self, exponent: Exponent):
        """Sort key: max(key) picks the leading monomial."""
        prio = self.priority if self.priority is not None else range(len(exponent))
        reordered = [exponent[p] for p in prio]
        degree = sum(exponent)
        if self.kind == "grevlex":
            return (degree, tuple(-e for e in reversed(reordered)))
        if self.kind == "grlex":
            return (degree, tuple(reordered))
        raise StructuralError(f"unknown monomial order kind {self.kind!r}")

    def compare(self, a: Exponent, b: Exponent) -> int:
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


GREVLEX = MonomialOrder("grevlex")


def exponent_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def exponent_divides(a: Exponent, b: Exponent) -> bool:
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def exponent_div(a: Exponent, b: Exponent) -> Exponent:
    """Quotient exponent a / b; caller must ensure divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def exponent_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


class MultiPoly:
    """An immutable exact multivariate polynomial.

    Supports ring arithmetic, formal differentiation, evaluation and a
    lossless record-based serialization.  All operations require both
    operands to carry the identical variable tuple.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction] | None = None):
        object.__setattr__(self, "variables", tuple(variables))
        clean: dict[Exponent, Fraction] = {}
        if terms:
            nvars = len(self.variables)
            for exp, coeff in terms.items():
                coeff = as_fraction(coeff)
                exp = tuple(exp)
                if len(exp) != nvars:
                    raise StructuralError(
                        f"exponent {exp} has length {len(exp)}, expected {nvars}"
                    )
                # type(e) is int rules out bools; the type test runs before min()
                if exp and (set(map(type, exp)) != {int} or min(exp) < 0):
                    raise StructuralError(f"exponent {exp} is not a tuple of nonnegative ints")
                if coeff != 0:
                    clean[exp] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict[Exponent, Fraction]) -> "MultiPoly":
        """Wrap a term dict built here: nonzero Fractions, valid exponents of the right length."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "MultiPoly":
        value = as_fraction(value)
        if value == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], index: int) -> "MultiPoly":
        exp = [0] * len(variables)
        exp[index] = 1
        return cls(variables, {tuple(exp): ONE})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponent: Exponent, coeff=ONE) -> "MultiPoly":
        return cls(variables, {tuple(exponent): as_fraction(coeff)})

    # -- predicates and views ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), ZERO)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def coefficient(self, exponent: Exponent) -> Fraction:
        return self.terms.get(tuple(exponent), ZERO)

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Exponent, Fraction]:
        if not self.terms:
            raise StructuralError("zero polynomial has no leading term")
        exp = max(self.terms, key=order.key)
        return exp, self.terms[exp]

    def _check_compatible(self, other: "MultiPoly"):
        if self.variables != other.variables:
            raise StructuralError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.constant(self.variables, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            new = out.get(exp, ZERO) + coeff
            if new == 0:
                out.pop(exp, None)
            else:
                out[exp] = new
        return MultiPoly._trusted(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return sum_of_products(self.variables, ((self, other),))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            return MultiPoly._trusted(self.variables, {})
        other = as_fraction(other)
        return MultiPoly._trusted(self.variables, {e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise StructuralError("polynomial powers must be nonnegative integers")
        result = MultiPoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.constant(self.variables, other)
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- calculus and evaluation --------------------------------------

    def diff(self, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable ``index``."""
        out: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            e = exp[index]
            if e == 0:
                continue
            new_exp = list(exp)
            new_exp[index] = e - 1
            key = tuple(new_exp)
            val = out.get(key, ZERO) + coeff * e
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
        return MultiPoly._trusted(self.variables, out)

    def evaluate(self, values: Sequence) -> Fraction:
        """Evaluate exactly at a point given as one exact rational per variable.

        The point is written as integer numerators over q, the lcm of its
        denominators, and the coefficients as integer numerators over one
        denominator (``_numerators``).  A term of degree d is scaled by
        q^(D-d), D the total degree, so every term lies over den * q^D and
        the value is one Fraction built at the end.
        """
        if len(values) != len(self.variables):
            raise StructuralError("wrong number of values for evaluation")
        vals = [as_fraction(v) for v in values]
        if not self.terms:
            return ZERO
        q = 1
        for v in vals:
            d = v.denominator
            if q % d:
                q = q // gcd(q, d) * d
        nums = [v.numerator * (q // v.denominator) for v in vals]
        scaled, den = _numerators(self)
        # integer sum of the terms of each degree
        by_degree: dict[int, int] = {}
        # cache powers per variable; exponents repeat heavily in practice
        powers: list[dict[int, int]] = [dict() for _ in nums]
        for exp, prod in scaled:
            degree = 0
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                degree += e
                cache = powers[i]
                p = cache.get(e)
                if p is None:
                    p = nums[i] ** e
                    cache[e] = p
                prod *= p
            by_degree[degree] = by_degree.get(degree, 0) + prod
        top = max(by_degree)
        total = sum(v * q ** (top - d) for d, v in by_degree.items())
        return Fraction(total, den * q**top)

    # -- serialization ------------------------------------------------

    def to_records(self) -> dict:
        """Lossless record form: coefficients as exact rational strings."""
        items = sorted(self.terms.items(), key=lambda kv: kv[0])
        return {
            "variables": list(self.variables),
            "terms": [
                {"coefficient": str(c), "exponents": list(e)} for e, c in items
            ],
        }

    @classmethod
    def from_records(cls, data: Mapping) -> "MultiPoly":
        variables = data["variables"]
        terms = {
            tuple(rec["exponents"]): Fraction(rec["coefficient"])
            for rec in data["terms"]
        }
        return cls(variables, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in sorted(self.terms.items(), key=lambda kv: GREVLEX.key(kv[0]), reverse=True):
            factors = []
            for name, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


def _numerators(p: MultiPoly) -> tuple[list[tuple[Exponent, int]], int]:
    """p's terms as (exponent, integer numerator) over den, the lcm of p's denominators."""
    den = 1
    for c in p.terms.values():
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    if den == 1:
        return [(e, c.numerator) for e, c in p.terms.items()], 1
    return [(e, c.numerator * (den // c.denominator)) for e, c in p.terms.items()], den


def _slot_code(top: int) -> tuple[str, int]:
    """The smallest ``array`` typecode whose slot holds every value up to
    ``top``, and its slot width in bytes."""
    for code, width in (("B", 1), ("H", 2), ("Q", 8)):
        if top < 1 << 8 * width:
            return code, width
    raise CapacityError(f"product exponents up to {top} exceed 64-bit packed slots")


def sum_of_products(
    variables: Sequence[str], pairs: Iterable[tuple[MultiPoly, MultiPoly]]
) -> MultiPoly:
    """The sum of f * g over ``pairs``, exactly, in integer arithmetic.

    Each operand is written as integer numerators over one denominator,
    the lcm of its own denominators.  The products accumulate as integers
    per exponent over the lcm of the pairs' denominators, and each output
    term becomes one Fraction at the end (sparse products over integer
    numerators: Monagan & Pearce, CASC 2007).  ``MultiPoly.__mul__`` is
    the one-pair case.

    Exponents are packed: each operand term's exponent becomes one int,
    the bytes of an ``array`` with one slot per variable, so a product of
    monomials is one integer addition (packed exponent vectors: Monagan &
    Pearce, CASC 2007; Bachmann & Schoenemann, ISSAC 1998).  The slot
    width comes from ``top``, the largest sum of the two operands' total
    degrees over the pairs: no slot of a product exceeds it, so slots
    never carry into each other.  Past 64-bit slots (``top >= 2**64``)
    the kernel raises ``CapacityError``, so every product with such an
    operand does, ``p ** 1`` included, although ``MultiPoly`` itself
    stores exponents of any size.
    """
    variables = tuple(variables)
    scaled = []
    common = 1
    top = 0
    for f, g in pairs:
        if f.variables != variables or g.variables != variables:
            raise StructuralError(
                f"variable lists differ: {f.variables} and {g.variables} vs {variables}"
            )
        if f.terms and g.terms:
            fs, fd = _numerators(f)
            gs, gd = _numerators(g)
            d = fd * gd
            if common % d:
                common = common // gcd(common, d) * d
            top = max(top, f.total_degree() + g.total_degree())
            scaled.append((fs, gs, d))
    if not scaled:
        return MultiPoly._trusted(variables, {})
    code, width = _slot_code(top)
    order = sys.byteorder
    size = width * len(variables)
    acc: dict[int, int] = {}
    get = acc.get
    for fs, gs, d in scaled:
        scale = common // d
        gp = [(int.from_bytes(array(code, e2), order), c2) for e2, c2 in gs]
        for e1, c1 in fs:
            k1 = int.from_bytes(array(code, e1), order)
            c1 *= scale
            for k2, c2 in gp:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    if common == 1:
        terms = {
            tuple(array(code, k.to_bytes(size, order))): Fraction(v)
            for k, v in acc.items()
            if v
        }
    else:
        terms = {
            tuple(array(code, k.to_bytes(size, order))): Fraction(v, common)
            for k, v in acc.items()
            if v
        }
    return MultiPoly._trusted(variables, terms)


def monomials_up_to_degree(nvars: int, max_degree: int) -> list[Exponent]:
    """All exponent tuples of total degree <= max_degree, degree-sorted."""
    out: list[Exponent] = []
    for d in range(max_degree + 1):
        if nvars == 0:
            if d == 0:
                out.append(())
            continue

        def rec_exact(prefix: list[int], remaining: int, slots: int):
            if slots == 1:
                out.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining + 1):
                rec_exact(prefix + [e], remaining - e, slots - 1)

        rec_exact([], d, nvars)
    return out
