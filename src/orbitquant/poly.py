"""Exact sparse multivariate polynomials over the rationals.

A polynomial stores its coefficients in one flat layout: ``flat`` maps
each exponent tuple, one slot per variable, to a nonzero integer
numerator over one positive denominator ``den``.  The pair is kept in
lowest terms (``_lowest_terms``), so equal polynomials have equal
layouts and equality is literal.  No floating point is ever involved.
``terms`` is a view with one ``fractions.Fraction`` per exponent, built
on each access for the public edges; the operations of this layer read
``flat`` and ``den``.  The layout's storage, sums, negation, equality
and hashing read no key, so they are one class, ``_FlatTerms``, shared
with ``NCPoly`` and ``QuotientElement``.

Exponents are tuples of nonnegative ints, checked where a polynomial is
built from outside data.  Every product goes through one kernel,
``sum_of_products``: it sums integer numerators and keys its accumulator
by packed exponents, each monomial one Python int with a fixed-width
slot per variable, so that multiplying two monomials is one integer
addition.  ``MultiPoly.evaluate`` works the same way: the point's
numerators over the lcm of its denominators, the stored numerators, and
one Fraction for the value.

Monomial orders are graded (degree first); the default is graded reverse
lexicographic, which tends to give the smallest sets of standard
monomials in quotient-ring computations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, StructuralError
from .jsonio import as_fraction, frac_to_str, required

Exponent = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def checked_exponent(exp, nvars: int) -> Exponent:
    """``exp`` as a tuple, or StructuralError unless it holds ``nvars`` ints >= 0."""
    if not isinstance(exp, (tuple, list)):
        raise StructuralError(f"exponent {exp!r} is not a tuple of nonnegative ints")
    exp = tuple(exp)
    if len(exp) != nvars:
        raise StructuralError(f"exponent {exp} has length {len(exp)}, expected {nvars}")
    # type(e) is int rules out bools; the type test runs before min()
    if exp and (set(map(type, exp)) != {int} or min(exp) < 0):
        raise StructuralError(f"exponent {exp} is not a tuple of nonnegative ints")
    return exp


def polynomial_record(data) -> tuple[tuple[str, ...], Sequence[Mapping]]:
    """The variables and term records of a polynomial's JSON record.

    StructuralError unless ``data`` is an object whose ``variables`` is a
    list of names and whose ``terms`` is a list of objects; a missing key
    is a StructuralError that names it.
    """
    if not isinstance(data, Mapping):
        raise StructuralError(f"a polynomial must be a JSON object, not {type(data).__name__}")
    variables, terms = required(data, "variables"), required(data, "terms")
    if not isinstance(variables, (list, tuple)) or not all(isinstance(v, str) for v in variables):
        raise StructuralError("a polynomial's variables must be a list of names")
    if not isinstance(terms, (list, tuple)) or not all(isinstance(t, Mapping) for t in terms):
        raise StructuralError("a polynomial's terms must be a list of JSON objects")
    return tuple(variables), terms


def keyed_once(pairs: Iterable, what: str) -> dict:
    """The dict of (key, value) pairs, or StructuralError if a key repeats."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise StructuralError(f"{what} {key} appears in two records")
        out[key] = value
    return out


@dataclass(frozen=True)
class MonomialOrder:
    """A graded monomial order with an explicit variable priority.

    ``priority`` is a permutation of variable indices; priority[0] is the
    most significant variable.  ``kind`` is ``"grevlex"`` or ``"grlex"``.
    Both orders are total, multiplicative and well-founded, which is what
    the division and completion algorithms require; so an unknown kind
    or a priority that is not a permutation is a StructuralError where
    the order is built, and a priority of another length than the
    exponent where a key is asked for.
    """

    kind: str = "grevlex"
    priority: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("grevlex", "grlex"):
            raise StructuralError(f"unknown monomial order kind {self.kind!r}")
        prio = self.priority
        if prio is not None and (
            any(type(p) is not int for p in prio) or sorted(prio) != list(range(len(prio)))
        ):
            raise StructuralError(f"priority {prio} is not a permutation of 0..n-1")

    def key(self, exponent: Exponent):
        """Sort key: max(key) picks the leading monomial."""
        if self.priority is None:
            reordered = exponent
        elif len(self.priority) != len(exponent):
            raise StructuralError(
                f"priority over {len(self.priority)} variables, exponent over {len(exponent)}"
            )
        else:
            reordered = [exponent[p] for p in self.priority]
        degree = sum(exponent)
        if self.kind == "grevlex":
            return (degree, tuple(-e for e in reversed(reordered)))
        return (degree, tuple(reordered))

    def heap_key(self, exponent: Exponent):
        """``key`` with every entry negated: the least heap key is the
        leading monomial, so a min-heap (``heapq``) pops in descending order."""
        degree, rest = self.key(exponent)
        return (-degree, tuple(-e for e in rest))


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


class _FlatTerms:
    """The flat layout of MultiPoly, NCPoly and QuotientElement.

    ``flat`` maps each key to a nonzero integer numerator over the positive
    ``den``, in lowest terms, so equal elements have equal layouts.  A
    subclass names the slot of the context its operands share
    (``_context_slot``) and the refusal of an operand of the same type from
    another context (``_mismatch``, formatted with both contexts); an
    operand of another type is refused by a message naming both types.
    ``_operand`` may coerce an operand, or return NotImplemented to
    decline it.
    """

    __slots__ = ("flat", "den")
    _context_slot: str
    _mismatch: str

    def _set(self, context, flat: dict, den: int):
        flat, den = _lowest_terms(flat, den)
        object.__setattr__(self, self._context_slot, context)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "den", den)

    @classmethod
    def _trusted(cls, context, flat: dict, den: int):
        """The element with ``flat`` over ``den``, whose keys are valid in ``context``."""
        out = object.__new__(cls)
        out._set(context, flat, den)
        return out

    @property
    def _context(self):
        return getattr(self, self._context_slot)

    def _new(self, flat: dict, den: int):
        return self._trusted(self._context, flat, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check_context(self, other):
        if not isinstance(other, type(self)):
            mine, theirs = type(self).__name__, type(other).__name__
            raise StructuralError(f"cannot combine {mine} with {theirs}")
        if other._context != self._context:
            raise StructuralError(self._mismatch.format(self._context, other._context))

    def _operand(self, other):
        """``other`` as an operand of ``+``, ``-`` and ``==``: as it is."""
        return other

    def is_zero(self) -> bool:
        return not self.flat

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other, summed on the layout."""
        other = self._operand(other)
        if other is NotImplemented:
            return other
        self._check_context(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = {key: c * a for key, c in self.flat.items()} if a != 1 else dict(self.flat)
        get = out.get
        for key, c in other.flat.items():
            out[key] = get(key, 0) + c * b
        return self._new(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._new({key: -c for key, c in self.flat.items()}, self.den)

    def __eq__(self, other):
        other = self._operand(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self._context, self.den, self.flat) == (other._context, other.den, other.flat)

    def __hash__(self):
        return hash((self.den, frozenset(self.flat.items())))


class MultiPoly(_FlatTerms):
    """An immutable exact multivariate polynomial.

    Supports ring arithmetic, formal differentiation, evaluation and a
    lossless record-based serialization.  All operations require both
    operands to carry the identical variable tuple; ``+``, ``-`` and
    ``==`` read an exact scalar as a constant.  ``terms`` is a view with
    one Fraction per exponent, built on each access.  ``_leads`` memoizes
    the leading term per monomial order, set on first use.
    """

    __slots__ = ("variables", "_leads")
    _context_slot = "variables"
    _mismatch = "variable lists differ: {} vs {}"

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction] | None = None):
        variables = tuple(variables)
        items = []
        if terms:
            nvars = len(variables)
            for exp, coeff in terms.items():
                coeff = as_fraction(coeff)
                items.append((checked_exponent(exp, nvars), coeff))
        den = lcm(*(c.denominator for _, c in items))
        flat = {exp: c.numerator * (den // c.denominator) for exp, c in items}
        self._set(variables, flat, den)

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """{exponent: Fraction coefficient}, built on each access."""
        den = self.den
        return {exp: Fraction(c, den) for exp, c in self.flat.items()}

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

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.flat:
            return -1
        return max(map(sum, self.flat))

    def coefficient(self, exponent: Exponent) -> Fraction:
        return Fraction(self.flat.get(tuple(exponent), 0), self.den)

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Exponent, Fraction]:
        """The leading (exponent, coefficient) under ``order``, computed once per order."""
        try:
            leads = self._leads
        except AttributeError:
            leads = {}
            object.__setattr__(self, "_leads", leads)
        lead = leads.get(order)
        if lead is None:
            if not self.flat:
                raise StructuralError("zero polynomial has no leading term")
            exp = max(self.flat, key=order.key)
            leads[order] = lead = (exp, Fraction(self.flat[exp], self.den))
        return lead

    # -- arithmetic ---------------------------------------------------

    def _operand(self, other):
        """An exact scalar as a constant; NotImplemented for any other non-MultiPoly."""
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.variables, other)
        return NotImplemented

    __radd__ = _FlatTerms.__add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return sum_of_products(self.variables, ((self, other),))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            return MultiPoly._trusted(self.variables, {}, 1)
        num, den = as_fraction(other).as_integer_ratio()
        scaled = {e: c * num for e, c in self.flat.items()}
        out = MultiPoly._trusted(self.variables, scaled, self.den * den)
        # a nonzero scalar keeps every leading monomial: carry the memo over
        leads = getattr(self, "_leads", None)
        if leads:
            object.__setattr__(
                out, "_leads", {order: (exp, c * other) for order, (exp, c) in leads.items()}
            )
        return out

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

    # -- calculus and evaluation --------------------------------------

    def diff(self, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable ``index``."""
        # exponents stay distinct when their nonzero slot is lowered
        out: dict[Exponent, int] = {}
        for exp, c in self.flat.items():
            e = exp[index]
            if e:
                out[exp[:index] + (e - 1,) + exp[index + 1 :]] = c * e
        return MultiPoly._trusted(self.variables, out, self.den)

    def evaluate(self, values: Sequence) -> Fraction:
        """Evaluate exactly at a point given as one exact rational per variable.

        The point is written as integer numerators over q, the lcm of its
        denominators.  A term of degree d is scaled by q^(D-d), D the total
        degree, so every term lies over den * q^D and the value is one
        Fraction built at the end.
        """
        if len(values) != len(self.variables):
            raise StructuralError("wrong number of values for evaluation")
        vals = [as_fraction(v) for v in values]
        if not self.flat:
            return ZERO
        q = lcm(*(v.denominator for v in vals))
        nums = [v.numerator * (q // v.denominator) for v in vals]
        # integer sum of the terms of each degree
        by_degree: dict[int, int] = {}
        # cache powers per variable; exponents repeat heavily in practice
        powers: list[dict[int, int]] = [dict() for _ in nums]
        for exp, prod in self.flat.items():
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
        return Fraction(total, self.den * q**top)

    # -- serialization ------------------------------------------------

    def to_records(self) -> dict:
        """Lossless record form: coefficients as exact rational strings."""
        return {
            "variables": list(self.variables),
            "terms": [
                {"coefficient": frac_to_str(c), "exponents": list(e)} for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_records(cls, data: Mapping) -> "MultiPoly":
        variables, records = polynomial_record(data)
        terms = keyed_once(
            (
                (
                    checked_exponent(required(rec, "exponents"), len(variables)),
                    required(rec, "coefficient"),
                )
                for rec in records
            ),
            "exponent",
        )
        return cls(variables, terms)

    def __str__(self):
        if not self.flat:
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


def _lowest_terms(flat: dict, den: int) -> tuple[dict, int]:
    """(flat, den) with integer numerators, zero ones dropped, den positive and
    the common factor of den and the numerators divided out: equal values,
    equal layouts."""
    if 0 in flat.values():
        flat = {key: c for key, c in flat.items() if c}
    g = gcd(den, *flat.values())
    if den < 0:
        g = -g
    if g != 1:
        flat = {key: c // g for key, c in flat.items()}
    return flat, den // g


def _slot_code(top: int) -> tuple[str, int]:
    """The smallest unsigned ``struct`` format character whose slot holds
    every value up to ``top``, and its slot width in bytes."""
    for code, width in (("B", 1), ("H", 2), ("Q", 8)):
        if top < 1 << 8 * width:
            return code, width
    raise CapacityError(f"product exponents up to {top} exceed 64-bit packed slots")


def _exponent_slots(nvars: int, top: int) -> struct.Struct:
    """The little-endian record of ``nvars`` unsigned slots, each wide
    enough for every value up to ``top``.

    ``int.from_bytes(pack(*e), "little")`` is the packed int of an exponent
    tuple: slot i holds e[i] from bit i * 8 * size // nvars on.  No slot
    exceeds ``top``, so adding packed ints adds exponents with no carry
    between slots.
    """
    code, _ = _slot_code(top)
    return struct.Struct(f"<{nvars}{code}")


def sum_of_products(
    variables: Sequence[str], pairs: Iterable[tuple[MultiPoly, MultiPoly]]
) -> MultiPoly:
    """The sum of f * g over ``pairs``, exactly, in integer arithmetic.

    Each operand's integer numerators over its denominator are read as
    stored.  The products accumulate as integers per exponent over the lcm
    of the pairs' denominators, and the result keeps them: no Fraction is
    built (sparse products over integer numerators: Monagan & Pearce,
    CASC 2007).  ``MultiPoly.__mul__`` is the one-pair case.

    Exponents are packed: each operand term's exponent becomes one int,
    the bytes of a record with one unsigned slot per variable, packed
    and unpacked by one ``struct.Struct`` per call, so a product of
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
        if f.flat and g.flat:
            d = f.den * g.den
            if common % d:
                common = common // gcd(common, d) * d
            top = max(top, f.total_degree() + g.total_degree())
            scaled.append((f.flat.items(), g.flat.items(), d))
    if not scaled:
        return MultiPoly._trusted(variables, {}, 1)
    slots = _exponent_slots(len(variables), top)
    pack, unpack, size = slots.pack, slots.unpack, slots.size
    order = "little"
    acc: dict[int, int] = {}
    get = acc.get
    for fs, gs, d in scaled:
        scale = common // d
        gp = [(int.from_bytes(pack(*e2), order), c2) for e2, c2 in gs]
        for e1, c1 in fs:
            k1 = int.from_bytes(pack(*e1), order)
            c1 *= scale
            for k2, c2 in gp:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    flat = {unpack(k.to_bytes(size, order)): v for k, v in acc.items() if v}
    return MultiPoly._trusted(variables, flat, common)


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
