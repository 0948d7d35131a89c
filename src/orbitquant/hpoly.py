"""Univariate polynomials in the deformation parameter over the rationals.

Coefficients of noncommutative normal forms live here.  Everything is
exact; degrees are tracked and nothing is ever truncated.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructuralError


class HPoly:
    """An exact polynomial in the formal parameter h."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # Fractions are immutable and already normalized: keep them as they are
        cleaned = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("HPoly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "HPoly":
        return cls(())

    @classmethod
    def one(cls) -> "HPoly":
        return cls((Fraction(1),))

    @classmethod
    def of(cls, value) -> "HPoly":
        return cls((Fraction(value),))

    @classmethod
    def h(cls, power: int = 1, coeff=Fraction(1)) -> "HPoly":
        return cls((Fraction(0),) * power + (Fraction(coeff),))

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def valuation(self) -> int:
        """Order of vanishing at h = 0 (0 for a unit constant term)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise StructuralError("zero polynomial has no valuation")

    def divisible_by_h_power(self, k: int) -> bool:
        return self.is_zero() or self.valuation() >= k

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return HPoly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self):
        return HPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return HPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return HPoly(tuple(out))

    __rmul__ = __mul__

    def shift(self, k: int) -> "HPoly":
        """Multiply by h^k."""
        if self.is_zero():
            return self
        return HPoly((Fraction(0),) * k + self.coeffs)

    def divmod(self, other: "HPoly") -> tuple["HPoly", "HPoly"]:
        """Polynomial division with remainder."""
        other = _coerce(other)
        if other.is_zero():
            raise StructuralError("division by the zero polynomial")
        remainder = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return HPoly.zero(), self
        quotient = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            idx = k + len(other.coeffs) - 1
            coeff = remainder[idx] / lead
            if coeff != 0:
                quotient[k] = coeff
                for j, b in enumerate(other.coeffs):
                    remainder[k + j] -= coeff * b
        return HPoly(tuple(quotient)), HPoly(tuple(remainder))

    def exact_div(self, other: "HPoly") -> "HPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise StructuralError("division is not exact")
        return q

    def evaluate(self, value) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # -- comparison and IO ----------------------------------------------

    def __eq__(self, other):
        # HPoly first: isinstance against Fraction goes through the numbers ABCs
        if isinstance(other, HPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == HPoly.of(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "HPoly":
        return cls(tuple(Fraction(c) for c in data))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"({c})*h")
            else:
                parts.append(f"({c})*h^{i}")
        return " + ".join(parts)

    __repr__ = __str__


def _coerce(value) -> HPoly:
    if isinstance(value, HPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return HPoly.of(value)
    raise StructuralError(f"cannot coerce {value!r} to HPoly")
