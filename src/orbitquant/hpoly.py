"""Univariate polynomials in the deformation parameter over the rationals.

HPoly is the public coefficient type of noncommutative elements: their
constructors take it, their ``terms`` views and JSON give it.  Their
arithmetic runs on integer numerators instead (see ``ncpoly``).
Everything is exact: an inexact coefficient such as a float raises
StructuralError, and nothing is ever truncated.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructuralError
from .jsonio import as_fraction, frac_to_str


class HPoly:
    """An exact polynomial in the formal parameter h."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # Fractions are immutable and already normalized: keep them as they are;
        # anything inexact, such as a float, raises StructuralError
        cleaned = [c if type(c) is Fraction else as_fraction(c) for c in coeffs]
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
        return cls((value,))

    @classmethod
    def h(cls, power: int = 1, coeff=Fraction(1)) -> "HPoly":
        return cls((Fraction(0),) * checked_h_power(power) + (coeff,))

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

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
        return [frac_to_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "HPoly":
        if not isinstance(data, list):
            raise StructuralError(f"an h polynomial is a list of coefficients, not {data!r}")
        return cls(data)

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


def checked_h_power(k) -> int:
    """k itself if it is an int >= 0, the only powers of h; StructuralError
    otherwise, where a negative k would drop or misplace a coefficient."""
    if type(k) is not int or k < 0:
        raise StructuralError(f"a power of h is an int >= 0, not {k!r}")
    return k


def _coerce(value) -> HPoly:
    if isinstance(value, HPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return HPoly.of(value)
    raise StructuralError(f"cannot coerce {value!r} to HPoly")
