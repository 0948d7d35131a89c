"""Shared JSON encoding conventions and the checked readers of input.

Rationals travel as exact strings ("p/q" or "p") and are read back by
``as_fraction``, the one rational parser; matrices travel as row-major
nested lists, floats as decimal strings with 17 significant digits so
that every value round-trips bit-exactly.

Everything read from outside goes through the readers below: ``required``
for a key and ``square_matrix`` for a matrix; the record parsers of the
package types (``GroupElement.from_json``, ``MultiPoly.from_records``, ...)
are built on them.  Each raises StructuralError naming what is wrong, so
malformed input never reaches the mathematics.  Every exact value written
out goes through ``frac_to_str``.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from fractions import Fraction
from typing import Mapping

from .errors import CapacityError, StructuralError

# Python's default limit on the digits of an int written as text: 10**e
# with a larger exponent could never be written out, and "1e999999999"
# would spend minutes building it
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction.

    This is the one parser of exact rationals from input.  Anything else
    raises StructuralError: floats, bools (a JSON ``true`` is not the
    rational 1), strings that are not rationals, and zero denominators.
    A decimal exponent beyond ``MAX_EXPONENT`` is a CapacityError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and (match := _EXPONENT.search(value)):
        digits = match.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise CapacityError(f"decimal exponent beyond {MAX_EXPONENT} in {value[:40]!r}")
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise StructuralError(f"not an exact rational value: {value!r}")


def required(data, key: str):
    """``data[key]``, or StructuralError unless ``data`` is an object holding ``key``."""
    if not isinstance(data, Mapping):
        raise StructuralError(
            f"expected a JSON object with key {key!r}, not {type(data).__name__}"
        )
    if key not in data:
        raise StructuralError(f"missing key {key!r}")
    return data[key]


def square_matrix(data, what: str, n: int | None = None) -> list[list[Fraction]]:
    """``data`` as an n x n matrix of exact rationals, n >= 1.

    With ``n`` None the size is the number of rows.  StructuralError
    names ``what`` unless ``data`` is a list of n lists of n rationals.
    """
    if not isinstance(data, list) or not data:
        raise StructuralError(f"{what} must be a nonempty list of rows")
    size = len(data) if n is None else n
    if len(data) != size or not all(isinstance(row, list) and len(row) == size for row in data):
        raise StructuralError(f"{what} must be a {size}x{size} matrix")
    return [[as_fraction(x) for x in row] for row in data]


def frac_to_str(x) -> str:
    """``x`` as an exact rational string, the one writer of exact values.

    CapacityError when its numerator or denominator has more digits than
    Python writes as text (``sys.get_int_max_str_digits()``).
    """
    try:
        return str(Fraction(x))
    except ValueError:
        raise CapacityError(
            f"an exact value has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def float_to_str(x: float) -> str:
    return format(float(x), ".17g")


def matrix_to_json(m) -> list:
    out = []
    for row in m:
        out.append([
            frac_to_str(x) if isinstance(x, (Fraction, int)) else float_to_str(x)
            for x in row
        ])
    return out


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj, exclude_keys: tuple[str, ...] = ("elapsed_s", "content_hash")) -> str:
    """Stable sha256 over a JSON document, ignoring timing-style fields."""

    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items() if k not in exclude_keys}
        if isinstance(o, list):
            return [strip(v) for v in o]
        return o

    return hashlib.sha256(canonical_dumps(strip(obj)).encode()).hexdigest()
