"""Shared JSON encoding conventions.

Rationals travel as exact strings ("p/q" or "p") and are read back by
``poly.as_fraction``, the one rational parser; matrices travel as row-major
nested lists, floats as decimal strings with 17 significant digits so
that every value round-trips bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .poly import as_fraction


def frac_to_str(x: Fraction) -> str:
    return str(Fraction(x))


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


def matrix_from_json(data, exact: bool = True):
    if exact:
        return [[as_fraction(x) for x in row] for row in data]
    return [[float(x) for x in row] for row in data]


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
