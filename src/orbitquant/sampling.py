"""Seeded random generators for rational test data.

All randomized checks in the package draw from these helpers with an
explicit random.Random instance, so a seed fully determines every sample.
Entries are kept small to bound coefficient growth in exact arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg as la
from .orbits import DualPoint, GroupElement, coadjoint
from .poly import MultiPoly


def random_fraction(rng: random.Random, lo: int = -3, hi: int = 3) -> Fraction:
    """A fraction with numerator in [lo, hi] and denominator in [1, 3]."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def random_sym_matrix(n: int, rng: random.Random, lo: int = -3, hi: int = 3) -> la.Matrix:
    m = la.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            v = random_fraction(rng, lo, hi)
            m[i][j] = v
            m[j][i] = v
    return m


def random_glplus(n: int, rng: random.Random) -> la.Matrix:
    """Random element of GL+(n) as L*U with controlled determinant.

    L is unit lower triangular, U upper triangular with positive diagonal;
    the determinant is the diagonal product, exactly: one of 1, 2, 3, 1/2
    and 3/2.
    """
    L = la.identity(n)
    U = la.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            L[j][i] = random_fraction(rng, -2, 2)
            U[i][j] = random_fraction(rng, -2, 2)
    for i in range(n):
        U[i][i] = Fraction(1)
    U[0][0] = Fraction(rng.randint(1, 3), rng.choice([1, 1, 2]))
    return la.mat_mul(L, U)


def random_group_element(n: int, rng: random.Random) -> GroupElement:
    return GroupElement(random_sym_matrix(n, rng, -2, 2), random_glplus(n, rng))


def random_gplus_point(n: int, rng: random.Random) -> DualPoint:
    """A dual point with exactly positive definite rational c block."""
    g = random_glplus(n, rng)
    c = la.mat_mul(la.transpose(g), g)
    a = [[random_fraction(rng, -3, 3) for _ in range(n)] for _ in range(n)]
    return DualPoint(c, a)


def random_orbit_sample(base: DualPoint, rng: random.Random) -> DualPoint:
    """A coadjoint translate of ``base`` by a random group element."""
    return coadjoint(random_group_element(base.n, rng), base)


def random_polynomial(variables, rng: random.Random, monomials, max_terms: int = 5) -> MultiPoly:
    """Random polynomial supported on the supplied exponent tuples, with
    coefficient numerators in [-4, 4]."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = rng.choice(monomials)
        terms[exp] = terms.get(exp, Fraction(0)) + random_fraction(rng, -4, 4)
    return MultiPoly(variables, terms)
