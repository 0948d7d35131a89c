"""Orbit normal form: residuals, invariance, sign conventions."""

import random
from fractions import Fraction

import numpy as np
import pytest

from orbitquant import linalg as la
from orbitquant.errors import DomainError, StructuralError
from orbitquant.orbits import (
    DualPoint,
    coadjoint,
    lambda_block_matrix,
    normal_form,
)
from orbitquant.sampling import random_group_element, random_gplus_point

TOL = 1e-9


def test_already_in_normal_form():
    H = lambda_block_matrix(2, [Fraction(1)])
    nf = normal_form(DualPoint(la.identity(2), H))
    assert nf.lambdas == (1.0,)
    assert nf.residual < TOL
    # witness is (up to sign conventions) the identity move: it must fix
    # the point, which the residual already certifies
    assert nf.regular


def test_shear_removes_symmetric_part():
    # a = [[1, 2], [0, 1]]: the x-move removes sym(a), leaving skew part
    # [[0, 1], [-1, 0]], so the orbit parameter is 1
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    nf = normal_form(DualPoint(la.identity(2), a))
    assert abs(nf.lambdas[0] - 1.0) < TOL
    assert nf.residual < TOL


@pytest.mark.parametrize("n", [2, 3])
def test_witness_transport_residual(n):
    rng = random.Random(21)
    points = [random_gplus_point(n, rng) for _ in range(20)]
    # c = 10^-220 I: at n = 3 det(c) is below float range, though c and
    # every move are not
    tiny = la.mat_scale(la.identity(n), Fraction(1, 10**220))
    points.append(DualPoint(tiny, [[Fraction(i - j) for j in range(n)] for i in range(n)]))
    for pt in points:
        nf = normal_form(pt)
        assert nf.residual < TOL
        # Ad*(x, g)(c, a) = (g^-t c g^-1, g a g^-1 + x g^-t c g^-1), in numpy
        x, g = np.asarray(nf.witness.x), np.asarray(nf.witness.g)
        ginv = np.linalg.inv(g)
        c = ginv.T @ np.asarray(pt.c, float) @ ginv
        a = g @ np.asarray(pt.a, float) @ ginv + x @ c
        assert np.abs(c - np.eye(n)).max() < TOL
        assert np.abs(a - np.asarray(nf.H, float)).max() < TOL


@pytest.mark.parametrize("n", [2, 3])
def test_lambdas_are_coadjoint_invariants(n):
    rng = random.Random(22)
    for _ in range(20):
        pt = random_gplus_point(n, rng)
        nf = normal_form(pt)
        moved = coadjoint(random_group_element(n, rng), pt)
        nf2 = normal_form(moved)
        assert max(
            abs(x - y) for x, y in zip(nf.lambdas, nf2.lambdas)
        ) < TOL if nf.lambdas else True


def test_even_case_sign_is_invariant():
    # the two n = 2 points with skew parts of opposite sign are not on the
    # same orbit: no positive-determinant move can flip the sign, and the
    # normal form reports a signed parameter
    plus = DualPoint(la.identity(2), lambda_block_matrix(2, [Fraction(1)]))
    minus = DualPoint(la.identity(2), lambda_block_matrix(2, [Fraction(-1)]))
    nf_plus = normal_form(plus)
    nf_minus = normal_form(minus)
    assert abs(nf_plus.lambdas[0] - 1.0) < TOL
    assert abs(nf_minus.lambdas[0] + 1.0) < TOL
    assert nf_minus.residual < TOL
    rng = random.Random(23)
    for _ in range(10):
        moved = coadjoint(random_group_element(2, rng), minus)
        assert abs(normal_form(moved).lambdas[0] + 1.0) < TOL


def test_odd_case_lambdas_nonnegative():
    rng = random.Random(24)
    for _ in range(10):
        pt = random_gplus_point(3, rng)
        nf = normal_form(pt)
        assert all(l >= 0 for l in nf.lambdas)
        assert nf.residual < TOL


def test_witness_determinant_positive():
    rng = random.Random(25)
    for n in (2, 3, 4):
        for _ in range(5):
            pt = random_gplus_point(n, rng)
            nf = normal_form(pt)
            assert np.linalg.det(np.asarray(nf.witness.g, float)) > 0
            assert nf.residual < TOL


def test_rejects_non_positive_definite():
    c = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    with pytest.raises(DomainError):
        normal_form(DualPoint(c, la.zeros(2, 2)))


def test_a_float_point_is_refused():
    # the normal form reads exact points only: float entries are refused
    # where the point is built, before any positivity test
    rng = random.Random(41)
    for n in (2, 3):
        pt = random_gplus_point(n, rng)
        with pytest.raises(StructuralError, match="must have int or Fraction entries"):
            DualPoint(*([[float(v) for v in row] for row in m] for m in (pt.c, pt.a)))


def test_degenerate_spacing_flagged_non_regular():
    # equal parameters at n = 4 are not a regular point
    H = lambda_block_matrix(4, [Fraction(1), Fraction(1)])
    nf = normal_form(DualPoint(la.identity(4), H))
    assert not nf.regular
    # zero parameter: also non-regular
    H0 = lambda_block_matrix(2, [Fraction(0)])
    nf0 = normal_form(DualPoint(la.identity(2), H0))
    assert not nf0.regular


def test_even_pfaffian_invariant_matches_lambda_product():
    # for even n the product of the signed block parameters equals the
    # Pfaffian invariant Pf((a c^-1 - (a c^-1)^t)/2) det(c)^(1/2)
    from orbitquant.invariants import pfaffian_invariant

    rng = random.Random(27)
    for _ in range(10):
        pt = random_gplus_point(2, rng)
        nf = normal_form(pt)
        product = 1.0
        for l in nf.lambdas:
            product *= l
        assert abs(pfaffian_invariant(pt) - product) < 1e-7 * max(1.0, abs(product))


def test_invariant_traces_match_lambdas():
    # tr(H^(2i)) computed from the normal form equals the invariant
    # tr((c a c^-1 - a^t)^(2i)) / 2^(2i) of the original point
    rng = random.Random(26)
    for n in (2, 3):
        for _ in range(10):
            pt = random_gplus_point(n, rng)
            nf = normal_form(pt)
            c = np.asarray(pt.c, float)
            a = np.asarray(pt.a, float)
            s = c @ a @ np.linalg.inv(c) - a.T
            k = n // 2
            for i in range(1, k + 1):
                lhs = np.trace(np.linalg.matrix_power(s, 2 * i)) / 4.0**i
                rhs = 2.0 * (-1.0) ** i * sum(l ** (2 * i) for l in nf.lambdas)
                assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))
