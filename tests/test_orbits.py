"""Group law, Sp(n) embedding, adjoint/coadjoint actions, orbit data."""

import random
from fractions import Fraction

import pytest

from orbitquant import linalg as la
from orbitquant.errors import DomainError
from orbitquant.lie import build_lie_basis, standard_symplectic_form, algebra_block
from orbitquant.orbits import (
    DualPoint,
    GroupElement,
    LieElement,
    ad_star,
    adjoint,
    basis_lie_element,
    coadjoint,
    embed_sp,
    group_inverse,
    group_multiply,
    orbit_dimension,
    pair_dual_algebra,
)
from orbitquant.sampling import random_group_element, random_gplus_point, random_sym_matrix


def F(x):
    return Fraction(x)


def scalar_group(x, g):
    return GroupElement([[F(x)]], [[F(g)]])


def test_identity_is_two_sided_neutral():
    rng = random.Random(1)
    for n in (1, 2, 3):
        e = GroupElement(la.zeros(n, n), la.identity(n))
        for _ in range(5):
            p = random_group_element(n, rng)
            assert group_multiply(e, p) == p
            assert group_multiply(p, e) == p


def test_scalar_multiplication_matches_block_oracle():
    # n = 1: the embedding of (x, g) is [[g, x/g], [0, 1/g]]; multiplying
    # the embeddings of (1,2) and (4,3) gives x-part 1 + 2*4*2 = 17
    p, q = scalar_group(1, 2), scalar_group(4, 3)
    prod = group_multiply(p, q)
    assert prod == scalar_group(17, 6)
    assert la.mat_mul(embed_sp(p), embed_sp(q)) == embed_sp(prod)


def test_embed_examples():
    assert embed_sp(GroupElement(la.zeros(2, 2), la.identity(2))) == la.identity(4)
    m = embed_sp(scalar_group(5, 2))
    assert m == [[F(2), Fraction(5, 2)], [F(0), Fraction(1, 2)]]


def test_embedding_is_symplectic_and_homomorphic():
    rng = random.Random(2)
    for n in (1, 2, 3):
        J = standard_symplectic_form(n)
        for _ in range(10):
            p = random_group_element(n, rng)
            q = random_group_element(n, rng)
            mp = embed_sp(p)
            assert la.mat_mul(la.mat_mul(la.transpose(mp), J), mp) == J
            assert la.mat_mul(mp, embed_sp(q)) == embed_sp(group_multiply(p, q))


def test_group_associativity_and_inverse():
    rng = random.Random(3)
    for _ in range(10):
        p, q, r = (random_group_element(2, rng) for _ in range(3))
        assert group_multiply(group_multiply(p, q), r) == group_multiply(
            p, group_multiply(q, r)
        )
        assert group_multiply(p, group_inverse(p)) == GroupElement(la.zeros(2, 2), la.identity(2))
        assert group_multiply(group_inverse(p), p) == GroupElement(la.zeros(2, 2), la.identity(2))


def test_nonpositive_determinant_rejected():
    with pytest.raises(DomainError):
        GroupElement([[F(0)]], [[F(-1)]])
    with pytest.raises(DomainError):
        GroupElement(la.zeros(2, 2), [[F(0), F(1)], [F(1), F(0)]])


def test_adjoint_identity_and_conjugation_oracle():
    rng = random.Random(4)
    e = GroupElement(la.zeros(2, 2), la.identity(2))
    for _ in range(10):
        b = random_sym_matrix(2, rng)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        elt = LieElement(b, a)
        assert adjoint(e, elt) == elt
        # oracle: conjugate the block embedding, read the blocks back
        p = random_group_element(2, rng)
        image = adjoint(p, elt)
        M = embed_sp(p)
        conj = la.mat_mul(la.mat_mul(M, algebra_block(a, b)), la.inverse(M))
        assert conj == algebra_block(image.a, image.b)


def test_adjoint_shear_formula():
    # with g = I the action is (b, a) -> (b - (a x + (a x)^t), a)
    rng = random.Random(14)
    for _ in range(5):
        x = random_sym_matrix(2, rng)
        p = GroupElement(x, la.identity(2))
        b = random_sym_matrix(2, rng)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        image = adjoint(p, LieElement(b, a))
        ax = la.mat_mul(a, x)
        assert image.a == a
        assert image.b == la.mat_sub(b, la.mat_add(ax, la.transpose(ax)))


def test_adjoint_functoriality():
    rng = random.Random(5)
    for _ in range(10):
        p = random_group_element(2, rng)
        q = random_group_element(2, rng)
        elt = LieElement(
            random_sym_matrix(2, rng),
            [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)],
        )
        assert adjoint(group_multiply(p, q), elt) == adjoint(p, adjoint(q, elt))


def test_coadjoint_shear_formula():
    # with g = I the action is (c, a) -> (c, a + x c)
    rng = random.Random(6)
    for _ in range(5):
        x = random_sym_matrix(2, rng)
        p = GroupElement(x, la.identity(2))
        pt = random_gplus_point(2, rng)
        image = coadjoint(p, pt)
        assert image.c == pt.c
        assert image.a == la.mat_add(pt.a, la.mat_mul(x, pt.c))


def test_coadjoint_scalar_example():
    # n = 1, (x,g) = (1,2) acting on (c,a) = (4,3): (4/4, 3 + 1*1) = (1, 4)
    p = scalar_group(1, 2)
    pt = DualPoint([[F(4)]], [[F(3)]])
    image = coadjoint(p, pt)
    assert image == DualPoint([[F(1)]], [[F(4)]])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coadjoint_functoriality(n):
    rng = random.Random(7)
    for _ in range(20):
        p = random_group_element(n, rng)
        q = random_group_element(n, rng)
        pt = random_gplus_point(n, rng)
        assert coadjoint(group_multiply(p, q), pt) == coadjoint(p, coadjoint(q, pt))


@pytest.mark.parametrize("n", [2, 3])
def test_coadjoint_duality_against_pairing(n):
    rng = random.Random(8)
    basis, _ = build_lie_basis(n)
    for _ in range(20):
        p = random_group_element(n, rng)
        pt = random_gplus_point(n, rng)
        pinv = group_inverse(p)
        for i in range(basis.dim):
            Y = basis_lie_element(basis, i)
            lhs = pair_dual_algebra(coadjoint(p, pt), Y)
            rhs = pair_dual_algebra(pt, adjoint(pinv, Y))
            assert lhs == rhs


def test_coadjoint_preserves_positive_definiteness():
    from orbitquant.orbits import is_positive_definite

    rng = random.Random(9)
    for _ in range(10):
        pt = random_gplus_point(2, rng)
        p = random_group_element(2, rng)
        assert is_positive_definite(coadjoint(p, pt).c)


def test_ad_star_matches_pairing_derivative():
    # <ad*_X p, Y> = -<p, [X, Y]> for all basis pairs, exactly
    rng = random.Random(10)
    basis, sc = build_lie_basis(2)
    for _ in range(5):
        pt = random_gplus_point(2, rng)
        for i in range(basis.dim):
            Xi = basis_lie_element(basis, i)
            image = ad_star(Xi, pt)
            for j in range(basis.dim):
                lhs = pair_dual_algebra(image, basis_lie_element(basis, j))
                rhs = Fraction(0)
                for k, v in sc.bracket_coeffs(i, j).items():
                    rhs += v * pair_dual_algebra(pt, basis_lie_element(basis, k))
                assert lhs == -rhs


def test_ad_star_matches_curve_differentiation():
    # exact first-order coefficient of Ad* along polynomial curves:
    # x-direction uses (t b, I); the g-direction derivative is extracted
    # from two evaluations of the rational curve (0, I + t a) by clearing
    # the known quadratic denominator det(I + t a)^2
    rng = random.Random(11)
    n = 2
    pt = random_gplus_point(n, rng)
    basis, _ = build_lie_basis(n)
    for i in range(basis.dim):
        elt = basis_lie_element(basis, i)
        expected = ad_star(elt, pt)
        if all(v == 0 for row in elt.a for v in row):
            # polynomial curve: Ad*(t b, I)(c, a) = (c, a + t b c)
            t = Fraction(1, 3)
            moved = coadjoint(GroupElement(la.mat_scale(elt.b, t), la.identity(n)), pt)
            dc = la.mat_scale(la.mat_sub(moved.c, pt.c), 1 / t)
            da = la.mat_scale(la.mat_sub(moved.a, pt.a), 1 / t)
            assert dc == expected.c and da == expected.a
        else:
            # rational curve: clearing the denominator det(I + t a)^2 makes
            # numerator and denominator polynomials of degree <= 4 in t, so
            # five exact samples recover their coefficients via Vandermonde
            ts = [Fraction(1, m) for m in (5, 7, 9, 11, 13)]
            rows = []
            rhs_c = []
            rhs_a = []
            dets = []
            for t in ts:
                one_plus = la.mat_add(la.identity(n), la.mat_scale(elt.a, t))
                moved = coadjoint(GroupElement(la.zeros(n, n), one_plus), pt)
                d = la.det(one_plus) ** 2
                rows.append([t**j for j in range(5)])
                rhs_c.append(la.mat_scale(moved.c, d))
                rhs_a.append(la.mat_scale(moved.a, d))
                dets.append(d)
            vandermonde_inv = la.inverse(rows)
            # numerator coefficient extraction: N(t) = sum_j coeff_j t^j
            def coeff(blocks, j):
                acc = la.zeros(n, n)
                for m in range(5):
                    acc = la.mat_add(acc, la.mat_scale(blocks[m], vandermonde_inv[j][m]))
                return acc

            # with q(t) = det(I + t a)^2 = 1 + q1 t + ..., the curve is
            # N(t)/q(t); its derivative at 0 is N'(0) - N(0) q1
            det_poly = [
                sum(
                    (vandermonde_inv[j][m] * dets[m] for m in range(5)),
                    Fraction(0),
                )
                for j in range(5)
            ]
            q1 = det_poly[1]
            dc = la.mat_sub(coeff(rhs_c, 1), la.mat_scale(coeff(rhs_c, 0), q1))
            da = la.mat_sub(coeff(rhs_a, 1), la.mat_scale(coeff(rhs_a, 0), q1))
            assert dc == expected.c and da == expected.a


@pytest.mark.parametrize("n,expected", [(2, 6), (3, 14)])
def test_orbit_dimension_at_regular_points(n, expected):
    from orbitquant.orbits import lambda_block_matrix

    basis, _ = build_lie_basis(n)
    lambdas = [Fraction(j + 1) for j in range(n // 2)][::-1]
    lambdas = sorted(lambdas, reverse=True)
    H = lambda_block_matrix(n, lambdas)
    pt = DualPoint(la.identity(n), H)
    assert orbit_dimension(pt, basis) == expected
    # constant along the orbit
    rng = random.Random(12)
    moved = coadjoint(random_group_element(n, rng), pt)
    assert orbit_dimension(moved, basis) == expected


def test_orbit_dimension_drops_with_larger_stabilizer():
    # at n = 3 the point (I, 0) is stabilized by all of SO(3): rank 12 < 14
    basis, _ = build_lie_basis(3)
    pt = DualPoint(la.identity(3), la.zeros(3, 3))
    assert orbit_dimension(pt, basis) == 12
