"""Division, Buchberger completion and standard monomials."""

import random
from fractions import Fraction
from math import comb

import pytest

from orbitquant.errors import CapacityError
from orbitquant.groebner import (
    Capacity,
    divide,
    groebner_basis,
    poly_normal_form,
    standard_monomials,
)
from orbitquant.poly import GREVLEX, MultiPoly


XY = ("x", "y")


def P(terms, variables=XY):
    return MultiPoly(variables, {e: Fraction(c) for e, c in terms.items()})


X = P({(1, 0): 1})
Y = P({(0, 1): 1})


def test_generator_reduces_to_zero():
    g = P({(2, 0): 1, (0, 1): -3})
    assert poly_normal_form(g, [g]).is_zero()


def test_constant_is_irreducible():
    seven = P({(0, 0): 7})
    g = P({(2, 0): 1, (0, 1): -3})
    assert poly_normal_form(seven, [g]) == seven


def test_single_generator_division_oracle():
    # x*g1 + y modulo (g1) must leave y: subtracting multiples of g1 is
    # the entire reduction, done here explicitly as the oracle
    g1 = P({(2, 0): 1, (0, 1): -3})
    p = X * g1 + Y
    oracle = p - X * g1  # one explicit division step, no divisibility left
    assert oracle == Y
    assert poly_normal_form(p, [g1]) == Y


def test_principal_ideal_is_its_own_basis():
    g = P({(3, 0): 2, (1, 1): 1})
    gb = groebner_basis([g])
    assert len(gb) == 1
    # canonical output is monic
    _, lc = gb[0].leading(GREVLEX)
    assert lc == 1
    assert poly_normal_form(g, [g]).is_zero()


def test_two_variable_monomial_ideal():
    gb = groebner_basis([X, Y])
    assert gb == [Y, X] or gb == [X, Y]
    assert poly_normal_form(X * Y, [X, Y]).is_zero()


def test_membership_certified_by_explicit_combination():
    # x^4 - x = x^2 (x^2 - y) + y (x^2 - y) + (y^2 - x): checked symbolically,
    # with no Groebner machinery, then the normal form must agree
    g1 = P({(2, 0): 1, (0, 1): -1})  # x^2 - y
    g2 = P({(0, 2): 1, (1, 0): -1})  # y^2 - x
    target = P({(4, 0): 1, (1, 0): -1})  # x^4 - x
    combination = X * X * g1 + Y * g1 + g2
    assert combination == target
    gb = groebner_basis([g1, g2])
    assert poly_normal_form(target, [g1, g2]).is_zero()
    assert divide(target, gb).is_zero()


def test_solution_set_oracle_for_membership():
    # on the parametric solution locus y = x^2, x = y^4 the residue of any
    # ideal member vanishes; sample the curve exactly over rationals
    g1 = P({(2, 0): 1, (0, 1): -1})
    g2 = P({(0, 2): 1, (1, 0): -1})
    member = P({(4, 0): 1, (1, 0): -1})
    rng = random.Random(2)
    for _ in range(10):
        # common zeros over an extension: use points with x = y^2, y = x^2
        # i.e. x^4 = x; rational solutions x in {0, 1}
        for x in (Fraction(0), Fraction(1)):
            y = x * x
            assert g1.evaluate([x, y]) == 0
            assert g2.evaluate([x, y]) == 0
            assert member.evaluate([x, y]) == 0


def test_normal_form_is_membership_test():
    g1 = P({(2, 0): 1, (0, 1): -1})
    g2 = P({(0, 2): 1, (1, 0): -1})
    outside = X + Y  # visibly not in the ideal: nonzero at (1,1)
    assert g1.evaluate([1, 1]) == 0 and g2.evaluate([1, 1]) == 0
    assert not poly_normal_form(outside, [g1, g2]).is_zero()


def test_reduction_compatible_with_multiplication():
    rng = random.Random(41)
    g1 = P({(2, 0): 1, (0, 1): -1})
    g2 = P({(0, 2): 1, (1, 0): -1})
    gb = groebner_basis([g1, g2])

    def rand_poly():
        return P(
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(
                    rng.randint(-5, 5), rng.randint(1, 3)
                )
                for _ in range(4)
            }
        )

    for _ in range(20):
        p, q = rand_poly(), rand_poly()
        direct = divide(p * q, gb)
        staged = divide(divide(p, gb) * q, gb)
        assert direct == staged


def test_confluence_under_randomized_division_order():
    g1 = P({(2, 0): 1, (0, 1): -1})
    g2 = P({(0, 2): 1, (1, 0): -1})
    gb = groebner_basis([g1, g2])
    rng = random.Random(43)
    for _ in range(20):
        p = P(
            {
                (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9))
                for _ in range(5)
            }
        )
        deterministic = divide(p, gb)
        randomized = divide(p, gb, rng=rng)
        assert deterministic == randomized


def test_standard_monomials_examples():
    # gb = {x} in variables {x, y}: quotient basis 1, y, y^2 up to degree 2
    gb = groebner_basis([X])
    sm = standard_monomials(gb, max_degree=2)
    assert set(sm) == {(0, 0), (0, 1), (0, 2)}
    # zero ideal: every monomial is standard
    all_monos = standard_monomials([], max_degree=3, nvars=2)
    assert len(all_monos) == comb(2 + 3, 3)


def test_standard_monomial_count_vs_dimension_oracle():
    # principal ideal: standard monomials of degree <= D are all monomials
    # minus the multiples of the leading monomial, i.e. minus the count of
    # monomials of degree <= D - deg(LM)
    g = P({(2, 1): 1, (0, 1): 5, (0, 0): -2})  # LM = x^2 y, degree 3
    gb = groebner_basis([g])
    for D in range(6):
        sm = standard_monomials(gb, max_degree=D)
        total = comb(2 + D, D)
        multiples = comb(2 + D - 3, D - 3) if D >= 3 else 0
        assert len(sm) == total - multiples


def test_capacity_guard_raises():
    tight = Capacity(max_degree=2, max_terms=10, max_basis=2)
    g = P({(3, 0): 1})
    with pytest.raises(CapacityError):
        groebner_basis([g], capacity=tight)


def test_groebner_basis_and_normal_form_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ

    variables = ("x", "y", "z")
    gens = sympy.symbols(variables)
    rng = random.Random(53)

    def rand_poly(min_deg, max_deg, max_terms):
        terms = {}
        for _ in range(rng.randint(2, max_terms)):
            exp = [0] * len(variables)
            for _ in range(rng.randint(min_deg, max_deg)):
                exp[rng.randrange(len(exp))] += 1
            terms[tuple(exp)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return MultiPoly(variables, terms)

    def to_sympy(p):
        coeffs = {e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()}
        return sympy.Poly.from_dict(coeffs, *gens, domain=QQ)

    def from_sympy(p):
        return MultiPoly(
            variables,
            {e: Fraction(int(c.p), int(c.q)) for e, c in p.as_dict().items()},
        )

    for _ in range(12):
        ideal = [rand_poly(1, 3, 4) for _ in range(rng.randint(2, 3))]
        expected = sympy.groebner([to_sympy(g) for g in ideal], *gens, order="grevlex")
        basis = groebner_basis(ideal)
        assert {frozenset(g.terms.items()) for g in basis} == {
            frozenset(from_sympy(g).terms.items()) for g in expected.polys
        }
        for _ in range(3):
            p = rand_poly(0, 5, 6)
            _, remainder = sympy.reduced(to_sympy(p), expected.polys, order="grevlex")
            assert poly_normal_form(p, ideal) == from_sympy(remainder)
