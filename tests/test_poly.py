"""Polynomial arithmetic against independent term-by-term oracles."""

import random
from fractions import Fraction

import pytest

from orbitquant import linalg as la
from orbitquant.errors import StructuralError
from orbitquant.invariants import semiinvariant_family, symbolic_dual_matrices
from orbitquant.poly import (
    GREVLEX,
    MonomialOrder,
    MultiPoly,
    monomials_up_to_degree,
    sum_of_products,
)

VARS = ("x", "y", "z")


def random_poly(rng, nvars=3, max_deg=3, max_terms=6, denominators=range(1, 6)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.choice(denominators))
    return MultiPoly(VARS[:nvars], terms)


def oracle_mul(p, q):
    """Naive reference product: accumulate every term pair separately."""
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, Fraction(0)) + c1 * c2
    return MultiPoly(p.variables, {e: c for e, c in acc.items() if c != 0})


def test_add_mul_against_oracle():
    rng = random.Random(11)
    for _ in range(40):
        p, q = random_poly(rng), random_poly(rng)
        assert (p * q).terms == oracle_mul(p, q).terms
        assert (p + q) - q == p


def oracle_sum(variables, pairs):
    acc = MultiPoly.zero(variables)
    for f, g in pairs:
        acc = acc + oracle_mul(f, g)
    return acc


def assert_clean(p):
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


@pytest.mark.parametrize(
    "denominators", [range(1, 8), [1], [2, 4, 8]], ids=["den1-7", "integer", "pow2"]
)
def test_product_kernel_matches_fraction_loop(denominators):
    rng = random.Random(41)

    def operand():
        return random_poly(rng, max_terms=8, denominators=denominators)

    for _ in range(60):
        pairs = [(operand(), operand()) for _ in range(rng.randint(0, 5))]
        total = sum_of_products(VARS, pairs)
        assert total.terms == oracle_sum(VARS, pairs).terms
        assert_clean(total)
        for f, g in pairs:
            product = f * g
            assert product.terms == oracle_mul(f, g).terms
            assert_clean(product)


def test_product_kernel_cancellation_and_zero_operands():
    rng = random.Random(43)
    zero = MultiPoly.zero(VARS)
    for _ in range(20):
        f, g = (random_poly(rng, max_terms=8, denominators=range(1, 8)) for _ in range(2))
        assert sum_of_products(VARS, [(f, g), (-f, g)]).terms == {}
        assert sum_of_products(VARS, [(f, g), (g, -f), (f, f)]) == oracle_mul(f, f)
        assert (f * zero).terms == {} and (zero * g).terms == {}
        assert sum_of_products(VARS, [(zero, g), (f, zero)]).terms == {}
        assert (f * 0).terms == {} and (f * Fraction(0)).terms == {}
        assert_clean(f * Fraction(3, 7))
    # the cross terms of (x + y)(x - y) cancel inside one product
    x, y = MultiPoly.variable(VARS, 0), MultiPoly.variable(VARS, 1)
    assert ((x + y) * (x - y)).terms == {(2, 0, 0): 1, (0, 2, 0): -1}
    empty = sum_of_products(VARS, [])
    assert empty == MultiPoly.zero(VARS) and empty.variables == VARS


def test_product_kernel_rejects_mismatched_variables():
    p = MultiPoly(("x", "y"), {(1, 0): Fraction(1)})
    q = MultiPoly(("x", "z"), {(1, 0): Fraction(1)})
    with pytest.raises(StructuralError):
        sum_of_products(("x", "y"), [(p, p), (p, q)])
    with pytest.raises(StructuralError):
        sum_of_products(("x", "z"), [(p, p)])
    with pytest.raises(StructuralError):
        sum_of_products(("x", "y"), [(MultiPoly.zero(("x", "z")), p)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_semiinvariant_family_matches_fraction_loop(n):
    # h_i = tr(T^(2i)) = sum_rs (T^i)_rs (T^i)_sr, summed here product by
    # product with the Fraction loop; even n also checks det(c) * P^2
    family = semiinvariant_family(n)
    variables = family.coords.variables
    c_mat, a_mat, adj_c, det_c = symbolic_dual_matrices(family.coords)
    t_mat = la.mat_sub(
        la.mat_mul(la.mat_mul(c_mat, a_mat), adj_c),
        la.mat_scale(la.transpose(a_mat), det_c),
    )
    half = t_mat
    traces = [g for g, kind in zip(family.generators, family.kinds) if kind == "trace"]
    assert len(traces) == (n // 2 if n % 2 else n // 2 - 1)
    for i, generator in enumerate(traces, start=1):
        if i > 1:
            half = la.mat_mul(half, t_mat)
        pairs = [(half[r][s], half[s][r]) for r in range(n) for s in range(n)]
        assert generator.terms == oracle_sum(variables, pairs).terms
    if n == 2:
        pfaffian = family.generators[family.kinds.index("pfaffian")]
        expected = oracle_mul(oracle_mul(det_c, pfaffian), pfaffian)
        assert family.composite_even.terms == expected.terms


def test_ring_identities():
    rng = random.Random(5)
    for _ in range(20):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_no_zero_coefficients_stored():
    p = MultiPoly(VARS, {(1, 0, 0): Fraction(1)})
    q = MultiPoly(VARS, {(1, 0, 0): Fraction(-1)})
    assert (p + q).terms == {}
    assert (p + q).is_zero()


def test_scalar_operands_are_constants():
    rng = random.Random(8)
    for _ in range(10):
        p = random_poly(rng, max_deg=1)
        for s in (0, 3, Fraction(-2, 7)):
            c = MultiPoly.constant(VARS, s)
            assert p + s == s + p == p + c
            assert p - s == p - c and s - p == c - p
            assert (p == s) == (p == c)
    assert MultiPoly.constant(VARS, Fraction(5)) == 5
    assert MultiPoly.zero(VARS) == 0 and MultiPoly.zero(VARS) != "0"


def test_power_matches_repeated_multiplication():
    rng = random.Random(3)
    p = random_poly(rng)
    acc = MultiPoly.constant(VARS, 1)
    for k in range(5):
        assert p**k == acc
        acc = acc * p


def test_variable_mismatch_is_structural_error():
    p = MultiPoly(("x", "y"), {(1, 0): Fraction(1)})
    q = MultiPoly(("x", "z"), {(1, 0): Fraction(1)})
    with pytest.raises(StructuralError):
        _ = p + q
    with pytest.raises(StructuralError):
        _ = p * q


def test_grevlex_degree_two_chain():
    # in two variables x > y the degree-2 chain is x^2 > xy > y^2
    order = GREVLEX
    x2, xy, y2 = (2, 0), (1, 1), (0, 2)
    assert order.key(x2) > order.key(xy) > order.key(y2)


def test_order_is_total_and_multiplicative():
    order = GREVLEX
    monos = monomials_up_to_degree(3, 4)
    keys = [order.key(m) for m in monos]
    assert len(set(keys)) == len(keys)  # total: no ties
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.choice(monos) for _ in range(3))
        if order.key(a) > order.key(b):
            am = tuple(x + y for x, y in zip(a, c))
            bm = tuple(x + y for x, y in zip(b, c))
            assert order.key(am) > order.key(bm)


def test_order_well_founded_below_fixed_degree():
    # every strictly descending chain within degree <= 3 terminates because
    # the key set is finite; verify keys embed into a finite sorted list
    monos = monomials_up_to_degree(2, 3)
    ordered = sorted(monos, key=GREVLEX.key)
    assert len(ordered) == len(monos)


def test_priority_permutation_changes_leader():
    natural = MonomialOrder("grevlex", priority=(0, 1))
    swapped = MonomialOrder("grevlex", priority=(1, 0))
    x, y = (1, 0), (0, 1)
    assert natural.key(x) > natural.key(y)
    assert swapped.key(y) > swapped.key(x)


def test_diff_product_rule():
    rng = random.Random(19)
    for _ in range(20):
        p, q = random_poly(rng), random_poly(rng)
        for i in range(3):
            lhs = (p * q).diff(i)
            rhs = p.diff(i) * q + p * q.diff(i)
            assert lhs == rhs


def test_evaluate_agrees_with_substitution_oracle():
    rng = random.Random(23)
    for _ in range(20):
        p = random_poly(rng)
        point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        expected = sum(
            (
                c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2]
                for e, c in p.terms.items()
            ),
            Fraction(0),
        )
        assert p.evaluate(point) == expected


def oracle_evaluate(p, values):
    """Reference evaluation: one Fraction multiply and add per factor."""
    vals = [Fraction(v) for v in values]
    total = Fraction(0)
    for exp, coeff in p.terms.items():
        prod = coeff
        for v, e in zip(vals, exp):
            prod = prod * v**e
        total = total + prod
    return total


@pytest.mark.parametrize("denominators", [range(1, 2), range(1, 4), range(1, 8)])
def test_evaluate_matches_fraction_loop(denominators):
    rng = random.Random(31 + len(denominators))
    for _ in range(60):
        p = random_poly(rng, max_deg=4, max_terms=8, denominators=denominators)
        # zero, negative and fractional coordinates with denominators up to 7
        point = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 7)) if rng.random() < 0.8 else 0
            for _ in range(3)
        ]
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == oracle_evaluate(p, point)
        # the same point as ints where integral, strings elsewhere
        mixed = [int(v) if Fraction(v).denominator == 1 else str(v) for v in point]
        assert p.evaluate(mixed) == value


def test_evaluate_integer_polynomial_at_integers_and_constants():
    rng = random.Random(37)
    for _ in range(30):
        p = random_poly(rng, max_deg=4, max_terms=8, denominators=(1,))
        point = [rng.randint(-6, 6) for _ in range(3)]
        value = p.evaluate(point)
        assert type(value) is Fraction and value.denominator == 1
        assert value == oracle_evaluate(p, point)
    zero = MultiPoly.zero(VARS)
    assert zero.evaluate([Fraction(1, 3), 2, "5/7"]) == 0
    assert type(zero.evaluate([1, 2, 3])) is Fraction
    const = MultiPoly.constant(VARS, Fraction(-5, 6))
    assert const.evaluate([Fraction(1, 7), Fraction(2, 3), 0]) == Fraction(-5, 6)
    # a constant term beside terms of higher degree at a fractional point
    p = const + MultiPoly.variable(VARS, 0) * MultiPoly.variable(VARS, 1) ** 2
    assert p.evaluate([Fraction(1, 2), Fraction(1, 3), 1]) == Fraction(-5, 6) + Fraction(1, 18)


def test_evaluate_rejects_inexact_and_misshapen_points():
    p = random_poly(random.Random(41), max_terms=6)
    with pytest.raises(StructuralError):
        p.evaluate([0.5, 1, 2])
    with pytest.raises(StructuralError):
        MultiPoly.zero(VARS).evaluate([1, 2.0, 3])
    with pytest.raises(StructuralError):
        p.evaluate([1, 2])
    with pytest.raises(StructuralError):
        p.evaluate([1, 2, 3, 4])


def test_serialization_round_trip_is_bit_exact():
    rng = random.Random(29)
    for _ in range(25):
        p = random_poly(rng)
        assert MultiPoly.from_records(p.to_records()) == p


def test_monomial_count():
    # number of monomials of degree <= D in n variables is C(n+D, D)
    from math import comb

    for n, d in [(1, 5), (2, 4), (3, 3), (7, 2)]:
        assert len(monomials_up_to_degree(n, d)) == comb(n + d, d)
