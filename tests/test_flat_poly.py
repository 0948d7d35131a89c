"""MultiPoly on integer numerators over one denominator.

Every operation is checked against a term-by-term oracle on Fraction
dicts, the layout MultiPoly stored before, over 1 to 7 variables with
non-integral coefficients.  The hot paths of the commutative layer run
with the ``terms`` view disabled: they read ``flat`` and ``den``.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitquant.groebner import divide, groebner_basis
from orbitquant.invariants import no_invariants_certificate, orbit_ideal, semiinvariant_family
from orbitquant.lie import build_lie_basis, lie_poisson_bracket
from orbitquant.poly import GREVLEX, MonomialOrder, MultiPoly
from orbitquant.quantize import OrbitQuantization

NAMES = tuple("tuvwxyz")
DIFFERENTIAL = settings(max_examples=60, deadline=None)
coefficients = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))
scalars = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=9))


@st.composite
def operands(draw, count=2):
    """``count`` Fraction dicts over the same 1 to 7 variables."""
    nvars = draw(st.integers(1, 7))
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = st.dictionaries(exponents, coefficients, max_size=6)
    return NAMES[:nvars], [draw(terms) for _ in range(count)]


def clean(terms):
    return {e: c for e, c in terms.items() if c}


def oracle_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return clean(out)


def oracle_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return clean(out)


def oracle_diff(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            lowered = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[lowered] = out.get(lowered, Fraction(0)) + c * e[i]
    return clean(out)


def oracle_evaluate(p, point):
    total = Fraction(0)
    for e, c in p.items():
        for x, k in zip(point, e):
            c *= x**k
        total += c
    return total


def assert_layout(poly, expected):
    """poly holds ``expected`` as nonzero int numerators over den, in lowest terms."""
    assert poly.terms == expected
    assert type(poly.den) is int and poly.den > 0
    assert all(type(c) is int and c for c in poly.flat.values())
    assert gcd(poly.den, *poly.flat.values()) == 1
    assert all(type(c) is Fraction for c in poly.terms.values())


@DIFFERENTIAL
@given(operands(), scalars)
def test_linear_operations_match_the_fraction_oracle(case, s):
    names, (p, q) = case
    f, g = MultiPoly(names, p), MultiPoly(names, q)
    assert_layout(f, p)
    assert_layout(f + g, oracle_add(p, q))
    assert_layout(f - g, oracle_add(p, q, -1))
    assert_layout(-f, {e: -c for e, c in p.items()})
    assert_layout(f * s, clean({e: c * s for e, c in p.items()}))
    assert_layout(s * f, clean({e: c * s for e, c in p.items()}))
    assert_layout(f + s, oracle_add(p, {(0,) * len(names): Fraction(s)}))
    assert_layout(s - f, oracle_add({(0,) * len(names): Fraction(s)}, p, -1))


@DIFFERENTIAL
@given(operands(), st.integers(0, 3))
def test_products_and_powers_match_the_fraction_oracle(case, k):
    names, (p, q) = case
    f, g = MultiPoly(names, p), MultiPoly(names, q)
    assert_layout(f * g, oracle_mul(p, q))
    power = {(0,) * len(names): Fraction(1)}
    for _ in range(k):
        power = oracle_mul(power, p)
    assert_layout(f**k, power)


@DIFFERENTIAL
@given(operands(count=1), st.data())
def test_calculus_evaluation_and_leading_terms_match_the_fraction_oracle(case, data):
    names, (p,) = case
    f = MultiPoly(names, p)
    for i in range(len(names)):
        assert_layout(f.diff(i), oracle_diff(p, i))
    point = [data.draw(scalars) for _ in names]
    assert f.evaluate(point) == oracle_evaluate(p, point)
    for order in (GREVLEX, MonomialOrder("grlex")):
        if p:
            lead = max(p, key=order.key)
            assert f.leading(order) == (lead, p[lead])
            assert type(f.leading(order)[1]) is Fraction
    zero = (0,) * len(names)
    assert f.coefficient(zero) == p.get(zero, 0) and type(f.coefficient(zero)) is Fraction
    assert f.total_degree() == max(map(sum, p), default=-1)


@DIFFERENTIAL
@given(operands(), scalars.filter(bool))
def test_equal_values_have_equal_layouts_and_hashes(case, s):
    names, (p, q) = case
    f, g = MultiPoly(names, p), MultiPoly(names, q)
    roundabout = ((f + g) * s - g * s) * (1 / Fraction(s))
    assert roundabout == f and hash(roundabout) == hash(f)
    assert (roundabout.flat, roundabout.den) == (f.flat, f.den)
    assert (f == g) == (p == q)


def fraction_divide(p, divisors, order, rng=None):
    """Division in Fraction arithmetic: the routine groebner.divide replaced."""
    leads = [max(d, key=order.key) for d in divisors]
    remainder, work = {}, dict(p)
    while work:
        exp = max(work, key=order.key)
        coeff = work.pop(exp)
        candidates = [
            i for i, lead in enumerate(leads) if all(x <= y for x, y in zip(lead, exp))
        ]
        if not candidates:
            remainder[exp] = coeff
            continue
        idx = candidates[0] if rng is None else rng.choice(candidates)
        lead = leads[idx]
        factor = coeff / divisors[idx][lead]
        for dexp, dcoeff in divisors[idx].items():
            if dexp != lead:
                target = tuple(x + y - z for x, y, z in zip(dexp, exp, lead))
                work[target] = work.get(target, Fraction(0)) - factor * dcoeff
                if not work[target]:
                    del work[target]
    return remainder


@DIFFERENTIAL
@given(operands(count=4), st.integers(0, 2**16))
def test_division_matches_the_fraction_routine(case, seed):
    names, (p, *divisors) = case
    divisors = [d for d in divisors if d]
    assume(divisors)
    f, gs = MultiPoly(names, p), [MultiPoly(names, d) for d in divisors]
    for order in (GREVLEX, MonomialOrder("grlex")):
        assert_layout(divide(f, gs, order), fraction_divide(p, divisors, order))
        expected = fraction_divide(p, divisors, order, random.Random(seed))
        assert_layout(divide(f, gs, order, random.Random(seed)), expected)


def test_lowest_terms():
    x, y = (MultiPoly.variable(("x", "y"), i) for i in range(2))
    left = (x * 2 + y * 4) * Fraction(1, 6)
    right = MultiPoly(("x", "y"), {(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)})
    assert left == right and hash(left) == hash(right)
    assert (left.flat, left.den) == ({(1, 0): 1, (0, 1): 2}, 3)
    half = x * Fraction(1, 2)
    assert ((half + half).flat, (half + half).den) == ({(1, 0): 1}, 1)
    assert (x - x).flat == {} and (x - x).den == 1


def test_terms_view_holds_fractions_and_is_built_on_each_access():
    p = MultiPoly(("x", "y"), {(1, 0): 2, (0, 1): Fraction(3, 4), (0, 0): "5"})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(3, 4), (0, 0): 5}
    assert all(type(c) is Fraction for c in p.terms.values())
    view = p.terms
    view[(1, 0)] = Fraction(7)
    assert p.coefficient((1, 0)) == 2 and p.terms is not view


@pytest.fixture
def no_terms_view(monkeypatch):
    def refuse(self):
        raise AssertionError("a hot path read MultiPoly.terms")

    monkeypatch.setattr(MultiPoly, "terms", property(refuse))


def test_the_commutative_layer_does_not_read_the_terms_view(no_terms_view):
    family = semiinvariant_family(3)
    ideal = orbit_ideal([Fraction(1)], family)
    basis = groebner_basis(list(ideal.generators))
    x = [MultiPoly.variable(family.coords.variables, i) for i in range(3)]
    sample = (x[0] + x[1] * Fraction(1, 3)) ** 3 * ideal.generators[0] + x[2] * Fraction(5, 2)
    assert divide(sample, basis) == divide(x[2] * Fraction(5, 2), basis)
    _, sc = build_lie_basis(3)
    bracket = lie_poisson_bracket(x[0] * x[1], ideal.generators[0], sc)
    assert not bracket.is_zero()
    point = [Fraction(i + 1, 3) for i in range(len(family.coords.variables))]
    assert family.generators[0].evaluate(point) == family.generators[0].evaluate(point)
    assert no_invariants_certificate(2, 2).only_constants
    engine = OrbitQuantization(2, [Fraction(1)], deg_cap=6)
    f, g = (MultiPoly.variable(engine.variables, i) for i in (4, 0))
    assert max(c.degree() for c in engine.star(f, g).terms.values()) == 1
