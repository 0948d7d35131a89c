"""NCPoly and QuotientElement arithmetic on the flat layout, against HPoly
arithmetic on their ``terms`` views, and the canonical form behind
equality and hashing."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitquant.errors import CertificationError, StructuralError
from orbitquant.hpoly import HPoly
from orbitquant.lie import build_lie_basis
from orbitquant.ncpoly import NCPoly, PBWAlgebra
from orbitquant.poly import MultiPoly, _lowest_terms, monomials_up_to_degree
from orbitquant.quantize import OrbitQuantization, QuotientElement, commutator_weight

DIFFERENTIAL = settings(max_examples=60, deadline=None)
ALGEBRA = PBWAlgebra(*build_lie_basis(2))
VARIABLES = tuple(f"x{i}" for i in range(ALGEBRA.dim))
EXPONENTS = monomials_up_to_degree(ALGEBRA.dim, 3)

# mixed denominators, and zero entries so that h terms sit above gaps
values = st.fractions(min_value=-6, max_value=6, max_denominator=6)
hpolys = st.lists(values, min_size=1, max_size=4).map(HPoly)
words = st.lists(st.integers(0, ALGEBRA.dim - 1), max_size=3).map(lambda w: tuple(sorted(w)))


def draw_terms(data, keys) -> dict:
    chosen = data.draw(st.lists(keys, max_size=4, unique=True))
    return {key: data.draw(hpolys) for key in chosen}


def draw_ncpoly(data) -> NCPoly:
    return NCPoly(ALGEBRA, draw_terms(data, words))


def draw_quotient(data) -> QuotientElement:
    return QuotientElement(VARIABLES, draw_terms(data, st.sampled_from(EXPONENTS)))


def draw_element(data):
    return data.draw(st.sampled_from((draw_ncpoly, draw_quotient)))(data)


# -- the HPoly reference ----------------------------------------------------------


def nonzero(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if not c.is_zero()}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, HPoly.zero()) + c
    return nonzero(out)


def ref_product(u: NCPoly, v: NCPoly) -> dict:
    """u * v with every pair of words rewritten by the literal rewriter."""
    out: dict = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            out = ref_add(out, ALGEBRA.reduce_word(w1 + w2, c1 * c2))
    return out


def canonical(x) -> bool:
    return x.den > 0 and gcd(x.den, *x.flat.values()) == 1 and all(
        type(c) is int and c for c in x.flat.values()
    )


@DIFFERENTIAL
@given(data=st.data())
def test_ring_operations_match_hpoly_reference(data):
    kind = data.draw(st.sampled_from((draw_ncpoly, draw_quotient)))
    x, y = kind(data), kind(data)
    s, k = data.draw(hpolys), data.draw(st.integers(0, 3))
    a, b = x.terms, y.terms
    results = {
        "add": ((x + y).terms, ref_add(a, b)),
        "sub": ((x - y).terms, ref_add(a, {key: -c for key, c in b.items()})),
        "neg": ((-x).terms, {key: -c for key, c in a.items()}),
        "scale": (x.scale(s).terms, nonzero({key: c * s for key, c in a.items()})),
        "shift_h": (x.shift_h(k).terms, {key: c * HPoly.h(k) for key, c in a.items()}),
    }
    for name, (got, expected) in results.items():
        assert got == expected, name
    for z in (x + y, x - y, -x, x.scale(s), x.shift_h(k)):
        assert canonical(z)
    # a word's degree is its length, an exponent's its sum
    key_degree = len if isinstance(x, NCPoly) else sum
    assert x.degree() == max((key_degree(key) + c.degree() for key, c in a.items()), default=-1)
    assert x.divisible_by_h_power(k) == all(
        c.coefficient(i) == 0 for c in a.values() for i in range(k)
    )


@DIFFERENTIAL
@given(data=st.data())
def test_product_matches_literal_rewriter(data):
    u, v = draw_ncpoly(data), draw_ncpoly(data)
    product = u * v
    assert product.terms == ref_product(u, v)
    assert canonical(product)


@DIFFERENTIAL
@given(data=st.data())
def test_h_coefficient_matches_hpoly_reference(data):
    x = draw_quotient(data)
    for k in range(max((c.degree() for c in x.terms.values()), default=-1) + 2):
        expected = {e: c.coefficient(k) for e, c in x.terms.items()}
        assert x.h_coefficient(k) == MultiPoly(VARIABLES, expected)


@DIFFERENTIAL
@given(data=st.data())
def test_canonical_form_from_differently_scaled_inputs(data):
    x = draw_element(data)
    m = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
    # the keys in reverse order too: the hash must not see the order of the layout
    scaled = {key: c * HPoly.of(m) for key, c in reversed(x.terms.items())}
    y = type(x)(x._context, scaled).scale(1 / m)
    assert canonical(x) and canonical(y)
    assert y == x and hash(y) == hash(x)
    assert (y.flat, y.den) == (x.flat, x.den)
    assert (x + x).scale(Fraction(1, 2)) == x
    zero = x - y
    assert zero.is_zero() and (zero.flat, zero.den) == ({}, 1)


def test_lowest_terms_makes_the_denominator_positive():
    # a negative leading coefficient of g puts a negative denominator
    # into the division step
    assert _lowest_terms({"a": 4, "b": -6, "c": 0}, -8) == ({"a": -2, "b": 3}, 4)
    assert _lowest_terms({"a": 0}, -3) == ({}, 1)


def test_containers_refuse_foreign_operands():
    other = PBWAlgebra(*build_lie_basis(2))
    u = NCPoly.letter(ALGEBRA, 0)
    q = QuotientElement(VARIABLES, {(0,) * ALGEBRA.dim: 1})
    p = MultiPoly.variable(VARIABLES, 0)
    elsewhere = tuple("abcdefg")
    # another context, or another container on the left of an h-layout element
    for x, y in [
        (u, NCPoly.letter(other, 0)),
        (q, QuotientElement(elsewhere, {(0,) * 7: 1})),
        (p, MultiPoly.variable(elsewhere, 0)),
        (u, p),
        (q, p),
    ]:
        with pytest.raises(StructuralError):
            x + y
        with pytest.raises(StructuralError):
            x - y
    with pytest.raises(StructuralError):
        u * NCPoly.letter(other, 0)
    with pytest.raises(StructuralError) as refused:
        p + MultiPoly.variable(elsewhere, 0)
    assert str(refused.value) == f"variable lists differ: {VARIABLES} vs {elsewhere}"
    # an operand of another type is named as such, not as another context
    for x, y, message in [
        (q, p, "cannot combine QuotientElement with MultiPoly"),
        (u, p, "cannot combine NCPoly with MultiPoly"),
        (u, 1, "cannot combine NCPoly with int"),
        (u, q, "cannot combine NCPoly with QuotientElement"),
    ]:
        with pytest.raises(StructuralError) as refused:
            x + y
        assert str(refused.value) == message
    with pytest.raises(StructuralError) as refused:
        u + NCPoly.letter(other, 0)
    assert str(refused.value) == "operands from different algebra contexts"
    with pytest.raises(StructuralError) as refused:
        q + QuotientElement(elsewhere, {(0,) * 7: 1})
    assert str(refused.value) == "quotient elements over different variables"
    # a MultiPoly coerces exact scalars only and declines other containers
    for y in (u, q):
        with pytest.raises(TypeError):
            p + y
        with pytest.raises(TypeError):
            p - y
    assert u != NCPoly.letter(other, 0) and u != q and u != p and q != p
    for x in (u, q, p):
        with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
            x.den = 2


@pytest.mark.parametrize(
    "terms",
    [
        {(-1, 0, 0, 0, 0, 0, 0): HPoly.one()},
        {(1, 0, 0, 0, 0, 0, 0, 0): HPoly.one()},
        {(1, 0, 0): HPoly.one()},
        {(True, 0, 0, 0, 0, 0, 0): HPoly.one()},
        {(1.0, 0, 0, 0, 0, 0, 0): HPoly.one()},
        {(1, 0, 0, 0, 0, 0, 0): 0.5},
    ],
)
def test_quotient_element_checks_its_input(terms):
    with pytest.raises(StructuralError):
        QuotientElement(VARIABLES, terms)


def literal_weight(u: NCPoly, e: int):
    """The rational t with X_e u - u X_e = t h u, from NCPoly products, or
    None when there is none.  t is read off one word of the ``terms`` view:
    h t times u's lowest h coefficient there is the commutator's next one."""
    letter = NCPoly.letter(u.algebra, e)
    literal = letter * u - u * letter
    if literal.is_zero():
        return 0
    word, c = next(iter(literal.terms.items()))
    mine = u.terms.get(word, HPoly.zero())
    if mine.is_zero():
        return None
    k = next(k for k, v in enumerate(mine.coeffs) if v)
    t = c.coefficient(k + 1) / mine.coeffs[k]
    return t if literal == u.scale(HPoly.h(1, t)) else None


@pytest.fixture(scope="module")
def n2_generator():
    return OrbitQuantization(2, [Fraction(1)], deg_cap=6, build_reduction=False).sym_generators[0]


@pytest.mark.parametrize(
    "make, t",
    [
        (lambda g: g, 2),
        (lambda g: g.shift_h(2), 2),
        (lambda g: g.scale(Fraction(3, 7)), 2),
        (lambda g: g * g, 4),
    ],
    ids=["g", "h^2 g", "3/7 g", "g g"],
)
def test_commutator_weight_matches_the_literal_commutator(n2_generator, make, t):
    # X u - u X = F u by NCPoly products, which run the PBW product and not
    # the letter commutator: F = t h on the Cartan letters a11 and a22 and 0
    # on the others, also where h divides every coefficient of u
    u = make(n2_generator)
    alg = u.algebra
    for e, name in enumerate(alg.basis.names):
        weight = commutator_weight(alg, u, e)
        assert weight == (HPoly.h(1, t) if name in ("a11", "a22") else HPoly.zero())
        assert literal_weight(u, e) == weight.coefficient(1)


def test_commutator_weight_refuses_exactly_where_a_tilted_generator_is_not_normal(n2_generator):
    # g plus h times its longest word: the Cartan letters still certify, and
    # every letter whose literal commutator is no multiple t h u is refused
    g = n2_generator
    alg = g.algebra
    longest = max(g.terms, key=lambda w: (len(w), w))
    tilted = g + NCPoly(alg, {longest: HPoly.h(1)})
    refused = []
    for e, name in enumerate(alg.basis.names):
        t = literal_weight(tilted, e)
        if t is None:
            refused.append(name)
            with pytest.raises(CertificationError, match=f"letter {e} is not proportional"):
                commutator_weight(alg, tilted, e)
        else:
            assert commutator_weight(alg, tilted, e) == (HPoly.h(1, t) if t else HPoly.zero())
    assert refused and "a11" not in refused and "a22" not in refused
    assert literal_weight(tilted, 0) == 2


def test_commutator_weight_refuses_the_zero_element(n2_generator):
    # [X, 0] = F 0 holds at every F: no weight is certified for it
    alg = n2_generator.algebra
    for e in range(alg.dim):
        with pytest.raises(StructuralError, match="zero element"):
            commutator_weight(alg, NCPoly.zero(alg), e)
