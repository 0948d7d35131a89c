"""The exact group layer on integer numerators, against the paths it replaced.

``la.mat_mul`` multiplies int/Fraction factors over integer numerators,
``GroupElement`` inverts itself once, and ``pair_dual_algebra`` reads only
the nonzero entries of the algebra element.  Each is checked here against
the literal definition: the entrywise product loop, ``la.inverse`` and the
dense 2n x 2n trace pairing.  The three pair types refuse any block entry
that is not an int or a Fraction, so the exact path is their only one.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitquant import linalg as la
from orbitquant.errors import StructuralError
from orbitquant.lie import algebra_block, build_lie_basis, dual_block, trace_pairing
from orbitquant.orbits import (
    DualPoint,
    GroupElement,
    LieElement,
    adjoint,
    basis_lie_element,
    coadjoint,
    embed_sp,
    group_inverse,
    pair_dual_algebra,
)
from orbitquant.poly import MultiPoly
from orbitquant.sampling import (
    random_fraction,
    random_gplus_point,
    random_group_element,
    random_sym_matrix,
)

DIFFERENTIAL = settings(max_examples=60, deadline=None)
sizes = st.integers(1, 3)
ints = st.integers(-50, 50)
fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), fractions, max_size=3
).map(lambda terms: MultiPoly(("x", "y"), terms))


def loop_mat_mul(a, b):
    """The entrywise product loop: the literal definition, left to right."""
    out = []
    for arow in a:
        row = []
        for j in range(len(b[0])):
            acc = arow[0] * b[0][j]
            for k in range(1, len(arow)):
                acc = acc + arow[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def draw_factors(data, entries):
    rows, inner, cols = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a = [[data.draw(entries) for _ in range(inner)] for _ in range(rows)]
    b = [[data.draw(entries) for _ in range(cols)] for _ in range(inner)]
    return a, b


def types_of(m):
    return [[type(x) for x in row] for row in m]


def bits(m):
    """Float entries by their exact bit pattern, other entries as they are."""
    return [[x.hex() if type(x) is float else x for x in row] for row in m]


@DIFFERENTIAL
@given(st.data())
def test_int_product_matches_loop_with_int_entries(data):
    a, b = draw_factors(data, ints)
    product = la.mat_mul(a, b)
    assert product == loop_mat_mul(a, b)
    assert {t for row in types_of(product) for t in row} == {int}


@DIFFERENTIAL
@given(st.data())
def test_mixed_int_fraction_product_matches_loop(data):
    a, b = draw_factors(data, st.one_of(ints, fractions))
    product = la.mat_mul(a, b)
    assert product == loop_mat_mul(a, b)
    if any(type(x) is Fraction for m in (a, b) for row in m for x in row):
        assert {t for row in types_of(product) for t in row} == {Fraction}


@DIFFERENTIAL
@given(st.data())
def test_float_products_are_bit_identical_to_loop(data):
    # float entries, alone or mixed with exact ones, stay on the loop
    a, b = draw_factors(data, st.one_of(floats, fractions))
    if all(isinstance(x, Fraction) for m in (a, b) for row in m for x in row):
        a[0][0] = float(a[0][0])
    expected = loop_mat_mul(a, b)
    product = la.mat_mul(a, b)
    assert types_of(product) == types_of(expected)
    assert bits(product) == bits(expected)


@DIFFERENTIAL
@given(st.data())
def test_polynomial_products_match_loop(data):
    a, b = draw_factors(data, polys)
    product = la.mat_mul(a, b)
    expected = loop_mat_mul(a, b)
    assert [[p.terms for p in row] for row in product] == [
        [p.terms for p in row] for row in expected
    ]


def random_lie_element(n, rng):
    a = [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
    return LieElement(random_sym_matrix(n, rng), a)


def dense_pairing(pt, elt):
    return trace_pairing(dual_block(pt.c, pt.a), algebra_block(elt.a, elt.b))


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sparse_pairing_matches_dense_trace(n, seed):
    rng = random.Random(seed)
    basis, _ = build_lie_basis(n)
    pt = random_gplus_point(n, rng)
    elements = [basis_lie_element(basis, i) for i in range(basis.dim)]
    elements += [random_lie_element(n, rng) for _ in range(3)]
    for elt in elements:
        value = pair_dual_algebra(pt, elt)
        assert type(value) is Fraction
        assert value == dense_pairing(pt, elt)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cached_inverses_match_gauss_jordan(n, seed):
    p = random_group_element(n, random.Random(seed))
    assert p.inverse == la.inverse(p.g)
    assert p.gcheck == la.inverse(la.transpose(p.g))
    assert p.inverse is p.inverse and p.gcheck is p.gcheck
    # the cache is no field: equality still compares (x, g) only
    assert p == GroupElement(p.x, p.g)


def count_inversions(monkeypatch):
    calls = []
    honest = la.inverse

    def counting(m):
        calls.append(m)
        return honest(m)

    monkeypatch.setattr(la, "inverse", counting)
    return calls


def test_adjoint_inverts_each_group_element_once(monkeypatch):
    rng = random.Random(11)
    basis, _ = build_lie_basis(3)
    p = random_group_element(3, rng)
    calls = count_inversions(monkeypatch)
    images = [adjoint(p, basis_lie_element(basis, i)) for i in range(basis.dim)]
    assert basis.dim == 15 and len(images) == 15
    assert calls == [p.g]


def test_group_layer_inverts_only_through_the_cache(monkeypatch):
    rng = random.Random(12)
    p = random_group_element(3, rng)
    points = [random_gplus_point(3, rng) for _ in range(4)]
    calls = count_inversions(monkeypatch)
    for pt in points:
        coadjoint(p, pt)
    embed_sp(p)
    pinv = group_inverse(p)
    assert calls == [p.g, la.transpose(p.g)]
    # the inverse element computes its own inverse; none is handed over
    assert pinv.inverse == p.g
    assert calls == [p.g, la.transpose(p.g), pinv.g]


# -- the actions and the pairing over integer numerators -------------------------


def chain(*ms):
    """The product of the matrices by the entrywise loop, left to right."""
    out = ms[0]
    for m in ms[1:]:
        out = loop_mat_mul(out, m)
    return out


def entrywise_adjoint(p, elt):
    """Ad(x,g)(b,a) = (g b g^t - {g a g^-1 x + (g a g^-1 x)^t}, g a g^-1), entry by entry."""
    g, x, ginv = p.g, p.x, la.inverse(p.g)
    a_new = chain(g, elt.a, ginv)
    gax = chain(a_new, x)
    gbg = chain(g, elt.b, la.transpose(g))
    n = len(g)
    return [[gbg[i][j] - (gax[i][j] + gax[j][i]) for j in range(n)] for i in range(n)], a_new


def entrywise_coadjoint(p, pt):
    """Ad*(x,g)(c,a) = (gcheck c g^-1, g a g^-1 + x gcheck c g^-1), entry by entry."""
    g, x, ginv = p.g, p.x, la.inverse(p.g)
    c_new = chain(la.inverse(la.transpose(g)), pt.c, ginv)
    gag, xc = chain(g, pt.a, ginv), chain(x, c_new)
    return c_new, [[u + v for u, v in zip(r, s)] for r, s in zip(gag, xc)]


def entrywise_pairing(pt, elt):
    """2 tr(a alpha) + tr(c b) over every entry."""
    n = len(pt.a)
    return sum(
        2 * pt.a[j][i] * elt.a[i][j] + pt.c[j][i] * elt.b[i][j]
        for i in range(n)
        for j in range(n)
    )


def all_fractions(*ms):
    return all(type(v) is Fraction for m in ms for row in m for v in row)


def int_group_element(n, rng):
    """A group element with int entries only: unit upper triangular g."""
    g = [[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
    x = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x[i][j] = x[j][i] = rng.randint(-3, 3)
    return GroupElement(x, g)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_actions_match_the_entrywise_formulas(n, seed):
    rng = random.Random(seed)
    basis, _ = build_lie_basis(n)
    elements = [basis_lie_element(basis, i) for i in rng.sample(range(basis.dim), min(3, basis.dim))]
    elements += [random_lie_element(n, rng) for _ in range(2)]
    for p in (random_group_element(n, rng), int_group_element(n, rng)):
        for pt in (random_gplus_point(n, rng), DualPoint(p.x, p.g)):
            image = coadjoint(p, pt)
            assert (image.c, image.a) == entrywise_coadjoint(p, pt)
            assert all_fractions(image.c, image.a)
            for elt in elements:
                moved = adjoint(p, elt)
                assert (moved.b, moved.a) == entrywise_adjoint(p, elt)
                assert all_fractions(moved.b, moved.a)
                for q, y in ((pt, elt), (image, moved), (pt, moved)):
                    value = pair_dual_algebra(q, y)
                    assert type(value) is Fraction
                    assert value == entrywise_pairing(q, y)


# -- exact entries only -----------------------------------------------------------


@pytest.mark.parametrize(
    "cls, names",
    [(GroupElement, "x and g"), (DualPoint, "c and a"), (LieElement, "b and a")],
    ids=["GroupElement", "DualPoint", "LieElement"],
)
@pytest.mark.parametrize(
    "entry", [1.0, True, MultiPoly(("x", "y"), {(1, 0): 1})], ids=["float", "bool", "MultiPoly"]
)
@pytest.mark.parametrize("block", [0, 1])
def test_each_block_refuses_an_inexact_entry(cls, names, entry, block):
    # the entry sits on the diagonal of an identity block, where the exact 1
    # passes every other check, so only its type is refused
    blocks = [la.identity(2), la.identity(2)]
    blocks[block][1][1] = entry
    with pytest.raises(StructuralError, match=f"^{names} must have int or Fraction entries$"):
        cls(*blocks)
    blocks[block][1][1] = 1
    cls(*blocks)
