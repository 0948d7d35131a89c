"""The exact group layer on integer numerators, against the paths it replaced.

``la.mat_mul`` multiplies int/Fraction factors over integer numerators,
``GroupElement`` inverts itself once, and ``pair_dual_algebra`` reads only
the nonzero entries of the algebra element.  Each is checked here against
the literal definition: the entrywise product loop, ``la.inverse`` (or
numpy's inverse for float input) and the dense 2n x 2n trace pairing.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitquant import linalg as la
from orbitquant.lie import algebra_block, build_lie_basis, dual_block, trace_pairing
from orbitquant.orbits import (
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
    random_glplus,
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


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cached_inverses_of_float_elements_are_numpy_inverses(n, seed):
    rng = random.Random(seed)
    x = [[float(v) for v in row] for row in random_sym_matrix(n, rng)]
    g = [[float(v) for v in row] for row in random_glplus(n, rng)]
    p = GroupElement(x, g)
    expected_inverse = np.linalg.inv(np.asarray(g, dtype=float)).tolist()
    expected_gcheck = np.linalg.inv(np.asarray(g, dtype=float).T).tolist()
    assert bits(p.inverse) == bits(expected_inverse)
    assert bits(p.gcheck) == bits(expected_gcheck)


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
