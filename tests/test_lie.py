"""Lie basis, structure constants, trace pairing, Lie-Poisson bracket."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from orbitquant import lie
from orbitquant import linalg as la
from orbitquant.errors import StructuralError
from orbitquant.lie import (
    DualCoordinates,
    StructureConstants,
    _decompose_in_basis,
    basis_to_json,
    build_lie_basis,
    dual_block,
    lie_poisson_bracket,
    standard_symplectic_form,
    trace_pairing,
)
from orbitquant.poly import MultiPoly, sum_of_products


def random_poly(rng, variables, max_deg=2, terms=4):
    nv = len(variables)
    out = {}
    for _ in range(terms):
        exp = [0] * nv
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(nv)] += 1
        out[tuple(exp)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return MultiPoly(variables, out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dimension_formula(n):
    basis, _ = build_lie_basis(n)
    assert basis.dim == n * n + n * (n + 1) // 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_elements_lie_in_sp(n):
    # X in sp(n) means X^t J + J X = 0 for the standard symplectic form
    basis, _ = build_lie_basis(n)
    J = standard_symplectic_form(n)
    for i in range(basis.dim):
        X = basis.element(i)
        lhs = la.mat_add(la.mat_mul(la.transpose(X), J), la.mat_mul(J, X))
        assert lhs == la.zeros(2 * n, 2 * n)


def test_n1_bracket_by_hand():
    # A = diag(1, -1) (letter a11) and B = E_12 (letter b11): [A, B] = 2B,
    # verified here against the raw 2x2 commutator
    basis, sc = build_lie_basis(1)
    A = basis.element(basis.names.index("a11"))
    B = basis.element(basis.names.index("b11"))
    assert A == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert B == [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    comm = la.mat_sub(la.mat_mul(A, B), la.mat_mul(B, A))
    assert comm == la.mat_scale(B, Fraction(2))
    coeffs = sc.bracket_coeffs(basis.names.index("a11"), basis.names.index("b11"))
    assert coeffs == {basis.names.index("b11"): Fraction(2)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_self_bracket_vanishes(n):
    _, sc = build_lie_basis(n)
    for i in range(sc.dim):
        assert sc.bracket_coeffs(i, i) == {}


def test_antisymmetry():
    _, sc = build_lie_basis(2)
    for i in range(sc.dim):
        for j in range(sc.dim):
            cij = sc.bracket_coeffs(i, j)
            cji = sc.bracket_coeffs(j, i)
            assert cij == {k: -v for k, v in cji.items()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_identity_full_loop(n):
    basis, sc = build_lie_basis(n)
    dim = basis.dim

    def bracket_vec(i, vec):
        out = {}
        for m, coeff in vec.items():
            for k, v in sc.bracket_coeffs(i, m).items():
                out[k] = out.get(k, Fraction(0)) + coeff * v
        return {k: v for k, v in out.items() if v != 0}

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                acc = {}
                for term in (
                    bracket_vec(i, sc.bracket_coeffs(j, k)),
                    bracket_vec(j, sc.bracket_coeffs(k, i)),
                    bracket_vec(k, sc.bracket_coeffs(i, j)),
                ):
                    for m, v in term.items():
                        acc[m] = acc.get(m, Fraction(0)) + v
                assert all(v == 0 for v in acc.values())


def test_commutator_closure_matches_constants():
    # the bracket of any two basis elements, recomputed as a raw matrix
    # commutator, must equal its structure constant expansion exactly
    basis, sc = build_lie_basis(2)
    for i in range(basis.dim):
        for j in range(basis.dim):
            mi, mj = basis.element(i), basis.element(j)
            comm = la.mat_sub(la.mat_mul(mi, mj), la.mat_mul(mj, mi))
            recon = la.zeros(4, 4)
            for k, v in sc.bracket_coeffs(i, j).items():
                recon = la.mat_add(recon, la.mat_scale(basis.element(k), v))
            assert comm == recon


def dense_structure_constants(basis):
    """Oracle: dense matrix commutators, decomposed by dense reconstruction.

    Each pair gets two dense matrix products; the coefficients are read off
    the a- and b-block entries and the commutator must equal the dense sum
    of scaled basis elements they claim.
    """
    n = basis.n
    entries = []
    for i in range(basis.dim):
        mi = basis.element(i)
        for j in range(i + 1, basis.dim):
            mj = basis.element(j)
            comm = la.mat_sub(la.mat_mul(mi, mj), la.mat_mul(mj, mi))
            recon = la.zeros(2 * n, 2 * n)
            for k, (kind, r, s) in enumerate(basis.kinds):
                v = comm[r][s] if kind == "a" else comm[r][n + s]
                if v != 0:
                    entries.append((i, j, k, v))
                    recon = la.mat_add(recon, la.mat_scale(basis.element(k), v))
            assert recon == comm
    return entries


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_structure_constants_match_dense_oracle(n):
    basis, sc = build_lie_basis(n)
    entries = list(sc.entries())
    assert entries == dense_structure_constants(basis)
    assert all(type(v) is int for _, _, _, v in entries)


@pytest.mark.parametrize("value", [1.0, Fraction(1), True], ids=["float", "fraction", "bool"])
def test_structure_constants_take_ints_only(value):
    with pytest.raises(StructuralError, match="integers"):
        StructureConstants(2, {(0, 1): {1: value}})


@pytest.mark.parametrize(
    "table",
    [{(1, 0): {0: 1}}, {(0, 2): {0: 1}}, {(-1, 1): {0: 1}}, {(0, 1): {2: 1}}, {(0, 1): {-1: 1}}],
)
def test_structure_constants_refuse_letters_out_of_range(table):
    with pytest.raises(StructuralError, match="range"):
        StructureConstants(2, table)


def test_bracket_coeffs_refuses_letters_out_of_range():
    _, sc = build_lie_basis(2)
    for i, j in ((0, 99), (0, sc.dim), (-1, 0), (True, 1), (0.0, 1)):
        with pytest.raises(StructuralError, match="range"):
            sc.bracket_coeffs(i, j)


def test_closure_check_rejects_non_members():
    n = 2
    basis, _ = build_lie_basis(n)
    sparse = basis.sparse_elements
    a12 = basis.names.index("a12")
    # a member: the a12 element itself decomposes to one coefficient
    assert _decompose_in_basis(basis, sparse[a12]) == {a12: Fraction(1)}
    # a nonzero lower-left (c-block) entry is outside the algebra
    lower_left = dict(sparse[a12])
    lower_left[(n, 0)] = Fraction(3)
    with pytest.raises(StructuralError):
        _decompose_in_basis(basis, lower_left)
    # a lower-right block that is not -a^t: a12 with its mirror entry flipped
    wrong_mirror = {(0, 1): Fraction(1), (n + 1, n): Fraction(1)}
    with pytest.raises(StructuralError):
        _decompose_in_basis(basis, wrong_mirror)
    # the mirror entry missing altogether
    with pytest.raises(StructuralError):
        _decompose_in_basis(basis, {(0, 1): Fraction(1)})


@pytest.mark.parametrize("n", [2, 3])
def test_build_checks_every_commutator(n, monkeypatch):
    # a planted fault: the sym(n) letters lose their mirror entry, so b{rs}
    # is E_rs alone and some commutator leaves the block shape; the
    # integer closure check must catch it
    original = lie._sym_basis_matrix

    def one_sided(size, i, j):
        m = original(size, i, j)
        if i != j:
            m[j][i] = Fraction(0)
        return m

    monkeypatch.setattr(lie, "_sym_basis_matrix", one_sided)
    with pytest.raises(StructuralError):
        build_lie_basis(n)


# sha256 of basis_to_json(*build_lie_basis(n)), canonical JSON, taken
# before the structure constants moved to integer commutators
BASIS_PINS = {
    1: "8dd57c7d31472d66b684b80f6f587cfbeaa03d66e1971be11dcf1e8b612f9730",
    2: "13e173c2d8e0312455cbb1813c98199aa90d0037595cbbf684362b5f40ba152f",
    3: "df6e91cff4106d62b69b7b49d32ee6a62a727ff10063a8d09621e023a0b60dd9",
    4: "d30e8844f5ef884afc2bbde31d41a950c1ffb92366b0f235db6cbbfc21f4a021",
}


@pytest.mark.parametrize("n", sorted(BASIS_PINS))
def test_basis_export_is_pinned(n):
    doc = json.dumps(basis_to_json(*build_lie_basis(n)), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == BASIS_PINS[n]


def test_trace_pairing_examples():
    A = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert trace_pairing(A, A) == 2
    nilpotent = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    assert trace_pairing(nilpotent, nilpotent) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairing_matrix_invertible(n):
    basis, _ = build_lie_basis(n)
    coords = DualCoordinates(basis)
    pm = coords.pairing_matrix()
    assert la.det(pm) != 0


def test_coords_point_round_trip():
    rng = random.Random(3)
    basis, _ = build_lie_basis(2)
    coords = DualCoordinates(basis)
    for _ in range(10):
        c = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        c[1][0] = c[0][1]
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        vec = coords.coords_of_point(c, a)
        c2, a2 = coords.point_of_coords(vec)
        assert c2 == c and a2 == a


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sparse_elements_are_the_int_entries_of_the_basis(n):
    basis, _ = build_lie_basis(n)
    sparse = basis.sparse_elements
    assert sparse is basis.sparse_elements  # built once per basis
    for i, entries in enumerate(sparse):
        element = basis.element(i)
        assert entries == {
            (r, c): v for r, row in enumerate(element) for c, v in enumerate(row) if v
        }
        assert all(type(v) is int and v in (1, -1) for v in entries.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coords_of_point_match_dense_trace_pairing(n):
    rng = random.Random(60 + n)
    basis, _ = build_lie_basis(n)
    coords = DualCoordinates(basis)

    def entry():
        return Fraction(rng.randint(-7, 7), rng.randint(1, 5))

    for _ in range(8):
        # c need not be symmetric: the sparse sum is tr(p X_i) for any block
        c = [[entry() for _ in range(n)] for _ in range(n)]
        a = [[entry() for _ in range(n)] for _ in range(n)]
        p = dual_block(c, a)
        expected = [trace_pairing(p, basis.element(i)) for i in range(basis.dim)]
        assert coords.coords_of_point(c, a) == expected


def test_entry_polynomials_invert_coordinates():
    rng = random.Random(5)
    basis, _ = build_lie_basis(3)
    coords = DualCoordinates(basis)
    c_mat, a_mat = coords.entry_polynomials()
    for _ in range(5):
        c = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i):
                c[i][j] = c[j][i]
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        vec = coords.coords_of_point(c, a)
        for i in range(3):
            for j in range(3):
                assert c_mat[i][j].evaluate(vec) == c[i][j]
                assert a_mat[i][j].evaluate(vec) == a[i][j]


def test_poisson_on_coordinates_is_constant_expansion():
    basis, sc = build_lie_basis(2)
    coords = DualCoordinates(basis)
    variables = coords.variables
    for i in range(basis.dim):
        for j in range(basis.dim):
            xi = MultiPoly.variable(variables, i)
            xj = MultiPoly.variable(variables, j)
            bracket = lie_poisson_bracket(xi, xj, sc)
            expected = MultiPoly.zero(variables)
            for k, v in sc.bracket_coeffs(i, j).items():
                expected = expected + MultiPoly.variable(variables, k) * v
            assert bracket == expected


def test_poisson_n1_example():
    basis, sc = build_lie_basis(1)
    coords = DualCoordinates(basis)
    xa = MultiPoly.variable(coords.variables, basis.names.index("a11"))
    xb = MultiPoly.variable(coords.variables, basis.names.index("b11"))
    assert lie_poisson_bracket(xa, xb, sc) == xb * 2


def test_poisson_antisymmetry_and_self():
    rng = random.Random(7)
    basis, sc = build_lie_basis(2)
    coords = DualCoordinates(basis)
    for _ in range(10):
        f = random_poly(rng, coords.variables)
        g = random_poly(rng, coords.variables)
        assert lie_poisson_bracket(f, f, sc).is_zero()
        assert lie_poisson_bracket(f, g, sc) == -lie_poisson_bracket(g, f, sc)


def test_poisson_leibniz():
    rng = random.Random(9)
    basis, sc = build_lie_basis(2)
    coords = DualCoordinates(basis)
    for _ in range(8):
        f = random_poly(rng, coords.variables, max_deg=1)
        g = random_poly(rng, coords.variables, max_deg=2)
        h = random_poly(rng, coords.variables, max_deg=2)
        lhs = lie_poisson_bracket(f, g * h, sc)
        rhs = lie_poisson_bracket(f, g, sc) * h + g * lie_poisson_bracket(f, h, sc)
        assert lhs == rhs


def test_poisson_jacobi_on_random_triples():
    rng = random.Random(11)
    basis, sc = build_lie_basis(2)
    coords = DualCoordinates(basis)
    for _ in range(6):
        f = random_poly(rng, coords.variables, max_deg=1, terms=3)
        g = random_poly(rng, coords.variables, max_deg=2, terms=3)
        h = random_poly(rng, coords.variables, max_deg=2, terms=3)
        total = (
            lie_poisson_bracket(f, lie_poisson_bracket(g, h, sc), sc)
            + lie_poisson_bracket(g, lie_poisson_bracket(h, f, sc), sc)
            + lie_poisson_bracket(h, lie_poisson_bracket(f, g, sc), sc)
        )
        assert total.is_zero()


def oracle_bracket(f, g, sc):
    # the literal sum over structure-constant entries, one product at a time
    variables = f.variables
    result = MultiPoly.zero(variables)
    for i, j, k, value in sc.entries():
        term = f.diff(i) * g.diff(j) - f.diff(j) * g.diff(i)
        if not term.is_zero():
            result = result + MultiPoly.variable(variables, k) * term * value
    return result


@pytest.mark.parametrize("n", [1, 2, 3])
def test_poisson_matches_entrywise_oracle(n):
    rng = random.Random(40 + n)
    basis, sc = build_lie_basis(n)
    variables = DualCoordinates(basis).variables
    for _ in range(12):
        f = random_poly(rng, variables, max_deg=3, terms=rng.randint(0, 5))
        g = random_poly(rng, variables, max_deg=3, terms=rng.randint(0, 5))
        bracket = lie_poisson_bracket(f, g, sc)
        assert bracket == oracle_bracket(f, g, sc)
        assert all(type(c) is Fraction and c != 0 for c in bracket.terms.values())


def partial_products_bracket(f, g, sc):
    # the bracket as the product kernel's sum: for each letter pair (i, j)
    # and each (k, c) in [X_i, X_j], the pair (c x_k df/dx_i, dg/dx_j)
    variables = f.variables
    df = [f.diff(i) for i in range(sc.dim)]
    dg = [g.diff(j) for j in range(sc.dim)]
    pairs = [
        (MultiPoly.variable(variables, k) * df[i] * c, dg[j])
        for i, row in enumerate(sc.brackets)
        for j, bracket in enumerate(row)
        for k, c in bracket
    ]
    return sum_of_products(variables, pairs)


def bracket_operands(rng, variables):
    # zero operands and constants, then rational polynomials up to degree 4
    yield MultiPoly.zero(variables), random_poly(rng, variables)
    yield random_poly(rng, variables), MultiPoly.zero(variables)
    yield MultiPoly.constant(variables, Fraction(-3, 7)), random_poly(rng, variables)
    yield random_poly(rng, variables), MultiPoly.constant(variables, 5)
    for _ in range(6):
        yield (
            random_poly(rng, variables, max_deg=4, terms=rng.randint(1, 6)),
            random_poly(rng, variables, max_deg=4, terms=rng.randint(1, 6)),
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poisson_matches_the_per_partial_product_sum(n):
    rng = random.Random(60 + n)
    basis, sc = build_lie_basis(n)
    variables = DualCoordinates(basis).variables
    for f, g in bracket_operands(rng, variables):
        bracket = lie_poisson_bracket(f, g, sc)
        assert bracket == partial_products_bracket(f, g, sc)
        if n <= 2:
            assert bracket == oracle_bracket(f, g, sc)


def test_poisson_refuses_mismatched_variables():
    basis, sc = build_lie_basis(2)
    variables = DualCoordinates(basis).variables
    f = MultiPoly.variable(variables, 0)
    renamed = MultiPoly.variable(("y",) + variables[1:], 0)
    with pytest.raises(StructuralError):
        lie_poisson_bracket(f, renamed, sc)
    with pytest.raises(StructuralError):
        lie_poisson_bracket(renamed, f, sc)
    _, sc3 = build_lie_basis(3)
    with pytest.raises(StructuralError):
        lie_poisson_bracket(f, f, sc3)


def test_poisson_forms_no_derivative(monkeypatch):
    def refuse(self, index):
        raise AssertionError("the bracket formed a partial derivative")

    rng = random.Random(5)
    basis, sc = build_lie_basis(2)
    variables = DualCoordinates(basis).variables
    f = random_poly(rng, variables, max_deg=3, terms=5)
    g = random_poly(rng, variables, max_deg=3, terms=5)
    expected = partial_products_bracket(f, g, sc)
    monkeypatch.setattr(MultiPoly, "diff", refuse)
    assert lie_poisson_bracket(f, g, sc) == expected
