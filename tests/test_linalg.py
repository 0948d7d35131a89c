"""Exact linear algebra: kernels, ranks, determinants, adjugates."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from orbitquant.errors import DomainError
from orbitquant import linalg as la
from orbitquant.invariants import symbolic_dual_matrices
from orbitquant.lie import DualCoordinates, build_lie_basis


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [
        [Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_kernel_of_identity_is_empty():
    assert la.rational_kernel(la.identity(3)) == []


def test_kernel_of_zero_matrix_is_full():
    basis = la.rational_kernel(la.zeros(2, 3))
    assert len(basis) == 3


def test_kernel_rank_one_case():
    # [[1,2],[2,4]] was row reduced by hand: kernel spanned by (2, -1)
    basis = la.rational_kernel(frac_matrix([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)


def test_rank_plus_kernel_dimension_is_column_count():
    rng = random.Random(13)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        kernel = la.rational_kernel(m)
        assert la.rational_rank(m) + len(kernel) == cols
        for v in kernel:
            image = [
                sum((m[i][j] * v[j] for j in range(cols)), Fraction(0))
                for i in range(rows)
            ]
            assert all(x == 0 for x in image)


def test_rank_agrees_with_transpose_rank():
    rng = random.Random(17)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert la.rational_rank(m) == la.rational_rank(la.transpose(m))


def test_determinant_against_permutation_oracle():
    from itertools import permutations

    rng = random.Random(19)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        oracle = Fraction(0)
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            # count inversions for the signature
            inv = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if seen[i] > seen[j]
            )
            sign = -1 if inv % 2 else 1
            prod = Fraction(1)
            for i in range(n):
                prod *= m[i][perm[i]]
            oracle += sign * prod
        assert la.det(m) == oracle


def test_adjugate_identity():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        adj = la.adjugate(m)
        d = la.det(m)
        product = la.mat_mul(m, adj)
        expected = la.mat_scale(la.identity(n), d)
        assert product == expected


def permutation_det(m, one):
    """The Leibniz sum over permutations, literally; 1 for a 0 x 0 matrix."""
    total = one - one
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        prod = one
        for row, col in enumerate(perm):
            prod = prod * m[row][col]
        total = total - prod if inversions % 2 else total + prod
    return total


def cofactor_oracle(m, one):
    """adj(m)[j][i] = (-1)^(i+j) det(m without row i and column j)."""
    n = len(m)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(m) if r != i]
            cof = permutation_det(minor, one)
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbolic_adjugate_matches_the_cofactor_oracle(n):
    # the symmetric c (mirrored cofactors) and the non-symmetric a block of
    # a dual point, as linear polynomials in the dual coordinates
    coords = DualCoordinates(build_lie_basis(n)[0])
    c, a = coords.entry_polynomials()
    one = c[0][0] ** 0
    zero = one - one
    for m in (c, a):
        adj = la.adjugate(m)
        assert adj == cofactor_oracle(m, one)
        d = la.det(m)
        assert d == permutation_det(m, one)
        scaled = [[d if i == j else zero for j in range(n)] for i in range(n)]
        assert la.mat_mul(m, adj) == scaled == la.mat_mul(adj, m)
    _, _, adj_c, det_c = symbolic_dual_matrices(coords)
    assert adj_c == la.adjugate(c) and det_c == la.det(c)


def test_exact_adjugate_matches_the_cofactor_oracle_and_keeps_fractions():
    rng = random.Random(31)
    for trial in range(24):
        n = 1 + trial % 4
        m = random_matrix(rng, n, n)
        if trial % 2:
            m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        adj = la.adjugate(m)
        assert adj == cofactor_oracle(m, Fraction(1))
        assert all(type(x) is Fraction for row in adj for x in row)
        assert type(la.det(m)) is Fraction


def test_inverse_round_trip_and_singular_rejection():
    rng = random.Random(29)
    found = 0
    while found < 10:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if la.det(m) == 0:
            with pytest.raises(DomainError):
                la.inverse(m)
            continue
        inv = la.inverse(m)
        assert la.mat_mul(m, inv) == la.identity(n)
        assert la.mat_mul(inv, m) == la.identity(n)
        found += 1


def dense_fraction_inverse(m):
    """Gauss-Jordan in Fraction arithmetic: the routine la.inverse replaced."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    inv = la.identity(n)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise DomainError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return inv


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_fraction_free_inverse_matches_the_dense_fraction_routine(n, kind):
    rng = random.Random(100 * n + len(kind))
    inverted = singular = 0
    for _ in range(30):
        if kind == "int":
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        else:
            m = random_matrix(rng, n, n, lo=-3, hi=3)
        if n > 1 and rng.random() < 0.5:
            # a zero leading entry forces a row swap at the first pivot
            m[0][0] = 0
        try:
            expected = dense_fraction_inverse(m)
        except DomainError:
            singular += 1
            with pytest.raises(DomainError):
                la.inverse(m)
            continue
        inv = la.inverse(m)
        assert inv == expected and all(type(x) is Fraction for row in inv for x in row)
        inverted += 1
    assert inverted >= 10


def test_fraction_free_inverse_swaps_rows_and_rejects_singular_matrices():
    m = [[0, 1, 2], [0, 3, 1], [4, 5, 6]]
    assert la.inverse(m) == dense_fraction_inverse(m)
    assert la.mat_mul(m, la.inverse(m)) == la.identity(3)
    with pytest.raises(DomainError):
        la.inverse([[Fraction(1, 2), 1], [1, 2]])
    with pytest.raises(DomainError):
        la.inverse([[0, 0], [0, 0]])


def test_sparse_rref_respects_column_order():
    # with reversed column priority the pivot lands on the last column
    rref = la.SparseRREF(colkey=lambda c: -c)
    rref.add_row({0: Fraction(1), 2: Fraction(3)})
    assert list(rref.pivot_rows) == [2]
