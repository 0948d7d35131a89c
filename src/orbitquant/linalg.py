"""Exact linear algebra over the rationals (and other exact rings).

Matrices are plain lists of lists.  Generic routines (multiplication,
determinant, adjugate, the 2x2 block assembler ``block``) work for any
entries that support ring arithmetic, including MultiPoly;
division-based routines (RREF, kernel, inverse) require exact
entries.  A matrix is exact (``is_exact``) when every entry's type is
int or Fraction; a bool or a float entry is not exact.  Multiplication
of exact factors runs over integer numerators: each factor is brought
to integer rows over one denominator, and each output entry is one
Fraction; MultiPoly and float entries keep the entrywise loop, so float
products are bit-identical to it.

The sparse RREF is the workhorse behind rank certificates, such as the
rank of the invariance equations: rows are dictionaries column ->
Fraction, and the column processing order is an optional caller-supplied
key (the tests' reduction-table oracle uses it to keep standard-monomial
columns from becoming pivots).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable

from .errors import DomainError, StructuralError

Matrix = list[list]


def shape(m: Matrix) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(r) != cols for r in m):
        raise StructuralError("ragged matrix")
    return rows, cols


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    zero = Fraction(0)
    return [[zero for _ in range(cols)] for _ in range(rows)]


def transpose(m: Matrix) -> Matrix:
    rows, cols = shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise StructuralError("matrix size mismatch in addition")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise StructuralError("matrix size mismatch in subtraction")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_scale(a: Matrix, s) -> Matrix:
    return [[x * s for x in row] for row in a]


def block(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    """The block matrix (tl  tr; bl  br), generic over the entry ring."""
    (r1, c1), (r2, c2), (r3, c3), (r4, c4) = map(shape, (tl, tr, bl, br))
    if r1 != r2 or r3 != r4 or c1 != c3 or c2 != c4:
        raise StructuralError("block sizes do not fit together")
    return [r + s for r, s in zip(tl, tr)] + [r + s for r, s in zip(bl, br)]


_EXACT_TYPES = {int, Fraction}


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The matrix product, generic over the entry ring.

    Factors whose entries are all of type int or Fraction multiply over
    integer numerators (see ``_mat_mul_exact``); every other entry type,
    such as MultiPoly or float, goes through the entrywise loop below.
    """
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise StructuralError(f"matrix size mismatch: {ra}x{ca} times {rb}x{cb}")
    types = _entry_types(a, b)
    if types <= _EXACT_TYPES:
        return _mat_mul_exact(a, b, ints_only=Fraction not in types)
    out = []
    for i in range(ra):
        row = []
        arow = a[i]
        for j in range(cb):
            acc = arow[0] * b[0][j]
            for k in range(1, ca):
                acc = acc + arow[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _entry_types(*ms: Matrix) -> set:
    """The types of the entries of the matrices."""
    return {type(x) for m in ms for row in m for x in row}


def is_exact(*ms: Matrix) -> bool:
    """Whether every entry of the matrices is of type int or Fraction: the
    entries that multiply over integer numerators (bools and floats do not)."""
    return _entry_types(*ms) <= _EXACT_TYPES


def _numerators(m: Matrix) -> tuple[list[list[int]], int]:
    """Integer rows and one positive denominator d with m = rows / d."""
    den = lcm(*{x.denominator for row in m for x in row})
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def _mat_mul_exact(a: Matrix, b: Matrix, ints_only: bool) -> Matrix:
    """The product of int/Fraction factors over integer numerators.

    Each factor is brought to integer rows over the lcm of its entries'
    denominators, so every inner product is an integer sum and each
    output entry is one Fraction over the product of the two
    denominators: no Fraction arithmetic runs inside the sums.  With
    ``ints_only`` the entries stay ints, as the entrywise loop gives.
    """
    na, da = _numerators(a)
    nb, db = _numerators(b)
    product = _int_mat_mul(na, nb)
    if ints_only:
        return product
    den = da * db
    return [[Fraction(x, den) for x in row] for row in product]


def _int_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product of two matrices of ints, whose sizes fit."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def trace(m: Matrix):
    rows, cols = shape(m)
    if rows != cols:
        raise StructuralError("trace of a non-square matrix")
    acc = m[0][0]
    for i in range(1, rows):
        acc = acc + m[i][i]
    return acc


def is_symmetric(m: Matrix) -> bool:
    rows, cols = shape(m)
    return rows == cols and all(m[i][j] == m[j][i] for i in range(rows) for j in range(i + 1, cols))


def is_skew(m: Matrix) -> bool:
    rows, cols = shape(m)
    if rows != cols:
        return False
    return all(m[i][j] == -m[j][i] for i in range(rows) for j in range(i, cols))


def det(m: Matrix):
    """Determinant, generic over the entry ring.

    Exact matrices larger than 2 x 2 go through fraction-free elimination
    over integer numerators (``_bareiss``); every other matrix, symbolic
    entries included, through Laplace expansion along the first row with
    each minor computed once (``_shared_minors``), which is only ever used
    on the small matrices this package manipulates (n <= 6).
    """
    rows, cols = shape(m)
    if rows != cols:
        raise StructuralError("determinant of a non-square matrix")
    if rows == 0:
        return Fraction(1)
    if rows > 2 and is_exact(m):
        nums, d = _numerators(m)
        pivot, sign = _bareiss(nums)
        return Fraction(sign * pivot, d**rows)
    full = tuple(range(rows))
    return _shared_minors(m)(full, full)


def _shared_minors(m: Matrix) -> Callable[[tuple, tuple], object]:
    """minor(rows, cols): the determinant of m on the given row and column
    index tuples, generic over the entry ring.

    Each minor is expanded along its first row into minors on the
    remaining rows and memoized by its (rows, cols) pair, so the cofactors
    of one ``adjugate`` share their sub-minors instead of expanding them
    again.  Odd terms are subtracted, so the sum is the plain cofactor
    expansion's, term for term.
    """
    memo: dict[tuple[tuple, tuple], object] = {}

    def minor(rows: tuple, cols: tuple):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        key = (rows, cols)
        if key in memo:
            return memo[key]
        top, rest = m[rows[0]], rows[1:]
        total = top[cols[0]] * minor(rest, cols[1:])
        for pos in range(1, len(cols)):
            term = top[cols[pos]] * minor(rest, cols[:pos] + cols[pos + 1 :])
            total = total - term if pos % 2 else total + term
        memo[key] = total
        return total

    return minor


def _bareiss(a: list[list[int]]) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination of the first n columns of the
    n integer rows ``a``, in place.

    After each step the rows are divided by the previous pivot, and the
    division is exact (Bareiss, Math. Comp. 22, 1968), so every entry stays
    an integer.  Returns (D, s): D is the last pivot, with D = s det(N) for
    N the leading n x n block and s the sign of the row swaps, and the
    block ends as D I; D is 0 when N is singular, and the rows are then
    left part way.
    """
    n = len(a)
    prev, sign = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0, sign
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
    return prev, sign


def adjugate(m: Matrix) -> Matrix:
    """Adjugate (transposed cofactor matrix): m * adj(m) = det(m) * I.

    Every entry ring expands all cofactors through one ``_shared_minors``,
    so each minor is computed once.  A symmetric m has a symmetric
    adjugate, so only the cofactors on and above the diagonal are
    computed and mirrored: n(n+1)/2 of the n^2.
    """
    rows, cols = shape(m)
    if rows != cols:
        raise StructuralError("adjugate of a non-square matrix")
    if rows == 1:
        one = m[0][0] ** 0 if hasattr(m[0][0], "__pow__") else Fraction(1)
        return [[one]]
    full = tuple(range(rows))
    minor = _shared_minors(m)
    symmetric = is_symmetric(m)
    out = zeros(rows, cols)
    for i in range(rows):
        for j in range(i if symmetric else 0, cols):
            cof = minor(full[:i] + full[i + 1 :], full[:j] + full[j + 1 :])
            if (i + j) % 2 == 1:
                cof = -cof
            out[j][i] = cof
            if symmetric:
                out[i][j] = cof
    return out


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of an exact m (``is_exact``) by fraction-free
    Gauss-Jordan elimination.

    m is written as N / d with N an integer matrix (``_numerators``), and
    ``_bareiss`` on [N | I] ends at [D I | D N^-1] with D = +-det(N), so
    m^-1 = d (D N^-1) / D and each output entry is one Fraction.
    """
    rows, cols = shape(m)
    if rows != cols:
        raise StructuralError("inverse of a non-square matrix")
    nums, d = _numerators(m)
    a = [row + [int(i == j) for j in range(rows)] for i, row in enumerate(nums)]
    pivot, _ = _bareiss(a)
    if not pivot:
        raise DomainError("matrix is singular")
    return [[Fraction(d * x, pivot) for x in row[rows:]] for row in a]


SparseRow = dict[int, Fraction]


class SparseRREF:
    """Incremental reduced row echelon form with a custom column order.

    Rows are added one at a time; each is reduced against the existing
    pivots, and if nonzero becomes a new pivot row on its smallest column
    under ``colkey`` (then back-substituted into older rows so the basis
    stays fully reduced).  ``rank`` is the number of pivot rows.
    """

    def __init__(self, colkey: Callable[[int], object] | None = None):
        self.colkey = colkey if colkey is not None else (lambda c: c)
        self.pivot_rows: dict[int, SparseRow] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce_vector(self, row: SparseRow) -> SparseRow:
        """Return ``row`` reduced modulo the current row space.

        Pivot rows are kept mutually interreduced, so each stored row
        touches no pivot column except its own and a single pass over the
        input's pivot columns is a complete reduction.
        """
        out = dict(row)
        for col in sorted((c for c in row if c in self.pivot_rows), key=self.colkey):
            coeff = out.get(col)
            if not coeff:
                continue
            for c, v in self.pivot_rows[col].items():
                new = out.get(c, Fraction(0)) - coeff * v
                if new == 0:
                    out.pop(c, None)
                else:
                    out[c] = new
        return {c: v for c, v in out.items() if v != 0}

    def add_row(self, row: SparseRow) -> int | None:
        """Insert a row; return its pivot column, or None if dependent."""
        reduced = self.reduce_vector(row)
        if not reduced:
            return None
        col = min(reduced, key=self.colkey)
        scale = reduced[col]
        new_row = {c: v / scale for c, v in reduced.items()}
        # back-substitute into existing pivot rows
        for pcol, prow in self.pivot_rows.items():
            coeff = prow.get(col)
            if coeff:
                for c, v in new_row.items():
                    val = prow.get(c, Fraction(0)) - coeff * v
                    if val == 0:
                        prow.pop(c, None)
                    else:
                        prow[c] = val
        self.pivot_rows[col] = new_row
        return col


def sparse_rank(rows) -> int:
    rref = SparseRREF()
    for row in rows:
        rref.add_row(row)
    return rref.rank


def rational_rank(m: Matrix) -> int:
    rows, cols = shape(m)
    sparse_rows = (
        {j: Fraction(v) for j, v in enumerate(row) if v != 0} for row in m
    )
    return sparse_rank(sparse_rows)


def rational_kernel(m: Matrix) -> list[list[Fraction]]:
    """Exact basis of the right null space of a rational matrix.

    rank + len(kernel) always equals the number of columns.
    """
    rows, cols = shape(m)
    rref = SparseRREF()
    for row in m:
        rref.add_row({j: Fraction(v) for j, v in enumerate(row) if v != 0})
    pivots = rref.pivot_rows
    free_cols = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for pcol, prow in pivots.items():
            coeff = prow.get(fc)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
    return basis


