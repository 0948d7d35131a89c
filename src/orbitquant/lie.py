"""The Lie algebra of sym(n) x| GL+(n) inside sp(n).

The algebra is spanned by block matrices (a  b; 0  -a^t) with a running
over the elementary gl(n) matrices and b over an unnormalized basis of
sym(n) (E_ii on the diagonal, E_ij + E_ji off it), so all structure
constants are integers.

The dual space is realized as the complementary block shape
(a  0; c  -a^t) via the trace form tr(AB), which is nondegenerate on the
product of the two shapes.  Coordinate functions on the dual are the
pairings against the basis itself: x_i(p) = tr(p X_i).  With that choice
the Lie-Poisson bracket of two coordinates is literally the structure
constant expansion, with no normalization factors.  The conversion
between coordinates and raw matrix entries of a dual point lives in
exactly one place, ``DualCoordinates``, for numbers and polynomials
alike, and both block shapes are assembled by ``linalg.block``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg as la
from .errors import StructuralError
from .poly import MultiPoly, sum_of_products

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def _elementary(n: int, i: int, j: int) -> la.Matrix:
    m = la.zeros(n, n)
    m[i][j] = ONE
    return m


def _sym_basis_matrix(n: int, i: int, j: int) -> la.Matrix:
    m = la.zeros(n, n)
    if i == j:
        m[i][i] = ONE
    else:
        m[i][j] = ONE
        m[j][i] = ONE
    return m


def algebra_block(a: la.Matrix, b: la.Matrix) -> la.Matrix:
    """Embed (a, b) as the 2n x 2n block matrix (a  b; 0  -a^t)."""
    return la.block(a, b, la.zeros(len(a), len(a)), la.mat_neg(la.transpose(a)))


def dual_block(c: la.Matrix, a: la.Matrix) -> la.Matrix:
    """Embed a dual point (c, a) as the block matrix (a  0; c  -a^t)."""
    return la.block(a, la.zeros(len(a), len(a)), c, la.mat_neg(la.transpose(a)))


def standard_symplectic_form(n: int) -> la.Matrix:
    """The block matrix (0  I; -I  0)."""
    return la.block(la.zeros(n, n), la.identity(n), la.mat_neg(la.identity(n)), la.zeros(n, n))


def trace_pairing(a: la.Matrix, b: la.Matrix) -> Fraction:
    """tr(AB) for two equally sized square matrices, exactly."""
    ra, ca = la.shape(a)
    rb, cb = la.shape(b)
    if (ra, ca) != (rb, cb) or ra != ca:
        raise StructuralError("trace pairing needs equally sized square matrices")
    total = ZERO
    for i in range(ra):
        for k in range(ca):
            total += a[i][k] * b[k][i]
    return total


@dataclass(frozen=True)
class LieBasis:
    """Basis of the algebra: gl(n) letters first, then sym(n) letters.

    names[i] is 'a{r}{s}' for the gl part and 'b{r}{s}' (r <= s) for the
    sym part; kinds[i] records ('a', r, s) or ('b', r, s) with 0-based
    indices.  elements[i] is the 2n x 2n block matrix.
    """

    n: int
    names: tuple[str, ...]
    kinds: tuple[tuple[str, int, int], ...]
    elements: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.names)

    def element(self, i: int) -> la.Matrix:
        return [list(row) for row in self.elements[i]]

    def gl_part(self, i: int) -> la.Matrix:
        """The a-block of basis element i."""
        kind, r, s = self.kinds[i]
        return _elementary(self.n, r, s) if kind == "a" else la.zeros(self.n, self.n)

    def sym_part(self, i: int) -> la.Matrix:
        """The b-block of basis element i."""
        kind, r, s = self.kinds[i]
        return _sym_basis_matrix(self.n, r, s) if kind == "b" else la.zeros(self.n, self.n)

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    @cached_property
    def letter_at(self) -> dict[tuple[int, int], int]:
        """Block position -> letter index: a{rs} reads entry (r, s), b{rs}
        entry (r, n + s)."""
        return {
            (r, s if kind == "a" else self.n + s): idx
            for idx, (kind, r, s) in enumerate(self.kinds)
        }


class StructureConstants:
    """Sparse structure constants c_ij^k with [X_i, X_j] = sum c_ij^k X_k."""

    def __init__(self, dim: int, table: dict[tuple[int, int], dict[int, Fraction]]):
        self.dim = dim
        self._table = table  # keys (i, j) with i < j only

    def bracket_coeffs(self, i: int, j: int) -> dict[int, Fraction]:
        if i == j:
            return {}
        if i < j:
            return self._table.get((i, j), {})
        flipped = self._table.get((j, i), {})
        return {k: -v for k, v in flipped.items()}

    def entries(self):
        """Iterate (i, j, k, value) over stored i < j entries."""
        for (i, j), coeffs in self._table.items():
            for k, v in coeffs.items():
                yield i, j, k, v

    def to_json(self) -> list[dict]:
        out = []
        for i, j, k, v in sorted(self.entries()):
            out.append({"i": i, "j": j, "k": k, "value": str(v)})
        return out


SparseMatrix = dict[tuple[int, int], Fraction]


def _nonzero(m: SparseMatrix) -> SparseMatrix:
    return {rc: v for rc, v in m.items() if v != 0}


def _sparse(m: la.Matrix) -> SparseMatrix:
    """The nonzero entries of a dense matrix, keyed by (row, col)."""
    return _nonzero({(r, c): v for r, row in enumerate(m) for c, v in enumerate(row)})


def _sparse_commutator(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    """XY - YX on sparse matrices, without zero entries; int entries stay ints."""
    out: SparseMatrix = {}
    for (r, k), v in x.items():
        for (k2, c), w in y.items():
            if k == k2:  # X_rk Y_kc enters XY at (r, c)
                out[r, c] = out.get((r, c), 0) + v * w
            if c == r:  # Y_k2,r X_rk enters YX at (k2, k)
                out[k2, k] = out.get((k2, k), 0) - w * v
    return _nonzero(out)


def _decompose_in_basis(
    basis: LieBasis, sparse_elements: Sequence[SparseMatrix], m: SparseMatrix
) -> dict[int, Fraction]:
    """Write a sparse block matrix of the algebra shape in the basis, exactly.

    The block structure makes the solve a direct entry read-off: the
    a-block entry (r, s) is the coefficient of letter a{rs}, and the
    b-block entry (r, s), r <= s, the coefficient of letter b{rs}; each
    nonzero entry of ``m`` finds its letter in ``basis.letter_at``.  The
    sparse reconstruction from ``sparse_elements`` (the basis elements'
    nonzero entries, as ``_sparse`` gives them) is compared entry for
    entry, so a non-member input cannot slip through.  Generic over int
    and Fraction entries; the coefficients come in letter order.
    """
    letter_at = basis.letter_at
    coeffs = dict(sorted((letter_at[rc], v) for rc, v in m.items() if rc in letter_at and v != 0))
    recon: SparseMatrix = {}
    for idx, v in coeffs.items():
        for rc, w in sparse_elements[idx].items():
            recon[rc] = recon.get(rc, 0) + v * w
    if _nonzero(recon) != _nonzero(m):
        raise StructuralError("matrix does not lie in the spanned subalgebra")
    return coeffs


def build_lie_basis(n: int) -> tuple[LieBasis, StructureConstants]:
    """Construct the block basis and its exact structure constants.

    Every basis element has at most two nonzero entries, each +-1, so
    the commutators of all pairs, their read-off in the basis and the
    closure check run on sparse int matrices; only the stored constants
    are Fractions.  Closure of the block shape is verified on every
    commutator.
    """
    if n < 1:
        raise StructuralError("n must be at least 1")
    names: list[str] = []
    kinds: list[tuple[str, int, int]] = []
    elements: list[la.Matrix] = []
    for i in range(n):
        for j in range(n):
            names.append(f"a{i + 1}{j + 1}")
            kinds.append(("a", i, j))
            elements.append(algebra_block(_elementary(n, i, j), la.zeros(n, n)))
    for i in range(n):
        for j in range(i, n):
            names.append(f"b{i + 1}{j + 1}")
            kinds.append(("b", i, j))
            elements.append(algebra_block(la.zeros(n, n), _sym_basis_matrix(n, i, j)))
    basis = LieBasis(
        n,
        tuple(names),
        tuple(kinds),
        tuple(tuple(tuple(row) for row in m) for m in elements),
    )
    assert basis.dim == n * n + n * (n + 1) // 2

    sparse = [{rc: int(v) for rc, v in _sparse(m).items()} for m in elements]
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(basis.dim):
        for j in range(i + 1, basis.dim):
            comm = _sparse_commutator(sparse[i], sparse[j])
            coeffs = _decompose_in_basis(basis, sparse, comm)
            if coeffs:
                table[(i, j)] = {k: Fraction(v) for k, v in coeffs.items()}
    return basis, StructureConstants(basis.dim, table)


@dataclass(frozen=True)
class DualCoordinates:
    """Linear coordinates on the dual space and entry conversions.

    Coordinate i of a dual point p is tr(p X_i).  In terms of the raw
    blocks (c, a) of p this evaluates to 2 a[s][r] for letter a{rs}, to
    c[r][r] for letter b{rr} and to 2 c[r][s] for letter b{rs}, r < s.
    ``coords_of_point`` reads those factors off the basis elements and
    ``point_of_coords`` inverts them; both work over any entry ring, and
    the symbolic entries (``entry_polynomials``) and the coordinates of
    the vector fields go through them, so the factors are fixed here
    once and nowhere else.
    """

    basis: LieBasis
    variables: tuple[str, ...] = field(init=False, default=())
    # the nonzero entries of each basis element, for coords_of_point
    sparse_elements: tuple[SparseMatrix, ...] = field(
        init=False, default=(), compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "variables", tuple("x" + s for s in self.basis.names)
        )
        object.__setattr__(
            self,
            "sparse_elements",
            tuple(_sparse(self.basis.element(i)) for i in range(self.basis.dim)),
        )

    def coords_of_point(self, c: la.Matrix, a: la.Matrix) -> list:
        """tr(p X_i) for each letter, summed over X_i's nonzero entries only.

        Generic over the entry ring: Fractions for a point, linear
        polynomials for ``entry_polynomials`` moved by a vector field.
        """
        p = dual_block(c, a)
        return [
            sum((p[col][row] * v for (row, col), v in entries.items()), ZERO)
            for entries in self.sparse_elements
        ]

    def point_of_coords(self, coords: Sequence) -> tuple[la.Matrix, la.Matrix]:
        """The blocks (c, a) of the dual point with the given coordinates.

        Generic over the entry ring: int or Fraction coordinates give
        Fraction entries, polynomial coordinates polynomial entries.
        """
        n = self.basis.n
        if len(coords) != self.basis.dim:
            raise StructuralError("wrong coordinate vector length")
        c = la.zeros(n, n)
        a = la.zeros(n, n)
        for v, (kind, r, s) in zip(coords, self.basis.kinds):
            if kind == "a":
                a[s][r] = v * HALF
            elif r == s:
                c[r][r] = v * ONE
            else:
                c[r][s] = c[s][r] = v * HALF
        return c, a

    def entry_polynomials(self) -> tuple[list[list[MultiPoly]], list[list[MultiPoly]]]:
        """The raw entries (c, a) of a dual point as linear polynomials:
        ``point_of_coords`` of the coordinate variables."""
        return self.point_of_coords(
            [MultiPoly.variable(self.variables, i) for i in range(self.basis.dim)]
        )

    def pairing_matrix(self) -> la.Matrix:
        """Pairing of the algebra basis against the mirrored dual basis.

        The dual-shape basis uses the same letter scheme with the c block
        in place of b.  Nondegeneracy of the trace form on the two shapes
        is the invertibility of this matrix.
        """
        n = self.basis.n
        dual_elems = []
        for kind, r, s in self.basis.kinds:
            if kind == "a":
                dual_elems.append(dual_block(la.zeros(n, n), _elementary(n, r, s)))
            else:
                dual_elems.append(dual_block(_sym_basis_matrix(n, r, s), la.zeros(n, n)))
        return [
            [trace_pairing(self.basis.element(i), d) for d in dual_elems]
            for i in range(self.basis.dim)
        ]


def lie_poisson_bracket(
    f: MultiPoly, g: MultiPoly, sc: StructureConstants
) -> MultiPoly:
    """Lie-Poisson bracket {f, g} = sum c_ij^k x_k (df/dx_i)(dg/dx_j).

    Bilinear, antisymmetric, a derivation in each slot, and satisfies the
    Jacobi identity because the structure constants do.  On coordinate
    functions it returns the bracket's structure constant expansion, which
    pins the sign convention used by the star product's first-order term.
    """
    if f.variables != g.variables:
        raise StructuralError("bracket operands live in different variable lists")
    if len(f.variables) != sc.dim:
        raise StructuralError("variable count does not match the algebra dimension")
    variables = f.variables
    df = [f.diff(i) for i in range(sc.dim)]
    dg = [g.diff(j) for j in range(sc.dim)]
    pairs = []
    for i, j, k, value in sc.entries():
        for a, b, c in ((i, j, value), (j, i, -value)):
            if c and df[a].flat and dg[b].flat:
                # c x_k df/dx_a: shift each exponent by x_k, scale each numerator by c
                num = c.numerator
                shifted = {
                    e[:k] + (e[k] + 1,) + e[k + 1 :]: v * num for e, v in df[a].flat.items()
                }
                den = df[a].den * c.denominator
                pairs.append((MultiPoly._trusted(variables, shifted, den), dg[b]))
    return sum_of_products(variables, pairs)


def basis_to_json(basis: LieBasis, sc: StructureConstants) -> dict:
    """Exportable description: names, block matrices, sparse constants."""
    from .jsonio import matrix_to_json

    return {
        "n": basis.n,
        "dim": basis.dim,
        "names": list(basis.names),
        "elements": [matrix_to_json(basis.element(i)) for i in range(basis.dim)],
        "structure_constants": sc.to_json(),
    }
