"""The group sym(n) x| GL+(n): multiplication, actions, orbit normal form.

Group elements are pairs (x, g) with x symmetric and det(g) > 0, embedded
in Sp(n) as the block matrix (g  x*gcheck; 0  gcheck) with
gcheck = (g^t)^{-1}.  The multiplication implemented here is the one the
embedding induces,

    (x1, g1)(x2, g2) = (x1 + g1 x2 g1^t, g1 g2),

which is associative and makes the embedding a homomorphism; the adjoint
and coadjoint formulas below are its derivatives and are verified against
block-matrix conjugation in the test suite.  The infinitesimal coadjoint
action is written once, in ``ad_star_blocks``, over any entry ring: the
numeric ``ad_star`` applies it to numbers, and the tests apply it to
symbolic entries to check the Lie-Poisson bracket that the invariant
certificate of ``invariants`` reads.

Group elements, dual points and algebra elements refuse a block with an
entry that is not an int or a Fraction (StructuralError), so each action
has one exact path: the group law and the embedding multiply over integer
numerators (``linalg.mat_mul``), and in the adjoint and coadjoint actions
and the trace pairing every product and sum of one output does, with one
Fraction per output entry.  A group element computes g^{-1} and gcheck
once, on first use, and keeps them (``GroupElement.inverse`` and
``.gcheck``); the actions, the group inverse and the embedding read them,
so acting on many points or basis elements inverts g once.  The trace
pairing reads the algebra element's nonzero entries.  Only the orbit
normal form uses floating point (Cholesky and a real Schur
decomposition), with explicit residual and regularity tolerances; its
moves, witness and transport stay inside ``normal_form``, which alone
imports numpy and scipy, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from typing import NamedTuple

from . import linalg as la
from .errors import DomainError, StructuralError
from .jsonio import required, square_matrix
from .lie import DualCoordinates, LieBasis


# the relative gap between block parameters, and from zero, of a regular point
REGULARITY_GAP = 1e-6


def _check_blocks(sym: la.Matrix, other: la.Matrix, first: str, second: str):
    """The entry check of a pair of blocks: both of int/Fraction entries,
    square and of one size, the first symmetric."""
    if not la.is_exact(sym, other):
        raise StructuralError(f"{first} and {second} must have int or Fraction entries")
    rows, cols = la.shape(sym)
    if rows != cols:
        raise StructuralError(f"{first} block must be square")
    if not la.is_symmetric(sym):
        raise DomainError(f"{first} block must be symmetric")
    if la.shape(other) != (rows, cols):
        raise StructuralError(f"{first} and {second} must have the same size")


@dataclass(frozen=True)
class GroupElement:
    """A pair (x, g) of exact blocks, x symmetric, det(g) > 0.

    ``inverse`` and ``gcheck`` are kept once computed, so x, g and the
    matrices these return are read-only.
    """

    x: la.Matrix
    g: la.Matrix

    def __post_init__(self):
        _check_blocks(self.x, self.g, "x", "g")
        if not la.det(self.g) > 0:
            # the value is left out: an exact det can have too many digits to write
            raise DomainError("det(g) must be positive")

    @classmethod
    def from_json(cls, data) -> "GroupElement":
        """From ``{"x": ..., "g": ...}``, two square blocks of exact rationals."""
        return cls(square_matrix(required(data, "x"), "x"), square_matrix(required(data, "g"), "g"))

    @property
    def n(self) -> int:
        return len(self.g)

    # computed on first use and kept in the instance dict, outside the
    # dataclass fields, so equality still compares (x, g) only
    @cached_property
    def inverse(self) -> la.Matrix:
        """g^{-1}."""
        return la.inverse(self.g)

    @cached_property
    def gcheck(self) -> la.Matrix:
        """The contragredient (g^t)^{-1}."""
        return la.inverse(la.transpose(self.g))


@dataclass(frozen=True)
class DualPoint:
    """A dual-space point (c, a) of exact blocks, c symmetric."""

    c: la.Matrix
    a: la.Matrix

    def __post_init__(self):
        _check_blocks(self.c, self.a, "c", "a")

    @classmethod
    def from_json(cls, data, n: int | None = None) -> "DualPoint":
        """From ``{"c": ..., "a": ...}``, two square blocks of exact rationals,
        n x n when ``n`` is given."""
        return cls(
            square_matrix(required(data, "c"), "c", n), square_matrix(required(data, "a"), "a", n)
        )

    @property
    def n(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class LieElement:
    """An algebra element (b, a) of exact blocks, b symmetric (block (a  b; 0  -a^t))."""

    b: la.Matrix
    a: la.Matrix

    def __post_init__(self):
        _check_blocks(self.b, self.a, "b", "a")

    @classmethod
    def from_json(cls, data) -> "LieElement":
        """From ``{"b": ..., "a": ...}``, two square blocks of exact rationals."""
        return cls(square_matrix(required(data, "b"), "b"), square_matrix(required(data, "a"), "a"))


def group_multiply(p: GroupElement, q: GroupElement) -> GroupElement:
    """(x1, g1)(x2, g2) = (x1 + g1 x2 g1^t, g1 g2)."""
    if p.n != q.n:
        raise StructuralError("group elements of different sizes")
    x = la.mat_add(p.x, la.mat_mul(la.mat_mul(p.g, q.x), la.transpose(p.g)))
    return GroupElement(x, la.mat_mul(p.g, q.g))


def group_inverse(p: GroupElement) -> GroupElement:
    ginv = p.inverse
    x = la.mat_neg(la.mat_mul(la.mat_mul(ginv, p.x), la.transpose(ginv)))
    # a copy: the new element's g must not alias p's kept inverse
    return GroupElement(x, [list(row) for row in ginv])


def embed_sp(p: GroupElement) -> la.Matrix:
    """The symplectic block matrix (g  x*gcheck; 0  gcheck)."""
    gc = p.gcheck
    return la.block(p.g, la.mat_mul(p.x, gc), la.zeros(p.n, p.n), gc)


def adjoint(p: GroupElement, elt: LieElement) -> LieElement:
    """Ad(x,g)(b,a) = (g b g^t - {g a g^-1 x + (g a g^-1 x)^t}, g a g^-1).

    Every product and sum runs over integer numerators, with one Fraction
    per output entry.
    """
    _check_sizes(p, elt.a)
    g, x, ginv = p.g, p.x, p.inverse
    (gn, dg), (gi, dgi), (an, da), (bn, db), (xn, dx) = map(
        la._numerators, (g, ginv, elt.a, elt.b, x)
    )
    # a' = a_num / d_a, g a g^-1 x = m / (d_a dx), g b g^t = b_num / d_b
    a_num = _int_mul(gn, an, gi)
    m = _int_mul(a_num, xn)
    b_num = _int_mul(gn, bn, la.transpose(gn))
    d_a, d_b = dg * da * dgi, dg * dg * db
    d_m = d_a * dx
    n = len(g)
    b_new = [
        [Fraction(b_num[i][j] * d_m - (m[i][j] + m[j][i]) * d_b, d_b * d_m) for j in range(n)]
        for i in range(n)
    ]
    return LieElement(b_new, [[Fraction(v, d_a) for v in row] for row in a_num])


def coadjoint(p: GroupElement, pt: DualPoint) -> DualPoint:
    """Ad*(x,g)(c,a) = (gcheck c g^-1, g a g^-1 + x gcheck c g^-1).

    Every product and sum runs over integer numerators, with one Fraction
    per output entry.
    """
    _check_sizes(p, pt.a)
    g, x, ginv, gc = p.g, p.x, p.inverse, p.gcheck
    (gn, dg), (gi, dgi), (gcn, dgc), (cn, dc), (an, da), (xn, dx) = map(
        la._numerators, (g, ginv, gc, pt.c, pt.a, x)
    )
    # c' = c_num / d_c, g a g^-1 = a_num / d_a, x c' = xc / (dx d_c)
    c_num = _int_mul(gcn, cn, gi)
    a_num = _int_mul(gn, an, gi)
    xc = _int_mul(xn, c_num)
    d_c, d_a = dgc * dc * dgi, dg * da * dgi
    d_xc = dx * d_c
    c_new = [[Fraction(v, d_c) for v in row] for row in c_num]
    a_new = [
        [Fraction(u * d_xc + v * d_a, d_a * d_xc) for u, v in zip(ra, rx)]
        for ra, rx in zip(a_num, xc)
    ]
    return DualPoint(c_new, a_new)


def _check_sizes(p: GroupElement, block: la.Matrix):
    """StructuralError unless the square block is of the group element's size."""
    if len(block) != p.n:
        raise StructuralError(f"a group element of size {p.n} acts on a block of size {len(block)}")


def _int_mul(*factors: la.Matrix) -> la.Matrix:
    """The product of int matrices, left to right."""
    return reduce(la._int_mat_mul, factors)


def ad_star_blocks(alpha: la.Matrix, beta: la.Matrix, c: la.Matrix, a: la.Matrix):
    """The blocks of ad*_(beta, alpha)(c, a), generic over the entry ring.

    Differentiating Ad* along the curves (t*beta, I) and (0, I + t*alpha)
    gives (c, a) -> (-alpha^t c - c alpha, alpha a - a alpha + beta c).
    On the symbolic entries of ``DualCoordinates.entry_polynomials`` it
    gives the vector field of letter X_i, with coordinates -{x_i, x_j}.
    """
    c_dot = la.mat_neg(la.mat_add(la.mat_mul(la.transpose(alpha), c), la.mat_mul(c, alpha)))
    a_dot = la.mat_add(la.mat_sub(la.mat_mul(alpha, a), la.mat_mul(a, alpha)), la.mat_mul(beta, c))
    return c_dot, a_dot


def ad_star(elt: LieElement, pt: DualPoint) -> DualPoint:
    """Derivative of the coadjoint action along the algebra element (b, a).

    The blocks are ``ad_star_blocks``; the pairing duality
    <ad*_X p, Y> = -<p, [X, Y]> is asserted exactly in tests.
    """
    return DualPoint(*ad_star_blocks(elt.a, elt.b, pt.c, pt.a))


def pair_dual_algebra(pt: DualPoint, elt: LieElement) -> Fraction:
    """Trace pairing of a dual point against an algebra element.

    tr(dual_block(c, a) * algebra_block(alpha, b)) = 2 tr(a alpha) + tr(c b),
    summed over the nonzero entries of alpha and b only.
    """
    a, c = pt.a, pt.c
    gl = [(a[j][i], v) for i, row in enumerate(elt.a) for j, v in enumerate(row) if v]
    sym = [(c[j][i], v) for i, row in enumerate(elt.b) for j, v in enumerate(row) if v]
    # one Fraction over the lcm of the products' denominators
    den = lcm(*(x.denominator * v.denominator for x, v in gl + sym))
    total = sum(
        weight * x.numerator * v.numerator * (den // (x.denominator * v.denominator))
        for weight, pairs in ((2, gl), (1, sym))
        for x, v in pairs
    )
    return Fraction(total, den)


def basis_lie_element(basis: LieBasis, i: int) -> LieElement:
    return LieElement(basis.sym_part(i), basis.gl_part(i))


def orbit_dimension(pt: DualPoint, basis: LieBasis) -> int:
    """Exact rank of the infinitesimal coadjoint action at ``pt``.

    Rows are the images ad*_{X_i}(pt) in trace-pairing coordinates; the
    rank equals the dimension of the coadjoint orbit through the point.
    """
    if pt.n != basis.n:
        raise StructuralError("point size does not match the basis")
    coords = DualCoordinates(basis)
    images = (ad_star(basis_lie_element(basis, i), pt) for i in range(basis.dim))
    return la.rational_rank([coords.coords_of_point(im.c, im.a) for im in images])


def is_positive_definite(c: la.Matrix) -> bool:
    """Exact Sylvester criterion: c is symmetric and its leading principal
    minors are positive."""
    return la.is_symmetric(c) and all(
        la.det([row[:k] for row in c[:k]]) > 0 for k in range(1, len(c) + 1)
    )


class Witness(NamedTuple):
    """A float move (x, g): not a ``GroupElement``, which is exact."""

    x: list[list[float]]
    g: list[list[float]]


@dataclass(frozen=True)
class NormalForm:
    """Canonical orbit representative (I, H) and the move that reaches it.

    H is skew with 2x2 blocks (0  l_i; -l_i  0) down the diagonal, sorted
    by decreasing |l_i|, plus a zero row/column when n is odd.  For odd n
    every l_i is nonnegative.  For even n the last parameter carries the
    sign of the Pfaffian of the skew part: no positive-determinant move
    can flip it, and the sign is itself an orbit invariant.  ``witness``
    carries the input to (I, H) up to ``residual``, the largest entry error.
    """

    lambdas: tuple[float, ...]
    H: tuple[tuple[float, ...], ...]
    witness: Witness
    residual: float
    regular: bool

    @property
    def n(self) -> int:
        return len(self.H)

    @property
    def k(self) -> int:
        return len(self.lambdas)


def lambda_block_matrix(n: int, lambdas) -> list[list]:
    """Assemble the skew block matrix for given block parameters."""
    k = n // 2
    if len(lambdas) != k:
        raise StructuralError(f"expected {k} block parameters, got {len(lambdas)}")
    zero = Fraction(0) if la.is_exact([lambdas]) else 0.0
    H = [[zero for _ in range(n)] for _ in range(n)]
    for i, lam in enumerate(lambdas):
        H[2 * i][2 * i + 1] = lam
        H[2 * i + 1][2 * i] = -lam
    return H


def normal_form(pt: DualPoint) -> NormalForm:
    """Reduce (c, a) to (I, H) by a composition of three coadjoint moves.

    1. (0, g) with g^t g = c (Cholesky) sends c to the identity.
    2. (-sym(a'), I) removes the symmetric part of the transported a.
    3. (0, r) with r special orthogonal block-diagonalizes the skew part
       (real Schur form), sorts blocks by decreasing |l| and normalizes
       signs into the (0  l; -l  0) convention.

    Their composition by the group law, (0, r)(x, I)(0, g) = (r x r^t, r g)
    in floats, is the witness; the residual of its coadjoint transport of
    the input is stored.  Raises DomainError when c is not positive
    definite, and when the point is out of floating-point range: an entry
    or a move that is not finite, or a c whose float image has no Cholesky
    factor.
    """
    import numpy as np
    import scipy.linalg

    n = pt.n
    try:
        c = np.asarray([[float(v) for v in row] for row in pt.c])
        a = np.asarray([[float(v) for v in row] for row in pt.a])
    except OverflowError:
        raise DomainError("the point has an entry out of floating-point range") from None
    if not is_positive_definite(pt.c):
        raise DomainError("c block must be positive definite")

    # move 1: make c the identity
    try:
        L = np.linalg.cholesky(c)  # c = L L^t
    except np.linalg.LinAlgError:
        raise DomainError("c block has no float Cholesky factor") from None
    g1 = L.T  # then g1^t g1 = c
    a1 = g1 @ a @ np.linalg.inv(g1)

    # move 2: remove the symmetric part
    x2 = -(a1 + a1.T) / 2.0
    s = (a1 - a1.T) / 2.0
    if not (np.isfinite(x2).all() and np.isfinite(s).all()):
        raise DomainError("the point's normal form is out of floating-point range")

    # move 3: special orthogonal block diagonalization of the skew part
    T, Z = scipy.linalg.schur(s, output="real")
    scale = max(1.0, float(np.abs(s).max()))
    pair_tol = 1e-12 * scale
    blocks: list[tuple[int, float]] = []
    zeros_at: list[int] = []
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i, i + 1]) > pair_tol:
            blocks.append((i, float(T[i, i + 1])))
            i += 2
        else:
            zeros_at.append(i)
            i += 1
    blocks.sort(key=lambda bm: -abs(bm[1]))

    # W maps Schur coordinates to target coordinates: sorted blocks first
    # (swapped in-block when the parameter is negative), zeros trailing
    W = np.zeros((n, n))
    lambdas: list[float] = []
    row = 0
    for start, mu in blocks:
        if mu >= 0:
            W[row, start] = 1.0
            W[row + 1, start + 1] = 1.0
        else:
            W[row, start + 1] = 1.0
            W[row + 1, start] = 1.0
        lambdas.append(abs(mu))
        row += 2
    for z in zeros_at:
        W[row, z] = 1.0
        row += 1
    # unpaired zero coordinates combine into zero blocks of H
    while len(lambdas) < n // 2:
        lambdas.append(0.0)

    r = W @ Z.T
    if np.linalg.det(r) < 0:
        if zeros_at:
            # the trailing target coordinate belongs to a zero block, so
            # flipping it fixes the determinant without touching H
            r[n - 1, :] *= -1.0
        else:
            # flip the last block; the parameter sign is an invariant
            k = len(lambdas)
            r[[2 * k - 2, 2 * k - 1], :] = r[[2 * k - 1, 2 * k - 2], :]
            lambdas[-1] = -lambdas[-1]

    # the witness, and Ad*(x,g)(c,a) = (gcheck c g^-1, g a g^-1 + x gcheck c g^-1)
    rows = r.tolist()
    rx = la.mat_mul(la.mat_mul(rows, x2.tolist()), la.transpose(rows))
    x = [[v + 0.0 for v in row] for row in rx]  # each zero as 0.0, not -0.0
    g = la.mat_mul(rows, g1.tolist())
    ginv = np.linalg.inv(np.asarray(g)).tolist()
    gcheck = np.linalg.inv(np.asarray(g).T).tolist()
    c_moved = la.mat_mul(la.mat_mul(gcheck, c.tolist()), ginv)
    a_moved = la.mat_add(la.mat_mul(la.mat_mul(g, a.tolist()), ginv), la.mat_mul(x, c_moved))
    H = lambda_block_matrix(n, lambdas)
    residual = max(
        float(np.abs(np.asarray(c_moved) - np.eye(n)).max()),
        float(np.abs(np.asarray(a_moved) - np.asarray(H, dtype=float)).max()),
    )

    abs_sorted = [abs(l) for l in lambdas]
    regular = bool(lambdas) and min(abs_sorted) > REGULARITY_GAP * scale
    for u, v in zip(abs_sorted, abs_sorted[1:]):
        if u - v <= REGULARITY_GAP * scale:
            regular = False
    if n == 1:
        regular = True

    return NormalForm(
        lambdas=tuple(lambdas),
        H=tuple(tuple(row) for row in H),
        witness=Witness(x, g),
        residual=residual,
        regular=regular,
    )
