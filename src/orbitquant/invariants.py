"""Invariant functions, semiinvariant polynomials and orbit ideals.

The coadjoint action admits no nonconstant invariant polynomials, but it
has semiinvariants: polynomials rescaled by a power of det(g).  With
S = c a c^-1 - a^t the trace functions tr(S^(2i)) / 2^(2i) are invariant
rational functions, and clearing denominators with the adjugate gives the
polynomial semiinvariants

    h_i = tr(T^(2i)),   T = c a adj(c) - det(c) a^t,

of weight -4i.  For even n there is additionally a Pfaffian semiinvariant
P = Pf(K), K = (a adj(c) - adj(c) a^t) / 2, of weight 1 - n, whose
square joins the trace family in cutting out regular orbits:

    trace type:    p_i = h_i - alpha_i det(c)^(2i)
    Pfaffian type: p_k = P^2 - alpha_k det(c)^(2k-1)

with alpha constants read off the orbit's normal form.  Neither T nor K
is formed for h_1 or P.  Both come from the skew matrix
N = c a - (c a)^t, whose entries have degree 2 where T's have degree
n + 1, through three polynomial identities (c symmetric, n = 2k):

    T   = N adj(c)                                         (c adj(c) = det(c) I)
    h_1 = 2 det(c) (det(c) tr(a^2) - tr((c a) (adj(c) a^t)))
    P   = det(c)^(k-1) Pf(N) / 2^k                (Pf(B M B^t) = det(B) Pf(M))

``skew_numerator`` gives N, ``cleared_trace_matrix`` T,
``trace_semiinvariant`` each h_i (h_1 by ``trace_square_semiinvariant``)
and ``pfaffian_semiinvariant`` P, each once over any entry ring: the
symbolic family and the values at a point call the same helpers, and T
is formed only for h_i with i >= 2.  A
degree-bounded certificate that invariant polynomials are constant is
obtained from the exact kernel of the infinitesimal action on each
graded piece; its equations are Lie-Poisson brackets {x_i, x^e} with the
coordinate functions, read from the one bracket table
(``StructureConstants.brackets``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from . import linalg as la
from .errors import CapacityError, DomainError, StructuralError
from .lie import DualCoordinates, build_lie_basis
from .orbits import DualPoint, NormalForm
from .poly import MultiPoly, monomials_up_to_degree, sum_of_products


def pfaffian(m: la.Matrix):
    """Pfaffian of an even-size skew-symmetric matrix, by row expansion.

    Exact and generic over the entry ring (Fractions or polynomials).
    Satisfies Pf(m)^2 = det(m); the 2x2 convention is Pf((0 l; -l 0)) = l.
    """
    rows, cols = la.shape(m)
    if rows != cols or rows % 2 != 0:
        raise DomainError("pfaffian requires an even-size square matrix")
    if not la.is_skew(m):
        raise DomainError("pfaffian requires a skew-symmetric matrix")
    return _pfaffian_rec(m)


def _pfaffian_rec(m: la.Matrix):
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 2:
        return m[0][1]
    total = None
    for j in range(1, n):
        entry = m[0][j]
        keep = [i for i in range(1, n) if i != j]
        minor = [[m[r][c] for c in keep] for r in keep]
        term = entry * _pfaffian_rec(minor)
        if j % 2 == 0:
            term = -term
        total = term if total is None else total + term
    return total


def invariant_trace_power(i: int, pt: DualPoint) -> Fraction:
    """The invariant f_i = tr((c a c^-1 - a^t)^(2i)) / 2^(2i), exactly.

    Constant along coadjoint orbits; at a normal form (I, H) it equals
    tr(H^(2i)) = 2 (-1)^i sum_j l_j^(2i).  Requires invertible c.  Since
    T = det(c) (c a c^-1 - a^t), f_i = h_i / (4^i det(c)^(2i)).
    """
    if i < 1:
        raise StructuralError("invariant index must be >= 1")
    d = la.det(pt.c)
    if d == 0:
        raise DomainError("c block must be invertible")
    return trace_semiinvariant_value(i, pt) / (Fraction(4) ** i * d ** (2 * i))


def pfaffian_invariant(pt: DualPoint) -> float:
    """Pf((a c^-1 - (a c^-1)^t)/2) * det(c)^(1/2) for even n (float).

    The square root makes this irrational in general, so the value is
    numeric; its sign distinguishes the two real orbits sharing the same
    trace invariants.  DomainError when det(c) or the Pfaffian is out of
    floating-point range.
    """
    import math

    if pt.n % 2 != 0:
        raise DomainError("the Pfaffian invariant exists only for even n")
    d = la.det(pt.c)
    if d <= 0:
        raise DomainError("c block must be positive definite")
    k = pt.n // 2
    p = pfaffian_semiinvariant_value(pt)
    try:
        value = float(p) / float(d) ** k * math.sqrt(float(d))
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError("the Pfaffian invariant is out of floating-point range")
    return value


def skew_numerator(c: la.Matrix, a: la.Matrix) -> la.Matrix:
    """N = c a - (c a)^t for the blocks (c, a), generic over the entry ring.

    For symmetric c, (c a)^t = a^t c, so N = (c a c^-1 - a^t) c: the skew
    numerator of S = c a c^-1 - a^t = N c^-1.  Its entries have degree 2.
    """
    ca = la.mat_mul(c, a)
    return la.mat_sub(ca, la.transpose(ca))


def cleared_trace_matrix(c: la.Matrix, a: la.Matrix, adj_c: la.Matrix) -> la.Matrix:
    """T = N adj(c), which is c a adj(c) - det(c) a^t since c adj(c) = det(c) I."""
    return la.mat_mul(skew_numerator(c, a), adj_c)


def _sum_of_pairs(pairs: list):
    """sum u v over the (u, v) pairs, generic over the entry ring; polynomial
    entries are summed in one ``sum_of_products`` call."""
    if isinstance(pairs[0][0], MultiPoly):
        return sum_of_products(pairs[0][0].variables, pairs)
    return sum(u * v for u, v in pairs)


def _trace_of_product(x: la.Matrix, y: la.Matrix):
    """tr(x y) = sum_rs x_rs y_sr, generic over the entry ring."""
    return _sum_of_pairs([(x[r][s], y[s][r]) for r in range(len(x)) for s in range(len(y))])


def trace_square_semiinvariant(c: la.Matrix, a: la.Matrix, adj_c: la.Matrix, det_c):
    """h_1 = tr(T^2) without forming T, generic over the entry ring.

    With X = c a adj(c), T = X - det(c) a^t, and adj(c) c = det(c) I gives
    X^2 = det(c) c a^2 adj(c), so tr(X^2) = det(c)^2 tr(a^2).  Expanding
    tr(T^2) = tr(X^2) - 2 det(c) tr(X a^t) + det(c)^2 tr(a^2), with
    tr(X a^t) = tr((c a) (adj(c) a^t)):

        h_1 = 2 det(c) (det(c) tr(a^2) - tr((c a) (adj(c) a^t))).
    """
    cross = _trace_of_product(la.mat_mul(c, a), la.mat_mul(adj_c, la.transpose(a)))
    return (det_c + det_c) * (det_c * _trace_of_product(a, a) - cross)


def pfaffian_semiinvariant(c: la.Matrix, a: la.Matrix, det_c):
    """P = Pf(K), K = (a adj(c) - (a adj(c))^t) / 2, without forming K.

    For symmetric c, a adj(c) - adj(c) a^t = det(c) c^-1 N c^-1, so
    K = (det(c)/2) c^-1 N c^-1, and Pf(B M B^t) = det(B) Pf(M) with
    B = c^-1 gives, for n = 2k,

        P = det(c)^(k-1) Pf(N) / 2^k,

    a polynomial identity, so it holds at singular c too.  Generic over
    the entry ring.
    """
    k = len(c) // 2
    return det_c ** (k - 1) * pfaffian(skew_numerator(c, a)) * Fraction(1, 2**k)


def trace_semiinvariant(i: int, c: la.Matrix, a: la.Matrix, adj_c: la.Matrix, det_c):
    """h_i = tr(T^(2i)), generic over the entry ring: h_1 by
    ``trace_square_semiinvariant``; beyond, with T = N adj(c) and H = T^i,
    tr(T^(2i)) = sum_rs H_rs H_sr, where the terms (r, s) and (s, r) are
    equal, so each r < s enters once with a doubled factor."""
    if i == 1:
        return trace_square_semiinvariant(c, a, adj_c, det_c)
    t = cleared_trace_matrix(c, a, adj_c)
    half, size = t, len(t)
    for _ in range(i - 1):
        half = la.mat_mul(half, t)
    pairs = [
        (half[r][s] + half[r][s] if r < s else half[r][r], half[s][r])
        for r in range(size)
        for s in range(r, size)
    ]
    return _sum_of_pairs(pairs)


def trace_semiinvariant_value(i: int, pt: DualPoint) -> Fraction:
    """h_i(pt), by ``trace_semiinvariant`` on the point's blocks."""
    return trace_semiinvariant(i, pt.c, pt.a, la.adjugate(pt.c), la.det(pt.c))


def pfaffian_semiinvariant_value(pt: DualPoint) -> Fraction:
    """P(pt) = Pf((a adj(c) - adj(c) a^t) / 2), by ``pfaffian_semiinvariant``."""
    return pfaffian_semiinvariant(pt.c, pt.a, la.det(pt.c))


@dataclass(frozen=True)
class SemiinvariantFamily:
    """The polynomial semiinvariants in dual coordinates, with weights.

    ``generators[m]`` transforms under the coadjoint action of (x, g) by
    the exact factor det(g)**weights[m].  ``kinds`` marks each generator
    as "trace" (h_i) or "pfaffian" (P); ``composite_even`` stores, for
    n = 2, the determinant-cleared square det(c) * P**2 whose weight
    matches the -4m law of the trace family.
    """

    n: int
    k: int
    coords: DualCoordinates
    generators: tuple[MultiPoly, ...]
    kinds: tuple[str, ...]
    weights: tuple[int, ...]
    det_poly: MultiPoly
    composite_even: MultiPoly | None = None


def symbolic_dual_matrices(coords: DualCoordinates):
    """(c, a, adj(c), det(c)) as exact symbolic matrices/polynomials.

    adj(c) comes from ``la.adjugate``'s shared minors, and det(c) is read
    off it as the first row of c times the first column of adj(c) (the
    (0, 0) entry of c adj(c) = det(c) I), with no second expansion.
    """
    c_mat, a_mat = coords.entry_polynomials()
    adj_c = la.adjugate(c_mat)
    det_c = sum_of_products(coords.variables, zip(c_mat[0], (row[0] for row in adj_c)))
    return c_mat, a_mat, adj_c, det_c


def semiinvariant_family(n: int, coords: DualCoordinates | None = None) -> SemiinvariantFamily:
    """Construct the semiinvariant generators for matrix size n >= 2.

    Odd n: trace generators h_1 .. h_k.  Even n: h_1 .. h_(k-1) plus the
    Pfaffian generator P.  Weights of the trace type are -4i by the
    semiinvariance law; the Pfaffian generator's weight 1 - n follows
    from Pf(g K g^t) = det(g) Pf(K).  The verification suite checks every
    generator's exact law at these stated weights.

    Every generator is built from (c, a, adj(c), det(c)) without forming
    K: each h_i by ``trace_semiinvariant`` and P by
    ``pfaffian_semiinvariant``.  Only h_i for i >= 2 (n >= 5) forms
    T = N adj(c) and its even power traces.
    """
    if n < 2:
        raise StructuralError("semiinvariants need n >= 2")
    if coords is None:
        basis, _ = build_lie_basis(n)
        coords = DualCoordinates(basis)
    c_mat, a_mat, adj_c, det_c = symbolic_dual_matrices(coords)
    k = n // 2

    trace_count = k if n % 2 == 1 else k - 1
    generators = [
        trace_semiinvariant(i, c_mat, a_mat, adj_c, det_c) for i in range(1, trace_count + 1)
    ]
    kinds = ["trace"] * trace_count
    weights = [-4 * i for i in range(1, trace_count + 1)]

    composite = None
    if n % 2 == 0:
        p_poly = pfaffian_semiinvariant(c_mat, a_mat, det_c)
        generators.append(p_poly)
        kinds.append("pfaffian")
        weights.append(1 - n)
        if n == 2:
            # the determinant-cleared square; at larger even n its term
            # count is beyond desk scale and nothing consumes it
            composite = det_c * p_poly * p_poly

    return SemiinvariantFamily(
        n=n,
        k=k,
        coords=coords,
        generators=tuple(generators),
        kinds=tuple(kinds),
        weights=tuple(weights),
        det_poly=det_c,
        composite_even=composite,
    )


# draws per sample before verify_semiinvariance gives up on an informative one
SEMIINVARIANCE_REDRAWS = 100


def verify_semiinvariance(
    family: SemiinvariantFamily,
    poly: MultiPoly,
    weight: int,
    rng: random.Random,
    samples: int = 20,
) -> bool:
    """Exact check that ``poly``, over the family's coordinates, rescales by
    det(g)^weight under the coadjoint action, on random data.

    Only informative samples count: a point where ``poly`` vanishes, or a
    g with det(g) = 1, satisfies the law at every weight, so each is
    redrawn, at most ``SEMIINVARIANCE_REDRAWS`` times per sample
    (CapacityError beyond).  The zero polynomial and fewer than one
    sample are each a StructuralError.
    """
    from .orbits import coadjoint
    from .sampling import random_gplus_point, random_group_element

    if poly.is_zero():
        raise StructuralError("the zero polynomial satisfies every weight law")
    if samples < 1:
        raise StructuralError(f"a weight law needs at least one sample, not {samples}")

    def value(pt):
        return poly.evaluate(family.coords.coords_of_point(pt.c, pt.a))

    def informative(draw, measure, useless):
        for _ in range(SEMIINVARIANCE_REDRAWS):
            x = draw(family.n, rng)
            m = measure(x)
            if m != useless:
                return x, m
        raise CapacityError(f"no informative sample in {SEMIINVARIANCE_REDRAWS} draws")

    for _ in range(samples):
        pt, at_pt = informative(random_gplus_point, value, 0)
        elt, detg = informative(random_group_element, lambda e: la.det(e.g), 1)
        if value(coadjoint(elt, pt)) != detg**weight * at_pt:
            return False
    return True


@dataclass(frozen=True)
class OrbitIdeal:
    """Generators cutting out a regular orbit, with their constants.

    ``alphas[i]`` is the constant value the corresponding invariant takes
    on the orbit and ``det_exponents[i]`` the power of det(c) clearing it
    into a polynomial: trace type h_i - alpha_i det(c)^(2i); Pfaffian
    type P^2 - alpha_k det(c)^(2k-1).
    """

    n: int
    k: int
    lambdas: tuple[Fraction, ...]
    alphas: tuple[Fraction, ...]
    det_exponents: tuple[int, ...]
    kinds: tuple[str, ...]
    generators: tuple[MultiPoly, ...]
    family: SemiinvariantFamily

    @cached_property
    def jacobian_polys(self) -> list[list[MultiPoly]]:
        """Rows of partial derivatives of the generators, built once."""
        nvars = len(self.family.coords.variables)
        return [[g.diff(j) for j in range(nvars)] for g in self.generators]

    def normal_form_point(self) -> DualPoint:
        from .orbits import lambda_block_matrix

        H = lambda_block_matrix(self.n, list(self.lambdas))
        return DualPoint(la.identity(self.n), H)


def regular_lambdas(lambdas) -> bool:
    """Distinct nonzero absolute values: the regular-orbit condition."""
    mags = sorted((abs(Fraction(l)) for l in lambdas), reverse=True)
    if any(m == 0 for m in mags):
        return False
    return all(u > v for u, v in zip(mags, mags[1:]))


def orbit_ideal(lambdas, family: SemiinvariantFamily) -> OrbitIdeal:
    """Build the orbit ideal for exact block parameters.

    The alphas are the values the cleared invariants take on the normal
    form (I, H): trace type tr((2H)^(2i)) = 2 (-1)^i 4^i sum_j l_j^(2i),
    Pfaffian type (prod_j l_j)^2.
    """
    lambdas = tuple(Fraction(l) for l in lambdas)
    n, k = family.n, family.k
    if len(lambdas) != k:
        raise StructuralError(f"expected {k} parameters, got {len(lambdas)}")
    if not regular_lambdas(lambdas):
        raise DomainError("orbit ideal requires a regular point: distinct nonzero parameters")

    alphas: list[Fraction] = []
    exponents: list[int] = []
    generators: list[MultiPoly] = []
    for m, kind in enumerate(family.kinds):
        if kind == "trace":
            i = m + 1
            alpha = Fraction(2) * (-1) ** i * Fraction(4) ** i * sum(
                l ** (2 * i) for l in lambdas
            )
            exponent = 2 * i
            gen = family.generators[m] - family.det_poly**exponent * alpha
        else:
            alpha = Fraction(1)
            for l in lambdas:
                alpha *= l
            alpha = alpha * alpha
            exponent = 2 * k - 1
            p = family.generators[m]
            gen = p * p - family.det_poly**exponent * alpha
        alphas.append(alpha)
        exponents.append(exponent)
        generators.append(gen)

    return OrbitIdeal(
        n=n,
        k=k,
        lambdas=lambdas,
        alphas=tuple(alphas),
        det_exponents=tuple(exponents),
        kinds=family.kinds,
        generators=tuple(generators),
        family=family,
    )


def orbit_ideal_from_normal_form(nf: NormalForm, family: SemiinvariantFamily) -> OrbitIdeal:
    """Orbit ideal at the exact rational values of a numeric normal form.

    Floats convert exactly to Fractions, so downstream variety checks on
    translates of the induced (I, H) remain exact; only the relation back
    to the original point carries the normal form's numeric tolerance.
    """
    if not nf.regular:
        raise DomainError("normal form is not regular")
    return orbit_ideal([Fraction(l) for l in nf.lambdas], family)


def membership_residual(ideal: OrbitIdeal, pt: DualPoint) -> list[Fraction]:
    vec = ideal.family.coords.coords_of_point(pt.c, pt.a)
    return [g.evaluate(vec) for g in ideal.generators]


def regularity_check(ideal: OrbitIdeal, pts: list[DualPoint]) -> bool:
    """True iff the generator Jacobian has full rank k at every point.

    Points must be exact and lie on the variety: a nonzero generator value
    is an input error, and so is an empty point list.
    """
    if not pts:
        raise StructuralError("the regularity check needs at least one point")
    jac = ideal.jacobian_polys
    coords = ideal.family.coords
    for pt in pts:
        vec = coords.coords_of_point(pt.c, pt.a)
        for g in ideal.generators:
            value = g.evaluate(vec)
            if value != 0:
                raise DomainError("point is not on the variety: a generator does not vanish there")
        # rank(J) = rank(J^T): add the columns one at a time and stop at rank k
        rref = la.SparseRREF()
        for j in range(len(vec)):
            column = ((r, row[j].evaluate(vec)) for r, row in enumerate(jac))
            rref.add_row({r: v for r, v in column if v})
            if rref.rank == ideal.k:
                break
        else:
            return False
    return True


# equation rows of one degree's system in ``no_invariants_certificate``: n = 4
# (26 letters) at degree 4 has 617,526 and ran in 37 s at 450 MB peak RSS on a
# 2-vCPU VM; degree 5 has 3,705,156 and did not finish in 300 s
INVARIANT_ROW_CAP = 1_000_000


@dataclass(frozen=True)
class InvariantCertificate:
    """Kernel dimensions of the invariance equations up to a degree."""

    n: int
    degree_bound: int
    kernel_dimension: int
    per_degree: tuple[int, ...]

    @property
    def only_constants(self) -> bool:
        return self.kernel_dimension == 1


def no_invariants_certificate(n: int, degree: int) -> InvariantCertificate:
    """Exact dimension of degree-bounded invariant polynomials.

    Assembles, per homogeneous degree, the linear system {x_i, F} = 0 over
    all monomials, one equation set per basis letter i, and computes the
    exact kernel dimension.  {x_i, .} is minus L_i, the infinitesimal
    coadjoint action along letter i, so the kernel is that of the action.
    The rows are read from the one bracket table: the row of letter i
    and monomial x^e is

        {x_i, x^e} = sum_j e_j sum_k c_ij^k x^(e - e_j + e_k),

    integers throughout.  Degree zero contributes the constants; the
    certificate passes when nothing else does.  StructuralError for a
    degree bound below 1, which would check no positive degree;
    CapacityError, before any monomial is built, when the system of some
    degree up to the bound has more than ``INVARIANT_ROW_CAP`` equation rows.
    """
    if degree < 1:
        raise StructuralError(f"the invariant certificate needs a degree bound >= 1, not {degree}")
    brackets = build_lie_basis(n)[1].brackets
    nvars = len(brackets)
    # degree delta has one equation row per letter and monomial, nvars times
    # comb(nvars + delta - 1, delta), which grows with delta for nvars >= 2
    count = comb(nvars + degree - 1, degree)
    if nvars * count > INVARIANT_ROW_CAP:
        raise CapacityError(f"degree {degree} needs {count} monomials, over cap")
    by_degree: list[list[tuple[int, ...]]] = [[] for _ in range(degree + 1)]
    for e in monomials_up_to_degree(nvars, degree):
        by_degree[sum(e)].append(e)
    per_degree = [1]
    for monos in by_degree[1:]:
        rows: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
        for bidx, exp in enumerate(monos):
            support = [(j, e) for j, e in enumerate(exp) if e]
            for i, bracket_row in enumerate(brackets):
                for j, e in support:
                    bracket = bracket_row[j]
                    if not bracket:
                        continue
                    lowered = list(exp)
                    lowered[j] -= 1
                    for k, c in bracket:
                        lowered[k] += 1
                        row = rows.setdefault((i, tuple(lowered)), {})
                        lowered[k] -= 1
                        row[bidx] = row.get(bidx, 0) + c * e
        clean_rows = [
            {c: Fraction(v) for c, v in row.items() if v} for row in rows.values()
        ]
        rank = la.sparse_rank(r for r in clean_rows if r)
        per_degree.append(len(monos) - rank)
    return InvariantCertificate(
        n=n,
        degree_bound=degree,
        kernel_dimension=sum(per_degree),
        per_degree=tuple(per_degree),
    )
