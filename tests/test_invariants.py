"""Invariants, semiinvariants, orbit ideals, certificates."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from orbitquant import invariants, sampling
from orbitquant import linalg as la
from orbitquant.errors import CapacityError, DomainError, StructuralError
from orbitquant.invariants import (
    symbolic_dual_matrices,
    cleared_trace_matrix,
    invariant_trace_power,
    membership_residual,
    no_invariants_certificate,
    orbit_ideal,
    pfaffian,
    pfaffian_semiinvariant,
    pfaffian_semiinvariant_value,
    regular_lambdas,
    regularity_check,
    semiinvariant_family,
    trace_semiinvariant,
    trace_semiinvariant_value,
    trace_square_semiinvariant,
    verify_semiinvariance,
)
from orbitquant.lie import DualCoordinates, build_lie_basis, lie_poisson_bracket
from orbitquant.orbits import (
    DualPoint,
    GroupElement,
    ad_star_blocks,
    coadjoint,
    lambda_block_matrix,
)
from orbitquant.poly import MultiPoly, sum_of_products
from orbitquant.sampling import (
    random_fraction,
    random_gplus_point,
    random_group_element,
    random_orbit_sample,
)


def F(x):
    return Fraction(x)


def defined_cleared_matrices(c, a):
    """T = c a adj(c) - det(c) a^t and K = (a adj(c) - (a adj(c))^t) / 2,
    formed as defined, over any entry ring: the oracles of the family's
    h_1 = tr(T^2) and P = Pf(K)."""
    aadj = la.mat_mul(a, la.adjugate(c))
    t = la.mat_sub(la.mat_mul(c, aadj), la.mat_scale(la.transpose(a), la.det(c)))
    return t, la.mat_scale(la.mat_sub(aadj, la.transpose(aadj)), Fraction(1, 2))


# ---------------------------------------------------------------- pfaffian


def test_pfaffian_2x2_convention():
    lam = F(7)
    assert pfaffian([[F(0), lam], [-lam, F(0)]]) == lam
    assert pfaffian(la.zeros(2, 2)) == 0


def test_pfaffian_4x4_formula():
    # for entries m12=a m13=b m14=c m23=d m24=e m34=f the Pfaffian is
    # af - be + cd; derive it here by brute force over perfect matchings
    a, b, c, d, e, f = (F(x) for x in (2, 3, 5, 7, 11, 13))
    m = [
        [F(0), a, b, c],
        [-a, F(0), d, e],
        [-b, -d, F(0), f],
        [-c, -e, -f, F(0)],
    ]
    matchings = [  # (pairing, sign) of {0,1,2,3}
        ((0, 1, 2, 3), 1),   # (01)(23)
        ((0, 2, 1, 3), -1),  # (02)(13)
        ((0, 3, 1, 2), 1),   # (03)(12)
    ]
    oracle = sum(
        sign * m[p[0]][p[1]] * m[p[2]][p[3]] for p, sign in matchings
    )
    assert oracle == a * f - b * e + c * d
    assert pfaffian(m) == oracle


def test_pfaffian_square_is_determinant():
    rng = random.Random(31)
    for size in (2, 4):
        for _ in range(10):
            m = la.zeros(size, size)
            for i in range(size):
                for j in range(i + 1, size):
                    v = random_fraction(rng)
                    m[i][j] = v
                    m[j][i] = -v
            assert pfaffian(m) ** 2 == la.det(m)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(DomainError):
        pfaffian(la.zeros(3, 3))
    with pytest.raises(DomainError):
        pfaffian([[F(0), F(1)], [F(1), F(0)]])


# ------------------------------------------------------------- invariants


def test_trace_invariant_at_normal_form():
    H = lambda_block_matrix(2, [F(1)])
    pt = DualPoint(la.identity(2), H)
    assert invariant_trace_power(1, pt) == -2


def test_trace_invariant_vanishes_for_symmetric_a():
    pt = DualPoint(la.identity(3), [[F(1), F(2), F(0)], [F(2), F(1), F(1)], [F(0), F(1), F(3)]])
    assert invariant_trace_power(1, pt) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_trace_invariant_is_coadjoint_invariant(n):
    rng = random.Random(32)
    for _ in range(10):
        pt = random_gplus_point(n, rng)
        moved = coadjoint(random_group_element(n, rng), pt)
        for i in range(1, n // 2 + 1):
            assert invariant_trace_power(i, pt) == invariant_trace_power(i, moved)


def test_denominator_cleared_identity():
    # tr(T^(2i)) = det(c)^(2i) tr(S^(2i)) with S = c a c^-1 - a^t, checked
    # exactly at random invertible rational points
    rng = random.Random(33)
    for n in (2, 3, 4):
        for _ in range(20):
            pt = random_gplus_point(n, rng)
            d = la.det(pt.c)
            cinv = la.inverse(pt.c)
            s = la.mat_sub(
                la.mat_mul(la.mat_mul(pt.c, pt.a), cinv), la.transpose(pt.a)
            )
            for i in range(1, n // 2 + 1):
                power = la.identity(n)
                for _ in range(2 * i):
                    power = la.mat_mul(power, s)
                assert trace_semiinvariant_value(i, pt) == d ** (2 * i) * la.trace(power)


# ---------------------------------------------------------- semiinvariants


def test_family_shapes():
    fam2 = semiinvariant_family(2)
    assert fam2.k == 1 and fam2.kinds == ("pfaffian",)
    fam3 = semiinvariant_family(3)
    assert fam3.k == 1 and fam3.kinds == ("trace",)
    fam4 = semiinvariant_family(4)
    assert fam4.kinds == ("trace", "pfaffian")


def generator_value(fam, m, pt):
    """The family's generator m at the dual point pt."""
    return fam.generators[m].evaluate(fam.coords.coords_of_point(pt.c, pt.a))


def test_pfaffian_generator_at_reference_point():
    # n = 2 at (I, (0 1; -1 0)): adjugate of I is I, the skew part is H
    # itself, so P evaluates to Pf(H) = 1
    fam = semiinvariant_family(2)
    H = lambda_block_matrix(2, [F(1)])
    pt = DualPoint(la.identity(2), H)
    assert generator_value(fam, 0, pt) == 1
    assert pfaffian_semiinvariant_value(pt) == 1


def test_trace_generator_at_reference_point():
    # n = 3 at (I, H): T = H - H^t = 2H and tr((2H)^2) = -8 l^2
    fam = semiinvariant_family(3)
    for lam in (F(1), F(2), Fraction(1, 2)):
        H = lambda_block_matrix(3, [lam])
        pt = DualPoint(la.identity(3), H)
        assert generator_value(fam, 0, pt) == -8 * lam * lam


def test_polynomial_matches_matrix_evaluation():
    rng = random.Random(34)
    fam3 = semiinvariant_family(3)
    fam2 = semiinvariant_family(2)
    fam4 = semiinvariant_family(4)
    for _ in range(10):
        pt3 = random_gplus_point(3, rng)
        assert generator_value(fam3, 0, pt3) == trace_semiinvariant_value(1, pt3)
        pt2 = random_gplus_point(2, rng)
        assert generator_value(fam2, 0, pt2) == pfaffian_semiinvariant_value(pt2)
        pt4 = random_gplus_point(4, rng)
        assert generator_value(fam4, 0, pt4) == trace_semiinvariant_value(1, pt4)
        assert generator_value(fam4, 1, pt4) == pfaffian_semiinvariant_value(pt4)


@pytest.mark.parametrize("n", [2, 4])
def test_family_pfaffian_equals_pf_of_the_defined_skew_matrix(n):
    # the family builds P as det(c)^(k-1) Pf(N) / 2^k; here K is formed
    # symbolically from its definition
    family = semiinvariant_family(n)
    _, skew = defined_cleared_matrices(*family.coords.entry_polynomials())
    assert family.generators[family.kinds.index("pfaffian")] == pfaffian(skew)


def random_singular_symmetric(n, rng):
    """A symmetric matrix of rank n - 1, the sum of v v^t over n - 1 random
    rational vectors v: singular, with an adjugate of rank 1."""
    while True:
        vs = [[random_fraction(rng) for _ in range(n)] for _ in range(n - 1)]
        c = [[sum(v[r] * v[s] for v in vs) for s in range(n)] for r in range(n)]
        if la.rational_rank(c) == n - 1:
            return c


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ring_generic_helpers_match_the_definitions_on_numbers(n):
    # 20 G+ points, then singular c: the identities behind h_1, P and
    # T = N adj(c) are polynomial, so they hold at det(c) = 0 as well
    rng = random.Random(37)
    blocks = [(pt.c, pt.a) for pt in (random_gplus_point(n, rng) for _ in range(20))]
    blocks += [
        (random_singular_symmetric(n, rng), [[random_fraction(rng) for _ in range(n)] for _ in range(n)])
        for _ in range(5)
    ]
    for c, a in blocks:
        t, skew = defined_cleared_matrices(c, a)
        adj_c, det_c = la.adjugate(c), la.det(c)
        assert cleared_trace_matrix(c, a, adj_c) == t
        assert trace_square_semiinvariant(c, a, adj_c, det_c) == la.trace(la.mat_mul(t, t))
        if n % 2 == 0:
            assert pfaffian_semiinvariant(c, a, det_c) == pfaffian(skew)


def test_family_up_to_n4_forms_no_power_of_t(monkeypatch):
    # h_1 and P come from N, adj(c) and det(c): for n <= 4 no T is formed
    # and no trace of its powers is taken
    def refuse(*args):
        raise AssertionError("T was formed")

    monkeypatch.setattr(invariants, "cleared_trace_matrix", refuse)
    for n in (2, 3, 4):
        assert len(semiinvariant_family(n).generators) == n // 2
    # the patch bites where T is needed: h_2 at a point
    with pytest.raises(AssertionError, match="T was formed"):
        trace_semiinvariant_value(2, random_gplus_point(4, random.Random(38)))


@pytest.mark.parametrize("n", [2, 3])
def test_semiinvariant_weights_exact(n):
    # each law holds at the stated weight and fails one off it on either side
    rng = random.Random(35)
    fam = semiinvariant_family(n)
    assert fam.weights == {2: (-1,), 3: (-4,)}[n]
    for poly, weight in zip(fam.generators, fam.weights):
        assert verify_semiinvariance(fam, poly, weight, rng, samples=20)
        for off in (weight - 1, weight + 1):
            assert not verify_semiinvariance(fam, poly, off, rng, samples=20)


def test_semiinvariance_refuses_uninformative_data(monkeypatch):
    fam = semiinvariant_family(2)
    zero = MultiPoly.zero(fam.coords.variables)
    with pytest.raises(StructuralError, match="zero polynomial"):
        verify_semiinvariance(fam, zero, -1, random.Random(0), samples=1)

    # a g of det 1 at every draw holds every law: redrawn, then refused
    def unimodular(n, rng):
        return GroupElement(la.zeros(n, n), la.identity(n))

    # no sample is no evidence, at any weight
    with pytest.raises(StructuralError, match="at least one sample"):
        verify_semiinvariance(fam, fam.generators[0], 12345, random.Random(0), samples=0)

    monkeypatch.setattr(sampling, "random_group_element", unimodular)
    with pytest.raises(CapacityError, match="no informative sample"):
        verify_semiinvariance(fam, fam.generators[0], 0, random.Random(0), samples=1)


def test_even_composite_weight_is_minus_four():
    # det(c) * P^2 restores the -4m law for the even-case bottom generator
    rng = random.Random(36)
    fam = semiinvariant_family(2)
    composite = fam.composite_even
    for _ in range(10):
        pt = random_gplus_point(2, rng)
        elt = random_group_element(2, rng)
        vec = fam.coords.coords_of_point(pt.c, pt.a)
        moved = coadjoint(elt, pt)
        mvec = fam.coords.coords_of_point(moved.c, moved.a)
        assert composite.evaluate(mvec) == la.det(elt.g) ** (-4) * composite.evaluate(vec)


def test_pfaffian_weight_differs_from_trace_law():
    fam = semiinvariant_family(2)
    assert fam.weights[0] == -1  # not -4: the minimal clearing has its own weight


# ------------------------------------------------------------ orbit ideals


def test_regularity_predicate():
    assert regular_lambdas([F(1)])
    assert not regular_lambdas([F(0)])
    assert regular_lambdas([F(2), F(1)])
    assert not regular_lambdas([F(2), F(2)])
    assert not regular_lambdas([F(2), F(-2)])


def test_orbit_ideal_n2_shape():
    fam = semiinvariant_family(2)
    ideal = orbit_ideal([F(1)], fam)
    assert ideal.k == 1 and len(ideal.generators) == 1
    assert ideal.alphas == (F(1),)
    assert ideal.det_exponents == (1,)
    # p1 = P^2 - det(c): reference value 1 - 1 = 0 at (I, H)
    assert membership_residual(ideal, ideal.normal_form_point()) == [0]


def test_orbit_ideal_n3_alpha():
    fam = semiinvariant_family(3)
    ideal = orbit_ideal([F(1)], fam)
    assert ideal.alphas == (F(-8),)
    assert ideal.det_exponents == (2,)
    assert membership_residual(ideal, ideal.normal_form_point()) == [0]


def test_orbit_ideal_generator_count():
    # n = 4 squares the 2280-term Pfaffian generator, beyond test budget
    for n in (2, 3):
        fam = semiinvariant_family(n)
        lambdas = [F(j + 1) for j in range(fam.k)][::-1]
        ideal = orbit_ideal(sorted(lambdas, reverse=True), fam)
        assert len(ideal.generators) == n // 2


@pytest.mark.parametrize("n", [2, 3])
def test_generators_vanish_on_orbit_samples(n):
    rng = random.Random(37)
    fam = semiinvariant_family(n)
    ideal = orbit_ideal([F(1)], fam)
    base = ideal.normal_form_point()
    for _ in range(20):
        sample = random_orbit_sample(base, rng)
        assert membership_residual(ideal, sample) == [0] * ideal.k


@pytest.mark.parametrize("n", [2, 3])
def test_regularity_full_rank_on_samples(n):
    rng = random.Random(38)
    fam = semiinvariant_family(n)
    ideal = orbit_ideal([F(1)], fam)
    pts = [ideal.normal_form_point()] + [
        random_orbit_sample(ideal.normal_form_point(), rng) for _ in range(5)
    ]
    assert regularity_check(ideal, pts)


def test_regularity_rejects_off_variety_point():
    fam = semiinvariant_family(2)
    ideal = orbit_ideal([F(1)], fam)
    off = DualPoint(la.identity(2), la.zeros(2, 2))  # P^2 - det = -1 there
    with pytest.raises(DomainError):
        regularity_check(ideal, [off])
    # no point is no evidence of full rank
    with pytest.raises(StructuralError, match="at least one point"):
        regularity_check(ideal, [])


def test_orbit_ideal_rejects_degenerate():
    fam = semiinvariant_family(2)
    with pytest.raises(DomainError):
        orbit_ideal([F(0)], fam)


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_ideal_matches_the_closed_forms(n):
    # oracle: the closed forms of the constants at (I, H), h_i(I, H) =
    # tr((2H)^(2i)) = 2 (-1)^i 4^i sum_j l_j^(2i) and P(I, H)^2 = (prod_j l_j)^2,
    # with the exponents 2i and 2k - 1, against the rule read off the family
    rng = random.Random(40 + n)
    fam = semiinvariant_family(n)
    draws = [[F(1)], [F("3/2")], [F("-2/7")], [F(5)]]
    while len(draws) < 10:
        lambdas = [random_fraction(rng, -9, 9) for _ in range(fam.k)]
        if regular_lambdas(lambdas):
            draws.append(lambdas)
    for lambdas in draws:
        ideal = orbit_ideal(lambdas, fam)
        alphas, exponents, generators = [], [], []
        for m, (g, kind) in enumerate(zip(fam.generators, fam.kinds)):
            if kind == "trace":
                i = m + 1
                alpha = 2 * (-1) ** i * 4**i * sum(l ** (2 * i) for l in lambdas)
                exponent, f = 2 * i, g
            else:
                alpha, exponent, f = math.prod(lambdas) ** 2, 2 * fam.k - 1, g * g
            alphas.append(alpha)
            exponents.append(exponent)
            generators.append((f - fam.det_poly**exponent * alpha).to_records())
        assert ideal.alphas == tuple(alphas), lambdas
        assert all(type(a) is Fraction for a in ideal.alphas)
        assert ideal.det_exponents == tuple(exponents)
        assert [g.to_records() for g in ideal.generators] == generators


def test_family_beyond_n4_is_refused_before_any_polynomial(monkeypatch):
    # n = 5 needs h_2: built, it exhausted a 2.5 GB address space in 97 s
    def refuse(*args):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(invariants, "symbolic_dual_matrices", refuse)
    monkeypatch.setattr(invariants, "build_lie_basis", refuse)
    for n in (5, 6):
        with pytest.raises(CapacityError, match="stops at n = 4"):
            semiinvariant_family(n)


# -------------------------------------------------------------- certificate


def oracle_vector_fields(coords):
    """Row i is the vector field of letter X_i: entry j is the linear
    polynomial x_j(ad*_{X_i} p) of the moving point p, from the matrix
    formula ``ad_star_blocks`` on the symbolic entries of p, read back
    through ``coords_of_point``."""
    basis = coords.basis
    c_mat, a_mat = coords.entry_polynomials()
    return [
        coords.coords_of_point(
            *ad_star_blocks(basis.gl_part(i), basis.sym_part(i), c_mat, a_mat)
        )
        for i in range(basis.dim)
    ]


def oracle_kernel_dimensions(n, degree, letters):
    """Per-degree kernel dimensions of L_i F = 0 over the given letters,
    each L_i the oracle field of letter i applied as a derivation,
    sum_j (dF/dx_j) x_j(ad*_{X_i} p), on monomials listed here."""
    coords = DualCoordinates(build_lie_basis(n)[0])
    fields = oracle_vector_fields(coords)
    variables = coords.variables
    dims = [1]
    for delta in range(1, degree + 1):
        monos = []
        for letters_of_mono in itertools.combinations_with_replacement(range(len(variables)), delta):
            exponent = [0] * len(variables)
            for j in letters_of_mono:
                exponent[j] += 1
            monos.append(MultiPoly.monomial(variables, exponent))
        rows = {}
        for col, mono in enumerate(monos):
            for i in letters:
                image = sum(
                    (mono.diff(j) * fields[i][j] for j in range(len(variables))),
                    MultiPoly.zero(variables),
                )
                for exp, v in image.terms.items():
                    rows.setdefault((i, exp), {})[col] = v
        dims.append(len(monos) - la.sparse_rank(rows.values()))
    return tuple(dims)


# letter subsets whose equations the certificate keeps, by letter name:
# leaving letters out plants invariants; the one Cartan letter a11 alone
# tells a derivation from a map that drops the exponent factor e_j
KEPT = {
    "all": lambda name: True,
    "gl-only": lambda name: name[0] == "a",
    "sym-only": lambda name: name[0] == "b",
    "a11-only": lambda name: name == "a11",
}


def keep_letters(monkeypatch, kept, n):
    """Patch the certificate's basis so only the letters named by ``kept``
    keep their rows of the bracket table: the equations of the others are
    left out.  Returns the letters kept at n."""
    build = invariants.build_lie_basis

    def patched(m):
        basis, sc = build(m)
        sc.brackets = [
            row if kept(basis.names[i]) else [()] * sc.dim
            for i, row in enumerate(sc.brackets)
        ]
        return basis, sc

    monkeypatch.setattr(invariants, "build_lie_basis", patched)
    return [i for i, name in enumerate(build(n)[0].names) if kept(name)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vector_fields_match_poisson_bracket(n):
    # the infinitesimal action on a linear coordinate is minus its Poisson
    # bracket: x_j(ad*_{X_i} p) = -<p, [X_i, X_j]> = -{x_i, x_j}(p)
    basis, sc = build_lie_basis(n)
    coords = DualCoordinates(basis)
    fields = oracle_vector_fields(coords)
    for i in range(basis.dim):
        for j in range(basis.dim):
            xi = MultiPoly.variable(coords.variables, i)
            xj = MultiPoly.variable(coords.variables, j)
            assert fields[i][j] == -lie_poisson_bracket(xi, xj, sc)


def test_vector_fields_match_numeric_ad_star():
    from orbitquant.orbits import ad_star, basis_lie_element, pair_dual_algebra

    rng = random.Random(40)
    basis, _ = build_lie_basis(2)
    coords = DualCoordinates(basis)
    fields = oracle_vector_fields(coords)
    for _ in range(5):
        pt = random_gplus_point(2, rng)
        vec = coords.coords_of_point(pt.c, pt.a)
        for i in range(basis.dim):
            image = ad_star(basis_lie_element(basis, i), pt)
            for j in range(basis.dim):
                assert fields[i][j].evaluate(vec) == pair_dual_algebra(
                    image, basis_lie_element(basis, j)
                )


@pytest.mark.parametrize("kept", KEPT)
@pytest.mark.parametrize("n, degree", [(1, 4), (2, 3), (3, 2)])
def test_certificate_matches_the_oracle_fields(monkeypatch, n, degree, kept):
    # the bracket-table rows against the system built from the symbolic
    # ad* fields; the subsets leave letters out, where kernels are nonzero
    letters = keep_letters(monkeypatch, KEPT[kept], n)
    cert = no_invariants_certificate(n, degree)
    assert cert.per_degree == oracle_kernel_dimensions(n, degree, letters)
    assert cert.only_constants is (kept == "all")


def test_certificate_degree_zero_and_one():
    cert = no_invariants_certificate(2, 1)
    assert cert.per_degree == (1, 0)
    assert cert.kernel_dimension == 1


def test_certificate_n2_degree_two():
    cert = no_invariants_certificate(2, 2)
    assert cert.only_constants


def test_certificate_detects_planted_invariant(monkeypatch):
    # without the sym(n) letters' equations only gl(n) acts, and tr(a)
    # (degree 1) with tr(a)^2 and tr(a^2) (degree 2) become invariant
    keep_letters(monkeypatch, KEPT["gl-only"], 2)
    for n in (2, 3):
        cert = no_invariants_certificate(n, 2)
        assert cert.per_degree == (1, 1, 2)
        assert cert.only_constants is False


@pytest.mark.parametrize("n", [2, 3])
def test_regularity_column_by_column_agrees_with_the_full_jacobian_rank(n):
    # the points check_orbit_ideal samples: the normal form and its orbit
    from orbitquant.verify import _regular_lambdas

    rng = random.Random(7)
    fam = semiinvariant_family(n)
    ideal = orbit_ideal(_regular_lambdas(fam.k), fam)
    base = ideal.normal_form_point()
    pts = [base] + [random_orbit_sample(base, rng) for _ in range(4)]
    jac = ideal.jacobian_polys
    for pt in pts:
        vec = fam.coords.coords_of_point(pt.c, pt.a)
        full = la.rational_rank([[entry.evaluate(vec) for entry in row] for row in jac])
        assert regularity_check(ideal, [pt]) == (full == ideal.k)
    assert regularity_check(ideal, pts)

    # a Jacobian patched to a zero row has rank below k at every point
    jac[0] = [MultiPoly.zero(fam.coords.variables)] * len(jac[0])
    assert not regularity_check(ideal, [base])
    vec = fam.coords.coords_of_point(base.c, base.a)
    assert la.rational_rank([[entry.evaluate(vec) for entry in row] for row in jac]) < ideal.k


def test_replaced_ideal_builds_its_own_jacobian():
    fam = semiinvariant_family(2)
    ideal = orbit_ideal([Fraction(1)], fam)
    assert len(ideal.jacobian_polys) == 1
    doubled = dataclasses.replace(ideal, generators=ideal.generators * 2)
    assert doubled.jacobian_polys == ideal.jacobian_polys * 2


@pytest.mark.parametrize("n, i", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_symmetric_trace_pairing_equals_the_full_pair_sum(n, i):
    basis, _ = build_lie_basis(n)
    coords = DualCoordinates(basis)
    c_mat, a_mat, adj_c, det_c = symbolic_dual_matrices(coords)
    t_mat = la.mat_sub(
        la.mat_mul(la.mat_mul(c_mat, a_mat), adj_c),
        la.mat_scale(la.transpose(a_mat), det_c),
    )
    half = t_mat
    for _ in range(i - 1):
        half = la.mat_mul(half, t_mat)
    every_pair = sum_of_products(
        coords.variables, ((half[r][s], half[s][r]) for r in range(n) for s in range(n))
    )
    assert trace_semiinvariant(i, c_mat, a_mat, adj_c, det_c) == every_pair
    if i == 1 and n > 2:  # h_1 is the family's first generator
        assert semiinvariant_family(n, coords).generators[0] == every_pair


# sha256 of the records of every generator of semiinvariant_family(n) and
# of its det_poly, canonical JSON, taken before adj(c) and det(c) moved to
# shared minors
FAMILY_PINS = {
    2: "56b496a173986b2605bcae11f1a14a6401ed09f1f1016f95d2fa2e9b420444d9",
    3: "dc183579c969652f857616a9910f0a2bf9590b564049cc7e80c129b8ce7564a6",
    4: "758b30c40916355a9766333f5de2be65af7cd5d29dbbe99fdd4889521c103938",
}


@pytest.mark.parametrize("n", sorted(FAMILY_PINS))
def test_family_records_are_pinned(n):
    family = semiinvariant_family(n)
    records = [g.to_records() for g in family.generators] + [family.det_poly.to_records()]
    doc = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == FAMILY_PINS[n]
