"""The orbit quantization engine: reduction, star product, axioms."""

import dataclasses
import random
from fractions import Fraction

import pytest

from orbitquant.errors import CapacityError, CertificationError, StructuralError
from orbitquant.groebner import divide, standard_monomials
from orbitquant.hpoly import HPoly
from orbitquant.lie import lie_poisson_bracket
from orbitquant.ncpoly import NCPoly, exponent_of_word, word_of_exponent
from orbitquant.poly import MultiPoly
from orbitquant.quantize import OrbitQuantization, QuotientElement
from orbitquant.verify import deformation_axioms, quotient_basis_torsion


@pytest.fixture(scope="module")
def engine():
    return OrbitQuantization(2, [Fraction(1)], deg_cap=6)


def test_standard_monomials_avoid_leading_term(engine):
    lead = engine.groebner[0].leading()[0]
    for exp in standard_monomials(engine.groebner, max_degree=engine.deg_cap):
        assert any(e < l for e, l in zip(exp, lead))
    # degree <= 2 monomials are all standard (the leading term has degree 4)
    low = standard_monomials(engine.groebner, max_degree=2)
    assert len(low) == 36


def test_standard_monomial_count_vs_multiplication_rank(engine):
    # dimension oracle: in degrees <= D the ideal piece of a principal
    # ideal is the image of multiplication by the generator, so
    # #standard = #monomials - rank(multiplication map)
    from orbitquant import linalg as la
    from orbitquant.groebner import standard_monomials
    from orbitquant.poly import monomials_up_to_degree

    p = engine.groebner[0]
    D = 5
    nvars = len(engine.variables)
    monos = monomials_up_to_degree(nvars, D)
    col_index = {e: i for i, e in enumerate(monos)}
    rows = []
    for q_exp in monomials_up_to_degree(nvars, D - p.total_degree()):
        product = MultiPoly.monomial(engine.variables, q_exp) * p
        rows.append(
            {col_index[e]: c for e, c in product.terms.items()}
        )
    rank = la.sparse_rank(iter(rows))
    standard = standard_monomials(engine.groebner, max_degree=D)
    assert len(standard) == len(monos) - rank


def test_weight_table_structure(engine):
    # letters: a11 a12 a21 a22 b11 b12 b22; the scalar is nonzero exactly
    # on the diagonal gl letters, where it is -w h for weight w = -2
    names = engine.basis.names
    for e, name in enumerate(names):
        f = engine.weight_table[0][e]
        if name in ("a11", "a22"):
            assert f == HPoly.h(1, 2)
        else:
            assert f.is_zero()


def test_weight_table_matches_classical_eigenvalue(engine):
    # {x_e, p} = chi(e) p commutatively; the quantum scalar is h * chi(e)
    p = engine.ideal.generators[0]
    for e in range(engine.basis.dim):
        xe = MultiPoly.variable(engine.variables, e)
        bracket = lie_poisson_bracket(xe, p, engine.sc)
        f = engine.weight_table[0][e]
        if f.is_zero():
            assert bracket.is_zero()
        else:
            chi = f.coefficient(1)
            assert bracket == p * chi


def test_quantum_scalar_ties_three_routes_together(engine):
    # one number, three derivations: the det(g)-exponent of the ideal
    # generator under the group action on a sample, the eigenvalue of
    # the generator under the Poisson bracket with a diagonal letter, and
    # the quantum commutator scalar; they must satisfy F = -w h exactly
    from orbitquant.orbits import coadjoint
    from orbitquant.sampling import random_gplus_point, random_group_element
    from orbitquant import linalg as la

    rng = random.Random(67)
    gen = engine.ideal.generators[0]
    pt = random_gplus_point(2, rng)
    vec = engine.coords.coords_of_point(pt.c, pt.a)
    elt = random_group_element(2, rng)
    detg = la.det(elt.g)
    assert detg != 1  # so that the ratio pins the exponent
    moved = coadjoint(elt, pt)
    mvec = engine.coords.coords_of_point(moved.c, moved.a)
    ratio = gen.evaluate(mvec) / gen.evaluate(vec)
    w = -2
    assert ratio == detg**w
    for e, name in enumerate(engine.basis.names):
        if name in ("a11", "a22"):
            assert engine.weight_table[0][e] == HPoly.h(1, -w)
            xe = MultiPoly.variable(engine.variables, e)
            assert lie_poisson_bracket(xe, gen, engine.sc) == gen * (-w)


def test_generator_and_left_multiples_reduce_to_zero(engine):
    sym_gen = engine.sym_generators[0]
    assert engine.reduce(sym_gen).is_zero()
    for e in range(engine.basis.dim):
        left = NCPoly.letter(engine.algebra, e) * sym_gen
        assert engine.reduce(left).is_zero()


def test_right_multiples_reduce_to_zero(engine):
    # P * X_e = X_e * P - F(X_e) P lies in the left span; the reduction
    # certifies the two-sided ideal collapses to left multiples
    sym_gen = engine.sym_generators[0]
    for e in range(engine.basis.dim):
        right = sym_gen * NCPoly.letter(engine.algebra, e)
        assert engine.reduce(right).is_zero()
        # and the claimed identity holds literally
        left_form = NCPoly.letter(engine.algebra, e) * sym_gen - sym_gen.scale(
            engine.weight_table[0][e]
        )
        assert right == left_form


def test_reduction_is_linear_and_idempotent(engine):
    rng = random.Random(61)
    monos = standard_monomials(engine.groebner, max_degree=3)
    for _ in range(10):
        w1 = word_of_exponent(rng.choice(monos))
        w2 = word_of_exponent(rng.choice(monos))
        u = NCPoly(engine.algebra, {w1: HPoly.of(2), w2: HPoly.h(1, 3)})
        v = NCPoly(engine.algebra, {w2: HPoly.of(-1)})
        ru, rv = engine.reduce(u), engine.reduce(v)
        assert engine.reduce(u + v) == ru + rv
        assert engine.reduce(ru) == ru


def test_star_with_unit(engine):
    one = MultiPoly.constant(engine.variables, 1)
    f = MultiPoly.variable(engine.variables, 0) * MultiPoly.variable(engine.variables, 5)
    assert engine.star(one, f) == QuotientElement.from_multipoly(f)
    assert engine.star(f, one) == QuotientElement.from_multipoly(f)


def test_star_linear_commutator_is_poisson(engine):
    for i in range(engine.basis.dim):
        for j in range(engine.basis.dim):
            xi = MultiPoly.variable(engine.variables, i)
            xj = MultiPoly.variable(engine.variables, j)
            lhs = engine.star(xi, xj) - engine.star(xj, xi)
            rhs = engine.poisson_reduced(xi, xj).scale(HPoly.h(1))
            assert lhs == rhs


def test_star_mod_h_is_commutative_product(engine):
    rng = random.Random(62)
    monos = standard_monomials(engine.groebner, max_degree=2)
    from orbitquant.sampling import random_polynomial

    for _ in range(20):
        f = random_polynomial(engine.variables, rng, monos)
        g = random_polynomial(engine.variables, rng, monos)
        star = engine.star(f, g)
        assert star.h_coefficient(0) == divide(f * g, engine.groebner)


def test_star_coefficient_degree_bound(engine):
    # coefficients of a star product of degree-d1, d2 inputs are h-polys
    # of degree at most d1 + d2
    rng = random.Random(63)
    monos = [e for e in standard_monomials(engine.groebner, max_degree=2) if sum(e) == 2]
    from orbitquant.sampling import random_polynomial

    for _ in range(10):
        f = random_polynomial(engine.variables, rng, monos)
        g = random_polynomial(engine.variables, rng, monos)
        star = engine.star(f, g)
        assert all(c.degree() <= 4 for c in star.terms.values())


def test_star_requires_standard_support(engine):
    lead = engine.groebner[0].leading()[0]
    bad = MultiPoly.monomial(engine.variables, lead)
    one = MultiPoly.constant(engine.variables, 1)
    with pytest.raises(StructuralError):
        engine.star(bad, one)


def test_star_degree_cap(engine):
    x0 = MultiPoly.variable(engine.variables, 0)
    f = x0**4
    with pytest.raises(CapacityError):
        engine.star(f, f)


def test_deformation_axioms_report(engine):
    status, rep = deformation_axioms(engine, random.Random(64), random_pairs=20, triples=10)
    assert status == "pass"
    assert engine.basis_report()["independent_and_spanning"]
    assert rep["reduces_mod_h"]["failures"] == 0
    assert rep["first_order_poisson"]["failures"] == 0
    assert rep["associativity"]["failures"] == 0


def test_deformation_axioms_form_each_grid_bracket_once(engine, monkeypatch):
    # {g, f} = -{f, g}: the 36 x 36 grid needs the 666 unordered pairs, plus
    # the 50 random pairs, where both orders made 1,346 calls
    calls = []
    bracket = OrbitQuantization.poisson_reduced
    monkeypatch.setattr(
        OrbitQuantization,
        "poisson_reduced",
        lambda self, f, g: calls.append((f, g)) or bracket(self, f, g),
    )
    status, rep = deformation_axioms(engine, random.Random(15))
    assert status == "pass" and rep["first_order_poisson"]["pairs"] == 36 * 36 + 50
    assert len(calls) == 716


def test_torsion_report(engine):
    status, rep = quotient_basis_torsion(engine, random.Random(65), samples=25)
    assert status == "pass"
    assert rep["torsion"] == {"samples": 25, "failures": 0, "generators_reduce_to_zero": True}


def test_perturbed_generator_fails_certification():
    # corrupting the orbit parameter leaves the same leading structure but
    # the commutator scalars survive; corrupting the generator itself must
    # break the proportionality certificate
    from orbitquant.ncpoly import symmetrize
    from orbitquant.quantize import commutator_weight

    good = OrbitQuantization(2, [Fraction(1)], deg_cap=4)
    p = good.ideal.generators[0]
    x0 = MultiPoly.variable(good.variables, 0)
    corrupted = p + x0 * x0
    sym = symmetrize(good.algebra, corrupted)
    with pytest.raises(CertificationError):
        for e in range(good.basis.dim):
            commutator_weight(good.algebra, sym, e)


def test_a_word_of_another_cartan_weight_fails_certification(engine):
    # a Cartan letter certifies from the weights of the generator's words
    # alone: one word at another weight (a letter whose weight is neither 0
    # nor the generator's, or the constant, at weight 0) must be refused
    from orbitquant.quantize import commutator_weight

    alg, g = engine.algebra, engine.sym_generators[0]
    cartan = [e for e in range(alg.dim) if alg.sc.cartan_rows[e] is not None]
    assert cartan
    for e in cartan:
        weights = alg.sc.cartan_rows[e]
        t = engine.weight_table[0][e].coefficient(1)
        assert engine.weight_table[0][e] == HPoly.h(1, t)
        j = next(j for j, w in enumerate(weights) if w not in (0, t))
        strays = [(j,)] + ([()] if t else [])
        for word in strays:
            with pytest.raises(CertificationError, match=f"letter {e} "):
                commutator_weight(alg, g + NCPoly(alg, {word: Fraction(1, 3)}), e)


def test_quotient_element_round_trip(engine):
    rng = random.Random(66)
    monos = standard_monomials(engine.groebner, max_degree=2)
    from orbitquant.sampling import random_polynomial

    f = random_polynomial(engine.variables, rng, monos)
    g = random_polynomial(engine.variables, rng, monos)
    star = engine.star(f, g)
    assert QuotientElement.from_json(star.to_json()) == star


def test_n3_star_and_associativity_at_cap_10(capsys):
    # n = 3 has one generator, of degree 8: left division gives its star
    # product at cap 10 without listing the 3.3M standard monomials
    import json
    import time

    from orbitquant.cli import main
    from orbitquant.groebner import standard_monomials
    from orbitquant.sampling import random_polynomial

    t0 = time.perf_counter()
    eng = OrbitQuantization(3, [Fraction(1)], deg_cap=10)
    x0 = MultiPoly.variable(eng.variables, 0)
    x9 = MultiPoly.variable(eng.variables, 9)
    code = main(
        ["star", "--n", "3", "--lambdas", "1", "--deg", "10",
         "--f", json.dumps(x0.to_records()), "--g", json.dumps(x9.to_records())]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == eng.star(x0, x9).to_json()

    # a seeded degree-3 triple whose product reaches the leading monomial,
    # so that the associativity check runs through a division step
    lead = word_of_exponent(eng.groebner[0].leading()[0])
    rng = random.Random(70)
    monos = standard_monomials(eng.groebner, max_degree=3)
    f, g, w = (
        MultiPoly.monomial(eng.variables, exponent_of_word(part, eng.basis.dim))
        + random_polynomial(eng.variables, rng, monos, max_terms=2)
        for part in (lead[:3], lead[3:6], lead[6:])
    )
    fq, gq, wq = (QuotientElement.from_multipoly(p) for p in (f, g, w))
    raw = eng.phi(fq) * eng.phi(gq) * eng.phi(wq)
    assert any(not eng.is_standard(v) for v in raw.terms)
    assert eng.star(eng.star(f, g), w) == eng.star(f, eng.star(g, w))
    assert time.perf_counter() - t0 < 60


def test_engine_without_reduction_refuses_reduction_queries():
    eng = OrbitQuantization(2, [Fraction(1)], deg_cap=4, build_reduction=False)
    x0 = MultiPoly.variable(eng.variables, 0)
    letter = NCPoly.letter(eng.algebra, 0)
    queries = (
        lambda: eng.star(x0, x0),
        eng.basis_report,
        lambda: eng.reduce(letter),
        lambda: eng.phi(QuotientElement.from_multipoly(x0)),
        # phi_inverse was an AttributeError: the word table is built with the reduction
        lambda: eng.phi_inverse(letter),
    )
    for query in queries:
        with pytest.raises(StructuralError, match="not built"):
            query()
    # the cap is checked first, as on a built engine
    with pytest.raises(CapacityError):
        eng.star(x0**3, x0**2)


def test_different_orbit_different_constant():
    # the lambda = 2 orbit has alpha = 4: its generator differs and the
    # star product of the same inputs changes accordingly
    e1 = OrbitQuantization(2, [Fraction(1)], deg_cap=4)
    e2 = OrbitQuantization(2, [Fraction(2)], deg_cap=4)
    assert e2.ideal.alphas == (Fraction(4),)
    assert e1.ideal.generators[0] != e2.ideal.generators[0]


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(3, 2)])
def test_axioms_hold_on_other_orbits(lam):
    eng = OrbitQuantization(2, [lam], deg_cap=6)
    assert deformation_axioms(eng, random.Random(68), random_pairs=8, triples=4)[0] == "pass"
    assert eng.basis_report()["independent_and_spanning"]


def test_degree_eight_cap():
    # one degree step beyond the default: 12870 columns, 495 left-multiple
    # rows, all of them pivots off the standard monomials
    eng = OrbitQuantization(2, [Fraction(1)], deg_cap=8)
    basis_report = eng.basis_report()
    assert basis_report["reduction_rank"] == 495
    assert basis_report["independent_and_spanning"]
    assert quotient_basis_torsion(eng, random.Random(69), samples=10)[0] == "pass"


def test_certificate_enters_only_the_divided_words(monkeypatch):
    # a division step reads the term order off the packed words, so the
    # n=2 cap-8 certificate runs one step per left multiple X^q g and
    # enters only the 330 words it divides in the word table, not every
    # term of every multiple
    eng = OrbitQuantization(2, [Fraction(1)], deg_cap=8)
    real, steps = OrbitQuantization._step, []

    def counted(self, word):
        steps.append(word)
        return real(self, word)

    monkeypatch.setattr(OrbitQuantization, "_step", counted)
    eng.basis_report()
    assert len(steps) == 330
    assert len(eng._word_table) == 330


def _table_reduction(engine):
    """The dense reduction table that left division replaced, as an oracle.

    Sparse RREF of every left multiple h^p X^q g inside the cap, with the
    column key that steers pivots off the standard monomials; the reduced
    vector of u is its normal form.  Returns (rank, reduce).
    """
    from orbitquant import linalg as la
    from orbitquant.groebner import standard_monomials
    from orbitquant.poly import monomials_up_to_degree

    dim, cap = engine.basis.dim, engine.deg_cap
    standard = set(standard_monomials(engine.groebner, max_degree=cap))
    names: list[tuple[int, tuple]] = []
    index: dict[tuple[int, tuple], int] = {}
    keys: list[tuple] = []

    def column(hpow, word):
        key = (hpow, word)
        if key not in index:
            index[key] = len(names)
            names.append(key)
            in_standard = exponent_of_word(word, dim) in standard
            keys.append((1 if in_standard else 0, -(hpow + len(word)), word, hpow))
        return index[key]

    def flatten(u, shift=0):
        return {
            column(p, w): v
            for w, c in u.terms.items()
            for p, v in enumerate(c.coeffs, shift)
            if v
        }

    rref = la.SparseRREF(colkey=keys.__getitem__)
    sym_gen = engine.sym_generators[0]
    budget = cap - engine.ideal.generators[0].total_degree()
    for exp in monomials_up_to_degree(dim, budget):
        base = NCPoly(engine.algebra, {word_of_exponent(exp): HPoly.one()}) * sym_gen
        for hpow in range(budget - sum(exp) + 1):
            rref.add_row(flatten(base, hpow))
    assert all(exponent_of_word(names[c][1], dim) not in standard for c in rref.pivot_rows)

    def reduce(u):
        acc: dict[tuple, dict[int, Fraction]] = {}
        for c, v in rref.reduce_vector(flatten(u)).items():
            hpow, word = names[c]
            acc.setdefault(word, {})[hpow] = v
        return NCPoly(
            engine.algebra,
            {
                w: HPoly(tuple(cs.get(i, 0) for i in range(max(cs) + 1)))
                for w, cs in acc.items()
            },
        )

    return rref.rank, reduce


@pytest.mark.parametrize("cap, rank", [(6, 45), (8, 495)])
def test_division_matches_reduction_table(cap, rank):
    # 60 seeded elements per cap, half their words multiples of the
    # leading monomial, reduced both ways: equal term for term
    from orbitquant.poly import monomials_up_to_degree

    eng = OrbitQuantization(2, [Fraction(1)], deg_cap=cap)
    table_rank, table_reduce = _table_reduction(eng)
    assert table_rank == rank == eng.basis_report()["reduction_rank"]
    monos = monomials_up_to_degree(eng.basis.dim, cap)
    divisible = [e for e in monos if not eng.is_standard(word_of_exponent(e))]
    rng = random.Random(71 + cap)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = rng.choice(divisible if rng.random() < 0.5 else monos)
            coeffs = tuple(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(1, cap - sum(exp) + 1))
            )
            terms[word_of_exponent(exp)] = HPoly(coeffs)
        u = NCPoly(eng.algebra, terms)
        assert eng.reduce(u) == table_reduce(u)


def test_corrupted_leading_coefficient_fails_certification():
    # a generator whose leading coefficient no longer matches the certified
    # one: the first division step cannot cancel its target
    eng = OrbitQuantization(2, [Fraction(1)], deg_cap=6)
    lead = word_of_exponent(eng.groebner[0].leading()[0])
    terms = dict(eng.sym_generators[0].terms)
    terms[lead] = terms[lead] + HPoly.of(1)
    eng.sym_generators[0] = NCPoly(eng.algebra, terms)
    with pytest.raises(CertificationError):
        eng.reduce(NCPoly(eng.algebra, {lead: HPoly.one()}))


def test_leading_term_must_be_the_groebner_lead(monkeypatch):
    # a Groebner basis whose leading monomial x0^5 is not the leading
    # word of g: the engine must refuse to divide by g
    import orbitquant.quantize as quantize

    real = quantize.groebner_basis

    def raised_lead(generators):
        (p,) = real(generators)
        return [p + MultiPoly.variable(p.variables, 0) ** 5]

    monkeypatch.setattr(quantize, "groebner_basis", raised_lead)
    with pytest.raises(CertificationError):
        OrbitQuantization(2, [Fraction(1)], deg_cap=6)


def test_division_needs_exactly_one_generator(monkeypatch):
    # one element is a left Groebner basis; two (as at n >= 4) need not be
    import orbitquant.quantize as quantize

    real = quantize.orbit_ideal

    def doubled(lambdas, family):
        ideal = real(lambdas, family)
        return dataclasses.replace(ideal, generators=ideal.generators * 2)

    monkeypatch.setattr(quantize, "orbit_ideal", doubled)
    with pytest.raises(StructuralError):
        OrbitQuantization(2, [Fraction(1)], deg_cap=6)


def test_symmetrized_generator_n3_matches_golden():
    # the n = 3 symmetrizer of the degree-8 generator and the weight table,
    # byte for byte against the file captured before words were packed
    import json
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "sym_gen_n3.json"
    eng = OrbitQuantization(3, [1], deg_cap=8, build_reduction=False)
    doc = {
        "sym_generator": eng.sym_generators[0].to_json(),
        "weight_table": [[f.to_json() for f in row] for row in eng.weight_table],
    }
    assert json.dumps(doc, indent=2) + "\n" == golden.read_text()


def test_h_term_above_the_lead_fails_certification():
    # h X^w with w as long as the lead and grevlex-lowest: the term order
    # ranks length plus h power first, so it lies above X^lead and g no
    # longer has the leading term X^lead
    from orbitquant.poly import GREVLEX, monomials_up_to_degree

    eng = OrbitQuantization(2, [Fraction(1)], deg_cap=6)
    lead = eng.groebner[0].leading()[0]
    same_degree = [e for e in monomials_up_to_degree(len(lead), sum(lead)) if sum(e) == sum(lead)]
    lowest = word_of_exponent(min(same_degree, key=GREVLEX.key))
    eng.sym_generators[0] = eng.sym_generators[0] + NCPoly(eng.algebra, {lowest: HPoly.h(1)})
    with pytest.raises(CertificationError, match=r"leading term h\^1"):
        eng._certify_lead()
