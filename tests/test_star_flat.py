"""The star product and the reduction on the flat layout, against the
composition they replace: phi, an NCPoly product, reduce and phi_inverse
over HPoly coefficients.  Planted faults show that every certificate
still surfaces from ``star``."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitquant.errors import CapacityError, CertificationError, StructuralError
from orbitquant.groebner import standard_monomials
from orbitquant.hpoly import HPoly
from orbitquant.ncpoly import NCPoly, exponent_of_word, pack_word, unpack_word, word_of_exponent
from orbitquant.poly import MultiPoly
from orbitquant.quantize import OrbitQuantization, QuotientElement

DIFFERENTIAL = settings(max_examples=25, deadline=None)
CAPS = (6, 8)


@pytest.fixture(scope="module")
def engines():
    return {cap: OrbitQuantization(2, [Fraction(1)], deg_cap=cap) for cap in CAPS}


# -- the composition the flat path replaces, kept here as the oracle ----------


def composed_phi(engine, f) -> NCPoly:
    """x^a -> X^a, one HPoly per word."""
    terms = {}
    for exp, coeff in f.terms.items():
        word = word_of_exponent(exp)
        if not engine.is_standard(word):
            raise StructuralError(f"exponent {exp} is not a standard monomial")
        terms[word] = coeff if isinstance(coeff, HPoly) else HPoly.of(coeff)
    return NCPoly(engine.algebra, terms)


def literal_product(u: NCPoly, v: NCPoly) -> NCPoly:
    """u * v with every pair of words rewritten by the literal rewriter."""
    out = NCPoly.zero(u.algebra)
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            out = out + NCPoly.from_word(u.algebra, w1 + w2, c1 * c2)
    return out


def composed_reduce(engine, u: NCPoly) -> NCPoly:
    """The body ``reduce`` had over HPoly coefficient lists: standard words
    keep their coefficients, the memoized normal forms of the others are
    added onto them in Fractions."""
    terms: dict = {}
    divided = []
    for word, coeff in u.terms.items():
        if engine.is_standard(word):
            terms[word] = list(coeff.coeffs)
        else:
            divided.append((word, coeff.coeffs))
    shift = engine.algebra.shift
    for word, coeffs in divided:
        form, den = engine._normal_form(pack_word(word, shift))
        for (code, p), d in form.items():
            v = unpack_word(code, shift)
            acc = terms.setdefault(v, [])
            acc.extend([0] * (p + len(coeffs) - len(acc)))
            for k, a in enumerate(coeffs, p):
                if a:
                    acc[k] += a * Fraction(d, den)
    result = NCPoly(engine.algebra, {w: HPoly(c) for w, c in terms.items()})
    assert all(engine.is_standard(w) for w in result.terms)
    return result


def composed_star(engine, f, g) -> QuotientElement:
    product = literal_product(composed_phi(engine, f), composed_phi(engine, g))
    reduced = composed_reduce(engine, product)
    dim = engine.basis.dim
    return QuotientElement(
        engine.variables, {exponent_of_word(w, dim): c for w, c in reduced.terms.items()}
    )


# -- operands -------------------------------------------------------------------

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


def draw_operand(data, engine, degree: int, max_terms: int = 3) -> MultiPoly:
    """A MultiPoly on standard monomials of degree at most ``degree``."""
    monos = standard_monomials(engine.groebner, max_degree=degree)
    exps = data.draw(st.lists(st.sampled_from(monos), max_size=max_terms, unique=True))
    return MultiPoly(engine.variables, {e: data.draw(coefficients) for e in exps})


def draw_split(data, engine):
    """Standard monomials x^a, x^b whose product is a multiple of the
    leading monomial, of degree at most the cap: X^a X^b needs division."""
    lead = engine.groebner[0].leading()[0]
    monos = standard_monomials(engine.groebner, max_degree=engine.deg_cap - sum(lead))
    total = tuple(x + y for x, y in zip(lead, data.draw(st.sampled_from(monos))))
    a = tuple(data.draw(st.integers(0, t)) for t in total)
    b = tuple(t - x for t, x in zip(total, a))
    assume(engine.is_standard(word_of_exponent(a)) and engine.is_standard(word_of_exponent(b)))
    return (
        MultiPoly.monomial(engine.variables, a, data.draw(coefficients)),
        MultiPoly.monomial(engine.variables, b, data.draw(coefficients)),
    )


def draw_pair(data, engine):
    """Two operands within the cap; the first is a MultiPoly or a product
    fed back, a QuotientElement that carries h terms.  The MultiPoly pairs
    include a pair of monomials whose product needs division."""
    cap = engine.deg_cap
    if data.draw(st.booleans()):
        da = data.draw(st.integers(1, cap - 2))
        db = data.draw(st.integers(1, cap - 1 - da))
        a = draw_operand(data, engine, da, max_terms=2)
        b = draw_operand(data, engine, db, max_terms=2)
        f = engine.star(a, b)
        rest = cap - max(f.degree(), 0)
        g = draw_operand(data, engine, data.draw(st.integers(0, rest)))
    else:
        f, g = draw_split(data, engine)
        df = data.draw(st.integers(f.total_degree(), cap - g.total_degree()))
        f = f + draw_operand(data, engine, df)
        g = g + draw_operand(data, engine, cap - df)
    return (f, g) if data.draw(st.booleans()) else (g, f)


@DIFFERENTIAL
@given(data=st.data())
def test_star_matches_composed_path(engines, data):
    engine = engines[data.draw(st.sampled_from(CAPS))]
    f, g = draw_pair(data, engine)
    assert engine.star(f, g) == composed_star(engine, f, g)


@DIFFERENTIAL
@given(data=st.data())
def test_reduce_matches_its_composed_body(engines, data):
    # elements with h terms on any words inside the cap, two thirds of
    # them multiples of the leading monomial
    from orbitquant.poly import monomials_up_to_degree

    engine = engines[data.draw(st.sampled_from(CAPS))]
    cap = engine.deg_cap
    monos = monomials_up_to_degree(engine.basis.dim, cap)
    divisible = [e for e in monos if not engine.is_standard(word_of_exponent(e))]
    terms = {}
    for _ in range(data.draw(st.integers(0, 5))):
        exp = data.draw(st.sampled_from(divisible if data.draw(st.integers(0, 2)) else monos))
        coeffs = data.draw(st.lists(coefficients | st.just(Fraction(0)),
                                    min_size=1, max_size=cap - sum(exp) + 1))
        terms[word_of_exponent(exp)] = HPoly(coeffs)
    u = NCPoly(engine.algebra, terms)
    assert engine.reduce(u) == composed_reduce(engine, u)


def test_each_division_step_runs_once_per_normal_form(monkeypatch):
    # the steps are not memoized: over a seeded stream of products that
    # need division, fed back into later products, each new normal form
    # runs its word's step exactly once and nothing else runs a step
    engine = OrbitQuantization(2, [Fraction(1)], deg_cap=8)
    rng = random.Random(8)
    lead = engine.groebner[0].leading()[0]
    monos = standard_monomials(engine.groebner, max_degree=engine.deg_cap - sum(lead))
    calls = []
    step = engine._step
    monkeypatch.setattr(engine, "_step", lambda word: calls.append(word) or step(word))
    for _ in range(30):
        total = [x + y for x, y in zip(lead, rng.choice(monos))]
        a = tuple(rng.randint(0, t) for t in total)
        b = tuple(t - x for t, x in zip(total, a))
        if engine.is_standard(word_of_exponent(a)) and engine.is_standard(word_of_exponent(b)):
            f, g = (MultiPoly.monomial(engine.variables, e, rng.randint(1, 3)) for e in (a, b))
            product = engine.star(f, g)
            if product.degree() < engine.deg_cap:
                engine.star(MultiPoly.variable(engine.variables, rng.randrange(7)), product)
    assert len(engine._forms) > 10
    assert sorted(calls) == sorted(engine._forms)


def test_star_builds_no_ncpoly(engines, monkeypatch):
    # the product is lifted, multiplied, reduced and read back on the flat
    # layout: no NCPoly is built on the way
    engine = engines[6]
    lead = word_of_exponent(engine.groebner[0].leading()[0])
    f, g = (
        MultiPoly.monomial(engine.variables, exponent_of_word(part, engine.basis.dim))
        for part in (lead[:2], lead[2:])
    )
    expected = composed_star(engine, f, g)

    def refuse(*args, **kwargs):
        raise AssertionError("star built an NCPoly")

    monkeypatch.setattr(NCPoly, "__init__", refuse)
    assert engine.star(f, g) == expected


def test_star_builds_no_hpoly(engines, monkeypatch):
    # operands, product, reduction and result stay on the flat layout,
    # also for a fed-back product that carries h terms
    engine = engines[6]
    lead = word_of_exponent(engine.groebner[0].leading()[0])
    f, g = (
        MultiPoly.monomial(engine.variables, exponent_of_word(part, engine.basis.dim), Fraction(2, 3))
        for part in (lead[:2], lead[2:])
    )
    fed = engine.star(g, f)
    assert max(c.degree() for c in fed.terms.values()) > 0
    x0 = MultiPoly.variable(engine.variables, 0)
    pairs = [(f, g), (fed, x0), (x0, fed), (f, fed)]
    expected = [composed_star(engine, a, b) for a, b in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("star built an HPoly")

    monkeypatch.setattr(HPoly, "__init__", refuse)
    assert [engine.star(a, b) for a, b in pairs] == expected


def test_warm_star_unpacks_no_word(engines, monkeypatch):
    # once the engine's table has seen a product's words, star reads their
    # exponents and standard flags from it and rebuilds no tuple word
    import orbitquant.ncpoly as ncpoly
    import orbitquant.quantize as quantize

    engine = engines[6]
    lead = word_of_exponent(engine.groebner[0].leading()[0])
    f, g = (
        MultiPoly.monomial(engine.variables, exponent_of_word(part, engine.basis.dim))
        for part in (lead[:2], lead[2:])
    )
    expected = engine.star(f, g)

    def refuse(*args, **kwargs):
        raise AssertionError("star unpacked a word")

    monkeypatch.setattr(quantize, "unpack_word", refuse)
    monkeypatch.setattr(ncpoly, "unpack_word", refuse)
    assert engine.star(f, g) == expected
    assert engine.star(expected, MultiPoly.constant(engine.variables, 2)) == expected.scale(2)


# -- planted faults ---------------------------------------------------------------


def test_corrupted_normal_form_fails_certification_in_star(monkeypatch):
    # a normal form that leaves the non-standard word X^lead itself: the
    # standard-support certificate of the reduction must catch it
    engine = OrbitQuantization(2, [Fraction(1)], deg_cap=6)
    lead = word_of_exponent(engine.groebner[0].leading()[0])
    f, g = (
        MultiPoly.monomial(engine.variables, exponent_of_word(part, engine.basis.dim))
        for part in (lead[:2], lead[2:])
    )
    honest = engine.star(f, g)
    # the memo is keyed by packed words
    code = pack_word(lead, engine.algebra.shift)
    assert code in engine._forms
    terms, den = engine._forms[code]
    monkeypatch.setitem(engine._forms, code, ({**terms, (code, 0): 1}, den))
    with pytest.raises(CertificationError):
        engine.star(f, g)
    monkeypatch.undo()
    assert engine.star(f, g) == honest


def test_non_standard_operand_is_refused_by_star(engines):
    engine = engines[6]
    lead = engine.groebner[0].leading()[0]
    one = MultiPoly.constant(engine.variables, 1)
    bad = MultiPoly.monomial(engine.variables, lead)
    bad_q = QuotientElement(engine.variables, {lead: HPoly((Fraction(0), Fraction(2)))})
    for f, g in ((bad, one), (one, bad), (bad_q, one), (one, bad_q)):
        with pytest.raises(StructuralError):
            engine.star(f, g)


def test_over_cap_product_is_refused_by_star(engines):
    engine = engines[6]
    x0 = MultiPoly.variable(engine.variables, 0)
    with pytest.raises(CapacityError):
        engine.star(x0**4, x0**3)
    # the h degree of a fed-back operand counts towards the cap, also once
    # x_0 has been lifted with degree 1
    engine.star(x0, x0)
    x0_h2 = QuotientElement(engine.variables, {(1,) + (0,) * 6: HPoly.h(2)})
    assert engine.star(x0_h2, x0**3).degree() == 6
    assert engine.star(x0**3, x0_h2).degree() == 6
    x0_q = QuotientElement.from_multipoly(x0)
    for f, g in ((x0_h2, x0**4), (x0**4, x0_h2), (x0_h2 + x0_q, x0**4)):
        with pytest.raises(CapacityError):
            engine.star(f, g)


def test_foreign_variables_are_refused_by_star(engines):
    engine = engines[6]
    foreign = MultiPoly.variable(tuple("abcdefg"), 0)
    with pytest.raises(StructuralError):
        engine.star(foreign, MultiPoly.constant(engine.variables, 1))


@pytest.mark.parametrize("n,word", [(3, (14,)), (3, (0, 1)), (2, (0, 1))])
def test_elements_of_another_algebra_are_refused(engines, n, word):
    # reduce and phi_inverse read packed words with the engine's letters; an
    # n = 3 letter 14 was an IndexError, an n = 3 word (0, 1) was read as the
    # engine's X_0 X_1
    from orbitquant.lie import build_lie_basis
    from orbitquant.ncpoly import PBWAlgebra

    engine = engines[6]
    u = NCPoly(PBWAlgebra(*build_lie_basis(n)), {word: 1})
    with pytest.raises(StructuralError, match="another algebra"):
        engine.reduce(u)
    with pytest.raises(StructuralError, match="another algebra"):
        engine.phi_inverse(u)
    mine = engine.reduce(NCPoly(engine.algebra, {(0, 1): 1}))
    assert engine.phi(engine.phi_inverse(mine)) == mine


@pytest.mark.parametrize("variables", [tuple("abcdefg"), ("a", "b")])
def test_foreign_variables_are_refused_by_phi(engines, variables):
    # phi read any exponents as the engine's: seven foreign variables gave
    # X_0, two gave an IndexError
    engine = engines[6]
    with pytest.raises(StructuralError):
        engine.phi(QuotientElement(variables, {(1,) + (0,) * (len(variables) - 1): 1}))


def test_non_standard_operand_over_the_cap_is_refused_for_capacity(engines):
    # the cap is checked before the exponents: an operand that is both over
    # the cap and not standard is a CapacityError
    engine = engines[6]
    lead = engine.groebner[0].leading()[0]
    bad = MultiPoly.monomial(engine.variables, lead)
    x0 = MultiPoly.variable(engine.variables, 0)
    assert sum(lead) + 4 > engine.deg_cap
    for f, g in ((bad, x0**4), (x0**4, bad), (bad * x0**3, x0)):
        with pytest.raises(CapacityError):
            engine.star(f, g)


def test_non_standard_exponent_is_refused_with_a_warm_lift(engines):
    # the lift keeps only standard exponents: a refused exponent is refused
    # again on every call, also once the operands around it are known
    engine = engines[6]
    lead = engine.groebner[0].leading()[0]
    x0 = MultiPoly.variable(engine.variables, 0)
    bad = MultiPoly.monomial(engine.variables, lead)
    for _ in range(3):
        assert engine.star(x0, x0 + 1) == engine.star(x0 + 1, x0)
        for f, g in ((bad + x0, x0), (x0, x0 + bad)):
            with pytest.raises(StructuralError):
                engine.star(f, g)
        with pytest.raises(StructuralError):
            engine.phi(QuotientElement.from_multipoly(bad + x0))


# words of the n = 2 algebra (letters 0..6) by their first and last letters
PRODUCT_WORDS = [(), (0,), (3,), (6,), (0, 3), (3, 3), (1, 5), (2, 3, 6), (3, 4, 4), (0, 0, 1, 6)]


def word_pair_kind(u, v) -> str:
    """How the last letter of u compares with the first of v."""
    if not u or not v:
        return "empty"
    if u[-1] < v[0]:
        return "below"
    return "equal" if u[-1] == v[0] else "above"


def word_pair_products(algebra):
    """(kind, left, right) for X^u X^v over every pair of ``PRODUCT_WORDS``,
    with h terms on both sides."""
    h = HPoly.h()
    for u in PRODUCT_WORDS:
        for v in PRODUCT_WORDS:
            left = NCPoly(algebra, {u: 2 + h})
            right = NCPoly(algebra, {v: Fraction(1, 3) - h * h})
            yield word_pair_kind(u, v), left, right


def test_product_matches_literal_rewriter_on_every_kind_of_word_pair(engines):
    algebra = engines[6].algebra
    kinds = set()
    for kind, left, right in word_pair_products(algebra):
        kinds.add(kind)
        assert left * right == literal_product(left, right), (kind, left, right)
    assert kinds == {"empty", "below", "equal", "above"}


def test_product_merges_concatenated_and_folded_words(engines):
    # sums whose degree groups hold right words of every kind at once: the
    # concatenated words and the folded ones land on shared codes
    algebra = engines[6].algebra
    h = HPoly.h()
    rng = random.Random(30)
    for _ in range(20):
        left, right = (
            NCPoly(
                algebra,
                {w: HPoly((Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))))
                 for w in rng.sample(PRODUCT_WORDS, 4)},
            )
            for _ in range(2)
        )
        assert left * right == literal_product(left, right)
        assert left * right.scale(h) == literal_product(left, right).scale(h)
    # X_3 * (X_3 + X_0): the sorted word (3, 3) and the folded X_3 X_0 in one group
    x0, x3 = NCPoly.letter(algebra, 0), NCPoly.letter(algebra, 3)
    assert x3 * (x3 + x0) == literal_product(x3, x3 + x0)


def test_sorted_word_pairs_are_not_rewritten(engines, monkeypatch):
    # X^u X^v is rewritten (a letter prepended) exactly when last(u) > first(v)
    algebra = engines[6].algebra
    calls = []
    prepend = algebra._prepend
    monkeypatch.setattr(algebra, "_prepend", lambda *args: calls.append(args[0]) or prepend(*args))
    for kind, left, right in word_pair_products(algebra):
        calls.clear()
        left * right
        assert bool(calls) == (kind == "above"), (kind, left, right)


def seeded_product_stream(engine, seed: int) -> list:
    """A fixed stream of star products on the n = 2 cap-8 engine: operand
    pairs over every (deg f, deg g) in 1..4 with 1 to 3 terms on standard
    monomials, both orders, and the low-degree products fed back."""
    rng = random.Random(seed)
    monos = standard_monomials(engine.groebner, max_degree=4)
    by_degree = {d: [e for e in monos if sum(e) == d] for d in range(5)}

    def operand(degree):
        exps = {rng.choice(by_degree[degree])}
        exps.update(rng.choice(by_degree[rng.randint(0, degree)]) for _ in range(rng.randint(0, 2)))
        return MultiPoly(engine.variables, {e: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for e in exps})

    steps = []
    for df in range(1, 5):
        for dg in range(1, 5):
            f, g = operand(df), operand(dg)
            steps += [(f, g), (g, f)]
            if df + dg <= 6:
                steps.append((("out", len(steps) - 2), operand(1 + (df + dg) % 2)))
    return steps


def play(engine, steps) -> list:
    out = []
    for f, g in steps:
        out.append(engine.star(out[f[1]] if isinstance(f, tuple) else f, g))
    return out


def test_prepend_count_of_a_warm_star_stream(monkeypatch):
    # a warm round of this seeded n = 2 cap-8 product stream prepends 364
    # times, and the count repeats exactly; folding every word pair, sorted
    # or not, made 498, and folding the pairs with last(u) = first(v) made
    # 392, so a lost concatenation path shows without timing
    engine = OrbitQuantization(2, [Fraction(1)], deg_cap=8)
    steps = seeded_product_stream(engine, 1)
    first = play(engine, steps)
    calls = [0]
    prepend = engine.algebra._prepend

    def counted(*args):
        calls[0] += 1
        return prepend(*args)

    monkeypatch.setattr(engine.algebra, "_prepend", counted)
    assert play(engine, steps) == first
    assert len(steps) == 45
    assert 350 <= calls[0] <= 380
