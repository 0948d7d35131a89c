"""PBW rewriting, noncommutative multiplication, symmetrizer."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitquant.errors import CapacityError, StructuralError
from orbitquant.hpoly import HPoly
from orbitquant.invariants import orbit_ideal, semiinvariant_family
from orbitquant.lie import StructureConstants, build_lie_basis
from orbitquant.ncpoly import (
    NCPoly,
    PBWAlgebra,
    exponent_of_word,
    pack_word,
    symmetrize,
    unpack_word,
    word_length,
    word_of_exponent,
)
from orbitquant.poly import MultiPoly, monomials_up_to_degree


def make_algebra(n):
    basis, sc = build_lie_basis(n)
    return PBWAlgebra(basis, sc), basis


def symbol(u):
    """Set h = 0 and abelianize: the exponent-keyed terms of u's h-free part."""
    return {
        exponent_of_word(w, u.algebra.dim): c.coefficient(0)
        for w, c in u.terms.items()
        if c.coefficient(0)
    }


# ------------------------------------------------------------------ HPoly


def test_hpoly_arithmetic():
    h = HPoly.h()
    p = (h + 1) * (h - 1)
    assert p == HPoly((Fraction(-1), Fraction(0), Fraction(1)))
    assert p.degree() == 2
    assert p - (h * h - 1) == 0 and -p == 1 - h * h
    assert HPoly.h(3, 5).coefficient(3) == 5 and HPoly.h(3, 5).coefficient(2) == 0


def test_hpoly_no_trailing_zeros_and_eval():
    p = HPoly((Fraction(1), Fraction(2), Fraction(0)))
    assert p.degree() == 1
    assert HPoly.from_json(p.to_json()) == p


def test_hpoly_keeps_fractions_and_converts_other_values():
    half = Fraction(1, 2)
    p = HPoly((half, 3, "1/3"))
    assert p.coeffs[0] is half
    assert p.coeffs == (half, Fraction(3), Fraction(1, 3))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert HPoly.from_json(["1/3", 2]) == HPoly((Fraction(1, 3), 2))
    assert HPoly((Fraction(2), 0, Fraction(0))).coeffs == (Fraction(2),)
    # equality with HPoly, int and Fraction; anything else is not comparable
    assert HPoly.of(2) == 2 and HPoly.of(half) == half and HPoly.zero() == 0
    assert HPoly.of(2) != HPoly.h(1, 2) and HPoly.h() != 0
    assert HPoly.of(1).__eq__(1.0) is NotImplemented
    assert HPoly.of(1).__eq__("1") is NotImplemented


@pytest.mark.parametrize(
    "build",
    [
        lambda: HPoly((0.1,)),
        lambda: HPoly((1, 0.5)),
        lambda: HPoly.of(0.1),
        lambda: HPoly.h(2, 0.25),
        lambda: HPoly.from_json([0.1]),
        lambda: HPoly.from_json(["1", 2.5]),
        lambda: HPoly.from_json("1/3"),
    ],
)
def test_hpoly_rejects_inexact_coefficients(build):
    # a float would silently become its binary expansion, 0.1 the fraction
    # 3602879701896397/36028797018963968
    with pytest.raises(StructuralError):
        build()


# ------------------------------------------------------------------- PBW


def test_sorted_word_is_fixed():
    alg, _ = make_algebra(2)
    word = (0, 2, 2, 5)
    reduced = alg.reduce_word(word)
    assert reduced == {word: HPoly.one()}


def test_pbw_scalar_example():
    # letters A < B at n = 1 with [A, B] = 2B: B A = A B - 2 h B
    alg, basis = make_algebra(1)
    a, b = basis.names.index("a11"), basis.names.index("b11")
    reduced = alg.reduce_word((b, a))
    assert reduced == {(a, b): HPoly.one(), (b,): HPoly.h(1, -2)}


def test_defining_relation_all_pairs():
    alg, basis = make_algebra(2)
    for i in range(basis.dim):
        for j in range(basis.dim):
            xi, xj = NCPoly.letter(alg, i), NCPoly.letter(alg, j)
            lhs = xi * xj - xj * xi
            expected = NCPoly(
                alg,
                {
                    (k,): HPoly.h(1, v)
                    for k, v in alg.sc.bracket_coeffs(i, j).items()
                },
            )
            assert lhs == expected


def test_out_of_range_letter_rejected():
    alg, basis = make_algebra(2)
    with pytest.raises(StructuralError):
        NCPoly(alg, {(0, basis.dim): HPoly.one()})
    with pytest.raises(StructuralError):
        alg.reduce_word((basis.dim, 0))


def test_confluence_random_schedules():
    alg, basis = make_algebra(2)
    rng = random.Random(51)
    for _ in range(30):
        word = tuple(rng.randrange(basis.dim) for _ in range(5))
        deterministic = alg.reduce_word(word)
        randomized = alg.reduce_word(word, rng=rng)
        assert deterministic == randomized


def test_multiplication_associative():
    alg, basis = make_algebra(2)
    rng = random.Random(52)

    def random_nc():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(
                rng.randint(0, 1) if rng.random() < 0.4 else 0
                for _ in range(basis.dim)
            )
            word = word_of_exponent(exp)
            if len(word) > 3:
                continue
            terms[word] = HPoly.of(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        return NCPoly(alg, terms)

    for _ in range(50):
        u, v, w = random_nc(), random_nc(), random_nc()
        assert (u * v) * w == u * (v * w)


def test_grading_is_additive():
    # deg X_i = deg h = 1: the product of elements of pure filtration
    # degrees d1, d2 has every term at degree exactly d1 + d2
    alg, basis = make_algebra(2)
    rng = random.Random(53)
    for _ in range(20):
        w1 = tuple(sorted(rng.randrange(basis.dim) for _ in range(2)))
        w2 = tuple(sorted(rng.randrange(basis.dim) for _ in range(3)))
        u = NCPoly(alg, {w1: HPoly.one()})
        v = NCPoly(alg, {w2: HPoly.one()})
        product = u * v
        for word, coeff in product.terms.items():
            for hpow, c in enumerate(coeff.coeffs):
                if c != 0:
                    assert len(word) + hpow == 5


def test_unit_and_letter_commutator_shortcut():
    alg, basis = make_algebra(2)
    rng = random.Random(54)
    one = NCPoly.unit(alg)
    for _ in range(10):
        word = tuple(sorted(rng.randrange(basis.dim) for _ in range(3)))
        u = NCPoly(alg, {word: HPoly.of(Fraction(rng.randint(1, 5)))})
        assert one * u == u and u * one == u
        for e in range(basis.dim):
            fast = u.commutator_with_letter(e)
            slow = NCPoly.letter(alg, e) * u - u * NCPoly.letter(alg, e)
            assert fast == slow


# ------------------------------------------------------------- symmetrizer


def test_symmetrize_letter_and_scalar():
    alg, basis = make_algebra(2)
    variables = tuple("x" + s for s in basis.names)
    xi = MultiPoly.variable(variables, 3)
    assert symmetrize(alg, xi) == NCPoly.letter(alg, 3)
    const = MultiPoly.constant(variables, Fraction(5, 2))
    assert symmetrize(alg, const) == NCPoly.unit(alg, HPoly.of(Fraction(5, 2)))


def test_symmetrize_scalar_pair_example():
    # n = 1: Sym(x_A x_B) = (AB + BA)/2 = AB - h B
    alg, basis = make_algebra(1)
    variables = tuple("x" + s for s in basis.names)
    a, b = basis.names.index("a11"), basis.names.index("b11")
    exp = [0, 0]
    exp[a] += 1
    exp[b] += 1
    p = MultiPoly.monomial(variables, tuple(exp))
    result = symmetrize(alg, p)
    expected = NCPoly(alg, {(a, b): HPoly.one(), (b,): HPoly.h(1, -1)})
    assert result == expected


def test_symmetrize_against_permutation_sum():
    # brute-force oracle: literally average over all orderings
    from itertools import permutations

    alg, basis = make_algebra(2)
    variables = tuple("x" + s for s in basis.names)
    rng = random.Random(55)
    for _ in range(10):
        letters = [rng.randrange(basis.dim) for _ in range(rng.randint(1, 4))]
        exp = [0] * basis.dim
        for l in letters:
            exp[l] += 1
        mono = MultiPoly.monomial(variables, tuple(exp))
        fast = symmetrize(alg, mono)
        acc = NCPoly.zero(alg)
        perms = list(permutations(letters))
        for perm in perms:
            acc = acc + NCPoly.from_word(alg, perm)
        slow = acc.scale(HPoly.of(Fraction(1, len(perms))))
        assert fast == slow


def test_symmetrize_is_section_of_mod_h():
    alg, basis = make_algebra(2)
    variables = tuple("x" + s for s in basis.names)
    rng = random.Random(56)
    monos = monomials_up_to_degree(basis.dim, 3)
    for _ in range(10):
        terms = {}
        for _ in range(4):
            terms[rng.choice(monos)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        p = MultiPoly(variables, terms)
        image = symbol(symmetrize(alg, p))
        assert image == p.terms


def test_symmetrize_multiplicative_mod_h():
    alg, basis = make_algebra(2)
    variables = tuple("x" + s for s in basis.names)
    rng = random.Random(57)
    monos = [e for e in monomials_up_to_degree(basis.dim, 2) if sum(e) == 2]
    for _ in range(10):
        p = MultiPoly.monomial(variables, rng.choice(monos), Fraction(rng.randint(1, 3)))
        q = MultiPoly.monomial(variables, rng.choice(monos), Fraction(rng.randint(1, 3)))
        lhs = symbol(symmetrize(alg, p) * symmetrize(alg, q))
        rhs = symbol(symmetrize(alg, p * q))
        assert lhs == rhs


def test_from_word_takes_exact_scalar_coefficients():
    # 0 gives zero, an exact scalar scales, a float is refused
    alg, _ = make_algebra(2)
    once = NCPoly.from_word(alg, (4, 0))
    assert len(once.terms) == 2
    assert NCPoly.from_word(alg, (4, 0), 0).is_zero()
    assert NCPoly.from_word(alg, (4, 0), 2) == once.scale(2)
    assert NCPoly.from_word(alg, (4, 0), "1/3") == once.scale(Fraction(1, 3))
    with pytest.raises(StructuralError):
        NCPoly.from_word(alg, (4, 0), 0.5)
    assert alg.reduce_word((4, 0), 2) == NCPoly.from_word(alg, (4, 0), 2).terms


def test_ncpoly_json_round_trip():
    alg, basis = make_algebra(2)
    rng = random.Random(58)
    for _ in range(10):
        word = tuple(sorted(rng.randrange(basis.dim) for _ in range(4)))
        u = NCPoly.from_word(alg, word, HPoly((Fraction(1), Fraction(-2, 3))))
        assert NCPoly.from_json(alg, u.to_json()) == u


@pytest.mark.parametrize(
    "variables",
    [("xb11", "xa11"), ("q", "p"), ("xa11",), ("xa11", "xb11", "xa12")],
    ids=["swapped", "foreign", "short", "long"],
)
def test_symmetrize_refuses_other_variables(variables):
    # only the algebra's coordinates, in letter order, name its letters
    alg, _ = make_algebra(1)
    assert alg.variables == ("xa11", "xb11")
    with pytest.raises(StructuralError, match="not the algebra's"):
        symmetrize(alg, MultiPoly.variable(variables, 0))


def test_symmetrize_degree_cap():
    alg, basis = make_algebra(1)
    variables = tuple("x" + s for s in basis.names)
    big = MultiPoly.monomial(variables, (9, 0))
    with pytest.raises(CapacityError):
        symmetrize(alg, big)


# ------------------------------------ insertion routine vs literal rewriter
#
# Every product, the letter commutator and the symmetrizer run on the
# memoized PBWAlgebra._insert; these oracles use only reduce_word with a
# random rewrite schedule, which shares no code with it.

DIFFERENTIAL = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def algebras():
    return {n: make_algebra(n)[0] for n in (1, 2, 3)}


def draw_word(data, dim, max_len):
    letters = data.draw(st.lists(st.integers(0, dim - 1), max_size=max_len))
    return tuple(sorted(letters))


def draw_hpoly(data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(1, 4)), min_size=1, max_size=3
        )
    )
    return HPoly(tuple(Fraction(a, b) for a, b in pairs))


def draw_ncpoly(data, alg, max_len):
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        terms[draw_word(data, alg.dim, max_len)] = draw_hpoly(data)
    return NCPoly(alg, terms)


def literal(alg, word, coeff, rng):
    return NCPoly(alg, alg.reduce_word(word, coeff, rng=rng))


@DIFFERENTIAL
@given(data=st.data())
def test_insert_matches_literal_rewriter(algebras, data):
    alg = algebras[data.draw(st.sampled_from((2, 3)))]
    letter = data.draw(st.integers(0, alg.dim - 1))
    word = draw_word(data, alg.dim, 5)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    fast = {}
    # _insert takes and gives packed words
    for code, c in alg._insert(letter, pack_word(word, alg.shift)):
        # integral structure constants give integer memo coefficients;
        # the h power follows from the word length alone
        assert type(code) is int and type(c) is int
        v = unpack_word(code, alg.shift)
        fast[v] = HPoly.h(len(word) + 1 - len(v), c)
    assert fast == alg.reduce_word((letter,) + word, rng=rng)


@DIFFERENTIAL
@given(data=st.data())
def test_product_matches_literal_rewriter(algebras, data):
    alg = algebras[data.draw(st.sampled_from((2, 3)))]
    u = draw_ncpoly(data, alg, 3)
    v = draw_ncpoly(data, alg, 3)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    slow = NCPoly.zero(alg)
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            slow = slow + literal(alg, w1 + w2, c1 * c2, rng)
    assert u * v == slow


@DIFFERENTIAL
@given(data=st.data())
def test_letter_commutator_matches_literal_rewriter(algebras, data):
    alg = algebras[data.draw(st.sampled_from((2, 3)))]
    s = draw_ncpoly(data, alg, 4)
    e = data.draw(st.integers(0, alg.dim - 1))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    slow = NCPoly.zero(alg)
    for w, c in s.terms.items():
        slow = slow + literal(alg, (e,) + w, c, rng) - literal(alg, w + (e,), c, rng)
    assert s.commutator_with_letter(e) == slow


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cartan_letter_commutators_match_literal_rewriter(n):
    # the Cartan letters a_ii take the no-rewriting path: [X_e, X^w] is
    # h (sum of the letters' weights) X^w
    alg, basis = make_algebra(n)
    cartan = [e for e in range(basis.dim) if alg.sc.cartan_rows[e] is not None]
    assert [basis.names[e] for e in cartan] == [f"a{i}{i}" for i in range(1, n + 1)]
    rng = random.Random(60 + n)
    words = [()] + [
        tuple(sorted(rng.randrange(basis.dim) for _ in range(rng.randint(1, 5)))) for _ in range(12)
    ]
    for e in cartan:
        for w in words:
            fast = NCPoly.unit(alg) if not w else NCPoly(alg, {w: 1})
            slow = NCPoly(alg, alg.reduce_word((e,) + w)) - NCPoly(alg, alg.reduce_word(w + (e,)))
            assert fast.commutator_with_letter(e) == slow


def symmetrized_generator(alg, n):
    return symmetrize(alg, orbit_ideal([1], semiinvariant_family(n)).generators[0])


def product_commutator(alg, s, e):
    letter = NCPoly.letter(alg, e)
    return letter * s - s * letter


@pytest.mark.parametrize(
    "n, degrees, names",
    [(2, {2, 4}, None), (3, {6, 8}, ("a11", "a22", "a12", "a31", "b11", "b23"))],
    ids=["n2-every-letter", "n3-cartan-gl-sym"],
)
def test_letter_commutator_of_the_generator_matches_products(algebras, n, degrees, names):
    # the generator's 14 (n=2) and 500 (n=3) words share suffixes and first
    # letters, and its words of the lower degree carry h
    alg = algebras[n]
    g = symmetrized_generator(alg, n)
    assert {word_length(w, alg.shift) + p for w, p in g.flat} == degrees
    letters = range(alg.dim) if names is None else map(alg.basis.names.index, names)
    for e in letters:
        assert g.commutator_with_letter(e) == product_commutator(alg, g, e)


def test_letter_commutator_with_a_constant_term_and_h_at_two_degrees(algebras):
    # a constant term, one word at h and h^2, and the generator's words again
    # at h and h^2: each word and first letter meets several degrees
    alg = algebras[3]
    g = symmetrized_generator(alg, 3)
    extra = NCPoly(alg, {(): Fraction(7, 3), (0, 9, 12): HPoly((0, 2, Fraction(-1, 2)))})
    s = g + g.shift_h(1).scale(Fraction(1, 5)) - g.shift_h(2) + extra
    assert s.terms[()] == Fraction(7, 3)
    for e in range(alg.dim):
        assert s.commutator_with_letter(e) == product_commutator(alg, s, e)


def draw_suffix_sharing_ncpoly(data, alg):
    """A constant term and words that share suffixes: each of a few tails
    is taken by several heads, and each term lies at up to three h powers."""
    nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    at_h_powers = st.lists(st.tuples(st.integers(0, 2), nonzero), min_size=1, max_size=3)
    terms = {(): HPoly.h(*data.draw(st.tuples(st.integers(0, 2), nonzero)))}
    for _ in range(data.draw(st.integers(1, 3))):
        tail = draw_word(data, alg.dim, 3)
        # head letters up to the tail's first letter keep head + tail sorted
        top = tail[0] if tail else alg.dim - 1
        for _ in range(data.draw(st.integers(1, 3))):
            head = tuple(sorted(data.draw(st.lists(st.integers(0, top), min_size=1, max_size=2))))
            terms[head + tail] = sum((HPoly.h(p, c) for p, c in data.draw(at_h_powers)), HPoly.zero())
    return NCPoly(alg, terms)


@DIFFERENTIAL
@given(data=st.data())
def test_suffix_plan_commutators_match_products_and_the_literal_rewriter(algebras, data):
    # one suffix plan per element serves every letter: each letter, in a
    # shuffled order on one element and again on a fresh copy, gives the
    # product commutator and the literal rewriter's
    alg = algebras[data.draw(st.sampled_from((1, 2, 3)))]
    s = draw_suffix_sharing_ncpoly(data, alg)
    assert s.terms[()] != 0
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    expected = {}
    for e in data.draw(st.permutations(range(alg.dim))):
        slow = NCPoly.zero(alg)
        for w, c in s.terms.items():
            slow = slow + literal(alg, (e,) + w, c, rng) - literal(alg, w + (e,), c, rng)
        assert product_commutator(alg, s, e) == slow
        assert s.commutator_with_letter(e) == slow
        expected[e] = slow
    fresh = NCPoly(alg, s.terms)
    for e in data.draw(st.permutations(range(alg.dim))):
        assert fresh.commutator_with_letter(e) == expected[e]


@DIFFERENTIAL
@given(data=st.data())
def test_symmetrize_matches_literal_permutation_sum(algebras, data):
    alg = algebras[data.draw(st.sampled_from((2, 3)))]
    variables = tuple("x" + s for s in alg.basis.names)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    poly = MultiPoly.zero(variables)
    slow = NCPoly.zero(alg)
    for _ in range(data.draw(st.integers(1, 3))):
        letters = data.draw(st.lists(st.integers(0, alg.dim - 1), max_size=4))
        coeff = Fraction(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)))
        exp = [0] * alg.dim
        for l in letters:
            exp[l] += 1
        poly = poly + MultiPoly.monomial(variables, tuple(exp), coeff)
        perms = list(permutations(letters))
        share = HPoly.of(coeff / len(perms))
        for perm in perms:
            slow = slow + literal(alg, perm, share, rng)
    assert symmetrize(alg, poly) == slow


def test_halved_structure_constants_are_refused():
    # halving every structure constant keeps the Jacobi identity, but the
    # bracket table takes integral constants only
    _, sc = build_lie_basis(2)
    table = {}
    for i, j, k, v in sc.entries():
        table.setdefault((i, j), {})[k] = Fraction(v, 2)
    with pytest.raises(StructuralError, match="integers"):
        StructureConstants(sc.dim, table)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_memo_entries_are_integral_insertions(n):
    alg, basis = make_algebra(n)
    rng = random.Random(59 + n)
    for _ in range(30):
        w1 = tuple(sorted(rng.randrange(basis.dim) for _ in range(3)))
        w2 = tuple(sorted(rng.randrange(basis.dim) for _ in range(3)))
        fast = NCPoly(alg, {w1: HPoly.one()}) * NCPoly(alg, {w2: HPoly.one()})
        assert fast == NCPoly(alg, alg.reduce_word(w1 + w2, rng=rng))
    entries = [entry for memo in alg._memo for entry in memo.values()]
    assert entries and all(type(c) is int for entry in entries for _, c in entry)
    # every memo entry, keyed and valued by packed words, is X_l X^w
    shift = alg.shift
    for l, memo in enumerate(alg._memo):
        for w, entry in memo.items():
            word = unpack_word(w, shift)
            assert type(w) is int and word and l > word[0]
            fast = {}
            for code, c in entry:
                v = unpack_word(code, shift)
                fast[v] = HPoly.h(len(word) + 1 - len(v), c)
            assert fast == alg.reduce_word((l,) + word)
