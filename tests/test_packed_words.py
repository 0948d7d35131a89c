"""Packed PBW words against the tuple words they encode, the ``terms`` view
that gives tuple words back, and the letter checks at the edges."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitquant.errors import StructuralError
from orbitquant.hpoly import HPoly
from orbitquant.lie import build_lie_basis
from orbitquant.ncpoly import (
    NCPoly,
    PBWAlgebra,
    checked_word,
    exponent_of_word,
    pack_exponent,
    pack_word,
    unpack_word,
    word_length,
    word_of_exponent,
)
from orbitquant.poly import GREVLEX, monomials_up_to_degree
from orbitquant.quantize import OrbitQuantization

PROPERTY = settings(max_examples=200, deadline=None)
DIMS = (3, 7, 15, 26)


@st.composite
def dim_and_word(draw, max_len=20):
    dim = draw(st.sampled_from(DIMS))
    letters = draw(st.lists(st.integers(0, dim - 1), max_size=max_len))
    return dim, tuple(sorted(letters))


@PROPERTY
@given(dim_and_word(), st.data())
def test_packed_operations_match_tuple_operations(dim_word, data):
    dim, word = dim_word
    shift = dim.bit_length()
    mask = (1 << shift) - 1
    code = pack_word(word, shift)
    assert type(code) is int
    assert unpack_word(code, shift) == word
    assert word_length(code, shift) == len(word)
    assert (code == 0) == (word == ())
    if word:
        assert (code & mask) - 1 == word[0]  # first letter
        assert unpack_word(code >> shift, shift) == word[1:]  # rest of the word
    letter = data.draw(st.integers(0, word[0] if word else dim - 1))
    prepended = (code << shift) | (letter + 1)
    assert prepended == pack_word((letter,) + word, shift)
    assert unpack_word(prepended, shift) == (letter,) + word


@PROPERTY
@given(st.data())
def test_exponent_packing_matches_the_ordered_word(data):
    dim = data.draw(st.sampled_from(DIMS))
    exp = tuple(data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim)))
    assert pack_exponent(exp, dim.bit_length()) == pack_word(word_of_exponent(exp), dim.bit_length())


def test_extreme_words_round_trip():
    for dim in DIMS:
        shift = dim.bit_length()
        for word in ((), (0,), (dim - 1,), (0,) * 20, (dim - 1,) * 20, tuple(range(dim))):
            assert unpack_word(pack_word(word, shift), shift) == word
            assert word_length(pack_word(word, shift), shift) == len(word)
    # the top letter at 26 letters fills its 5-bit digit: 20 of them exceed 64 bits
    assert pack_word((25,) * 20, 5).bit_length() == 100


# -- the terms view ---------------------------------------------------------------

ALGEBRAS = {n: PBWAlgebra(*build_lie_basis(n)) for n in (1, 2, 3)}
values = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_terms_view_round_trips(data):
    alg = ALGEBRAS[data.draw(st.sampled_from((1, 2, 3)))]
    words = st.lists(st.integers(0, alg.dim - 1), max_size=5).map(lambda w: tuple(sorted(w)))
    terms = {
        w: HPoly(data.draw(st.lists(values, min_size=1, max_size=3)))
        for w in data.draw(st.lists(words, max_size=4, unique=True))
    }
    u = NCPoly(alg, terms)
    v = NCPoly(alg, {(0,): 1}) * u  # an element built by the kernel
    for x in (u, v):
        view = x.terms
        assert all(type(w) is tuple and all(type(l) is int for l in w) for w in view)
        assert NCPoly(alg, view) == x
        assert NCPoly.from_json(alg, x.to_json()) == x
        assert all(type(code) is int for code, _ in x.flat)


# -- the term order ---------------------------------------------------------------


def grevlex_key(alg, term):
    """The term order on h^p X^w stated on exponents: length plus h power,
    then the commutative grevlex key (degree first)."""
    w, p = term
    exp = exponent_of_word(unpack_word(w, alg.shift), alg.dim)
    return (sum(exp) + p, GREVLEX.key(exp))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_term_key_is_length_plus_h_then_grevlex(n):
    # dims 2, 7 and 15: every term h^p X^w with p <= 2 and len(w) + p <= 4
    alg = ALGEBRAS[n]
    terms = [
        (pack_exponent(exp, alg.shift), p)
        for exp in monomials_up_to_degree(alg.dim, 4)
        for p in range(min(2, 4 - sum(exp)) + 1)
    ]
    assert sorted(terms, key=alg.term_key) == sorted(terms, key=lambda t: grevlex_key(alg, t))


@pytest.mark.parametrize("n, cap", [(2, 6), (3, 8)])
def test_symmetrized_generator_leads_with_the_groebner_lead(n, cap):
    eng = OrbitQuantization(n, [1], deg_cap=cap, build_reduction=False)
    alg, flat = eng.algebra, eng.sym_generators[0].flat
    lead = (pack_exponent(eng.groebner[0].leading()[0], alg.shift), 0)
    assert max(flat, key=alg.term_key) == lead
    assert max(flat, key=lambda t: grevlex_key(alg, t)) == lead


# -- letters are checked where they enter -----------------------------------------


def test_checked_word():
    assert checked_word([0, 2, 1], 3) == (0, 2, 1)
    assert checked_word((), 3) == ()
    for bad in ((1.0,), (True,), ("1",), (3,), (-1,), (0, None)):
        with pytest.raises(StructuralError):
            checked_word(bad, 3)
    for bad in ("01", 1, None):
        with pytest.raises(StructuralError):
            checked_word(bad, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda alg: NCPoly(alg, {(1.0,): 1}),
        lambda alg: NCPoly(alg, {(True,): 1}),
        lambda alg: NCPoly(alg, {(0, alg.dim): 1}),
        lambda alg: NCPoly.letter(alg, 1.0),
        lambda alg: NCPoly.letter(alg, alg.dim),
        lambda alg: NCPoly.from_word(alg, (1, 0.0)),
        lambda alg: NCPoly.from_json(alg, [{"word": [0, 1.5], "coefficient": ["1"]}]),
        lambda alg: NCPoly.from_json(alg, [{"word": "01", "coefficient": ["1"]}]),
        lambda alg: alg.reduce_word((False, 1)),
        lambda alg: NCPoly.letter(alg, 0).commutator_with_letter(99),
        lambda alg: NCPoly.letter(alg, 0).commutator_with_letter(-1),
        lambda alg: NCPoly.letter(alg, 0).commutator_with_letter(True),
    ],
)
def test_letters_are_checked_where_they_enter(build):
    # each was accepted (NCPoly with 1.0 or True, commutators with 99 and -1
    # giving 0) or died with a TypeError
    with pytest.raises(StructuralError):
        build(ALGEBRAS[2])


def test_commutator_with_letter_at_the_range_ends():
    alg = ALGEBRAS[2]
    x = NCPoly.letter(alg, 0)
    for e in (0, alg.dim - 1):
        assert x.commutator_with_letter(e) == NCPoly.letter(alg, e) * x - x * NCPoly.letter(alg, e)
    assert NCPoly(alg, {(): Fraction(1, 2)}).commutator_with_letter(0).is_zero()
