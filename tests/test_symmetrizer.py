"""The symmetrizer's Bernoulli recursion against the sub-exponent lattice.

``lattice_symmetrize`` is the symmetrizer the package used before the
recursion: U(a), the sum of X^v over the distinct orderings v of the
letters of x^a, satisfies U(a) = sum_{l : a_l > 0} X_l U(a - e_l), and
Sym(x^a) = U(a) / multinomial(a).  It expands every sub-exponent of every
monomial, so it is slow, but it shares no formula with the recursion and
serves as its oracle here.  ``slot_scan_symmetrize`` is the recursion
before its gradient step read only the nonzero brackets
(``StructureConstants.bracketing``): it tests every exponent slot of
every gradient term against the bracket table, and is the oracle of that
step.  The weight tables of symmetrized generators
are checked here too: each letter's own certified commutator
(``commutator_weight``) is the oracle of the row that ``weight_row``
derives from brackets.
"""

import dataclasses
import gc
import random
import re
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from orbitquant import linalg as la
from orbitquant import ncpoly, quantize
from orbitquant.errors import CertificationError
from orbitquant.hpoly import HPoly
from orbitquant.invariants import orbit_ideal, semiinvariant_family, symbolic_dual_matrices
from orbitquant.lie import DualCoordinates, LieBasis, StructureConstants, build_lie_basis
from orbitquant.ncpoly import (
    SYMMETRIZER_DEGREE_CAP,
    NCPoly,
    PBWAlgebra,
    WordTerms,
    _add_scaled,
    bernoulli_numbers,
    symmetrize,
)
from orbitquant.poly import MultiPoly
from orbitquant.quantize import OrbitQuantization, commutator_weight, weight_row


def lattice_symmetrize(algebra: PBWAlgebra, poly: MultiPoly) -> NCPoly:
    """Sym(poly) through the memoized sum over letter orderings."""
    memo: dict[tuple[int, ...], WordTerms] = {(0,) * algebra.dim: {0: 1}}

    def orderings(exp: tuple[int, ...]) -> WordTerms:
        cached = memo.get(exp)
        if cached is not None:
            return cached
        acc: WordTerms = {}
        for letter, count in enumerate(exp):
            if count:
                sub = exp[:letter] + (count - 1,) + exp[letter + 1 :]
                algebra._prepend(letter, orderings(sub).items(), acc)
        memo[exp] = acc = {v: c for v, c in acc.items() if c}
        return acc

    def multinomial(exp: tuple[int, ...]) -> int:
        out = factorial(sum(exp))
        for count in exp:
            out //= factorial(count)
        return out

    counts = {exp: multinomial(exp) for exp in poly.flat}
    scale = lcm(*counts.values())
    flat: dict[tuple[int, int], int] = {}
    for exp, c in poly.flat.items():
        a = c * (scale // counts[exp])
        _add_scaled(flat, orderings(exp), sum(exp), ((0, a),), algebra.shift)
    return NCPoly._trusted(algebra, flat, poly.den * scale)


def slot_scan_gradient(grad: dict, brackets: list) -> dict:
    """sum_i (ad_{e_i} (x) d/dx_i) G over every slot i of every term."""
    out: dict = {}
    for (j, m), c in grad.items():
        for i, mi in enumerate(m):
            if mi and brackets[i][j]:
                lower, scale = m[:i] + (mi - 1,) + m[i + 1 :], c * mi
                for t, v in brackets[i][j]:
                    key = (t, lower)
                    out[key] = out.get(key, 0) + scale * v
    return out


def slot_scan_symmetrize(algebra: PBWAlgebra, poly: MultiPoly) -> NCPoly:
    """Sym(poly) by the integer recursion on W(a) = |a|! Sym(x^a), each
    gradient step over every exponent slot."""
    bernoulli = ncpoly._BERNOULLI
    big_l = lcm(*(b.denominator for b in bernoulli))
    scaled = [b.numerator * (big_l // b.denominator) for b in bernoulli]
    brackets = algebra.sc.brackets
    memo: dict[tuple[int, ...], WordTerms] = {(0,) * algebra.dim: {0: 1}}

    def factorial_sym(exp: tuple[int, ...]) -> WordTerms:
        cached = memo.get(exp)
        if cached is not None:
            return cached
        d = sum(exp)
        l = next(i for i, count in enumerate(exp) if count)
        b = exp[:l] + (exp[l] - 1,) + exp[l + 1 :]
        correction: WordTerms = {}
        grad = {(l, b): 1}
        for k in range(1, d):
            grad = slot_scan_gradient(grad, brackets)
            if not grad:
                break
            if not scaled[k]:
                continue
            q: dict = {}
            for (j, m), c in grad.items():
                if c:
                    e = m[:j] + (m[j] + 1,) + m[j + 1 :]
                    q[e] = q.get(e, 0) + c
            factor = comb(d, k) * scaled[k]
            for e, c in q.items():
                if c:
                    c *= factor
                    for v, w in factorial_sym(e).items():
                        correction[v] = correction.get(v, 0) + c * w
        acc = algebra._prepend(l, factorial_sym(b).items())
        for v, c in acc.items():
            acc[v] = d * c
        for v, c in correction.items():
            whole, rest = divmod(c, big_l)
            assert not rest
            acc[v] = acc.get(v, 0) - whole
        memo[exp] = acc = {v: c for v, c in acc.items() if c}
        return acc

    scale = lcm(*(factorial(sum(exp)) for exp in poly.flat))
    flat: dict[tuple[int, int], int] = {}
    for exp, c in poly.flat.items():
        d = sum(exp)
        _add_scaled(flat, factorial_sym(exp), d, ((0, c * (scale // factorial(d))),), algebra.shift)
    return NCPoly._trusted(algebra, flat, poly.den * scale)


ALGEBRAS = {n: PBWAlgebra(*build_lie_basis(n)) for n in (1, 2, 3, 4)}


def seeded_polys(n: int, seed: int, count: int = 4) -> list[MultiPoly]:
    """Polynomials of a few terms each, of degree up to the cap, with
    rational coefficients."""
    alg = ALGEBRAS[n]
    rng = random.Random(seed)
    polys = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = [0] * alg.dim
            for _ in range(rng.randint(0, SYMMETRIZER_DEGREE_CAP)):
                exp[rng.randrange(alg.dim)] += 1
            terms[tuple(exp)] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        polys.append(MultiPoly(alg.variables, terms))
    return polys


DIFFERENTIAL_CASES = [(n, seed) for n in (1, 2, 3, 4) for seed in range(3)]


@pytest.mark.parametrize("n, seed", DIFFERENTIAL_CASES)
def test_recursion_matches_the_lattice(n, seed):
    for poly in seeded_polys(n, 100 * n + seed):
        fast = symmetrize(ALGEBRAS[n], poly)
        slow = lattice_symmetrize(ALGEBRAS[n], poly)
        assert (fast.flat, fast.den) == (slow.flat, slow.den)


def n4_generator() -> MultiPoly:
    """The saturated n = 4 generator s_1 = det(c) tr(a^2) - tr((c a)(adj(c) a^t)) + 20 det(c)."""
    c, a, adj_c, det_c = symbolic_dual_matrices(DualCoordinates(ALGEBRAS[4].basis))
    cross = la.trace(la.mat_mul(la.mat_mul(c, a), la.mat_mul(adj_c, la.transpose(a))))
    s1 = det_c * la.trace(la.mat_mul(a, a)) - cross + det_c * 20
    assert len(s1.flat) == 875 and s1.total_degree() == 6
    return s1


def n4_pfaffian_generator() -> MultiPoly:
    """The Pfaffian semiinvariant P = det(c) Pf(N) / 4 of the n = 4 family."""
    family = semiinvariant_family(4, DualCoordinates(ALGEBRAS[4].basis))
    pf = family.generators[family.kinds.index("pfaffian")]
    assert len(pf.flat) == 2280 and pf.total_degree() == 8
    return pf


N4_GENERATORS = pytest.mark.parametrize(
    "generator", [n4_generator, n4_pfaffian_generator], ids=["s1", "pfaffian"]
)


def test_recursion_matches_the_lattice_on_the_n4_generator():
    s1 = n4_generator()
    fast = symmetrize(ALGEBRAS[4], s1)
    slow = lattice_symmetrize(ALGEBRAS[4], s1)
    assert (fast.flat, fast.den) == (slow.flat, slow.den)


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (2, 3) for seed in range(5)])
def test_the_nonzero_bracket_gradient_matches_the_slot_scan(n, seed):
    for poly in seeded_polys(n, 1000 * n + seed):
        fast = symmetrize(ALGEBRAS[n], poly)
        slow = slot_scan_symmetrize(ALGEBRAS[n], poly)
        assert (fast.flat, fast.den) == (slow.flat, slow.den)


@pytest.mark.parametrize("n", [2, 3])
def test_entries_at_the_degree_cap_match_the_slot_scan(n):
    # x_i^8 and x_i^7 x_j fill a packed exponent's slot to the cap, in
    # every slot, the last included
    alg = ALGEBRAS[n]
    cap = SYMMETRIZER_DEGREE_CAP
    for i in range(alg.dim):
        for j in range(alg.dim):
            exp = [0] * alg.dim
            exp[i] += cap - 1
            exp[j] += 1
            poly = MultiPoly.monomial(alg.variables, tuple(exp))
            fast = symmetrize(alg, poly)
            slow = slot_scan_symmetrize(alg, poly)
            assert (fast.flat, fast.den) == (slow.flat, slow.den)


@N4_GENERATORS
def test_the_nonzero_bracket_gradient_matches_the_slot_scan_on_the_n4_generator(generator):
    poly = generator()
    fast = symmetrize(ALGEBRAS[4], poly)
    slow = slot_scan_symmetrize(ALGEBRAS[4], poly)
    assert (fast.flat, fast.den) == (slow.flat, slow.den)


def test_bernoulli_numbers():
    expected = (1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42), 0, Fraction(-1, 30))
    assert bernoulli_numbers(8) == expected
    assert ncpoly._BERNOULLI == expected[:SYMMETRIZER_DEGREE_CAP]


def _planted(table, k, value):
    return table[:k] + (Fraction(value),) + table[k + 1 :]


PLANTED = {
    "B4 dropped": lambda t: _planted(t, 4, 0),
    "B6 dropped": lambda t: _planted(t, 6, 0),
    "B1 sign flipped": lambda t: _planted(t, 1, -t[1]),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_bernoulli_faults_fail_the_differential(monkeypatch, fault):
    # each fault must show on the differential inputs: a wrong answer or a
    # failed exact division, on at least one of the seeded polynomials
    monkeypatch.setattr(ncpoly, "_BERNOULLI", PLANTED[fault](ncpoly._BERNOULLI))
    caught = False
    for n, seed in DIFFERENTIAL_CASES:
        for poly in seeded_polys(n, 100 * n + seed):
            try:
                fast = symmetrize(ALGEBRAS[n], poly)
            except CertificationError:
                caught = True
                break
            slow = lattice_symmetrize(ALGEBRAS[n], poly)
            if (fast.flat, fast.den) != (slow.flat, slow.den):
                caught = True
                break
        if caught:
            break
    assert caught


def test_a_corrupted_bernoulli_value_fails_the_exact_division(monkeypatch):
    # B_2 = 1/7 in place of 1/6 keeps the lcm of the denominators at 210,
    # but d! Sym(x^a) is no longer integral; the message names x^a, unpacked
    # from the recursion's packed exponent
    monkeypatch.setattr(ncpoly, "_BERNOULLI", _planted(ncpoly._BERNOULLI, 2, Fraction(1, 7)))
    alg = ALGEBRAS[2]
    monomial = MultiPoly.monomial(alg.variables, (2, 1) + (0,) * (alg.dim - 2))
    with pytest.raises(CertificationError, match=re.escape(f"3! Sym({monomial}) is not integral")):
        symmetrize(alg, monomial)


def counted_prepends(monkeypatch) -> list[int]:
    """Count the ``PBWAlgebra._prepend`` calls from here on, in the returned
    one-element list."""
    calls = [0]
    prepend = PBWAlgebra._prepend

    def counted(self, *args):
        calls[0] += 1
        return prepend(self, *args)

    monkeypatch.setattr(PBWAlgebra, "_prepend", counted)
    return calls


def n3_generator():
    generator = orbit_ideal([1], semiinvariant_family(3)).generators[0]
    assert (len(generator.flat), generator.total_degree()) == (444, 8)
    return generator


def test_the_symmetrizer_leaves_no_cyclic_garbage():
    # the recursion's memo is freed by reference counting when symmetrize
    # returns, not held until a collection of the cyclic GC
    poly = n3_generator()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        symmetrize(PBWAlgebra(*build_lie_basis(3)), poly)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_prepend_count_on_the_n3_generator(monkeypatch):
    # one prepend per monomial met: 1,246 calls on a fresh algebra, where
    # the sub-exponent lattice made 103,921; the count repeats exactly
    generator = n3_generator()
    alg = PBWAlgebra(*build_lie_basis(3))
    calls = counted_prepends(monkeypatch)
    symmetrize(alg, generator)
    assert 1_000 <= calls[0] <= 1_500


def test_gradient_steps_on_the_n3_generator(monkeypatch):
    # G_k stops at the first empty gradient, since every later one is empty
    # too: 2,503 steps, where stepping through to degree d - 1 made 7,118,
    # 4,615 of them on an empty gradient; the output is unchanged
    generator = n3_generator()
    expected = lattice_symmetrize(ALGEBRAS[3], generator)
    steps = [0]
    honest = ncpoly._ad_gradient

    def counted(grad, brackets):
        steps[0] += 1
        return honest(grad, brackets)

    monkeypatch.setattr(ncpoly, "_ad_gradient", counted)
    sym = symmetrize(PBWAlgebra(*build_lie_basis(3)), generator)
    assert steps[0] == 2_503
    assert (sym.flat, sym.den) == (expected.flat, expected.den)


def test_prepend_count_of_the_n3_weight_table(monkeypatch):
    # the letter commutators prepend once per letter of each (degree, first
    # letter) group that meets the letter, besides the insertion memo's own
    # prepends; the suffix table prepends inline: 5,150 calls for the 15
    # letters on a fresh algebra, where one prepend per suffix and letter
    # made 9,694 and rewriting each word on its own 23,044; the count repeats
    alg = PBWAlgebra(*build_lie_basis(3))
    sym_gen = symmetrize(alg, n3_generator())
    calls = counted_prepends(monkeypatch)
    for e in range(alg.dim):
        commutator_weight(alg, sym_gen, e)
    assert 4_520 <= calls[0] <= 5_840


def test_the_n3_weight_table_builds_one_suffix_plan(monkeypatch):
    # the 15 letters share the generator's suffix plan, built on first use
    alg = PBWAlgebra(*build_lie_basis(3))
    sym_gen = symmetrize(alg, n3_generator())
    calls = []
    plan = PBWAlgebra._suffix_plan
    monkeypatch.setattr(PBWAlgebra, "_suffix_plan", lambda self, flat: calls.append(flat) or plan(self, flat))
    weights = [commutator_weight(alg, sym_gen, e) for e in range(alg.dim)]
    assert calls == [sym_gen.flat] and any(not w.is_zero() for w in weights)


def test_the_n4_weight_table():
    # 26 letters: the Cartan ones certify from word weights, the others
    # through the suffix table; s_1 is normal with weight 2h on the diagonal
    # gl letters a_ii and commutes with every other letter
    alg = PBWAlgebra(*build_lie_basis(4))
    sym_gen = symmetrize(alg, n4_generator())
    diagonal = {f"a{i}{i}" for i in range(1, 5)}
    expected = [HPoly.h(1, 2) if name in diagonal else HPoly.zero() for name in alg.basis.names]
    assert len(expected) == 26
    assert [commutator_weight(alg, sym_gen, e) for e in range(alg.dim)] == expected


def weight_case(n: int) -> tuple[PBWAlgebra, NCPoly]:
    """A symmetrized normal element at size n: the engine's generator at
    n = 2 and 3, s_1 at n = 4, and Sym(x_b11^2) at n = 1, which has no engine."""
    if n == 1:
        alg = ALGEBRAS[1]
        b11 = MultiPoly.variable(alg.variables, 1)
        return alg, symmetrize(alg, b11 * b11)
    if n == 4:
        return ALGEBRAS[4], symmetrize(ALGEBRAS[4], n4_generator())
    engine = OrbitQuantization(n, [1], deg_cap=8, build_reduction=False)
    return engine.algebra, engine.sym_generators[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_weight_row_matches_each_letters_commutator(n):
    # most letters of the row are derived through bracket relations; each
    # must equal the weight that the letter's own commutator certifies
    alg, sym_gen = weight_case(n)
    row = weight_row(alg, sym_gen)
    assert row == [commutator_weight(alg, sym_gen, e) for e in range(alg.dim)]
    assert any(not w.is_zero() for w in row)


def counted_weights(monkeypatch) -> list[str]:
    """The letters, by name, that ``quantize.commutator_weight`` is called on
    from here on."""
    letters = []
    honest = quantize.commutator_weight

    def counted(algebra, sym_gen, letter):
        letters.append(algebra.basis.names[letter])
        return honest(algebra, sym_gen, letter)

    monkeypatch.setattr(quantize, "commutator_weight", counted)
    return letters


@pytest.mark.parametrize(
    "n, certified",
    [
        (2, ["a11", "a22", "a12", "b22", "a21"]),
        (3, ["a11", "a22", "a33", "a12", "b22", "a31", "a23"]),
    ],
)
def test_an_engine_build_certifies_only_the_letters_it_cannot_derive(monkeypatch, n, certified):
    # the Cartan letters first, then each letter after which the bracket
    # relations derive the most letters, the first in letter order among
    # equals: 5 of the 7 letters at n = 2 and 7 of the 15 at n = 3
    letters = counted_weights(monkeypatch)
    OrbitQuantization(n, [1], deg_cap=8, build_reduction=False)
    assert letters == certified


@N4_GENERATORS
def test_the_n4_weight_row_certifies_nine_letters(monkeypatch, generator):
    # the four Cartan letters and five root letters, of 26: the pick reads
    # only the bracket table, so both generators certify the same letters
    alg = ALGEBRAS[4]
    sym_gen = symmetrize(alg, generator())
    letters = counted_weights(monkeypatch)
    weight_row(alg, sym_gen)
    assert letters == ["a11", "a22", "a33", "a44", "a12", "b22", "a31", "a43", "a24"]


def test_the_n4_pfaffian_weight_row_matches_each_letters_commutator():
    # P has weight 3h on the diagonal gl letters a_ii and commutes with
    # every other letter, derived or certified
    alg = ALGEBRAS[4]
    sym_gen = symmetrize(alg, n4_pfaffian_generator())
    diagonal = {f"a{i}{i}" for i in range(1, 5)}
    expected = [HPoly.h(1, 3) if name in diagonal else HPoly.zero() for name in alg.basis.names]
    assert weight_row(alg, sym_gen) == expected
    assert [commutator_weight(alg, sym_gen, e) for e in range(alg.dim)] == expected


def closure(sc: StructureConstants, known: set) -> set:
    """The letters that the bracket relations reach from ``known``: a letter
    joins when a bracket of two reached letters names it and no other
    letter outside the set; worked out afresh on every pass, on sets."""
    known = set(known)
    while True:
        grown = False
        for i, j, _, _ in sc.entries():
            named = {k for k, _ in sc.brackets[i][j]} - known
            if {i, j} <= known and len(named) == 1:
                known |= named
                grown = True
        if not grown:
            return known


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_certified_letters_generate_every_letter(monkeypatch, n):
    alg, sym_gen = weight_case(n)
    letters = counted_weights(monkeypatch)
    weight_row(alg, sym_gen)
    names = alg.basis.names
    assert closure(alg.sc, {names.index(name) for name in letters}) == set(range(alg.dim))


def test_a_wrong_certified_weight_breaks_a_bracket_relation(monkeypatch):
    # 3h in place of 4h on a11, a Cartan letter: no letter is derived from
    # a bracket that names a11, so only the check of every relation sees it,
    # at [a12, a21] = h (a11 - a22)
    honest = quantize.commutator_weight

    def planted(algebra, sym_gen, letter):
        weight = honest(algebra, sym_gen, letter)
        if letter == 0:
            assert weight == HPoly.h(1, 4)
            return HPoly.h(1, 3)
        return weight

    monkeypatch.setattr(quantize, "commutator_weight", planted)
    with pytest.raises(CertificationError, match="bracket relation of letters 1 and 3"):
        OrbitQuantization(3, [1], deg_cap=8, build_reduction=False)


def test_a_wrong_certified_root_weight_breaks_a_bracket_relation(monkeypatch):
    # h in place of 0 on a12, the first root letter certified at n = 3: the
    # letters derived from it inherit the error, and the check of every
    # relation sees it
    honest = quantize.commutator_weight

    def planted(algebra, sym_gen, letter):
        weight = honest(algebra, sym_gen, letter)
        if algebra.basis.names[letter] == "a12":
            assert weight == HPoly.zero()
            return HPoly.h(1, 1)
        return weight

    monkeypatch.setattr(quantize, "commutator_weight", planted)
    with pytest.raises(CertificationError, match="bracket relation of letters"):
        OrbitQuantization(3, [1], deg_cap=8, build_reduction=False)


def test_an_engine_on_a_generator_that_is_not_normal_is_refused(monkeypatch):
    # p + x_0^2 is not semi-invariant: its symmetrization is not normal, and
    # the first letter certified, the Cartan letter a11, already sees it:
    # X_a11^2 has a11-weight 0 where the words of p have 4
    real = quantize.orbit_ideal

    def perturbed(lambdas, family):
        ideal = real(lambdas, family)
        p = ideal.generators[0]
        x0 = MultiPoly.variable(p.variables, 0)
        return dataclasses.replace(ideal, generators=(p + x0 * x0,))

    monkeypatch.setattr(quantize, "orbit_ideal", perturbed)
    with pytest.raises(CertificationError, match="letter 0 is not proportional"):
        OrbitQuantization(3, [1], deg_cap=8, build_reduction=False)


def twisted_pair_algebra() -> PBWAlgebra:
    """Two copies of the 2-dimensional algebra [A_i, B_i] = B_i, in the basis
    x = A1, y = B1 + B2, e = A2 + B2, k = -A2: no letter is Cartan, and
    [x, y] = y - e - k names two letters of nonzero weight on B1 B2."""
    table = {
        (0, 1): {1: 1, 2: -1, 3: -1},
        (1, 2): {2: -1, 3: -1},
        (1, 3): {2: 1, 3: 1},
        (2, 3): {2: 1, 3: 1},
    }
    return PBWAlgebra(LieBasis(0, ("x", "y", "e", "k"), (), ()), StructureConstants(4, table))


def test_a_bracket_with_two_unknown_letters_derives_neither(monkeypatch):
    # B1 B2 = (xe + xk)(xy - xe - xk) has weight h on A1 and A2 and 0 on B1
    # and B2.  No single letter derives another, and from x no letter
    # derives one, so x and then y are certified; [x, y] = y - e - k then
    # names two unknown letters.  e is certified, and only then is k
    # derived; reading F_k as 0 while it is unknown would give e and k the
    # weight 0, which every bracket relation also satisfies
    alg = twisted_pair_algebra()
    xy, xe, xk = (MultiPoly.variable(alg.variables, i) for i in (1, 2, 3))
    sym_gen = symmetrize(alg, (xe + xk) * (xy - xe - xk))
    letters = counted_weights(monkeypatch)
    row = weight_row(alg, sym_gen)
    assert letters == ["x", "y", "e"]
    assert row == [HPoly.h(1, 1), HPoly.zero(), HPoly.h(1, 1), HPoly.h(1, -1)]
    assert row == [commutator_weight(alg, sym_gen, e) for e in range(alg.dim)]
