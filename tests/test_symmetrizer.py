"""The symmetrizer's Bernoulli recursion against the sub-exponent lattice.

``lattice_symmetrize`` is the symmetrizer the package used before the
recursion: U(a), the sum of X^v over the distinct orderings v of the
letters of x^a, satisfies U(a) = sum_{l : a_l > 0} X_l U(a - e_l), and
Sym(x^a) = U(a) / multinomial(a).  It expands every sub-exponent of every
monomial, so it is slow, but it shares no formula with the recursion and
serves as its oracle here.
"""

import random
from fractions import Fraction
from math import factorial, lcm

import pytest

from orbitquant import linalg as la
from orbitquant import ncpoly
from orbitquant.errors import CertificationError
from orbitquant.hpoly import HPoly
from orbitquant.invariants import orbit_ideal, semiinvariant_family, symbolic_dual_matrices
from orbitquant.lie import DualCoordinates, build_lie_basis
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
from orbitquant.quantize import commutator_weight


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


def test_recursion_matches_the_lattice_on_the_n4_generator():
    s1 = n4_generator()
    fast = symmetrize(ALGEBRAS[4], s1)
    slow = lattice_symmetrize(ALGEBRAS[4], s1)
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
    # but d! Sym(x^a) is no longer integral
    monkeypatch.setattr(ncpoly, "_BERNOULLI", _planted(ncpoly._BERNOULLI, 2, Fraction(1, 7)))
    alg = ALGEBRAS[2]
    exp = (2, 1) + (0,) * (alg.dim - 2)
    with pytest.raises(CertificationError, match="x" + alg.basis.names[0]):
        symmetrize(alg, MultiPoly.monomial(alg.variables, exp))


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


def test_prepend_count_on_the_n3_generator(monkeypatch):
    # one prepend per monomial met: 1,246 calls on a fresh algebra, where
    # the sub-exponent lattice made 103,921; the count repeats exactly
    generator = n3_generator()
    alg = PBWAlgebra(*build_lie_basis(3))
    calls = counted_prepends(monkeypatch)
    symmetrize(alg, generator)
    assert 1_000 <= calls[0] <= 1_500


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
