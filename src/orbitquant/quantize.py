"""Degree-by-degree quantization of a regular orbit's polynomial algebra.

The engine symmetrizes the orbit ideal generator into the homogenized
enveloping algebra and certifies that commuting a basis letter past the
symmetrized generator g only costs a scalar (the quantum shadow of
semiinvariance), so the two-sided ideal is the left ideal of g.  The
letters with that property form a Lie subalgebra on which the scalar is
linear in the brackets, so the weight table (``weight_row``) rewrites
the Cartan letters and then, one at a time, the letter from which the
bracket relations derive the most others (4 of the 12 others at n = 3),
reads the rest off the bracket relations by the Jacobi identity, and
checks the finished row against every relation.  Each letter is
certified along one path (``commutator_weight``): [X_e, -] raises the
degree of every term by one and h is not a zero divisor, so the scalar
of a homogeneous generator is F = t h with t rational, read off any term
of the commutator, and the whole commutator is then compared with t h g
term for term.  The row is worked out on the rationals t.  In a PBW
algebra, a domain of solvable type, one element is a left Groebner
basis of the left ideal it generates (Kandri-Rody and Weispfenning,
J. Symbolic Comput. 9, 1990; Levandovskyy, PhD thesis, Kaiserslautern,
2005).  With terms h^p X^w ordered by length plus h power, then length,
then grevlex (``PBWAlgebra.term_key``, read off the packed word), the
leading term of g is the commutative leading monomial X^lead, and
normal forms come from left division, memoized per word:
NF(X^w) = NF(X^w - X^q g / lc) with q = exp(w) - lead when lead divides
exp(w), else X^w; and NF(h^p X^w) = h^p NF(X^w).  This gives the
quotient-basis certificate, a linear reduction onto standard-monomial
support, and the star product f * g = phi^-1(reduce(phi(f) phi(g))),
with phi the ordered-monomial identification.  No reduction table is
built, so this reaches n = 3 as well as n = 2; n >= 4 has two generators
and is refused.  Everything is exact; each premise of the division is checked.
The module holds the engine only: the checks of the deformation axioms
and of h-torsion that run it are criteria of ``verify``.

The star product runs on one flat layout from start to finish, in one
pass per stage.  The lift (``_lift``) turns each operand term's exponent
into its packed word and degree by one lookup, filled on first sight
with the standard exponents inside the cap (``_lift_entry``), so the
same loop reads the operand's filtration degree for the cap check; a
non-standard exponent never enters the lookup and is refused on every
call.  The operands, integer numerators keyed by (packed word, h power)
over one common denominator, are multiplied with the PBW fold
(``PBWAlgebra._product``), and the read-back (``_read_back``) reads each
product word's entry of the word table once: a standard word goes
straight to its exponent key in the returned QuotientElement, which
stores the same layout, and any other word has its memoized normal form
substituted, each word of the form certified standard where it is used
(``_standard_exponent``).  No ``NCPoly`` and no ``HPoly`` is built, and
no tuple word once the engine has seen the words: what the engine needs
to know of a packed word (its exponent and whether it is standard) is
worked out once, on first sight, into one table (``_word_data``), and
its place in the term order is read off the code itself
(``PBWAlgebra.term_key``), so a division step (``_step``) enters only
the word it divides.  The normal forms are memoized in the same layout,
keyed by packed words; the division step of each is run once and not
kept, and its non-standard words are substituted by ``_substitute``.
``reduce`` (which packs its output words at its edge), ``phi``,
``phi_inverse`` and ``NCPoly`` products run on the same helpers.
``QuotientElement`` adds only its input checks and conversions to the
shared ``ncpoly._HTerms``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .errors import CapacityError, CertificationError, StructuralError
from .groebner import divide, groebner_basis
from .hpoly import HPoly
from .invariants import OrbitIdeal, orbit_ideal, semiinvariant_family
from .jsonio import required
from .lie import DualCoordinates, build_lie_basis, lie_poisson_bracket
from .ncpoly import (
    NCPoly,
    PBWAlgebra,
    Word,
    _flatten,
    _hvalues,
    _HTerms,
    checked_word,
    exponent_of_word,
    pack_exponent,
    pack_word,
    symmetrize,
    unpack_word,
)
from .poly import (
    Exponent,
    MultiPoly,
    _lowest_terms,
    checked_exponent,
    keyed_once,
    monomials_up_to_degree,
    polynomial_record,
)


class QuotientElement(_HTerms):
    """A quotient-algebra element on standard-monomial support.

    Keys are exponent tuples (standard monomials) over ``variables``.  The
    constructor takes {exponent: HPoly or exact scalar} and checks each
    exponent as MultiPoly does.  The commutative polynomial algebra embeds
    via h-free coefficients; star products return elements with genuine h
    content.
    """

    __slots__ = ("variables",)
    _context_slot = "variables"
    _key_degree = staticmethod(sum)
    _mismatch = "quotient elements over different variables"

    def __init__(self, variables, terms: dict | None = None):
        variables = tuple(variables)
        items = [
            (checked_exponent(e, len(variables)), _hvalues(c)) for e, c in (terms or {}).items()
        ]
        self._set(variables, *_flatten(items))

    @classmethod
    def from_multipoly(cls, p: MultiPoly) -> "QuotientElement":
        return cls._trusted(p.variables, {(e, 0): c for e, c in p.flat.items()}, p.den)

    def h_coefficient(self, k: int) -> MultiPoly:
        flat = {e: c for (e, p), c in self.flat.items() if p == k}
        return MultiPoly._trusted(self.variables, flat, self.den)

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: kv[0])
        return {
            "variables": list(self.variables),
            "terms": [
                {"exponents": list(e), "coefficient": c.to_json()} for e, c in items
            ],
        }

    @classmethod
    def from_json(cls, data) -> "QuotientElement":
        variables, records = polynomial_record(data)
        n = len(variables)
        terms = keyed_once(
            (
                (
                    checked_exponent(required(rec, "exponents"), n),
                    HPoly.from_json(required(rec, "coefficient")),
                )
                for rec in records
            ),
            "exponent",
        )
        return cls(variables, terms)


def commutator_weight(algebra: PBWAlgebra, sym_gen: NCPoly, letter: int) -> HPoly:
    """The scalar F with [X_letter, sym_gen] = F * sym_gen, certified.

    The per-letter primitive: ``weight_row`` runs it on the Cartan letters
    and on the letters it picks to certify.  Every letter takes one path.
    The commutator comes from ``PBWAlgebra._commutator`` over the
    generator's suffix plan, which is the one place that knows Cartan
    letters, through word weights.
    [X_letter, -] raises the degree of every term by one and h is not a
    zero divisor, so on a homogeneous generator g a nonzero F is t h with
    t rational.  t is read off any term h^p X^w of the commutator against
    g's coefficient of h^(p-1) X^w, and the whole commutator must then
    equal t h g term for term, compared by integer cross-multiplication;
    any failure raises CertificationError, which is the primary diagnostic
    for a wrong generator.  The zero element, normal at every F, is
    refused.
    """
    if sym_gen.algebra is not algebra:
        raise StructuralError("the generator lies in another algebra context")
    checked_word((letter,), algebra.dim)
    gen = sym_gen.flat
    if not gen:
        raise StructuralError("the zero element commutes with every letter at every weight")
    comm = algebra._commutator(letter, gen, sym_gen._suffix_plan())
    terms = [(key, c) for key, c in comm.items() if c]
    if not terms:
        return HPoly.zero()
    (w, p), c0 = terms[0]
    g0 = gen.get((w, p - 1))
    if (
        g0 is None
        or len(terms) != len(gen)
        or any(comm.get((v, q + 1), 0) * g0 != d * c0 for (v, q), d in gen.items())
    ):
        raise CertificationError(
            f"commutator with letter {letter} is not proportional to the generator"
        )
    return HPoly.h(1, Fraction(c0, g0))


def weight_row(algebra: PBWAlgebra, sym_gen: NCPoly) -> list[HPoly]:
    """The scalars F_e with [X_e, sym_gen] = F_e * sym_gen for every letter
    e, in letter order, certified.

    Each F_e is t_e h with t_e rational (``commutator_weight``), and the
    row is worked out on the t_e, held as Fractions with the int 0 for a
    zero weight.  The letters X_e with [X_e, g] = F_e g form a Lie
    subalgebra, on which F is linear in the brackets: when X_a and X_b are
    such letters, the Jacobi identity gives [[X_a, X_b], g] = [X_a, F_b g]
    - [X_b, F_a g] = 0, and [X_a, X_b] = h sum_k c_ab^k X_k with h not a
    zero divisor, so sum_k c_ab^k [X_k, g] = 0.  If every X_k of that sum
    but one, X_e, is such a letter too, then [X_e, g] = F_e g with

        t_e = -(1/c_ab^e) sum_{k != e} c_ab^k t_k.

    The Cartan letters are certified first (``commutator_weight``), and
    every letter that a bracket of two known letters names as its only
    unknown letter is derived, to a fixpoint.  While a letter is unknown,
    the next one certified is the one after which the bracket relations
    derive the most letters, the first in letter order among equals; the
    pick reads only the bracket table, on letter sets held as bitmasks.
    At n = 3 that certifies a11, a22, a33, then a12, b22, a31 and a23,
    and derives the other eight.  The finished row is checked against
    every bracket relation sum_k c_ab^k t_k = 0, a < b, skipping zero
    weights; a relation that fails, as it does when a certified weight is
    wrong, raises CertificationError.
    """
    sc = algebra.sc
    dim = sc.dim
    row: list[Fraction | int | None] = [
        None if weights is None else commutator_weight(algebra, sym_gen, e).coefficient(1) or 0
        for e, weights in enumerate(sc.cartan_rows)
    ]
    # (a, b, [X_a, X_b]) over a < b with a nonzero bracket, and under each
    # letter the relations that name it and can derive a letter other
    # than a and b, as (letters a and b, letters of the bracket, bracket)
    # with the letter sets as bitmasks
    relations = []
    naming: list[list[tuple]] = [[] for _ in range(dim)]
    for a, brackets in enumerate(sc.brackets):
        for b in range(a + 1, dim):
            bracket = brackets[b]
            if bracket:
                relations.append((a, b, bracket))
                pair, letters = 1 << a | 1 << b, 0
                for k, _ in bracket:
                    letters |= 1 << k
                if letters & ~pair:
                    masked = (pair, letters, bracket)
                    naming[a].append(masked)
                    naming[b].append(masked)
                    for k, _ in bracket:
                        naming[k].append(masked)

    def derive(known: int, new: list[int]) -> tuple[int, list]:
        """The letters known once the letters ``new`` join the closed set
        ``known``, to a fixpoint, and the derivations in the order made, as
        (letter, bracket).  A relation can only come to derive a letter
        when a letter it names becomes known, so only those are read."""
        pending = list(new)
        for e in new:
            known |= 1 << e
        steps = []
        while pending:
            for pair, letters, bracket in naming[pending.pop()]:
                unknown = letters & ~known
                if unknown and not unknown & (unknown - 1) and not pair & ~known:
                    e = unknown.bit_length() - 1
                    known |= unknown
                    steps.append((e, bracket))
                    pending.append(e)
        return known, steps

    known, steps = derive(0, [e for e, t in enumerate(row) if t is not None])
    while True:
        for e, bracket in steps:
            total = sum(c * row[k] for k, c in bracket if k != e and row[k])
            c_e = next(c for k, c in bracket if k == e)
            row[e] = -Fraction(total, c_e) if total else 0
        unknown = [e for e in range(dim) if not known >> e & 1]
        if not unknown:
            break
        # max keeps the first of equal counts: the lowest letter
        e = max(unknown, key=lambda x: derive(known, [x])[0].bit_count())
        row[e] = commutator_weight(algebra, sym_gen, e).coefficient(1) or 0
        known, steps = derive(known, [e])
    for a, b, bracket in relations:
        if sum(c * row[k] for k, c in bracket if row[k]):
            raise CertificationError(
                f"the weights break the bracket relation of letters {a} and {b}: "
                f"sum_k c_ab^k F_k is not 0"
            )
    return [HPoly.h(1, t) if t else HPoly.zero() for t in row]


class OrbitQuantization:
    """Quantization context of one regular orbit at one degree cap."""

    def __init__(
        self,
        n: int,
        lambdas,
        deg_cap: int = 6,
        build_reduction: bool = True,
    ):
        self.n = n
        self.deg_cap = deg_cap
        basis, sc = build_lie_basis(n)
        self.basis = basis
        self.sc = sc
        self.coords = DualCoordinates(basis)
        self.variables = self.coords.variables
        self.algebra = PBWAlgebra(basis, sc)
        self.family = semiinvariant_family(n, self.coords)
        self.ideal: OrbitIdeal = orbit_ideal(lambdas, self.family)
        generators = self.ideal.generators
        if build_reduction and len(generators) != 1:
            raise StructuralError(f"left division needs one generator, not {len(generators)}")
        if build_reduction and generators[0].total_degree() > deg_cap:
            raise CapacityError(
                f"generator degree {generators[0].total_degree()} exceeds the cap {deg_cap}"
            )

        self.sym_generators = [symmetrize(self.algebra, g) for g in generators]
        # Scalar commutator table: certifies the two-sided ideal reduces
        # to left multiples before any reduction is attempted.
        self.weight_table = [weight_row(self.algebra, g) for g in self.sym_generators]

        self.groebner = groebner_basis(list(generators))
        self._lead: Exponent | None = None
        # standard exponent -> (packed word, degree), filled on first sight
        # with the standard exponents inside the cap (``_lift_entry``)
        self._lifted: dict[Exponent, tuple[int, int]] = {}
        if build_reduction:
            self._certify_lead()

    # -- left division --------------------------------------------------------

    def _certify_lead(self):
        """Record the leading term of g, certified h-free and equal to X^lead."""
        sym_gen = self.sym_generators[0]
        lead = self.groebner[0].leading()[0]
        self._lead_counts = [(l, c) for l, c in enumerate(lead) if c]
        # packed word -> (exponent, standard flag), filled on first sight
        self._word_table: dict[int, tuple] = {}
        word, hpow = max(sym_gen.flat, key=self.algebra.term_key)
        if hpow != 0 or word != pack_exponent(lead, self.algebra.shift):
            raise CertificationError(
                f"leading term h^{hpow} * {self._word(word)} of g is not X^{lead}"
            )
        self._lead = lead
        self._lead_coeff = Fraction(sym_gen.flat[word, 0], sym_gen.den)
        # NF(X^w) for packed non-standard words w, as (terms, den): the flat
        # layout {(packed word, h power): integer numerator} over den in lowest terms
        self._forms: dict[int, tuple] = {}

    def _word(self, code: int) -> Word:
        """The tuple word of a packed word."""
        return unpack_word(code, self.algebra.shift)

    def _word_data(self, code: int) -> tuple:
        """(exponent, standard flag) of a packed word, worked out on first
        sight.  The word is standard when the leading monomial does not
        divide it."""
        data = self._word_table.get(code)
        if data is None:
            exp = exponent_of_word(self._word(code), self.basis.dim)
            standard = any(exp[letter] < count for letter, count in self._lead_counts)
            self._word_table[code] = data = (exp, standard)
        return data

    def is_standard(self, word: Word) -> bool:
        """X^w is a standard monomial: the leading monomial does not divide it."""
        self._require_reduction()
        return self._word_data(pack_word(word, self.algebra.shift))[1]

    def _require_reduction(self):
        """StructuralError unless the reduction was built."""
        if self._lead is None:
            raise StructuralError("the reduction was not built")

    def _step(self, word: int) -> tuple:
        """X^w - X^q g / lc for a packed non-standard word w, with q = exp(w) - lead,
        certified: X^q g has the leading term lc X^w and nothing else at or above it.
        Not memoized: ``_normal_form`` runs each word's step once."""
        exp = self._word_data(word)[0]
        q = pack_exponent([e - l for e, l in zip(exp, self._lead)], self.algebra.shift)
        generator = self.sym_generators[0]
        den = generator.den
        multiple = self.algebra._product({(q, 0): 1}, generator.flat)  # X^q g over den
        key, lc = self.algebra.term_key, self._lead_coeff
        top = key((word, 0))
        cancels, rest = False, {}
        for (v, p), value in multiple.items():
            if not value:
                continue
            if v == word and p == 0:
                cancels = value * lc.denominator == lc.numerator * den
            elif key((v, p)) >= top:
                raise CertificationError(
                    f"X^{self._word(q)} g has h^{p} * {self._word(v)} at or above "
                    f"X^{self._word(word)}"
                )
            else:
                rest[v, p] = -value * lc.denominator
        if not cancels:
            raise CertificationError(
                f"X^{self._word(q)} g does not have the leading term {lc} * X^{self._word(word)}"
            )
        return _lowest_terms(rest, den * lc.numerator)

    def _normal_form(self, word: int) -> tuple:
        """NF(X^w) of a packed non-standard word, from a stack worked off in
        post-order: a word is finished after every non-standard word its step
        leaves.  Each frame is [word, step], the step run when the frame first
        comes on top; the words above it are lower in the term order, so no
        word's step runs twice."""
        forms, data = self._forms, self._word_data
        pending = [[word, None]]
        while pending:
            frame = pending[-1]
            w = frame[0]
            if w in forms:
                pending.pop()
                continue
            if frame[1] is None:
                frame[1] = self._step(w)
            step, den = frame[1]
            todo = [[v, None] for v, _ in step if v not in forms and not data(v)[1]]
            if todo:
                pending.extend(todo)
                continue
            # the step's terms over den, each non-standard word replaced by its form
            kept, divided = {}, []
            for (v, p), c in step.items():
                if v in forms:
                    divided.append((forms[v], p, c))
                else:
                    kept[v, p] = c
            pending.pop()
            forms[w] = _lowest_terms(*_substitute(kept, den, divided))
        return forms[word]

    def _lift_entry(self, exp: Exponent) -> tuple[int, int] | None:
        """(packed word, degree) of a standard exponent, entered in the lift
        table when it lies inside the cap; None for an exponent that the
        leading monomial divides, and for every exponent when the reduction
        was not built.  A refused exponent never enters the table."""
        if self._lead is None or all(exp[l] >= c for l, c in self._lead_counts):
            return None
        entry = (pack_exponent(exp, self.algebra.shift), sum(exp))
        if entry[1] <= self.deg_cap:
            self._lifted[exp] = entry
        return entry

    def _lift(self, f) -> tuple[dict, int, int, Exponent | None]:
        """phi on the flat layout, in one pass over the terms of a MultiPoly
        or QuotientElement: ({(packed word, h power): numerator}, den,
        degree, refused), with degree the operand's filtration degree (-1
        for zero) and refused its first exponent that is not a standard
        monomial (None when there is none).  Each exponent's word and
        degree are one lookup in the lift table (``_lift_entry``)."""
        if isinstance(f, QuotientElement):
            terms = f.flat.items()
        else:
            terms = (((exp, 0), c) for exp, c in f.flat.items())
        lifted, entry_of = self._lifted, self._lift_entry
        out = {}
        degree, refused = -1, None
        for (exp, p), c in terms:
            entry = lifted.get(exp) or entry_of(exp)
            if entry is None:
                degree = max(degree, sum(exp) + p)
                if refused is None:
                    refused = exp
                continue
            code, d = entry
            out[code, p] = c
            if d + p > degree:
                degree = d + p
        return out, f.den, degree, refused

    def _standard_exponent(self, code: int, context: str) -> Exponent:
        """The exponent of a packed standard word; CertificationError naming
        ``context`` for any other word."""
        exp, standard = self._word_table.get(code) or self._word_data(code)
        if not standard:
            raise CertificationError(f"{context}: word {self._word(code)} is not a standard monomial")
        return exp

    def _read_back(self, flat: dict, den: int, context: str) -> tuple[dict, int]:
        """The normal form of flat-layout terms over ``den``, keyed by
        (exponent, h power), as (terms, denominator); may hold zero
        numerators.

        One pass reads each word's entry of the word table once: a standard
        word goes straight to its exponent, and any other word has its
        memoized normal form substituted, shifted by its h power.  Each word
        of a substituted form is certified standard where it is used
        (``_standard_exponent``), so a corrupted form fails here.
        """
        table, data, forms = self._word_table, self._word_data, self._forms
        kept: dict[tuple[Exponent, int], int] = {}
        divided = []
        for (w, p), c in flat.items():
            if not c:
                continue
            exp, standard = table.get(w) or data(w)
            if standard:
                kept[exp, p] = c
            else:
                divided.append((forms.get(w) or self._normal_form(w), p, c))
        if not divided:
            return kept, den
        scale = lcm(*(form[1] for form, _, _ in divided))
        out = {key: c * scale for key, c in kept.items()} if scale != 1 else kept
        standard_exponent = self._standard_exponent
        for (terms, d_form), p, c in divided:
            c *= scale // d_form
            for (u, p2), d in terms.items():
                key = (standard_exponent(u, context), p + p2)
                out[key] = out.get(key, 0) + c * d
        return out, den * scale

    def basis_report(self) -> dict:
        """Rank bookkeeping behind the quotient-basis certificate.

        The columns are the terms h^p X^a with p + |a| <= cap.  Each left
        multiple h^p X^q g inside the cap is certified (``_step``) to have
        the leading column h^p X^(q + lead) and nothing above it.  These
        columns are distinct, so the multiples are independent, and they
        are exactly the non-standard columns, so division by the multiples
        reaches standard support: the standard columns are a basis of the
        quotient up to the cap.  ``reduction_rank`` counts the certified
        multiples, ``expected_rank`` the non-standard columns.
        """
        self._require_reduction()
        dim, cap, top = self.basis.dim, self.deg_cap, sum(self._lead)
        rank = 0
        for q in monomials_up_to_degree(dim, cap - top):
            self._step(pack_exponent([a + b for a, b in zip(q, self._lead)], self.algebra.shift))
            rank += cap - top - sum(q) + 1
        # degree d has comb(dim + d - 1, d) monomials; the multiples of the
        # leading monomial among them are those of degree d - top
        columns = sum(comb(dim + d - 1, d) * (cap - d + 1) for d in range(cap + 1))
        off_standard = sum(
            comb(dim + d - top - 1, d - top) * (cap - d + 1) for d in range(top, cap + 1)
        )
        return {
            "degree_cap": cap,
            "columns": columns,
            "standard_monomial_columns": columns - off_standard,
            "reduction_rank": rank,
            "expected_rank": off_standard,
            "independent_and_spanning": rank == off_standard,
        }

    # -- public operations ---------------------------------------------------

    def reduce(self, u: NCPoly) -> NCPoly:
        """Normal form of u modulo the two-sided ideal, degree-capped.

        The result is supported on standard-monomial words; u minus the
        result is a combination of left multiples of the symmetrized
        generator, of degree at most that of u.
        """
        self._check_algebra(u)
        if u.degree() > self.deg_cap:
            raise CapacityError(
                f"element degree {u.degree()} exceeds cap {self.deg_cap}"
            )
        self._require_reduction()
        flat, den = self._read_back(u.flat, u.den, "reduction")
        shift = self.algebra.shift
        words = {(pack_exponent(exp, shift), p): c for (exp, p), c in flat.items()}
        return NCPoly._trusted(self.algebra, words, den)

    def phi(self, f: QuotientElement) -> NCPoly:
        """Ordered-monomial lift: x^a -> X^a as a PBW word."""
        self._check_variables(f)
        self._require_reduction()
        flat, den, _, refused = self._lift(f)
        if refused is not None:
            raise StructuralError(f"exponent {refused} is not a standard monomial")
        return NCPoly._trusted(self.algebra, flat, den)

    def phi_inverse(self, u: NCPoly) -> QuotientElement:
        self._check_algebra(u)
        self._require_reduction()
        exponent = self._standard_exponent
        flat = {(exponent(w, "phi_inverse"), p): c for (w, p), c in u.flat.items()}
        return QuotientElement._trusted(self.variables, flat, u.den)

    def _check_algebra(self, u: NCPoly):
        """StructuralError unless u lies in the engine's algebra: its packed
        words are read with the engine's letters."""
        if u.algebra is not self.algebra:
            raise StructuralError("the element lies in another algebra context")

    def _check_variables(self, operand):
        """StructuralError unless the operand lies over the engine's variables."""
        if operand.variables != self.variables:
            raise StructuralError(
                f"operand variables {list(operand.variables)} are not the "
                f"engine's {list(self.variables)}"
            )

    def to_quotient(self, f: MultiPoly) -> QuotientElement:
        """Commutative normal form onto standard-monomial support."""
        return QuotientElement.from_multipoly(divide(f, self.groebner))

    def star(self, f, g) -> QuotientElement:
        """The star product on the quotient, exact in h.

        Accepts MultiPoly or QuotientElement operands over the engine's
        variables, supported on standard monomials; the combined
        filtration degree must stay within the cap.  phi(f) phi(g) is
        formed, reduced and read back on the flat layout.
        """
        for operand in (f, g):
            self._check_variables(operand)
        left, den1, degree1, refused1 = self._lift(f)
        right, den2, degree2, refused2 = self._lift(g)
        total = max(degree1, 0) + max(degree2, 0)
        if total > self.deg_cap:
            raise CapacityError(
                f"combined degree {total} exceeds cap {self.deg_cap}"
            )
        self._require_reduction()
        for refused in (refused1, refused2):
            if refused is not None:
                raise StructuralError(f"exponent {refused} is not a standard monomial")
        flat, den = self._read_back(self.algebra._product(left, right), den1 * den2, "reduction")
        return QuotientElement._trusted(self.variables, flat, den)

    def poisson_reduced(self, f: MultiPoly, g: MultiPoly) -> QuotientElement:
        """{f, g} followed by commutative reduction onto the basis."""
        bracket = lie_poisson_bracket(f, g, self.sc)
        return self.to_quotient(bracket)


def _substitute(kept: dict, den: int, divided) -> tuple[dict, int]:
    """kept / den plus c h^p form for each (form, p, c) in divided, with form
    a normal form (terms, d_form) and c a numerator over den: the terms of
    one division with its non-standard words substituted, as (flat, den)
    over den times the lcm of the forms' denominators; kept may be updated."""
    if not divided:
        return kept, den
    scale = lcm(*(form[1] for form, _, _ in divided))
    out = {key: c * scale for key, c in kept.items()} if scale != 1 else kept
    for (terms, d_form), p, c in divided:
        c *= scale // d_form
        for (u, p2), d in terms.items():
            out[u, p + p2] = out.get((u, p + p2), 0) + c * d
    return out, den * scale
