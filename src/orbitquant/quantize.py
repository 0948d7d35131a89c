"""Degree-by-degree quantization of a regular orbit's polynomial algebra.

The engine symmetrizes the orbit ideal generator into the homogenized
enveloping algebra and certifies that commuting a basis letter past the
symmetrized generator g only costs a scalar (the quantum shadow of
semiinvariance), so the two-sided ideal is the left ideal of g.  In a
PBW algebra, a domain of solvable type, one element is a left Groebner
basis of the left ideal it generates (Kandri-Rody and Weispfenning,
J. Symbolic Comput. 9, 1990; Levandovskyy, PhD thesis, Kaiserslautern,
2005).  With terms h^p X^w ordered by length plus h power, then grevlex,
the leading term of g is the commutative leading monomial X^lead, and
normal forms come from left division, memoized per word:
NF(X^w) = NF(X^w - X^q g / lc) with q = exp(w) - lead when lead divides
exp(w), else X^w; and NF(h^p X^w) = h^p NF(X^w).  This gives the
quotient-basis certificate, a linear reduction onto standard-monomial
support, and the star product f * g = phi^-1(reduce(phi(f) phi(g))),
with phi the ordered-monomial identification.  No reduction table is
built, so this reaches n = 3 as well as n = 2; n >= 4 has two generators
and is refused.  Everything is exact; each premise of the division is checked.

The star product runs on one flat layout from start to finish: the
operands' terms are lifted straight to integer numerators keyed by
(packed word, h power) over one common denominator (``_lift``, which
packs each word straight from its exponent, checks that it is standard
and reads a QuotientElement's stored layout as it is), multiplied with
the PBW fold (``PBWAlgebra._product``), reduced with the memoized normal
forms (``_reduce_flat``) and keyed by exponents into the returned
QuotientElement, which stores the same layout (``_certify_standard``,
which also certifies standard support of the result).  No ``NCPoly``
and no ``HPoly`` is built, and no tuple word once the engine has seen
the words: what the engine needs to know of a packed word (its
exponent, whether it is standard, its grevlex key) is worked out once,
on first sight, into one table (``_word_data``).  The division steps
and normal forms are memoized in the same layout, keyed by packed
words, and both apply one substitution (``_substitute``).  ``reduce``,
``phi``, ``phi_inverse`` and ``NCPoly`` products run on the same
helpers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import comb, lcm

from .errors import CapacityError, CertificationError, StructuralError
from .groebner import divide, groebner_basis, standard_monomials
from .hpoly import HPoly
from .invariants import OrbitIdeal, orbit_ideal, semiinvariant_family
from .lie import DualCoordinates, build_lie_basis, lie_poisson_bracket
from .ncpoly import (
    NCPoly,
    PBWAlgebra,
    Word,
    _flatten,
    _FlatTerms,
    _hvalues,
    _lowest_terms,
    exponent_of_word,
    pack_exponent,
    pack_word,
    symmetrize,
    unpack_word,
    word_length,
    word_of_exponent,
)
from .poly import (
    GREVLEX,
    Exponent,
    MultiPoly,
    checked_exponent,
    keyed_once,
    monomials_up_to_degree,
    polynomial_record,
)


class QuotientElement(_FlatTerms):
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
                (checked_exponent(rec["exponents"], n), HPoly.from_json(rec["coefficient"]))
                for rec in records
            ),
            "exponent",
        )
        return cls(variables, terms)


def commutator_weight(algebra: PBWAlgebra, sym_gen: NCPoly, letter: int) -> HPoly:
    """The scalar F with [X_letter, sym_gen] = F * sym_gen, certified.

    F is the commutator's coefficient on a longest word of the generator,
    divided by the generator's coefficient there, which must be h-free.
    The identity itself is then checked term for term; any failure of
    exact proportionality raises CertificationError, which is the primary
    diagnostic for a wrong generator.
    """
    if sym_gen.algebra is not algebra:
        raise StructuralError("the generator lies in another algebra context")
    comm = sym_gen.commutator_with_letter(letter)
    if comm.is_zero():
        return HPoly.zero()
    # the longest word, the lexicographically largest among those
    shift = algebra.shift
    words = {w for w, _ in sym_gen.flat}
    longest = max(word_length(w, shift) for w in words)
    ref_word = max(unpack_word(w, shift) for w in words if word_length(w, shift) == longest)
    ref_code = pack_word(ref_word, shift)
    if any(w == ref_code and p for w, p in sym_gen.flat):
        raise CertificationError(f"the generator's coefficient of the word {ref_word} carries h")
    ref = Fraction(sym_gen.flat[ref_code, 0], sym_gen.den)
    num = {p: Fraction(c, comm.den) for (w, p), c in comm.flat.items() if w == ref_code}
    if not num:
        raise CertificationError(
            f"commutator with letter {letter} is not proportional to the generator"
        )
    factor = HPoly(tuple(num.get(p, 0) / ref for p in range(max(num) + 1)))
    if comm != sym_gen.scale(factor):
        raise CertificationError(
            f"commutator with letter {letter} deviates from scalar proportionality"
        )
    return factor


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
        self.weight_table = [
            [
                commutator_weight(self.algebra, sym_gen, e)
                for e in range(basis.dim)
            ]
            for sym_gen in self.sym_generators
        ]

        self.groebner = groebner_basis(list(generators))
        self._lead: Exponent | None = None
        if build_reduction:
            self._certify_lead()

    # -- left division --------------------------------------------------------

    def _certify_lead(self):
        """Record the leading term of g, certified h-free and equal to X^lead."""
        sym_gen = self.sym_generators[0]
        lead = self.groebner[0].leading()[0]
        self._lead_counts = [(l, c) for l, c in enumerate(lead) if c]
        # packed word -> (exponent, standard flag, grevlex key), filled on first sight
        self._word_table: dict[int, tuple] = {}
        word, hpow = max(sym_gen.flat, key=lambda term: self._term_key(*term))
        if hpow != 0 or word != pack_exponent(lead, self.algebra.shift):
            raise CertificationError(
                f"leading term h^{hpow} * {self._word(word)} of g is not X^{lead}"
            )
        self._lead = lead
        self._lead_coeff = Fraction(sym_gen.flat[word, 0], sym_gen.den)
        # memos keyed by packed non-standard words w; each entry is (terms, den),
        # the flat layout {(packed word, h power): integer numerator} over den
        # in lowest terms
        self._steps: dict[int, tuple] = {}  # X^w - X^q g / lc, leading term dropped
        self._forms: dict[int, tuple] = {}  # NF(X^w)

    def _word(self, code: int) -> Word:
        """The tuple word of a packed word."""
        return unpack_word(code, self.algebra.shift)

    def _word_data(self, code: int) -> tuple:
        """(exponent, standard flag, grevlex key) of a packed word, worked out
        on first sight.  The word is standard when the leading monomial does
        not divide it."""
        data = self._word_table.get(code)
        if data is None:
            exp = exponent_of_word(self._word(code), self.basis.dim)
            standard = any(exp[letter] < count for letter, count in self._lead_counts)
            self._word_table[code] = data = (exp, standard, GREVLEX.key(exp))
        return data

    def _term_key(self, code: int, hpow: int):
        """Term order on h^p X^w: length plus h power, then grevlex."""
        return (word_length(code, self.algebra.shift) + hpow, self._word_data(code)[2])

    def is_standard(self, word: Word) -> bool:
        """X^w is a standard monomial: the leading monomial does not divide it."""
        if self._lead is None:
            raise StructuralError("the reduction was not built")
        return self._word_data(pack_word(word, self.algebra.shift))[1]

    def _step(self, word: int) -> tuple:
        """X^w - X^q g / lc for a packed non-standard word w, with q = exp(w) - lead,
        certified: X^q g has the leading term lc X^w and nothing else at or above it."""
        step = self._steps.get(word)
        if step is not None:
            return step
        exp = self._word_data(word)[0]
        q = pack_exponent([e - l for e, l in zip(exp, self._lead)], self.algebra.shift)
        generator = self.sym_generators[0]
        den = generator.den
        multiple = self.algebra._product({(q, 0): 1}, generator.flat)  # X^q g over den
        top, lc = self._term_key(word, 0), self._lead_coeff
        cancels, rest = False, {}
        for (v, p), value in multiple.items():
            if not value:
                continue
            if v == word and p == 0:
                cancels = value * lc.denominator == lc.numerator * den
            elif self._term_key(v, p) >= top:
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
        self._steps[word] = step = _lowest_terms(rest, den * lc.numerator)
        return step

    def _normal_form(self, word: int) -> tuple:
        """NF(X^w) of a packed non-standard word, from a stack worked off in
        post-order: a word is finished after every non-standard word its step
        leaves."""
        forms, data = self._forms, self._word_data
        pending = [word]
        while pending:
            w = pending[-1]
            if w in forms:
                pending.pop()
                continue
            step, den = self._step(w)
            todo = [v for v, _ in step if v not in forms and not data(v)[1]]
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
            forms[pending.pop()] = _lowest_terms(*_substitute(kept, den, divided))
        return forms[word]

    def _reduce_flat(self, flat: dict, den: int) -> tuple[dict, int]:
        """Normal form of flat-layout terms over ``den``, as (terms, denominator).

        Standard words keep their numerators; every other word is replaced
        by its memoized normal form, shifted by its h power.  Callers
        certify that the result lies on standard-monomial words
        (``_certify_standard``).
        """
        if self._lead is None:
            raise StructuralError("the reduction was not built")
        forms, table, data = self._forms, self._word_table, self._word_data
        kept: dict[tuple[int, int], int] = {}
        divided = []
        for (w, p), c in flat.items():
            if not c:
                continue
            if (table.get(w) or data(w))[1]:
                kept[w, p] = c
            else:
                divided.append((forms.get(w) or self._normal_form(w), p, c))
        return _substitute(kept, den, divided)

    def _certify_standard(self, flat: dict, context: str) -> dict:
        """The nonzero terms of a flat layout keyed by (exponent, h power);
        CertificationError unless every word is a standard monomial."""
        table, data = self._word_table, self._word_data
        out = {}
        for (w, p), c in flat.items():
            if c:
                exp, standard, _ = table.get(w) or data(w)
                if not standard:
                    raise CertificationError(
                        f"{context}: word {self._word(w)} is not a standard monomial"
                    )
                out[exp, p] = c
        return out

    def _lift(self, f) -> tuple[dict, int]:
        """phi on the flat layout: the terms of a MultiPoly or QuotientElement
        as ({(packed word, h power): numerator}, den).  An exponent that the
        leading monomial divides raises StructuralError."""
        if self._lead is None:
            raise StructuralError("the reduction was not built")
        if isinstance(f, QuotientElement):
            terms = f.flat.items()
        else:
            terms = (((exp, 0), c) for exp, c in f.flat.items())
        den = f.den
        shift, table, data = self.algebra.shift, self._word_table, self._word_data
        out = {}
        for (exp, p), c in terms:
            code = pack_exponent(exp, shift)
            if not (table.get(code) or data(code))[1]:
                raise StructuralError(f"exponent {exp} is not a standard monomial")
            out[code, p] = c
        return out, den

    @cached_property
    def standard_exponents(self) -> list[Exponent]:
        """The standard monomials up to the cap, listed on first use."""
        return standard_monomials(self.groebner, max_degree=self.deg_cap)

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
        if self._lead is None:
            raise StructuralError("the reduction was not built")
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
        flat, den = self._reduce_flat(u.flat, u.den)
        self._certify_standard(flat, "reduction")
        return NCPoly._trusted(self.algebra, flat, den)

    def phi(self, f: QuotientElement) -> NCPoly:
        """Ordered-monomial lift: x^a -> X^a as a PBW word."""
        self._check_variables(f)
        return NCPoly._trusted(self.algebra, *self._lift(f))

    def phi_inverse(self, u: NCPoly) -> QuotientElement:
        self._check_algebra(u)
        return QuotientElement._trusted(
            self.variables, self._certify_standard(u.flat, "phi_inverse"), u.den
        )

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
        total = sum(
            max(p.total_degree() if isinstance(p, MultiPoly) else p.degree(), 0)
            for p in (f, g)
        )
        if total > self.deg_cap:
            raise CapacityError(
                f"combined degree {total} exceeds cap {self.deg_cap}"
            )
        left, den1 = self._lift(f)
        right, den2 = self._lift(g)
        flat, den = self._reduce_flat(self.algebra._product(left, right), den1 * den2)
        return QuotientElement._trusted(self.variables, self._certify_standard(flat, "reduction"), den)

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


# ---------------------------------------------------------------- checks


def check_deformation_axioms(
    engine: OrbitQuantization,
    rng: random.Random,
    monomial_degree: int = 2,
    random_pairs: int = 50,
    triples: int = 20,
) -> dict:
    """Executable form of the deformation axioms on sampled pairs.

    (a) module freeness: the quotient-basis rank certificate;
    (b) the product reduces mod h to the commutative product;
    (c) the star commutator's first-order term is the Poisson bracket;
    plus associativity on sampled triples.  Status is collected per axiom
    with a witness for any failure.
    """
    from .sampling import random_polynomial

    report: dict[str, dict] = {}
    report["module_freeness"] = dict(engine.basis_report())

    pair_degree = min(monomial_degree, engine.deg_cap // 2)
    triple_degree = max(1, engine.deg_cap // 3)
    monos = standard_monomials(engine.groebner, max_degree=pair_degree)
    triple_monos = standard_monomials(engine.groebner, max_degree=triple_degree)
    variables = engine.variables

    pairs: list[tuple[MultiPoly, MultiPoly]] = []
    for e1 in monos:
        for e2 in monos:
            pairs.append(
                (MultiPoly.monomial(variables, e1), MultiPoly.monomial(variables, e2))
            )
    for _ in range(random_pairs):
        pairs.append(
            (
                random_polynomial(variables, rng, monos),
                random_polynomial(variables, rng, monos),
            )
        )

    mod_h_failures = []
    first_order_failures = []
    for f, g in pairs:
        star_fg = engine.star(f, g)
        classical = divide(f * g, engine.groebner)
        if star_fg.h_coefficient(0) != classical:
            mod_h_failures.append((f.to_records(), g.to_records()))
            continue
        star_gf = engine.star(g, f)
        commutator = star_fg - star_gf
        bracket = engine.poisson_reduced(f, g)
        delta = commutator - bracket.shift_h(1)
        if not delta.divisible_by_h_power(2):
            first_order_failures.append((f.to_records(), g.to_records()))
    report["reduces_mod_h"] = {
        "pairs": len(pairs),
        "failures": len(mod_h_failures),
        "witness": mod_h_failures[:1],
        "passed": not mod_h_failures,
    }
    report["first_order_poisson"] = {
        "pairs": len(pairs),
        "failures": len(first_order_failures),
        "witness": first_order_failures[:1],
        "passed": not first_order_failures,
    }

    assoc_failures = 0
    for _ in range(triples):
        f, g, w = (
            random_polynomial(variables, rng, triple_monos, max_terms=3)
            for _ in range(3)
        )
        left = engine.star(engine.star(f, g), w)
        right = engine.star(f, engine.star(g, w))
        if left != right:
            assoc_failures += 1
    report["associativity"] = {
        "triples": triples,
        "failures": assoc_failures,
        "passed": assoc_failures == 0,
    }

    unit = MultiPoly.constant(variables, 1)
    sample = random_polynomial(variables, rng, monos)
    report["unit"] = {
        "passed": engine.star(unit, sample)
        == QuotientElement.from_multipoly(divide(sample, engine.groebner))
    }

    report["passed"] = all(
        entry.get("passed", entry.get("independent_and_spanning", False))
        for entry in report.values()
        if isinstance(entry, dict)
    )
    return report


def torsion_check(
    engine: OrbitQuantization,
    rng: random.Random,
    samples: int = 50,
    max_degree: int | None = None,
) -> dict:
    """reduce(h*u) = h*reduce(u) on random elements: no h-torsion."""
    cap = engine.deg_cap - 1 if max_degree is None else max_degree
    dim = engine.basis.dim
    monos = monomials_up_to_degree(dim, cap)
    failures = 0
    for index in range(samples):
        terms: dict[Word, HPoly] = {}
        for _ in range(rng.randint(1, 4)):
            exp = rng.choice(monos)
            room = cap - sum(exp)
            coeffs = [
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(1, room + 1))
            ]
            word = word_of_exponent(exp)
            prev = terms.get(word, HPoly.zero())
            terms[word] = prev + HPoly(tuple(coeffs))
        u = NCPoly(engine.algebra, {w: c for w, c in terms.items() if not c.is_zero()})
        if engine.reduce(u.shift_h(1)) != engine.reduce(u).shift_h(1):
            failures += 1
    # h^k g for every k that keeps it inside the cap
    generator_checks = all(
        engine.reduce(sym_gen.shift_h(k)).is_zero()
        for sym_gen in engine.sym_generators
        for k in range(engine.deg_cap - sym_gen.degree() + 1)
    )
    return {
        "samples": samples,
        "failures": failures,
        "generators_reduce_to_zero": generator_checks,
        "passed": failures == 0 and generator_checks,
    }
