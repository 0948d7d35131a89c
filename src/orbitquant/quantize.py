"""Degree-by-degree quantization of a regular orbit's polynomial algebra.

The engine symmetrizes the orbit ideal generators into the homogenized
enveloping algebra, certifies that commuting a basis letter past a
symmetrized generator only costs a scalar (the quantum shadow of
semiinvariance), and uses that to reduce the two-sided ideal to left
multiples.  Up to an explicit degree cap, those left multiples span the
ideal's filtered piece; a reduced row echelon form whose pivots are
steered away from the standard monomials then provides

  * an exact basis certificate: images of standard monomials are
    independent and spanning in the quotient,
  * a linear reduction map onto standard-monomial support,
  * the star product f * g = phi^-1(reduce(phi(f) phi(g))), with
    phi the ordered-monomial identification.

Everything is exact; failures of the certified identities raise
CertificationError rather than degrade.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from . import linalg as la
from .errors import CapacityError, CertificationError, StructuralError
from .groebner import divide, groebner_basis, standard_monomials
from .hpoly import HPoly
from .invariants import OrbitIdeal, orbit_ideal, semiinvariant_family
from .lie import DualCoordinates, build_lie_basis, lie_poisson_bracket
from .ncpoly import NCPoly, PBWAlgebra, Word, symmetrize, word_of_exponent
from .poly import Exponent, MultiPoly, monomials_up_to_degree


class QuotientElement:
    """A quotient-algebra element on standard-monomial support.

    terms maps exponent tuples (standard monomials) to HPoly
    coefficients.  The commutative polynomial algebra embeds via h-free
    coefficients; star products return elements with genuine h content.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms: dict[Exponent, HPoly] | None = None):
        self.variables = tuple(variables)
        self.terms = {
            tuple(e): c for e, c in (terms or {}).items() if not c.is_zero()
        }

    @classmethod
    def from_multipoly(cls, p: MultiPoly) -> "QuotientElement":
        return cls(p.variables, {e: HPoly.of(c) for e, c in p.terms.items()})

    def h_coefficient(self, k: int) -> MultiPoly:
        return MultiPoly(
            self.variables,
            {e: c.coefficient(k) for e, c in self.terms.items()},
        )

    def max_h_degree(self) -> int:
        return max((c.degree() for c in self.terms.values()), default=-1)

    def degree(self) -> int:
        """Filtration degree: monomial degree plus h degree."""
        return max(
            (sum(e) + c.degree() for e, c in self.terms.items()), default=-1
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "QuotientElement") -> "QuotientElement":
        if self.variables != other.variables:
            raise StructuralError("quotient elements over different variables")
        out = dict(self.terms)
        for e, c in other.terms.items():
            total = out.get(e, HPoly.zero()) + c
            if total.is_zero():
                out.pop(e, None)
            else:
                out[e] = total
        return QuotientElement(self.variables, out)

    def __neg__(self) -> "QuotientElement":
        return QuotientElement(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "QuotientElement") -> "QuotientElement":
        return self + (-other)

    def scale(self, coeff: HPoly) -> "QuotientElement":
        if coeff.is_zero():
            return QuotientElement(self.variables, {})
        return QuotientElement(
            self.variables, {e: c * coeff for e, c in self.terms.items()}
        )

    def divisible_by_h_power(self, k: int) -> bool:
        return all(c.divisible_by_h_power(k) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, QuotientElement):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

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
        return cls(
            tuple(data["variables"]),
            {
                tuple(rec["exponents"]): HPoly.from_json(rec["coefficient"])
                for rec in data["terms"]
            },
        )


def commutator_weight(algebra: PBWAlgebra, sym_gen: NCPoly, letter: int) -> HPoly:
    """The scalar F with [X_letter, sym_gen] = F * sym_gen, certified.

    Divides the commutator by the generator coefficient-wise; any failure
    of exact proportionality raises CertificationError, which is the
    primary diagnostic for a wrong generator.
    """
    comm = sym_gen.commutator_with_letter(letter)
    if comm.is_zero():
        return HPoly.zero()
    ref_word = max(sym_gen.terms, key=lambda w: (len(w), w))
    ref_coeff = sym_gen.terms[ref_word]
    num = comm.terms.get(ref_word)
    if num is None:
        raise CertificationError(
            f"commutator with letter {letter} is not proportional to the generator"
        )
    try:
        factor = num.exact_div(ref_coeff)
    except StructuralError as exc:
        raise CertificationError(
            f"commutator scalar for letter {letter} is not polynomial: {exc}"
        ) from exc
    if comm - sym_gen.scale(factor) != NCPoly.zero(algebra):
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
        max_columns: int = 200_000,
    ):
        self.n = n
        self.deg_cap = deg_cap
        basis, sc = build_lie_basis(n)
        if build_reduction:
            _check_columns(basis.dim, deg_cap, max_columns)
        self.basis = basis
        self.sc = sc
        self.coords = DualCoordinates(basis)
        self.variables = self.coords.variables
        self.algebra = PBWAlgebra(basis, sc)
        self.family = semiinvariant_family(n, self.coords)
        self.ideal: OrbitIdeal = orbit_ideal(lambdas, self.family)

        self.sym_generators = [
            symmetrize(self.algebra, g) for g in self.ideal.generators
        ]
        # Scalar commutator table: certifies the two-sided ideal reduces
        # to left multiples before any reduction is attempted.
        self.weight_table = [
            [
                commutator_weight(self.algebra, sym_gen, e)
                for e in range(basis.dim)
            ]
            for sym_gen in self.sym_generators
        ]

        self.groebner = groebner_basis(list(self.ideal.generators))
        self._rref = None
        if build_reduction:
            self._build_reduction()

    # -- reduction machinery ------------------------------------------------

    def _build_reduction(self):
        dim = self.basis.dim
        cap = self.deg_cap
        self.standard_exponents = standard_monomials(self.groebner, max_degree=cap)
        self.standard_set = set(self.standard_exponents)

        self._col_of: dict[tuple[int, Word], int] = {}
        self._col_keys: list[tuple] = []
        self._col_names: list[tuple[int, Word]] = []

        rref = la.SparseRREF(colkey=self._colkey_for_index)
        self._rref = rref
        for j, sym_gen in enumerate(self.sym_generators):
            top = self.ideal.generators[j].total_degree()
            budget = cap - top
            if budget < 0:
                raise CapacityError(
                    f"generator degree {top} exceeds the cap {cap}"
                )
            for exp in monomials_up_to_degree(dim, budget):
                word = word_of_exponent(exp)
                base = NCPoly(self.algebra, {word: HPoly.one()}) * sym_gen
                for hpow in range(budget - sum(exp) + 1):
                    self._rref.add_row(self._flatten(base, shift=hpow))
        self._certify_basis()

    def _column(self, hpow: int, word: Word) -> int:
        key = (hpow, word)
        idx = self._col_of.get(key)
        if idx is None:
            idx = len(self._col_names)
            self._col_of[key] = idx
            self._col_names.append(key)
            exp = tuple(_exponent_of_word(word, self.basis.dim))
            in_standard = exp in self.standard_set
            self._col_keys.append(
                (1 if in_standard else 0, -(hpow + len(word)), word, hpow)
            )
        return idx

    def _colkey_for_index(self, idx: int):
        return self._col_keys[idx]

    def _flatten(self, u: NCPoly, shift: int = 0) -> dict[int, Fraction]:
        """Column vector of h^shift * u."""
        out: dict[int, Fraction] = {}
        for word, coeff in u.terms.items():
            for hpow, value in enumerate(coeff.coeffs, shift):
                if value != 0:
                    out[self._column(hpow, word)] = value
        return out

    def _unflatten(self, vec: dict[int, Fraction]) -> NCPoly:
        acc: dict[Word, dict[int, Fraction]] = {}
        for idx, value in vec.items():
            hpow, word = self._col_names[idx]
            acc.setdefault(word, {})[hpow] = value
        terms = {}
        for word, coeffs in acc.items():
            top = max(coeffs)
            terms[word] = HPoly(
                tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1))
            )
        return NCPoly(self.algebra, terms)

    def _certify_basis(self):
        # independence: no pivot may sit on a standard-monomial column
        for col in self._rref.pivot_rows:
            hpow, word = self._col_names[col]
            exp = tuple(_exponent_of_word(word, self.basis.dim))
            if exp in self.standard_set:
                raise CertificationError(
                    "a relation among standard-monomial images exists: "
                    f"pivot on h^{hpow} * {word}"
                )
        # spanning: every non-standard column inside the cap is a pivot
        pivot_cols = {self._col_names[c] for c in self._rref.pivot_rows}
        missing = []
        for exp in monomials_up_to_degree(self.basis.dim, self.deg_cap):
            if exp in self.standard_set:
                continue
            word = word_of_exponent(exp)
            for hpow in range(self.deg_cap - sum(exp) + 1):
                if (hpow, word) not in pivot_cols:
                    missing.append((hpow, word))
        if missing:
            raise CertificationError(
                f"reduction does not span {len(missing)} non-standard columns, "
                f"first: {missing[0]}"
            )

    def basis_report(self) -> dict:
        """Rank bookkeeping behind the quotient-basis certificate."""
        dim = self.basis.dim
        total_cols = sum(
            self.deg_cap - sum(e) + 1
            for e in monomials_up_to_degree(dim, self.deg_cap)
        )
        standard_cols = sum(
            self.deg_cap - sum(e) + 1 for e in self.standard_exponents
        )
        return {
            "degree_cap": self.deg_cap,
            "columns": total_cols,
            "standard_monomial_columns": standard_cols,
            "reduction_rank": self._rref.rank,
            "expected_rank": total_cols - standard_cols,
            "independent_and_spanning": self._rref.rank == total_cols - standard_cols,
        }

    # -- public operations ---------------------------------------------------

    def reduce(self, u: NCPoly) -> NCPoly:
        """Normal form of u modulo the two-sided ideal, degree-capped.

        The result is supported on standard-monomial words; u minus the
        result lies in the span of left multiples of the symmetrized
        generators.
        """
        if self._rref is None:
            raise StructuralError("reduction tables were not built")
        if u.degree() > self.deg_cap:
            raise CapacityError(
                f"element degree {u.degree()} exceeds cap {self.deg_cap}"
            )
        reduced_vec = self._rref.reduce_vector(self._flatten(u))
        result = self._unflatten(reduced_vec)
        for word in result.terms:
            exp = tuple(_exponent_of_word(word, self.basis.dim))
            if exp not in self.standard_set:
                raise CertificationError(
                    f"reduction left non-standard word {word}"
                )
        return result

    def phi(self, f: QuotientElement) -> NCPoly:
        """Ordered-monomial lift: x^a -> X^a as a PBW word."""
        terms: dict[Word, HPoly] = {}
        for exp, coeff in f.terms.items():
            if exp not in self.standard_set:
                raise StructuralError(
                    f"exponent {exp} is not a standard monomial"
                )
            terms[word_of_exponent(exp)] = coeff
        return NCPoly(self.algebra, terms)

    def phi_inverse(self, u: NCPoly) -> QuotientElement:
        terms: dict[Exponent, HPoly] = {}
        for word, coeff in u.terms.items():
            exp = tuple(_exponent_of_word(word, self.basis.dim))
            if exp not in self.standard_set:
                raise CertificationError(
                    f"word {word} is outside the standard basis"
                )
            terms[exp] = coeff
        return QuotientElement(self.variables, terms)

    def to_quotient(self, f: MultiPoly) -> QuotientElement:
        """Commutative normal form onto standard-monomial support."""
        return QuotientElement.from_multipoly(divide(f, self.groebner))

    def star(self, f, g) -> QuotientElement:
        """The star product on the quotient, exact in h.

        Accepts MultiPoly or QuotientElement operands over the engine's
        variables, supported on standard monomials; the combined
        filtration degree must stay within the cap.
        """
        fq = QuotientElement.from_multipoly(f) if isinstance(f, MultiPoly) else f
        gq = QuotientElement.from_multipoly(g) if isinstance(g, MultiPoly) else g
        for operand in (fq, gq):
            if operand.variables != self.variables:
                raise StructuralError(
                    f"operand variables {list(operand.variables)} are not the "
                    f"engine's {list(self.variables)}"
                )
        total = max(fq.degree(), 0) + max(gq.degree(), 0)
        if total > self.deg_cap:
            raise CapacityError(
                f"combined degree {total} exceeds cap {self.deg_cap}"
            )
        product = self.phi(fq) * self.phi(gq)
        return self.phi_inverse(self.reduce(product))

    def poisson_reduced(self, f: MultiPoly, g: MultiPoly) -> QuotientElement:
        """{f, g} followed by commutative reduction onto the basis."""
        bracket = lie_poisson_bracket(f, g, self.sc)
        return self.to_quotient(bracket)


def _check_columns(dim: int, deg_cap: int, max_columns: int):
    """Capacity gate of the reduction table, checked before any heavy work."""
    est_columns = comb(dim + deg_cap, deg_cap) * (deg_cap + 1)
    if est_columns > max_columns:
        raise CapacityError(
            f"degree cap {deg_cap} needs about {est_columns} columns, over cap"
        )


def _exponent_of_word(word: Word, dim: int) -> list[int]:
    exp = [0] * dim
    for letter in word:
        exp[letter] += 1
    return exp


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
    monos = [e for e in engine.standard_exponents if sum(e) <= pair_degree]
    quad_monos = [e for e in engine.standard_exponents if sum(e) <= pair_degree]
    triple_monos = [e for e in engine.standard_exponents if sum(e) <= triple_degree]
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
                random_polynomial(variables, rng, quad_monos),
                random_polynomial(variables, rng, quad_monos),
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
        delta = commutator - bracket.scale(HPoly.h(1))
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
    sample = random_polynomial(variables, rng, quad_monos)
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
    generator_checks = all(
        engine.reduce(sym_gen).is_zero() and engine.reduce(sym_gen.shift_h(1)).is_zero()
        for sym_gen in engine.sym_generators
    )
    return {
        "samples": samples,
        "failures": failures,
        "generators_reduce_to_zero": generator_checks,
        "passed": failures == 0 and generator_checks,
    }
