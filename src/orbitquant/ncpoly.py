"""Noncommutative polynomials in the homogenized enveloping algebra.

Words in the basis letters X_0 < ... < X_{N-1} are rewritten into
Poincare-Birkhoff-Witt normal form (non-decreasing letter sequences) by

    X_j X_i  ->  X_i X_j + h [X_j, X_i]      (j > i),

where the bracket expands through the structure constants.  With the
grading deg(X_i) = deg(h) = 1 the rewriting relation is homogeneous, so
reduction preserves degree and multiplication adds degrees.

Inside the package a sorted word X_{w0} X_{w1} ... (w0 <= w1 <= ...)
is one int, its packed code: sum (w_i + 1) << (s i) with the letter
shift s = dim.bit_length() (``pack_word``).  Each letter is a digit from
1 to dim, so the empty word is 0 and the first letter sits in the low
digit: the first letter is (w & mask) - 1, prepending l is
(w << s) | (l + 1), the rest of the word is w >> s and the length is
``word_length``.  Digits never carry and ints are unbounded, so packing
sets no limit.  Codes of one length compare their last letters first,
so among sorted words of one length the grevlex order of the exponents
is the reverse order of the codes: ``PBWAlgebra.term_key`` reads the
term order on h^p X^w (length plus h power, then length, then grevlex)
off the code and the length alone.  Tuple words appear only at the
public edges: the ``NCPoly`` constructor, its ``terms`` view, JSON and
printing, ``word_of_exponent``/``exponent_of_word`` and ``reduce_word``.

Every product is built on one primitive, ``PBWAlgebra._insert``, which
puts a single letter in front of a sorted word:

    X_l X^w = X^((l,) + w)                                  if l <= w[0],
    X_l X_w0 X^rest = X_w0 (X_l X^rest) + h sum_k c_k X_k X^rest   otherwise,

with [X_l, X_w0] = sum_k c_k X_k.  This is the normal-form recursion for
algebras of solvable type (Kandri-Rody and Weispfenning, J. Symbolic
Comput. 9, 1990); it terminates by the (length, inversion count)
measure.  Results are memoized per algebra and letter, keyed by the
packed word: an int hashes as itself, so a memo hit builds no key.
Because the relation is homogeneous, a term h^p X^v of X_l X^w has
p = len(w) + 1 - len(v), so a memo entry is a tuple of (packed word,
coefficient) pairs.  The bracket table is the one int table of ``lie``,
``StructureConstants.brackets``, so every memo coefficient is an ``int``.

Products fold the letters of the left word into the right word from
right to left; the symmetrizer, the letter commutator (through the
derivation rule) and the quantization's left multiples are built on the
same step.  A pair of words u, v with last(u) <= first(v) is already
sorted, X^u X^v = X^(u v), so ``PBWAlgebra._product`` writes it as the
one code v << (s len(u)) | u and folds only the other right words;
``NCPoly`` products, the star product and the division steps all take
that path.  They all work on one flat layout: integer numerators keyed
by (packed word, h power) over one positive denominator.  ``NCPoly``
stores its terms in that layout and ``QuotientElement`` keys it by
exponents.  Both are ``_HTerms``: the methods that read h powers, on top
of the storage and sums they share with ``MultiPoly`` (``poly._FlatTerms``).
``_flatten`` writes exact coefficients in the layout and
``PBWAlgebra._product`` multiplies in it.  ``HPoly`` appears only at
the edges: constructor input, the ``terms`` view (``_gather``, one
``HPoly`` per key on each access), JSON and printing.

The letter commutator D = [X_e, -] is a derivation of the product, so
for a word X_a X^rest

    D(X_a X^rest) = X_a D(rest) + h [X_e, X_a] X^rest,      D(1) = 0.

What of this does not depend on the letter is worked out once per
element and kept on it, as its suffix plan (``NCPoly._suffix_plan``):
the distinct proper suffixes of its words, shortest first, each with
its first letter, its rest and its letter set, and the words grouped by
degree and first letter.  The words of a symmetrized generator share
most of their suffixes.  For each letter, ``PBWAlgebra._commutator``
tables D over the plan's suffixes, each prepending its first letter onto
the D of its rest in line; a suffix whose letters all commute with X_e
has D = 0 and is skipped.  Each group's sum of c D(rest) then takes X_a
in one prepend, and each degree's total is merged into the output once.
A Cartan letter, one that scales every letter ([X_e, X_j] = c_j X_j for
every j, the rows ``StructureConstants.cartan_rows``), skips rewriting:
[X_e, X^w] = h wt(w) X^w, with the word weights wt(w) = sum_i c_(w[i])
read off the same suffixes (``PBWAlgebra._word_weights``).

The symmetrizer follows S. Gutt's left-multiplication formula (An
explicit *-product on the cotangent bundle of a Lie group, Lett. Math.
Phys. 7, 1983).  For a = b + e_l, l the smallest letter of x^a, d = |a|,

    Sym(x^a) = X_l Sym(x^b) - sum_{k=1}^{d-1} (B_k / k!) h^k Sym(Q_k),

with Bernoulli numbers B_k and Q_k the commutative polynomials of
iterated brackets that ``symmetrize`` states.  It runs in integers on
W(a) = d! Sym(x^a), memoized over monomials, each packed into one int,
so each monomial costs one letter prepend plus its lower-degree
correction monomials.  Each gradient step reads, for a term e_j (x) x^m,
only the letters i whose bracket with e_j is nonzero
(``StructureConstants.bracketing``).

Letters are checked where they enter (``checked_word``): each is an int,
not a bool, in range.

``reduce_word`` is the literal rewriter: it rewrites the leftmost
inversion, or a randomly chosen one when given an rng.  It shares no code
with ``_insert`` and serves as its oracle; ``from_word``, the ``pbw`` CLI
verb and ``verify``'s confluence check use it directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .errors import CapacityError, CertificationError, StructuralError
from .hpoly import HPoly, checked_h_power
from .lie import DualCoordinates, LieBasis, StructureConstants
from .jsonio import as_fraction, required
from .poly import MultiPoly, _FlatTerms, keyed_once

Word = tuple[int, ...]
# Packed words with int coefficients, all of one degree d: the term of
# word v carries h^(d - len(v)).
WordTerms = dict[int, int]
_ZERO = Fraction(0)


def checked_word(word, dim: int) -> Word:
    """``word`` as a tuple, or StructuralError unless every letter is an int
    (not a bool) in range(dim)."""
    if not isinstance(word, (tuple, list)):
        raise StructuralError(f"word {word!r} is not a list of letters")
    word = tuple(word)
    # type(x) is int rules out bools and floats; the type test runs first
    if word and (set(map(type, word)) != {int} or min(word) < 0 or max(word) >= dim):
        raise StructuralError(f"word {word} has a letter that is not an int in range({dim})")
    return word


def pack_word(word: Word, shift: int) -> int:
    """The packed code sum (w_i + 1) << (shift i) of a word of int letters."""
    code = 0
    for letter in reversed(word):
        code = (code << shift) | (letter + 1)
    return code


def unpack_word(code: int, shift: int) -> Word:
    """The word of a packed code."""
    mask = (1 << shift) - 1
    out = []
    while code:
        out.append((code & mask) - 1)
        code >>= shift
    return tuple(out)


def word_length(code: int, shift: int) -> int:
    """The number of letters of a packed word: its top digit is nonzero."""
    return (code.bit_length() + shift - 1) // shift


def pack_exponent(exp, shift: int) -> int:
    """The packed code of the ordered word X_0^e0 X_1^e1 ... of an exponent."""
    code = pos = 0
    mask = (1 << shift) - 1
    for digit, count in enumerate(exp, 1):
        if count:
            # count copies of the digit, written at once: digits never carry
            code |= (digit * ((1 << (shift * count)) - 1) // mask) << pos
            pos += shift * count
    return code


class PBWAlgebra:
    """Rewriting context: the letters, their structure constants and the
    insertion memo."""

    def __init__(self, basis: LieBasis, sc: StructureConstants):
        if basis.dim != sc.dim:
            raise StructuralError("basis and structure constants disagree")
        self.basis = basis
        self.sc = sc
        self.dim = basis.dim
        # the width in bits of one letter digit of a packed word
        self.shift = self.dim.bit_length()
        self._mask = (1 << self.shift) - 1
        # _memo[l][w] = X_l * X^w for a packed word w with first letter below l
        self._memo: list[dict[int, tuple]] = [{} for _ in range(self.dim)]
        # _active[e] = the set of letters j with [X_e, X_j] != 0, as a bitmask
        self._active = [sum(1 << j for j, b in enumerate(row) if b) for row in sc.brackets]
        # the commutative coordinates, in letter order, of the polynomials
        # that ``symmetrize`` takes
        self.variables = DualCoordinates(basis).variables

    # -- the insertion primitive ------------------------------------------

    def _insert(self, l: int, w: int) -> tuple:
        """X_l * X^w for a packed sorted word w, as ((packed word, coefficient), ...).

        The term of word v carries h^(len(w) + 1 - len(v)).
        """
        first = w & self._mask  # the first letter plus one; 0 for the empty word
        if l < first or not w:
            return (((w << self.shift) | (l + 1), 1),)
        memo = self._memo[l]
        hit = memo.get(w)
        if hit is not None:
            return hit
        prepend = self._prepend
        w0, rest = first - 1, w >> self.shift
        acc = prepend(w0, self._insert(l, rest))
        for k, ck in self.sc.brackets[l][w0]:
            prepend(k, ((rest, ck),), acc)
        memo[w] = result = tuple((v, c) for v, c in acc.items() if c)
        return result

    def _fold(self, left: int, terms: WordTerms) -> WordTerms:
        """X^left * terms, inserting the letters of the packed word ``left``
        right to left.

        ``terms`` holds packed sorted words of one degree d; the result has
        degree d + len(left) and may hold zero coefficients.
        """
        shift, mask = self.shift, self._mask
        # the digits of left from the last letter to the first
        for cut in range(shift * (word_length(left, shift) - 1), -1, -shift):
            terms = self._prepend(((left >> cut) & mask) - 1, terms.items())
        return terms

    def term_key(self, term: tuple[int, int]) -> tuple[int, int, int]:
        """The term order on h^p X^w, for a (packed word, h power) pair:
        length plus h power, then length, then grevlex, which among sorted
        words of one length is the reverse order of their packed codes.
        max(terms, key=term_key) is the leading term."""
        w, p = term
        length = word_length(w, self.shift)
        return (length + p, length, -w)

    def _prepend(self, l: int, terms, out: WordTerms | None = None) -> WordTerms:
        """X_l * terms for (packed sorted word, coefficient) pairs, added into
        ``out`` if given; may hold zero coefficients."""
        insert, shift, mask = self._insert, self.shift, self._mask
        if out is None:
            out = {}
        for u, c in terms:
            if l < u & mask or not u:  # X_l X^u is already sorted
                v = (u << shift) | (l + 1)
                out[v] = out.get(v, 0) + c
                continue
            for v, d in insert(l, u):
                out[v] = out.get(v, 0) + c * d
        return out

    def _product(self, left: dict, right: dict) -> dict:
        """left * right on the flat layout.

        Numerators multiply, so the result lies over the product of the
        operands' denominators.  The right operand is grouped by degree
        (word length plus h power), which determines the h power of each
        of its words, so each left word is folded into one homogeneous
        sum per degree.  A right word v whose first letter is at least the
        last letter of the left word u needs no rewriting: X^u X^v is the
        sorted word u v, packed as v << (shift len(u)) | u, and only the
        other right words of the group are folded.
        """
        shift, mask = self.shift, self._mask
        # degree -> [(packed word, h power, numerator), ...]
        by_degree: dict[int, list] = {}
        for (w, p), b in right.items():
            by_degree.setdefault(word_length(w, shift) + p, []).append((w, p, b))
        fold = self._fold
        out: dict[tuple[int, int], int] = {}
        for w, coeffs in _by_word(left).items():
            length = word_length(w, shift)
            cut = shift * length
            # the last letter of w plus one; 0 for the empty word
            last = w >> (cut - shift) if w else 0
            for degree, terms in by_degree.items():
                rest: WordTerms = {}
                for v, p, b in terms:
                    if v and v & mask < last:
                        rest[v] = b
                        continue
                    v = (v << cut) | w  # X^w X^v, already sorted
                    for q, a in coeffs:
                        key = (v, p + q)
                        out[key] = out.get(key, 0) + a * b
                if rest:
                    _add_scaled(out, fold(w, rest), degree + length, coeffs, shift)
        return out

    # -- word reduction --------------------------------------------------

    def reduce_word(self, word: Word, coeff=1, rng=None) -> dict[Word, HPoly]:
        """PBW normal form of a single word with an HPoly or exact scalar
        coefficient.

        Deterministically rewrites the leftmost inversion; an rng picks
        random inversions instead, exercising confluence.
        """
        result: dict[Word, HPoly] = {}
        stack: list[tuple[Word, HPoly]] = [(checked_word(word, self.dim), HPoly(_hvalues(coeff)))]
        while stack:
            w, c = stack.pop()
            if c.is_zero():
                continue
            inversions = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
            if not inversions:
                _accumulate(result, w, c)
                continue
            i = inversions[0] if rng is None else rng.choice(inversions)
            b, a = w[i], w[i + 1]
            stack.append((w[:i] + (a, b) + w[i + 2 :], c))
            for k, v in self.sc.bracket_coeffs(b, a).items():
                stack.append((w[:i] + (k,) + w[i + 2 :], c * HPoly.h(1, v)))
        return result

    def _suffix_plan(self, flat: dict) -> tuple[list, dict]:
        """The part of ``_commutator`` that does not depend on the letter.

        Returns (nodes, groups).  The nodes are the distinct proper
        suffixes u = X_a X^r of the words, shortest first, as (u, a, r,
        letter set of u as a bitmask); the groups map each (degree, first
        letter a) to the [(rest, c), ...] of the words X_a X^rest of that
        degree (length plus h power).  A constant term is in neither.
        """
        shift, mask = self.shift, self._mask
        letters = {0: 0}  # suffix -> its letter set
        nodes: list[tuple[int, int, int, int]] = []
        groups: dict[tuple[int, int], list] = {}
        for (w, p), c in flat.items():
            if not w:
                continue
            rest = w >> shift
            # the suffixes of rest not yet met, longest first
            chain = []
            r = rest
            while r not in letters:
                chain.append(r)
                r >>= shift
            # r is now the longest suffix met before, the rest of chain[-1]
            for u in reversed(chain):
                a = (u & mask) - 1
                letters[u] = bits = letters[r] | (1 << a)
                nodes.append((u, a, r, bits))
                r = u
            groups.setdefault((word_length(w, shift) + p, (w & mask) - 1), []).append((rest, c))
        return nodes, groups

    def _word_weights(self, weights, plan: tuple[list, dict]) -> dict[int, int]:
        """{u: sum of weights[j] over the letters j of u} for the empty word,
        the plan's suffixes and its words, off the suffix nodes:
        wt(X_a X^r) = wt(r) + weights[a]."""
        nodes, groups = plan
        shift = self.shift
        wt = {0: 0}
        for u, a, r, _ in nodes:
            wt[u] = wt[r] + weights[a]
        for (_, a), rests in groups.items():
            top, ca = a + 1, weights[a]
            for r, _ in rests:
                wt[(r << shift) | top] = wt[r] + ca
        return wt

    def _commutator(self, e: int, flat: dict, plan: tuple[list, dict]) -> dict:
        """[X_e, element] on the flat layout, over the element's denominator,
        for the element's ``flat`` terms and suffix plan (``_suffix_plan``).

        The bracket with a letter is a derivation of the product, so for a
        word X_a X^rest

            D(X_a X^rest) = X_a D(rest) + h [X_e, X_a] X^rest,

        with D(u) = [X_e, X^u] of degree len(u) + 1 and D(empty) = 0.  D is
        tabled over the plan's suffixes, shortest first, each onto the D of
        its rest; a suffix whose letters all commute with X_e has D = 0 and
        is skipped.  Each group of words of one degree and first letter a
        takes X_a onto its sum of c D(rest) in one prepend, and each
        degree's total is merged into the output once.  A constant term
        commutes.  For a Cartan letter, [X_e, X_j] = c_j X_j for every j,
        so [X_e, X^w] = h wt(w) X^w with wt(w) = sum_i c_(w[i])
        (``_word_weights``) and no rewriting.
        """
        weights = self.sc.cartan_rows[e]
        if weights is not None:
            wt = self._word_weights(weights, plan)
            return {(w, p + 1): c * wt[w] for (w, p), c in flat.items() if wt[w]}
        shift, mask = self.shift, self._mask
        prepend, insert, brackets = self._prepend, self._insert, self.sc.brackets[e]
        active = self._active[e]
        nodes, groups = plan
        # table[u] = D(u) for the suffixes that meet the active letters; may hold zeros
        table: dict[int, WordTerms] = {}
        for u, a, r, letters in nodes:
            if not letters & active:
                continue
            table[u] = d_u = {}
            inner = table.get(r)
            if inner:
                top = a + 1
                for v, d in inner.items():
                    if top <= v & mask:  # X_a X^v is already sorted
                        v = (v << shift) | top
                        d_u[v] = d_u.get(v, 0) + d
                    else:
                        for x, y in insert(a, v):
                            d_u[x] = d_u.get(x, 0) + d * y
            for k, ck in brackets[a]:
                for v, d in insert(k, r):
                    d_u[v] = d_u.get(v, 0) + ck * d
        by_degree: dict[int, WordTerms] = {}
        for (degree, a), rests in groups.items():
            inner = {}
            for rest, c in rests:
                d_rest = table.get(rest)
                if d_rest:
                    for v, d in d_rest.items():
                        inner[v] = inner.get(v, 0) + c * d
            bracket = brackets[a]
            if not (inner or bracket):
                continue
            total = by_degree.setdefault(degree + 1, {})
            if inner:
                prepend(a, inner.items(), total)
            for k, ck in bracket:
                prepend(k, [(rest, c * ck) for rest, c in rests], total)
        out: dict[tuple[int, int], int] = {}
        for degree, words in by_degree.items():
            _add_scaled(out, words, degree, ((0, 1),), shift)
        return out


def _accumulate(store: dict[Word, HPoly], word: Word, coeff: HPoly):
    prev = store.get(word)
    total = coeff if prev is None else prev + coeff
    if total.is_zero():
        store.pop(word, None)
    else:
        store[word] = total


def _flatten(items) -> tuple[dict, int]:
    """(key, exact values by h power) pairs in the flat layout.

    Returns ({(key, h power): integer numerator}, den) in lowest terms,
    with den the lcm of the values' denominators; zero values are left out.
    """
    items = list(items)
    den = 1
    for _, values in items:
        for x in values:
            if den % x.denominator:
                den = lcm(den, x.denominator)
    flat = {}
    for key, values in items:
        for p, x in enumerate(values):
            if x:
                flat[key, p] = x.numerator * (den // x.denominator)
    return flat, den


def _by_word(flat: dict) -> dict:
    """The flat layout grouped by word: word -> [(h power, numerator), ...]."""
    out: dict[int, list] = {}
    for (w, p), c in flat.items():
        out.setdefault(w, []).append((p, c))
    return out


def _add_scaled(flat: dict, words: WordTerms, degree: int, coeffs, shift: int) -> None:
    """flat += (sum_p a h^p over (p, a) in coeffs) * words, for packed words of
    the given degree with letter shift ``shift``."""
    top = shift - 1
    for v, d in words.items():
        base = degree - (v.bit_length() + top) // shift  # minus the length of v
        for p, a in coeffs:
            key = (v, base + p)
            flat[key] = flat.get(key, 0) + a * d


def _gather(flat: dict, den: int) -> dict:
    """The flat layout over ``den`` as one HPoly per word (or other key)."""
    by_key: dict = {}
    for (k, p), c in flat.items():
        by_key.setdefault(k, {})[p] = Fraction(c, den)
    return {
        k: HPoly(tuple(cs.get(p, _ZERO) for p in range(max(cs) + 1)))
        for k, cs in by_key.items()
    }


def _hvalues(coeff) -> tuple:
    """The values by h power of an HPoly or an exact scalar coefficient."""
    return coeff.coeffs if isinstance(coeff, HPoly) else (as_fraction(coeff),)


class _HTerms(_FlatTerms):
    """Exact terms keyed by (key, h power): the layout of NCPoly and QuotientElement.

    Keys are packed PBW words or exponent tuples; ``terms`` is a view with
    one HPoly per key, built on each access.  A subclass gives the degree
    of a key (``_key_degree``).
    """

    __slots__ = ()

    @property
    def terms(self) -> dict:
        """{key: HPoly coefficient}, built on each access."""
        return _gather(self.flat, self.den)

    def degree(self) -> int:
        """Filtration degree: key degree plus h power, maximized; -1 for zero."""
        key_degree = self._key_degree
        return max((key_degree(key) + p for key, p in self.flat), default=-1)

    def divisible_by_h_power(self, k: int) -> bool:
        return all(p >= k for _, p in self.flat)

    def scale(self, coeff):
        """The product with an h polynomial (an HPoly) or an exact scalar."""
        factor, den = _flatten((((), _hvalues(coeff)),))
        out: dict = {}
        for (key, p), c in self.flat.items():
            for (_, q), d in factor.items():
                out[key, p + q] = out.get((key, p + q), 0) + c * d
        return self._new(out, self.den * den)

    def shift_h(self, k: int):
        """Multiply by h^k, for an int k >= 0."""
        k = checked_h_power(k)
        return self._new({(key, p + k): c for (key, p), c in self.flat.items()}, self.den)


class NCPoly(_HTerms):
    """An element of the algebra in PBW normal form.

    Keys are non-decreasing words; the empty word is the unit.  The
    constructor takes {word: HPoly or exact scalar} with tuple words, and
    ``terms`` gives them back; ``flat`` keys them by (packed word, h power).
    All arithmetic stays inside one PBWAlgebra context: an operand of
    another algebra or type is a StructuralError.
    """

    # _plan: the suffix plan of the letter commutators, set on first use
    __slots__ = ("algebra", "_plan")
    _context_slot = "algebra"
    _mismatch = "operands from different algebra contexts"

    def __init__(self, algebra: PBWAlgebra, terms: dict | None = None):
        items = []
        for w, c in (terms or {}).items():
            w = checked_word(w, algebra.dim)
            if any(w[i] > w[i + 1] for i in range(len(w) - 1)):
                raise StructuralError(f"word {w} is not PBW-sorted")
            items.append((pack_word(w, algebra.shift), _hvalues(c)))
        self._set(algebra, *_flatten(items))

    def _key_degree(self, key: int) -> int:
        return word_length(key, self.algebra.shift)

    @property
    def terms(self) -> dict:
        """{tuple word: HPoly coefficient}, built on each access."""
        shift = self.algebra.shift
        return {unpack_word(w, shift): c for w, c in _gather(self.flat, self.den).items()}

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, algebra: PBWAlgebra) -> "NCPoly":
        return cls(algebra)

    @classmethod
    def unit(cls, algebra: PBWAlgebra, coeff: HPoly | None = None) -> "NCPoly":
        return cls(algebra, {(): 1 if coeff is None else coeff})

    @classmethod
    def letter(cls, algebra: PBWAlgebra, index: int) -> "NCPoly":
        return cls(algebra, {(index,): 1})

    @classmethod
    def from_word(cls, algebra: PBWAlgebra, word: Word, coeff=1) -> "NCPoly":
        """coeff X^w in normal form, for an HPoly or exact scalar coeff."""
        return cls(algebra, algebra.reduce_word(word, coeff))

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        self._check_context(other)
        return self._new(self.algebra._product(self.flat, other.flat), self.den * other.den)

    def commutator_with_letter(self, e: int) -> "NCPoly":
        """[X_e, self] by the derivation rule, over the suffix plan of self
        (``PBWAlgebra._commutator``)."""
        checked_word((e,), self.algebra.dim)
        return self._new(self.algebra._commutator(e, self.flat, self._suffix_plan()), self.den)

    def _suffix_plan(self) -> tuple[list, dict]:
        """The letter-independent part of every letter commutator of self
        (``PBWAlgebra._suffix_plan``), built on first use and kept: an
        element is immutable, so its plan cannot go stale."""
        try:
            return self._plan
        except AttributeError:
            plan = self.algebra._suffix_plan(self.flat)
            object.__setattr__(self, "_plan", plan)
            return plan

    # -- views ---------------------------------------------------------------

    def to_json(self) -> list[dict]:
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return [{"word": list(w), "coefficient": c.to_json()} for w, c in items]

    @classmethod
    def from_json(cls, algebra: PBWAlgebra, data) -> "NCPoly":
        terms = keyed_once(
            (
                (
                    checked_word(required(rec, "word"), algebra.dim),
                    HPoly.from_json(required(rec, "coefficient")),
                )
                for rec in data
            ),
            "word",
        )
        return cls(algebra, terms)

    def __str__(self):
        if self.is_zero():
            return "0"
        names = self.algebra.basis.names
        parts = []
        for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            mono = "*".join(names[i] for i in w) if w else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


def word_of_exponent(exp: tuple[int, ...]) -> Word:
    """The ordered word X_0^e0 X_1^e1 ... for an exponent tuple."""
    out: list[int] = []
    for letter, count in enumerate(exp):
        out.extend([letter] * count)
    return tuple(out)


def exponent_of_word(word: Word, dim: int) -> tuple[int, ...]:
    """The exponent tuple of a word over ``dim`` letters: its letter counts."""
    exp = [0] * dim
    for letter in word:
        exp[letter] += 1
    return tuple(exp)


SYMMETRIZER_DEGREE_CAP = 8
# inside ``symmetrize`` an exponent is one int, entry i in its i-th byte,
# which holds any entry up to the degree cap
_SLOT = 8
_SLOT_MASK = 0xFF


def bernoulli_numbers(m: int) -> tuple[Fraction, ...]:
    """B_0 .. B_m with B_1 = -1/2, from sum_{j <= k} C(k + 1, j) B_j = 0 (k >= 1)."""
    out = [Fraction(1)]
    for k in range(1, m + 1):
        out.append(-sum(comb(k + 1, j) * b for j, b in enumerate(out)) / (k + 1))
    return tuple(out)


# B_0 .. B_(cap - 1): a monomial of degree d reads B_1 .. B_(d - 1)
_BERNOULLI = bernoulli_numbers(SYMMETRIZER_DEGREE_CAP - 1)


def _ad_gradient(grad: dict, rows: list) -> dict:
    """sum_i (ad_{e_i} (x) d/dx_i) G for a g-valued polynomial G given as
    {(letter j, packed exponent m): int} (the term e_j (x) x^m), over
    ``rows[j]``: (slot shift, unit exponent, [e_i, e_j]) for each letter i
    whose bracket with e_j is nonzero (``StructureConstants.bracketing``);
    may hold zero coefficients."""
    mask = _SLOT_MASK
    out: dict = {}
    for (j, m), c in grad.items():
        for shift, unit, bracket in rows[j]:
            mi = (m >> shift) & mask
            if mi:
                lower, scale = m - unit, c * mi
                for t, v in bracket:
                    key = (t, lower)
                    out[key] = out.get(key, 0) + scale * v
    return out


def symmetrize(algebra: PBWAlgebra, poly) -> NCPoly:
    """The symmetrizer: average of all letter orderings, PBW-reduced.

    Built by Gutt's left-multiplication formula (S. Gutt, An explicit
    *-product on the cotangent bundle of a Lie group, Lett. Math. Phys. 7,
    1983).  Let l be the smallest letter of x^a, a = b + e_l, d = |a|:

        Sym(x^a) = X_l Sym(x^b) - sum_{k=1}^{d-1} (B_k / k!) h^k Sym(Q_k),

    with Bernoulli numbers B_k (B_1 = -1/2), Q_k = sum_j x_j G_k[j], and
    g-valued polynomials G_0 = e_l (x) x^b, G_k = sum_i (ad_{e_i} (x) d/dx_i)
    G_(k-1) over the bracket table; a term e_j (x) x^m of G_(k-1) reads
    only the letters i with [e_i, e_j] != 0 (``_ad_gradient``).  Odd B_k
    from B_3 on vanish, but G_k is still stepped through them, up to the
    first G_k without terms: every later one is then empty too.  In
    integers, W(a) = d! Sym(x^a) satisfies

        W(a) = X_l (d W(b)) - sum_k C(d, k) B_k h^k sum_e q_e W(e),

    with each q_e of degree d - k, summed times L, the lcm of the
    Bernoulli denominators, and divided by L exactly; a remainder raises
    CertificationError naming x^a.  W is memoized per call over
    monomials, each with its degree passed down the recursion, so each
    monomial costs one letter prepend onto d W(b) plus its correction
    monomials.  Inside the recursion and the gradient a monomial is one
    int, its entry i in its i-th byte, so x^b and the q_e are one
    subtraction and one addition away from their monomials.
    The polynomial must lie over the algebra's coordinates
    (``PBWAlgebra.variables``, in letter order; StructuralError
    otherwise).  Degree is capped: a monomial of degree more than
    ``SYMMETRIZER_DEGREE_CAP`` raises CapacityError before any work is
    done, which also keeps every entry within its slot.
    """
    if not isinstance(poly, MultiPoly):
        raise StructuralError("symmetrize expects a commutative polynomial")
    if poly.variables != algebra.variables:
        raise StructuralError(
            f"polynomial variables {list(poly.variables)} are not the "
            f"algebra's {list(algebra.variables)}"
        )
    for exp in poly.flat:
        if sum(exp) > SYMMETRIZER_DEGREE_CAP:
            raise CapacityError(f"symmetrizer degree {sum(exp)} exceeds cap {SYMMETRIZER_DEGREE_CAP}")

    big_l = lcm(*(b.denominator for b in _BERNOULLI))
    # L B_k as ints, 0 where B_k vanishes
    scaled = [b.numerator * (big_l // b.denominator) for b in _BERNOULLI]
    units = [1 << _SLOT * i for i in range(algebra.dim)]
    rows = [
        tuple((_SLOT * i, units[i], bracket) for i, bracket in row) for row in algebra.sc.bracketing
    ]
    memo: dict[int, WordTerms] = {0: {0: 1}}

    def factorial_sym(exp: int, d: int) -> WordTerms:
        """W(exp) = d! Sym(x^exp), words of degree d = |exp|, for a packed
        exponent."""
        cached = memo.get(exp)
        if cached is not None:
            return cached
        # the smallest letter: the slot of the lowest set bit
        l = ((exp & -exp).bit_length() - 1) // _SLOT
        b = exp - units[l]
        # L times the correction sum_k C(d, k) B_k h^k sum_e q_e W(e), each
        # q_e of degree d - k
        correction: WordTerms = {}
        grad = {(l, b): 1}  # G_0
        for k in range(1, d):
            grad = _ad_gradient(grad, rows)
            if not grad:
                break
            if not scaled[k]:
                continue
            q: dict = {}
            for (j, m), c in grad.items():
                if c:
                    e = m + units[j]
                    q[e] = q.get(e, 0) + c
            factor = comb(d, k) * scaled[k]
            for e, c in q.items():
                if c:
                    c *= factor
                    for v, w in factorial_sym(e, d - k).items():
                        correction[v] = correction.get(v, 0) + c * w
        acc = algebra._prepend(l, [(v, d * c) for v, c in factorial_sym(b, d - 1).items()])
        for v, c in correction.items():
            whole, rest = divmod(c, big_l)
            if rest:
                entries = tuple(exp.to_bytes(algebra.dim, "little"))
                witness = MultiPoly.monomial(algebra.variables, entries)
                raise CertificationError(f"{d}! Sym({witness}) is not integral")
            acc[v] = acc.get(v, 0) - whole
        memo[exp] = acc = {v: c for v, c in acc.items() if c}
        return acc

    # the numerator c of x^a over poly.den becomes c * scale / |a|! over
    # poly.den * scale, with scale the lcm of the factorials |a|!
    scale = lcm(*(factorial(sum(exp)) for exp in poly.flat))
    flat: dict[tuple[int, int], int] = {}
    for exp, c in poly.flat.items():
        d = sum(exp)
        packed = int.from_bytes(bytes(exp), "little")
        _add_scaled(flat, factorial_sym(packed, d), d, ((0, c * (scale // factorial(d))),), algebra.shift)
    # factorial_sym refers to itself through its closure; breaking that cycle
    # frees the memo here instead of at the next collection of the cyclic GC
    del factorial_sym
    return NCPoly._trusted(algebra, flat, poly.den * scale)
