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
sets no limit.  Tuple words appear only at the public edges: the
``NCPoly`` constructor, its ``terms`` view, JSON and printing,
``word_of_exponent``/``exponent_of_word`` and ``reduce_word``.

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
coefficient) pairs.  The structure constants of ``lie`` are integers, and
``PBWAlgebra`` takes integral constants only and stores them as ``int``,
so every memo coefficient is an ``int``.

Products fold the letters of the left word into the right word from
right to left; the symmetrizer, the letter commutator (through the
derivation rule) and the quantization's left multiples are built on the
same step.  They all work on one flat layout: integer numerators keyed
by (packed word, h power) over one positive denominator.  ``NCPoly``
stores its terms in that layout and ``QuotientElement`` keys it by
exponents.  Both are ``_HTerms``: the methods that read h powers, on top
of the storage and sums they share with ``MultiPoly`` (``poly._FlatTerms``).
``_flatten`` writes exact coefficients in the layout and
``PBWAlgebra._product`` multiplies in it.  ``HPoly`` appears only at
the edges: constructor input, the ``terms`` view (``_gather``, one
``HPoly`` per key on each access), JSON and printing.

Letters are checked where they enter (``checked_word``): each is an int,
not a bool, in range.

``reduce_word`` is the literal rewriter: it rewrites the leftmost
inversion, or a randomly chosen one when given an rng.  It shares no code
with ``_insert`` and serves as its oracle; ``from_word``, the ``pbw`` CLI
verb and ``verify``'s confluence check use it directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import CapacityError, StructuralError
from .hpoly import HPoly
from .lie import LieBasis, StructureConstants
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
    """Rewriting context: the letters, their bracket table and the insertion
    memo, for integral structure constants only (StructuralError otherwise)."""

    def __init__(self, basis: LieBasis, sc: StructureConstants):
        if basis.dim != sc.dim:
            raise StructuralError("basis and structure constants disagree")
        if any(v.denominator != 1 for _, _, _, v in sc.entries()):
            raise StructuralError("structure constants must be integers")
        self.basis = basis
        self.sc = sc
        self.dim = basis.dim
        # the width in bits of one letter digit of a packed word
        self.shift = self.dim.bit_length()
        self._mask = (1 << self.shift) - 1
        # _bracket[i][j]: [X_i, X_j] = sum_k c X_k as ((k, int c), ...)
        self._bracket: list[list[tuple]] = [
            [
                tuple((k, int(v)) for k, v in sc.bracket_coeffs(i, j).items() if v)
                for j in range(self.dim)
            ]
            for i in range(self.dim)
        ]
        # _memo[l][w] = X_l * X^w for a packed word w with first letter below l
        self._memo: list[dict[int, tuple]] = [{} for _ in range(self.dim)]

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
        for k, ck in self._bracket[l][w0]:
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
        sum per degree.
        """
        shift = self.shift
        by_degree: dict[int, dict[int, int]] = {}
        for (w, p), b in right.items():
            by_degree.setdefault(word_length(w, shift) + p, {})[w] = b
        fold = self._fold
        out: dict[tuple[int, int], int] = {}
        for w, coeffs in _by_word(left).items():
            length = word_length(w, shift)
            for degree, terms in by_degree.items():
                _add_scaled(out, fold(w, terms), degree + length, coeffs, shift)
        return out

    # -- word reduction --------------------------------------------------

    def reduce_word(self, word: Word, coeff: HPoly = None, rng=None) -> dict[Word, HPoly]:
        """PBW normal form of a single word with coefficient.

        Deterministically rewrites the leftmost inversion; an rng picks
        random inversions instead, exercising confluence.
        """
        if coeff is None:
            coeff = HPoly.one()
        result: dict[Word, HPoly] = {}
        stack: list[tuple[Word, HPoly]] = [(checked_word(word, self.dim), coeff)]
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

    def letter_commutator_words(self, e: int, w: int) -> WordTerms:
        """[X_e, X^w] for a packed sorted word w, expanded through the
        derivation rule.

        The bracket with a single letter is a derivation of the product:
        the sum over positions i of X^w[:i] * h[X_e, X_w[i]] * X^w[i+1:],
        much cheaper than two full products.  It is summed Horner-wise from
        the last letter: C_i = X_w[i] C_(i+1) + h[X_e, X_w[i]] X^w[i+1:].
        The result has degree len(w) + 1, h included.
        """
        insert, shift, mask, brackets = self._insert, self.shift, self._mask, self._bracket[e]
        acc: WordTerms = {}
        for cut in range(shift * (word_length(w, shift) - 1), -1, -shift):
            letter = ((w >> cut) & mask) - 1
            if acc:
                acc = self._prepend(letter, acc.items())
            rest = w >> (cut + shift)
            for k, ck in brackets[letter]:
                for v, d in insert(k, rest):
                    acc[v] = acc.get(v, 0) + ck * d
        return {v: c for v, c in acc.items() if c}


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

    def max_h_degree(self) -> int:
        return max((p for _, p in self.flat), default=-1)

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
        """Multiply by h^k."""
        return self._new({(key, p + k): c for (key, p), c in self.flat.items()}, self.den)


class NCPoly(_HTerms):
    """An element of the algebra in PBW normal form.

    Keys are non-decreasing words; the empty word is the unit.  The
    constructor takes {word: HPoly or exact scalar} with tuple words, and
    ``terms`` gives them back; ``flat`` keys them by (packed word, h power).
    All arithmetic stays inside one PBWAlgebra context: an operand of
    another algebra or type is a StructuralError.
    """

    __slots__ = ("algebra",)
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
    def from_word(cls, algebra: PBWAlgebra, word: Word, coeff: HPoly | None = None) -> "NCPoly":
        reduced = algebra.reduce_word(word, coeff or HPoly.one())
        return cls(algebra, reduced)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        self._check_context(other)
        return self._new(self.algebra._product(self.flat, other.flat), self.den * other.den)

    def commutator_with_letter(self, e: int) -> "NCPoly":
        """[X_e, self] via the derivation expansion (exact, fast)."""
        algebra = self.algebra
        checked_word((e,), algebra.dim)
        shift = algebra.shift
        out: dict[tuple[int, int], int] = {}
        for w, coeffs in _by_word(self.flat).items():
            words = algebra.letter_commutator_words(e, w)
            _add_scaled(out, words, word_length(w, shift) + 1, coeffs, shift)
        return self._new(out, self.den)

    # -- views ---------------------------------------------------------------

    def commutative_image(self):
        """Set h = 0 and abelianize: the symbol in the polynomial ring.

        Returns exponent-keyed Fraction terms over the algebra's letters;
        sorted words have distinct exponents, so no two terms meet.
        """
        n, shift, den = self.algebra.dim, self.algebra.shift, self.den
        return {
            exponent_of_word(unpack_word(w, shift), n): Fraction(c, den)
            for (w, p), c in self.flat.items()
            if p == 0
        }

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


def symmetrize(algebra: PBWAlgebra, poly) -> NCPoly:
    """The symmetrizer: average of all letter orderings, PBW-reduced.

    The sum U(a) of X^v over the distinct orderings v of the letters of
    x^a satisfies U(a) = sum_{l : a_l > 0} X_l U(a - e_l), an integer
    recursion memoized over sub-exponents that avoids the factorial
    blowup of a literal permutation sum; Sym(x^a) is U(a) divided by the
    multinomial |a|! / prod a_l!.  Degree is capped: a monomial of degree
    more than ``SYMMETRIZER_DEGREE_CAP`` raises CapacityError before any
    work is done.
    """
    if not isinstance(poly, MultiPoly):
        raise StructuralError("symmetrize expects a commutative polynomial")
    if len(poly.variables) != algebra.dim:
        raise StructuralError("polynomial variables do not match the letters")
    for exp in poly.flat:
        if sum(exp) > SYMMETRIZER_DEGREE_CAP:
            raise CapacityError(f"symmetrizer degree {sum(exp)} exceeds cap {SYMMETRIZER_DEGREE_CAP}")

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

    # the numerator c of x^a over poly.den becomes c * scale / m(a) over
    # poly.den * scale, with scale the lcm of the multinomials m(a)
    counts = {exp: multinomial(exp) for exp in poly.flat}
    scale = lcm(*counts.values())
    flat: dict[tuple[int, int], int] = {}
    for exp, c in poly.flat.items():
        a = c * (scale // counts[exp])
        _add_scaled(flat, orderings(exp), sum(exp), ((0, a),), algebra.shift)
    return NCPoly._trusted(algebra, flat, poly.den * scale)
