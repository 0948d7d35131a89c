"""Independent checks of orbitquant's outputs.

Nothing here calls into the package's algorithms: matrix algebra,
coordinates, the coadjoint action, trace and Pfaffian values and the
structure constants are recomputed from their definitions with plain
``Fraction`` arithmetic, and commutative normal forms come from sympy's
own Groebner basis and division.  Each ``check_*`` function takes plain
data and returns a list of problems (empty when every claim holds), so
the tests can feed it deliberately corrupted outputs.

Exact outputs are compared as "flat" dictionaries mapping
``(exponent, h_power)`` to a nonzero ``Fraction``.
"""

from __future__ import annotations

import random
from fractions import Fraction

# --------------------------------------------------------------- matrices


def mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[x * s for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def det(m):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return result


def adjugate(m):
    """Transposed cofactor matrix."""
    n = len(m)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            out[j][i] = (-1) ** (i + j) * det(minor) if n > 1 else Fraction(1)
    return out


def inverse(m):
    d = det(m)
    return mat_scale(adjugate(m), 1 / d)


def trace(m):
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def pfaffian(m):
    """Pfaffian of an even skew-symmetric matrix by expansion along row 0."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(1, n):
        keep = [i for i in range(1, n) if i != j]
        minor = [[m[r][c] for c in keep] for r in keep]
        total += (-1) ** (j - 1) * m[0][j] * pfaffian(minor)
    return total


# ------------------------------------------------- orbit data, by definition


def random_rational(rng: random.Random, lo=-3, hi=3, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def random_point(n: int, rng: random.Random):
    """A dual point (c, a): c symmetric positive definite, a arbitrary."""
    g = random_group_matrix(n, rng)
    c = mat_mul(transpose(g), g)
    a = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    return c, a


def random_group_matrix(n: int, rng: random.Random, det_value: Fraction | None = None):
    """L * U with unit lower L and positive-diagonal upper U, so det > 0."""
    lower = identity(n)
    upper = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            lower[j][i] = random_rational(rng, -2, 2)
            upper[i][j] = random_rational(rng, -2, 2)
    upper[0][0] = det_value if det_value is not None else Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    return mat_mul(lower, upper)


def random_group_element(n: int, rng: random.Random, det_value: Fraction | None = None):
    x = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x[i][j] = x[j][i] = random_rational(rng, -2, 2)
    return x, random_group_matrix(n, rng, det_value)


def coadjoint(x, g, c, a):
    """Ad*(x, g)(c, a) = (g^-t c g^-1, g a g^-1 + x g^-t c g^-1)."""
    g_inv = inverse(g)
    c_new = mat_mul(mat_mul(transpose(g_inv), c), g_inv)
    a_new = [
        [u + v for u, v in zip(ru, rv)]
        for ru, rv in zip(mat_mul(mat_mul(g, a), g_inv), mat_mul(x, c_new))
    ]
    return c_new, a_new


def coordinates(elements, c, a):
    """x_i(p) = tr(p X_i) with p the block matrix (a 0; c -a^t)."""
    n = len(c)
    p = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            p[i][j] = a[i][j]
            p[n + i][j] = c[i][j]
            p[n + i][n + j] = -a[j][i]
    return [trace(mat_mul(p, [list(row) for row in x])) for x in elements]


def evaluate(terms, values):
    """Sum of coeff * prod(values ** exponent) with cached powers."""
    powers = [{0: Fraction(1)} for _ in values]
    total = Fraction(0)
    for exp, coeff in terms.items():
        term = coeff
        for i, e in enumerate(exp):
            if e:
                cache = powers[i]
                if e not in cache:
                    cache[e] = values[i] ** e
                term *= cache[e]
        total += term
    return total


def trace_value(i: int, c, a):
    """tr(T^(2i)) with T = c a adj(c) - det(c) a^t."""
    t = mat_sub(mat_mul(mat_mul(c, a), adjugate(c)), mat_scale(transpose(a), det(c)))
    power = identity(len(c))
    for _ in range(2 * i):
        power = mat_mul(power, t)
    return trace(power)


def pfaffian_value(c, a):
    """Pf((a adj(c) - adj(c) a^t) / 2)."""
    aadj = mat_mul(a, adjugate(c))
    return pfaffian(mat_scale(mat_sub(aadj, transpose(aadj)), Fraction(1, 2)))


def det_weight(terms, elements, n: int, rng: random.Random, attempts: int = 8) -> int | None:
    """The exponent w with p(Ad*(x, g) pt) = det(g)^w p(pt), from det(g) = 2."""
    for _ in range(attempts):
        c, a = random_point(n, rng)
        base = evaluate(terms, coordinates(elements, c, a))
        if base == 0:
            continue
        x, g = random_group_element(n, rng, det_value=Fraction(2))
        moved = evaluate(terms, coordinates(elements, *coadjoint(x, g, c, a)))
        ratio, w = moved / base, 0
        while ratio.numerator % 2 == 0 and ratio > 1:
            ratio, w = ratio / 2, w + 1
        while ratio.denominator % 2 == 0:
            ratio, w = ratio * 2, w - 1
        return w if ratio == 1 else None
    return None


def structure_constants(elements):
    """c[i][j] = {k: c_ij^k} from the matrix commutators [X_i, X_j]."""
    mats = [[list(row) for row in x] for x in elements]
    flat = [[v for row in m for v in row] for m in mats]
    dim = len(mats)
    out = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            comm = mat_sub(mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i]))
            coeffs = solve_in_span(flat, [v for row in comm for v in row])
            if coeffs is None:
                raise ValueError(f"[X_{i}, X_{j}] leaves the span of the basis")
            out[i][j] = {k: v for k, v in enumerate(coeffs) if v}
    return out


def solve_in_span(vectors, target):
    """Exact coefficients expressing target in the independent vectors, or None."""
    dim = len(vectors)
    rows = [[vectors[k][r] for k in range(dim)] + [target[r]] for r in range(len(target))]
    pivots = []
    row = 0
    for col in range(dim):
        pick = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
        if pick is None:
            return None
        rows[row], rows[pick] = rows[pick], rows[row]
        lead = rows[row][col]
        rows[row] = [v / lead for v in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
    if any(rows[r][dim] != 0 for r in range(row, len(rows))):
        return None
    return [rows[k][dim] for k in range(dim)]


# ------------------------------------------------------------- flat forms


def flat_of(value) -> dict:
    """{(exponent, h_power): Fraction} of a MultiPoly or QuotientElement."""
    out = {}
    for exp, coeff in value.terms.items():
        if isinstance(coeff, Fraction):
            if coeff:
                out[(tuple(exp), 0)] = coeff
        else:
            for k, v in enumerate(coeff.coeffs):
                if v:
                    out[(tuple(exp), k)] = v
    return out


def h_part(flat: dict, k: int) -> dict:
    return {e: v for (e, p), v in flat.items() if p == k}


def flat_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, v in b.items():
        new = out.get(key, Fraction(0)) - v
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def filtration_degree(flat: dict) -> int:
    return max((sum(e) + k for e, k in flat), default=0)


# ------------------------------------------------------------ star checks


class CommutativeOracle:
    """sympy's grevlex Groebner basis of the orbit ideal, and normal forms in it."""

    def __init__(self, variables, generators, elements):
        from sympy.polys.domains import QQ
        from sympy.polys.groebnertools import groebner
        from sympy.polys.orderings import grevlex
        from sympy.polys.rings import ring

        self.QQ = QQ
        self.ring, *self.gens = ring(",".join(variables), QQ, grevlex)
        self.basis = groebner([self.to_ring(g) for g in generators], self.ring)
        self.leading = [p.LM for p in self.basis]
        self.sc = structure_constants(elements)

    def to_ring(self, terms: dict):
        return self.ring.from_dict(
            {e: self.QQ(v.numerator, v.denominator) for e, v in terms.items()}
        )

    def from_ring(self, p) -> dict:
        return {
            tuple(e): Fraction(int(v.numerator), int(v.denominator)) for e, v in p.terms()
        }

    def normal_form(self, p) -> dict:
        return self.from_ring(p.rem(self.basis))

    def is_standard(self, exp) -> bool:
        return not any(all(x >= y for x, y in zip(exp, lm)) for lm in self.leading)

    def bracket(self, f, g):
        """Lie-Poisson bracket sum c_ij^k x_k df/dx_i dg/dx_j, in the ring."""
        dfs = [f.diff(x) for x in self.gens]
        dgs = [g.diff(x) for x in self.gens]
        out = self.ring.zero
        for i, row in enumerate(self.sc):
            if not dfs[i]:
                continue
            for j, coeffs in enumerate(row):
                if not coeffs or not dgs[j]:
                    continue
                lin = sum(
                    (self.gens[k] * self.QQ(v.numerator, v.denominator) for k, v in coeffs.items()),
                    self.ring.zero,
                )
                out += lin * dfs[i] * dgs[j]
        return out


def check_star_round(oracle: CommutativeOracle, round_, inputs: list, outputs: list) -> list:
    """Check one round of star products against the commutative oracle.

    ``inputs``/``outputs`` hold flat forms; ``round_`` is a StarRound.
    """
    problems = []

    def value(ref):
        kind, idx = ref
        return inputs[idx] if kind == "in" else outputs[idx]

    for s, (left, right) in enumerate(round_.steps):
        a, b, out = value(left), value(right), outputs[s]
        bad = [e for e, _ in out if not oracle.is_standard(e)]
        if bad:
            problems.append(f"step {s}: product supported on non-standard monomial {bad[0]}")
        limit = filtration_degree(a) + filtration_degree(b)
        if filtration_degree(out) > limit:
            problems.append(f"step {s}: filtration degree {filtration_degree(out)} > {limit}")
        classical = oracle.normal_form(oracle.to_ring(h_part(a, 0)) * oracle.to_ring(h_part(b, 0)))
        if h_part(out, 0) != classical:
            problems.append(f"step {s}: h^0 coefficient differs from the reduced commutative product")

    for sa, sb, i, j in round_.coordinate_pairs:
        comm = flat_sub(outputs[sa], outputs[sb])
        expected = {}
        for k, v in oracle.sc[i][j].items():
            exp = [0] * len(oracle.gens)
            exp[k] = 1
            expected[(tuple(exp), 1)] = v
        if comm != expected:
            problems.append(f"steps {sa},{sb}: [x{i}, x{j}]_star is not h*{{x{i}, x{j}}}")

    for sa, sb in round_.commutator_pairs:
        left, right = round_.steps[sa]
        a0, b0 = oracle.to_ring(h_part(value(left), 0)), oracle.to_ring(h_part(value(right), 0))
        comm = flat_sub(outputs[sa], outputs[sb])
        if h_part(comm, 1) != oracle.normal_form(oracle.bracket(a0, b0)):
            problems.append(f"steps {sa},{sb}: h^1 term of the commutator is not the reduced bracket")

    for sa, sb in round_.associativity:
        if outputs[sa] != outputs[sb]:
            problems.append(f"steps {sa},{sb}: (f*g)*w != f*(g*w)")

    for s, idx in round_.unit:
        if outputs[s] != inputs[idx]:
            problems.append(f"step {s}: the unit does not act as the identity")
    return problems


# ------------------------------------------------------- symmetrizer checks


def check_symmetrized(generator_terms: dict, sym_terms: dict, dim: int, cap: int) -> list:
    """Commutative image of the symmetrized generator, and its filtration degree.

    ``sym_terms`` maps PBW words to tuples of h-coefficients.
    """
    problems = []
    image: dict = {}
    for word, coeffs in sym_terms.items():
        if len(word) + len(coeffs) - 1 > cap:
            problems.append(f"term {word} has filtration degree above {cap}")
        if coeffs and coeffs[0]:
            exp = [0] * dim
            for letter in word:
                exp[letter] += 1
            key = tuple(exp)
            image[key] = image.get(key, Fraction(0)) + coeffs[0]
    image = {e: v for e, v in image.items() if v}
    if image != {e: v for e, v in generator_terms.items() if v}:
        problems.append("commutative image of the symmetrized generator differs from the generator")
    return problems


def check_weight_table(row: list, kinds, weight: int | None) -> list:
    """Entry for letter e must be -w*h on diagonal a letters, 0 elsewhere.

    ``row`` holds tuples of h-coefficients, one per letter.
    """
    if weight is None:
        return ["the generator has no det(g) power law at the sampled points"]
    problems = []
    for e, (coeffs, (kind, r, s)) in enumerate(zip(row, kinds)):
        expected = (Fraction(0), Fraction(-weight)) if kind == "a" and r == s else ()
        if tuple(coeffs) != expected:
            problems.append(f"weight-table entry for letter {e} is {coeffs}, expected {expected}")
    return problems


# ------------------------------------------------------------ family checks


def check_family(generators, kinds, weights, elements, n: int, rng, points=2, moves=2) -> list:
    """Values at seeded points against direct matrix formulas, and det(g) laws.

    ``generators`` are exponent->Fraction dicts; trace generators are
    tr(T^(2i)) (weight -4i), the Pfaffian generator Pf((a adj c - adj c a^t)/2)
    (weight 1 - n).
    """
    problems = []
    trace_index = 0
    expected_weights = []
    for kind in kinds:
        if kind == "trace":
            trace_index += 1
            expected_weights.append(-4 * trace_index)
        else:
            expected_weights.append(1 - n)
    if list(weights) != expected_weights:
        problems.append(f"claimed weights {list(weights)} differ from {expected_weights}")

    def direct(m, c, a):
        if kinds[m] == "trace":
            return trace_value(kinds[: m + 1].count("trace"), c, a)
        return pfaffian_value(c, a)

    for _ in range(points):
        c, a = random_point(n, rng)
        coords = coordinates(elements, c, a)
        for m, terms in enumerate(generators):
            if evaluate(terms, coords) != direct(m, c, a):
                problems.append(f"generator {m} differs from its {kinds[m]} value at a sampled point")
    for _ in range(moves):
        c, a = random_point(n, rng)
        x, g = random_group_element(n, rng)
        before = coordinates(elements, c, a)
        after = coordinates(elements, *coadjoint(x, g, c, a))
        dg = det(g)
        for m, terms in enumerate(generators):
            if evaluate(terms, after) != dg ** expected_weights[m] * evaluate(terms, before):
                problems.append(f"generator {m} breaks its det(g)^{expected_weights[m]} law")
    return problems


# ------------------------------------------------------------ verify checks


def check_verify_reports(returncodes: list, reports: list) -> tuple[int, list]:
    """(failed runs, problems): every check must be exactly 'pass' and hashes agree."""
    failed, problems = 0, []
    for code, report in zip(returncodes, reports):
        bad = [] if report is None else [c["name"] for c in report["checks"] if c["status"] != "pass"]
        if code != 0 or report is None or bad:
            failed += 1
            problems.append(f"verify exited {code}; checks not passing: {bad or 'no report'}")
    hashes = {r["content_hash"] for r in reports if r is not None}
    if len(hashes) > 1:
        problems.append(f"one seed gave {len(hashes)} different content hashes")
    return failed, problems
