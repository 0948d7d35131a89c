"""One-shot verification of every mathematical claim the package makes.

Each check function returns a report entry with a neutral statement of
the claim, a pass/fail status, witness data, and timing.  The functions
are ordinary library code so tests exercise them directly; the CLI verb
``verify`` only assembles and serializes the result.  Each criterion is
defined here once.  Criteria 10 and 11 are functions of an engine and an
rng (``quotient_basis_torsion``, ``deformation_axioms``) that return the
entry's status and details, so they run on any engine and at any sample
count.  Their entries, and the PBW entry, run at fixed sizes: on the
n = 2, lambda = 1 engine (the algebra of n = 2 for PBW) and at fixed
sample counts, with only the seed and the degree cap to set.

The report's content hash (``content_hash``) leaves out
``UNHASHED_KEYS``: the run times and the float normal-form residual, so
every other value it hashes is exact, apart from the constant budgets.

A check over sizes runs one function of n and an rng per size through
``_over_sizes``: the sizes share one seeded rng in order, each record is
stored under ``"n=<n>"``, and the entry passes when every size passes.
The one skip rule is ``_entry``'s: a CapacityError anywhere in a check
skips the whole entry, with its reason, and leaves the run incomplete.

``build_report`` runs its independent, separately seeded checks
concurrently on forked worker processes, one per usable CPU.  Each call
carries its check's measured CPU seconds, and the pool takes the calls
in descending seconds (the longest-processing-time rule: R. L. Graham,
SIAM J. Appl. Math. 17, 1969), so the longest checks start first and no
long check runs alone at the end.  The entries are still listed in
report order, so the report and its content hash are those of a run in
one process.  Each entry's ``elapsed_s`` is its worker's wall time,
taken while other checks compete for the CPUs, so the values no longer
add up to the run's time.  The run stays in one process when one CPU is
usable, when the platform cannot fork, or when the calling process runs
other threads.

Unlike the rest of the package, which loads on first use, this module
imports every module its checks run when it loads, so the parent holds
them before it forks and the workers inherit them instead of each
importing them again.
"""

from __future__ import annotations

# hashlib serves the report's content hash, and is imported here for the
# workers too: the normal-form check's scipy imports it, and imported after
# the fork it adds about 3 MB to that worker's peak resident set
import hashlib
import json
import os
import random
import time
from fractions import Fraction
from functools import partial
from math import prod

from . import linalg as la
from .errors import CapacityError, OrbitQuantError, StructuralError
from .groebner import divide, standard_monomials
from .hpoly import HPoly
from .invariants import (
    invariant_trace_power,
    membership_residual,
    no_invariants_certificate,
    orbit_ideal,
    pfaffian_semiinvariant_value,
    regularity_check,
    semiinvariant_family,
    verify_semiinvariance,
)
from .lie import build_lie_basis, standard_symplectic_form
from .ncpoly import NCPoly, PBWAlgebra, word_of_exponent
from .orbits import (
    DualPoint,
    adjoint,
    basis_lie_element,
    coadjoint,
    embed_sp,
    group_inverse,
    group_multiply,
    lambda_block_matrix,
    normal_form,
    orbit_dimension,
    pair_dual_algebra,
)
from .poly import MultiPoly, monomials_up_to_degree
from .quantize import OrbitQuantization, commutator_weight
from .sampling import (
    random_gplus_point,
    random_group_element,
    random_orbit_sample,
    random_polynomial,
)


def _entry(name: str, claim: str, runner, budget_s: float) -> dict:
    start = time.perf_counter()
    try:
        status, details = runner()
    except CapacityError as exc:
        status, details = "skipped", {"reason": f"capacity: {exc}"}
    except OrbitQuantError as exc:
        status, details = "fail", {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    return {
        "name": name,
        "claim": claim,
        "status": status,
        "details": details,
        "budget_s": budget_s,
        "elapsed_s": round(elapsed, 3),
    }


def _regular_lambdas(k: int) -> list[Fraction]:
    """The reference orbit's block parameters k > k - 1 > ... > 1."""
    return [Fraction(k - j) for j in range(k)]


def _over_sizes(seed, ns, one) -> tuple[str, dict]:
    """The module's per-size rule for ``one(n, rng) -> (record, passed)``; a
    check that draws nothing passes seed None."""
    rng = random.Random(seed)
    details = {}
    ok = True
    for n in ns:
        details[f"n={n}"], passed = one(n, rng)
        ok = ok and passed
    return ("pass" if ok else "fail"), details


def check_embedding(seed: int, ns=(1, 2, 3), samples: int = 20) -> dict:
    def one(n, rng):
        J = standard_symplectic_form(n)
        hom, sympl = 0, 0
        for _ in range(samples):
            p = random_group_element(n, rng)
            q = random_group_element(n, rng)
            mp = embed_sp(p)
            if la.mat_mul(mp, embed_sp(q)) == embed_sp(group_multiply(p, q)):
                hom += 1
            if la.mat_mul(la.mat_mul(la.transpose(mp), J), mp) == J:
                sympl += 1
        record = {"homomorphism": hom, "symplectic": sympl, "samples": samples}
        return record, hom == samples and sympl == samples

    return _entry(
        "embedding_soundness",
        "group multiplication agrees with block-matrix multiplication in Sp(n), exactly",
        partial(_over_sizes, seed, ns, one),
        budget_s=5.0,
    )


def check_coadjoint(seed: int, ns=(2, 3), samples: int = 20) -> dict:
    def one(n, rng):
        basis, _ = build_lie_basis(n)
        elements = [basis_lie_element(basis, i) for i in range(basis.dim)]
        functorial, dual = 0, 0
        for _ in range(samples):
            p = random_group_element(n, rng)
            q = random_group_element(n, rng)
            pt = random_gplus_point(n, rng)
            if coadjoint(group_multiply(p, q), pt) == coadjoint(p, coadjoint(q, pt)):
                functorial += 1
            pinv = group_inverse(p)
            image = coadjoint(p, pt)
            good = all(
                pair_dual_algebra(image, x) == pair_dual_algebra(pt, adjoint(pinv, x))
                for x in elements
            )
            dual += int(good)
        record = {"functorial": functorial, "dual": dual, "samples": samples}
        return record, functorial == samples and dual == samples

    return _entry(
        "coadjoint_functoriality_duality",
        "the coadjoint action composes functorially and is trace-dual to the adjoint action",
        partial(_over_sizes, seed, ns, one),
        budget_s=10.0,
    )


# the largest normal-form residual that passes
NORMAL_FORM_TOL = 1e-9


def check_normal_form(seed: int, ns=(2, 3), samples: int = 20) -> dict:
    """The float normal form's residual, and the exact orbit invariants of
    each point against those of a coadjoint translate: the trace invariants
    f_1..f_k, and for even n the sign of the Pfaffian semiinvariant P, whose
    weight 1 - n scales it by a positive det(g)^(1 - n)."""

    def invariants(pt):
        return [invariant_trace_power(i, pt) for i in range(1, pt.n // 2 + 1)]

    def pfaffian_sign(pt):
        value = pfaffian_semiinvariant_value(pt)
        return (value > 0) - (value < 0)

    def one(n, rng):
        worst_residual = 0.0
        traces, signs = 0, 0
        for _ in range(samples):
            pt = random_gplus_point(n, rng)
            worst_residual = max(worst_residual, normal_form(pt).residual)
            moved = random_orbit_sample(pt, rng)
            traces += int(invariants(pt) == invariants(moved))
            if n % 2 == 0:
                signs += int(pfaffian_sign(pt) == pfaffian_sign(moved))
        counts = {"trace_invariants_agree": traces}
        if n % 2 == 0:
            counts["pfaffian_signs_agree"] = signs
        record = {"worst_residual": worst_residual, **counts, "samples": samples}
        agree = all(count == samples for count in counts.values())
        return record, worst_residual < NORMAL_FORM_TOL and agree

    return _entry(
        "normal_form",
        "a witness group element carries every positive-definite point to (I, H); "
        "the trace invariants, and for even n the sign of the Pfaffian, agree "
        "exactly between a point and its coadjoint translate",
        partial(_over_sizes, seed, ns, one),
        budget_s=30.0,
    )


def check_orbit_dimension(ns=(2, 3)) -> dict:
    def one(n, rng):
        basis, _ = build_lie_basis(n)
        k = n // 2
        pt = DualPoint(la.identity(n), lambda_block_matrix(n, _regular_lambdas(k)))
        rank = orbit_dimension(pt, basis)
        expected = basis.dim - k
        record = {"rank": rank, "dim_group_minus_k": expected, "n_squared_minus_k": n * n - k}
        return record, rank == expected

    return _entry(
        "orbit_dimension",
        "the infinitesimal coadjoint action at a regular point has exact rank "
        "dim G - k (the value n^2 - k is reported alongside for comparison)",
        partial(_over_sizes, None, ns, one),
        budget_s=10.0,
    )


def check_semiinvariants(
    seed: int, ns=(2, 3), samples: int = 20, weight_offset: int = 0
) -> dict:
    """Exact transformation laws of the family's generators at their stated
    weights, ``SemiinvariantFamily.weights``.

    ``weight_offset`` is added to every expected weight; a nonzero offset
    is the self-test of ``semi-check --perturb``, whose laws must fail.
    StructuralError unless every n is at least 2 and samples at least 1,
    so that no law passes on zero samples.
    """
    if not ns or min(ns) < 2 or samples < 1:
        raise StructuralError("the semiinvariant laws need n >= 2 and samples >= 1")

    def one(n, rng):
        fam = semiinvariant_family(n)
        laws = list(zip(fam.kinds, fam.generators, fam.weights))
        if fam.composite_even is not None:
            # the determinant-cleared square follows the -4k law of the traces
            laws.append(("det-cleared square", fam.composite_even, -4 * fam.k))
        records = []
        for kind, poly, weight in laws:
            weight += weight_offset
            exact = verify_semiinvariance(fam, poly, weight, rng, samples)
            records.append(
                {"kind": kind, "weight": weight, "samples": samples, "exact_law": exact}
            )
        return records, all(r["exact_law"] for r in records)

    def run():
        status, details = _over_sizes(seed, ns, one)
        if weight_offset:
            details["weight_offset"] = weight_offset
        return status, details

    return _entry(
        "semiinvariant_weights",
        "each semiinvariant rescales exactly by det(g)^w at its stated weight w: "
        "-4i for the trace h_i, 1 - n for the Pfaffian P, -4k for det(c) P^2",
        run,
        budget_s=60.0,
    )


def check_invariant_polynomials(degree_by_n=((2, 4), (3, 2))) -> dict:
    degree = dict(degree_by_n)

    def one(n, rng):
        cert = no_invariants_certificate(n, degree[n])
        record = {
            "degree_bound": degree[n],
            "kernel_dimension": cert.kernel_dimension,
            "per_degree": list(cert.per_degree),
        }
        return record, cert.only_constants

    return _entry(
        "invariant_polynomials_certificate",
        "the only polynomial solutions of the infinitesimal invariance equations "
        "up to the degree bound are the constants",
        partial(_over_sizes, None, degree, one),
        budget_s=300.0,
    )


def check_orbit_ideal(seed: int, ns=(2, 3), samples: int = 20) -> dict:
    def one(n, rng):
        fam = semiinvariant_family(n)
        ideal = orbit_ideal(_regular_lambdas(fam.k), fam)
        base = ideal.normal_form_point()
        pts = [base] + [random_orbit_sample(base, rng) for _ in range(samples)]
        vanish = all(all(v == 0 for v in membership_residual(ideal, pt)) for pt in pts)
        full_rank = regularity_check(ideal, pts)
        record = {
            "samples": len(pts),
            "vanishing_exact": vanish,
            "jacobian_full_rank": full_rank,
            "alphas": [str(a) for a in ideal.alphas],
        }
        return record, vanish and full_rank

    return _entry(
        "orbit_ideal",
        "orbit ideal generators vanish exactly on orbit samples and their "
        "differentials have full rank k there",
        partial(_over_sizes, seed, ns, one),
        budget_s=60.0,
    )


def check_pbw(seed: int) -> dict:
    words, triples = 30, 50

    def run():
        rng = random.Random(seed)
        basis, sc = build_lie_basis(2)
        algebra = PBWAlgebra(basis, sc)
        letters = [NCPoly.letter(algebra, i) for i in range(basis.dim)]
        confluent = 0
        for _ in range(words):
            word = tuple(rng.randrange(basis.dim) for _ in range(5))
            # both rewriting orders, and the engine's product of the letters
            product = prod((letters[i] for i in word), start=NCPoly.unit(algebra)).terms
            if algebra.reduce_word(word) == algebra.reduce_word(word, rng=rng) == product:
                confluent += 1

        def rand_nc():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(0, 3)
                word = tuple(sorted(rng.randrange(basis.dim) for _ in range(length)))
                terms[word] = HPoly.of(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
            return NCPoly(algebra, terms)

        associative = 0
        for _ in range(triples):
            u, v, w = rand_nc(), rand_nc(), rand_nc()
            if (u * v) * w == u * (v * w):
                associative += 1
        details = {
            "confluent_words": confluent,
            "words": words,
            "associative_triples": associative,
            "triples": triples,
        }
        ok = confluent == words and associative == triples
        return ("pass" if ok else "fail"), details

    return _entry(
        "pbw_engine",
        "PBW rewriting is schedule-independent and the induced multiplication "
        "is associative, exactly",
        run,
        budget_s=60.0,
    )


def check_generator_commutators(ns=(2, 3)) -> dict:
    def one(n, rng):
        engine = OrbitQuantization(
            n, _regular_lambdas(n // 2), deg_cap=8, build_reduction=False
        )
        letter_report = []
        pattern_ok = True
        # the table derives most letters from brackets; each is certified here on its own
        direct_ok = all(
            [commutator_weight(engine.algebra, g, e) for e in range(engine.basis.dim)] == row
            for g, row in zip(engine.sym_generators, engine.weight_table)
        )
        for j, row in enumerate(engine.weight_table):
            for e, scalar in enumerate(row):
                kind, r, s = engine.basis.kinds[e]
                # zero exactly off the diagonal gl letters
                if scalar.is_zero() != (kind == "b" or r != s):
                    pattern_ok = False
            scalars = {engine.basis.names[e]: str(s) for e, s in enumerate(row)}
            letter_report.append({"generator": j, "scalars": scalars})
        record = {
            "proportionality": "certified",
            "vanishing_pattern": pattern_ok,
            "table": letter_report,
        }
        return record, pattern_ok and direct_ok

    return _entry(
        "symmetrized_generator_commutators",
        "commuting any basis letter past a symmetrized generator costs an exact "
        "scalar, zero except along the determinant character",
        partial(_over_sizes, None, ns, one),
        budget_s=300.0,
    )


def quotient_basis_torsion(
    engine: OrbitQuantization,
    rng: random.Random,
    samples: int = 50,
    max_degree: int | None = None,
) -> tuple[str, dict]:
    """Criterion 10 on one engine, as (status, details).

    The engine's quotient-basis certificate (``basis_report``), and no
    h-torsion: reduce(h u) = h reduce(u) on ``samples`` random elements u
    of degree at most ``max_degree`` (by default one below the cap), and
    h^j g reduces to zero for every j that keeps it inside the cap.
    """
    basis = engine.basis_report()
    cap = engine.deg_cap - 1 if max_degree is None else max_degree
    monos = monomials_up_to_degree(engine.basis.dim, cap)
    failures = 0
    for _ in range(samples):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = rng.choice(monos)
            room = cap - sum(exp)
            coeffs = [
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(1, room + 1))
            ]
            word = word_of_exponent(exp)
            terms[word] = terms.get(word, HPoly.zero()) + HPoly(tuple(coeffs))
        u = NCPoly(engine.algebra, {w: c for w, c in terms.items() if not c.is_zero()})
        if engine.reduce(u.shift_h(1)) != engine.reduce(u).shift_h(1):
            failures += 1
    generators_vanish = all(
        engine.reduce(sym_gen.shift_h(j)).is_zero()
        for sym_gen in engine.sym_generators
        for j in range(engine.deg_cap - sym_gen.degree() + 1)
    )
    torsion = {
        "samples": samples,
        "failures": failures,
        "generators_reduce_to_zero": generators_vanish,
    }
    ok = basis["independent_and_spanning"] and failures == 0 and generators_vanish
    return ("pass" if ok else "fail"), {"basis": basis, "torsion": torsion}


def check_quotient_basis_torsion(seed: int, deg_cap: int = 6) -> dict:
    def run():
        engine = OrbitQuantization(2, [Fraction(1)], deg_cap=deg_cap)
        return quotient_basis_torsion(
            engine, random.Random(seed), samples=50, max_degree=min(4, deg_cap - 1)
        )

    return _entry(
        "quotient_basis_torsion",
        "images of standard monomials are independent and spanning up to the "
        "degree cap, and reduction commutes with multiplication by h",
        run,
        budget_s=600.0,
    )


def deformation_axioms(
    engine: OrbitQuantization,
    rng: random.Random,
    random_pairs: int = 50,
    triples: int = 20,
) -> tuple[str, dict]:
    """Criterion 11 on one engine, as (status, details).

    The star product reduces mod h to the commutative product, and its
    commutator's first-order term is the Poisson bracket, on every pair of
    standard monomials of degree at most 2 (at most half the cap) and on
    ``random_pairs`` random pairs; it is associative on ``triples`` random
    triples; the constant 1 is its unit.  Each axiom reports its own
    ``passed``, with a witness of a failing pair, and the check passes
    when all four pass.
    """
    pair_degree = min(2, engine.deg_cap // 2)
    triple_degree = max(1, engine.deg_cap // 3)
    monos = standard_monomials(engine.groebner, max_degree=pair_degree)
    triple_monos = standard_monomials(engine.groebner, max_degree=triple_degree)
    variables = engine.variables

    grid = [MultiPoly.monomial(variables, e) for e in monos]
    # (f, g, key): a grid pair is keyed by its indices (i, j), so each grid
    # star product is formed once, for the fg of (i, j) and the gf of
    # (j, i), and each classical product and Poisson bracket once per
    # unordered pair, the bracket of (j, i) with j > i as -{f, g} of (i, j)
    pairs = [(f, g, (i, j)) for i, f in enumerate(grid) for j, g in enumerate(grid)]
    for _ in range(random_pairs):
        pairs.append(
            (
                random_polynomial(variables, rng, monos),
                random_polynomial(variables, rng, monos),
                None,
            )
        )
    stars: dict = {}
    classicals: dict = {}
    brackets: dict = {}

    def once(memo: dict, key, compute, *args):
        """compute(*args), formed once per key; nothing is kept for a key of None."""
        if key is None:
            return compute(*args)
        if key not in memo:
            memo[key] = compute(*args)
        return memo[key]

    def classical_product(f, g):
        return divide(f * g, engine.groebner)

    mod_h_failures = []
    first_order_failures = []
    for f, g, key in pairs:
        star_fg = once(stars, key, engine.star, f, g)
        classical = once(classicals, key and tuple(sorted(key)), classical_product, f, g)
        if star_fg.h_coefficient(0) != classical:
            mod_h_failures.append((f.to_records(), g.to_records()))
            continue
        star_gf = once(stars, key and key[::-1], engine.star, g, f)
        commutator = star_fg - star_gf
        if key is not None and key[0] > key[1]:
            bracket = -once(brackets, key[::-1], engine.poisson_reduced, g, f)
        else:
            bracket = once(brackets, key, engine.poisson_reduced, f, g)
        delta = commutator - bracket.shift_h(1)
        if not delta.divisible_by_h_power(2):
            first_order_failures.append((f.to_records(), g.to_records()))

    assoc_failures = 0
    for _ in range(triples):
        f, g, w = (
            random_polynomial(variables, rng, triple_monos, max_terms=3)
            for _ in range(3)
        )
        if engine.star(engine.star(f, g), w) != engine.star(f, engine.star(g, w)):
            assoc_failures += 1

    unit = MultiPoly.constant(variables, 1)
    sample = random_polynomial(variables, rng, monos)
    details = {
        "reduces_mod_h": {
            "pairs": len(pairs),
            "failures": len(mod_h_failures),
            "witness": mod_h_failures[:1],
            "passed": not mod_h_failures,
        },
        "first_order_poisson": {
            "pairs": len(pairs),
            "failures": len(first_order_failures),
            "witness": first_order_failures[:1],
            "passed": not first_order_failures,
        },
        "associativity": {
            "triples": triples,
            "failures": assoc_failures,
            "passed": assoc_failures == 0,
        },
        "unit": {"passed": engine.star(unit, sample) == engine.to_quotient(sample)},
    }
    ok = all(axiom["passed"] for axiom in details.values())
    return ("pass" if ok else "fail"), details


def check_deformation(seed: int, deg_cap: int = 6) -> dict:
    def run():
        engine = OrbitQuantization(2, [Fraction(1)], deg_cap=deg_cap)
        return deformation_axioms(engine, random.Random(seed), random_pairs=50, triples=20)

    return _entry(
        "deformation_axioms",
        "the star product reduces mod h to the commutative product, its "
        "commutator is h times the Poisson bracket mod h^2, it is associative, "
        "and the constant 1 is its unit",
        run,
        budget_s=900.0,
    )


def check_injected_failure(seed: int) -> dict:
    """Self-test of the reporting pipeline: evaluate deliberately wrong data.

    Generators of one orbit's ideal are evaluated on samples of a different
    orbit; the nonzero residual must surface as a failing entry.
    """

    def run():
        rng = random.Random(seed)
        fam = semiinvariant_family(2)
        wrong = orbit_ideal([Fraction(2)], fam)
        base = orbit_ideal([Fraction(1)], fam).normal_form_point()
        sample = random_orbit_sample(base, rng)
        residuals = membership_residual(wrong, sample)
        ok = all(v == 0 for v in residuals)
        return ("pass" if ok else "fail"), {
            "residuals": [str(v) for v in residuals],
            "note": "expected to fail: ideal constants belong to a different orbit",
        }

    return _entry(
        "injected_failure_self_test",
        "deliberately mismatched orbit data must be caught by the vanishing check",
        run,
        budget_s=10.0,
    )


def build_report(
    seed: int = 7,
    n_max: int = 3,
    deg_cap: int = 6,
    samples: int = 20,
    inject_failure: bool = False,
) -> dict:
    """Run the full verification battery and assemble the report.

    StructuralError unless n_max is 1, 2 or 3 and samples is at least 1:
    a battery over no sizes or no samples would pass without checking
    anything, and one with n_max above 3 would report sizes it never checked.
    """
    if not 1 <= n_max <= 3 or samples < 1:
        raise StructuralError("verify needs 1 <= n_max <= 3 and samples >= 1")
    ns_all = tuple(n for n in (1, 2, 3) if n <= n_max)
    ns_23 = tuple(n for n in (2, 3) if n <= n_max)
    degree_bounds = tuple((n, d) for n, d in ((2, 4), (3, 2)) if n <= n_max)
    # (seconds, call) in report order; the seconds, which only order the
    # submission, are the check's CPU time in a forked worker at n_max 3,
    # deg 6, seed 7 on a 2-vCPU VM (normal_form's include importing numpy
    # and scipy)
    calls = [(0.04, partial(check_embedding, seed, ns=ns_all, samples=samples))]
    if ns_23:
        calls.extend(
            [
                (0.16, partial(check_coadjoint, seed + 1, ns=ns_23, samples=samples)),
                (0.58, partial(check_normal_form, seed + 2, ns=ns_23, samples=samples)),
                (0.02, partial(check_orbit_dimension, ns=ns_23)),
                (0.10, partial(check_semiinvariants, seed + 3, ns=ns_23, samples=samples)),
                (0.11, partial(check_invariant_polynomials, degree_bounds)),
                (0.08, partial(check_orbit_ideal, seed + 4, ns=ns_23, samples=samples)),
                (0.03, partial(check_pbw, seed + 5)),
                (0.09, partial(check_generator_commutators, ns=ns_23)),
                (0.02, partial(check_quotient_basis_torsion, seed + 7, deg_cap=deg_cap)),
                (0.24, partial(check_deformation, seed + 8, deg_cap=deg_cap)),
            ]
        )
    if inject_failure:
        calls.append((0.01, partial(check_injected_failure, seed + 9)))
    return emit_report(_run_checks(calls), seed=seed, n_max=n_max, deg_cap=deg_cap)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_checks(calls: list) -> list[dict]:
    """The entry of each (seconds, call) pair's call, in the order of ``calls``.

    The pool takes the calls longest first, by their stated seconds
    (Graham's longest-processing-time rule), so no long check starts last
    and runs alone; the entries are read back in list order.  A forked
    worker starts as a copy of this process, so a check sees the module
    state it would see in process.  A lock that another thread holds at
    the fork stays held in the child, so a process with other threads runs
    the calls itself, in list order.  A check that raises, or a worker that
    dies, raises here, and the calls not yet started are cancelled.
    """
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(calls), _usable_cpus())
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return [call() for _, call in calls]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        longest_first = sorted(range(len(calls)), key=lambda i: -calls[i][0])
        futures = {i: pool.submit(calls[i][1]) for i in longest_first}
        return [futures[i].result() for i in range(len(calls))]
    finally:
        pool.shutdown(cancel_futures=True)


def emit_report(checks: list[dict], **meta) -> dict:
    """Assemble entries into the final document with a content hash."""
    if not checks:
        raise StructuralError("no checks were executed")
    # a failing check fails the run; a capacity skip leaves it incomplete,
    # never passed
    statuses = {c["status"] for c in checks}
    if "fail" in statuses:
        overall = "fail"
    elif "skipped" in statuses:
        overall = "incomplete"
    else:
        overall = "pass"
    report = {
        "tool": "orbitquant",
        "version": "0.1.0",
        **meta,
        "overall": overall,
        "checks": checks,
    }
    report["content_hash"] = content_hash(report)
    return report


# the report keys that ``content_hash`` leaves out: the hash itself and
# the measurements that vary from run to run or machine to machine
UNHASHED_KEYS = ("elapsed_s", "content_hash", "worst_residual")


def content_hash(obj) -> str:
    """Stable sha256 over a JSON document, leaving out ``UNHASHED_KEYS``."""

    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items() if k not in UNHASHED_KEYS}
        if isinstance(o, list):
            return [strip(v) for v in o]
        return o

    canonical = json.dumps(strip(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def render_pretty(report: dict) -> str:
    lines = [
        f"orbitquant verification (seed={report.get('seed')}, "
        f"n_max={report.get('n_max')}, deg_cap={report.get('deg_cap')})"
    ]
    for check in report["checks"]:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[check["status"]]
        lines.append(
            f"  [{mark}] {check['name']} ({check['elapsed_s']}s)  {check['claim']}"
        )
    lines.append(f"overall: {report['overall']}")
    lines.append(f"content hash: {report['content_hash']}")
    return "\n".join(lines)
