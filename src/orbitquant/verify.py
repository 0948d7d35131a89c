"""One-shot verification of every mathematical claim the package makes.

Each check function returns a report entry with a neutral statement of
the claim, a pass/fail status, witness data, and timing.  The functions
are ordinary library code so tests exercise them directly; the CLI verb
``verify`` only assembles and serializes the result.

``build_report`` runs its independent, separately seeded checks
concurrently on forked worker processes, one per usable CPU, and lists
the entries in report order, so the report and its content hash are
those of a run in one process.  Each entry's ``elapsed_s`` is its
worker's wall time, taken while other checks compete for the CPUs, so
the values no longer add up to the run's time.  The run stays in one
process when one CPU is usable, when the platform cannot fork, or when
the calling process runs other threads.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from functools import partial
from math import prod

from . import linalg as la
from .errors import CapacityError, OrbitQuantError
from .hpoly import HPoly
from .invariants import (
    measure_weight,
    membership_residual,
    no_invariants_certificate,
    orbit_ideal,
    regularity_check,
    semiinvariant_family,
    verify_semiinvariance,
)
from .jsonio import content_hash
from .lie import build_lie_basis, standard_symplectic_form
from .ncpoly import NCPoly, PBWAlgebra
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
from .quantize import OrbitQuantization, check_deformation_axioms, torsion_check
from .sampling import (
    random_gplus_point,
    random_group_element,
    random_orbit_sample,
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


def check_embedding(seed: int, ns=(1, 2, 3), samples: int = 20) -> dict:
    def run():
        rng = random.Random(seed)
        details = {}
        ok = True
        for n in ns:
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
            details[f"n={n}"] = {"homomorphism": hom, "symplectic": sympl, "samples": samples}
            ok = ok and hom == samples and sympl == samples
        return ("pass" if ok else "fail"), details

    return _entry(
        "embedding_soundness",
        "group multiplication agrees with block-matrix multiplication in Sp(n), exactly",
        run,
        budget_s=5.0,
    )


def check_coadjoint(seed: int, ns=(2, 3), samples: int = 20) -> dict:
    def run():
        rng = random.Random(seed)
        details = {}
        ok = True
        for n in ns:
            basis, _ = build_lie_basis(n)
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
                    pair_dual_algebra(image, basis_lie_element(basis, i))
                    == pair_dual_algebra(pt, adjoint(pinv, basis_lie_element(basis, i)))
                    for i in range(basis.dim)
                )
                dual += int(good)
            details[f"n={n}"] = {"functorial": functorial, "dual": dual, "samples": samples}
            ok = ok and functorial == samples and dual == samples
        return ("pass" if ok else "fail"), details

    return _entry(
        "coadjoint_functoriality_duality",
        "the coadjoint action composes functorially and is trace-dual to the adjoint action",
        run,
        budget_s=10.0,
    )


def check_normal_form(seed: int, ns=(2, 3), samples: int = 20, tol: float = 1e-9) -> dict:
    def run():
        rng = random.Random(seed)
        details = {}
        ok = True
        for n in ns:
            worst_residual = 0.0
            worst_drift = 0.0
            for _ in range(samples):
                pt = random_gplus_point(n, rng)
                nf = normal_form(pt, tol=tol)
                worst_residual = max(worst_residual, nf.residual)
                moved = random_orbit_sample(pt, rng)
                nf2 = normal_form(moved, tol=tol)
                drift = max(
                    (abs(x - y) for x, y in zip(nf.lambdas, nf2.lambdas)),
                    default=0.0,
                )
                worst_drift = max(worst_drift, drift)
            details[f"n={n}"] = {
                "worst_residual": worst_residual,
                "worst_lambda_drift": worst_drift,
                "samples": samples,
            }
            ok = ok and worst_residual < tol and worst_drift < tol
        return ("pass" if ok else "fail"), details

    return _entry(
        "normal_form",
        "a witness group element carries every positive-definite point to (I, H); "
        "block parameters are orbit invariants",
        run,
        budget_s=30.0,
    )


def check_orbit_dimension(ns=(2, 3)) -> dict:
    def run():
        details = {}
        ok = True
        for n in ns:
            basis, _ = build_lie_basis(n)
            k = n // 2
            pt = DualPoint(la.identity(n), lambda_block_matrix(n, _regular_lambdas(k)))
            rank = orbit_dimension(pt, basis)
            expected = basis.dim - k
            details[f"n={n}"] = {
                "rank": rank,
                "dim_group_minus_k": expected,
                "n_squared_minus_k": n * n - k,
            }
            ok = ok and rank == expected
        return ("pass" if ok else "fail"), details

    return _entry(
        "orbit_dimension",
        "the infinitesimal coadjoint action at a regular point has exact rank "
        "dim G - k (the value n^2 - k is reported alongside for comparison)",
        run,
        budget_s=10.0,
    )


def check_semiinvariants(
    seed: int, ns=(2, 3), samples: int = 20, weight_offset: int = 0
) -> dict:
    """Exact transformation laws of the family's generators.

    ``weight_offset`` is added to every expected weight; a nonzero offset
    is the self-test of ``semi-check --perturb``, whose laws must fail.
    """

    def run():
        rng = random.Random(seed)
        details = {}
        ok = True
        for n in ns:
            fam = semiinvariant_family(n)
            gen_report = []
            for m, kind in enumerate(fam.kinds):
                if kind == "trace":
                    weight = fam.weights[m] + weight_offset
                    law = {"kind": kind, "weight": weight}
                else:
                    measured = measure_weight(fam, m, rng)
                    weight = measured + weight_offset
                    law = {
                        "kind": kind,
                        "measured_weight": measured,
                        "trace_law_weight": -4 * (m + 1),
                    }
                law["exact_law"] = verify_semiinvariance(fam, m, weight, rng, samples)
                gen_report.append(law)
                ok = ok and law["exact_law"]
            if n % 2 == 0 and fam.composite_even is not None:
                # the determinant-cleared square follows the -4m law
                weight = -4 * fam.k + weight_offset
                composite_ok = True
                for _ in range(samples):
                    pt = random_gplus_point(n, rng)
                    elt = random_group_element(n, rng)
                    moved = coadjoint(elt, pt)
                    vec = fam.coords.coords_of_point(pt.c, pt.a)
                    mvec = fam.coords.coords_of_point(moved.c, moved.a)
                    scale = la.det(elt.g) ** weight
                    if fam.composite_even.evaluate(mvec) != scale * fam.composite_even.evaluate(vec):
                        composite_ok = False
                gen_report.append(
                    {"kind": "det-cleared square", "weight": weight, "exact_law": composite_ok}
                )
                ok = ok and composite_ok
            details[f"n={n}"] = gen_report
        if weight_offset:
            details["weight_offset"] = weight_offset
        return ("pass" if ok else "fail"), details

    return _entry(
        "semiinvariant_weights",
        "trace semiinvariants rescale exactly by det(g)^(-4i); the Pfaffian "
        "generator's measured weight is reported",
        run,
        budget_s=60.0,
    )


def check_invariant_polynomials(degree_by_n=((2, 4), (3, 2))) -> dict:
    def run():
        details = {}
        ok = True
        for n, degree in degree_by_n:
            cert = no_invariants_certificate(n, degree)
            details[f"n={n}"] = {
                "degree_bound": degree,
                "kernel_dimension": cert.kernel_dimension,
                "per_degree": list(cert.per_degree),
            }
            ok = ok and cert.only_constants
        return ("pass" if ok else "fail"), details

    return _entry(
        "invariant_polynomials_certificate",
        "the only polynomial solutions of the infinitesimal invariance equations "
        "up to the degree bound are the constants",
        run,
        budget_s=300.0,
    )


def check_orbit_ideal(seed: int, ns=(2, 3), samples: int = 20) -> dict:
    def run():
        rng = random.Random(seed)
        details = {}
        ok = True
        for n in ns:
            fam = semiinvariant_family(n)
            ideal = orbit_ideal(_regular_lambdas(fam.k), fam)
            base = ideal.normal_form_point()
            pts = [base] + [random_orbit_sample(base, rng) for _ in range(samples)]
            vanish = all(
                all(v == 0 for v in membership_residual(ideal, pt)) for pt in pts
            )
            full_rank = regularity_check(ideal, pts)
            details[f"n={n}"] = {
                "samples": len(pts),
                "vanishing_exact": vanish,
                "jacobian_full_rank": full_rank,
                "alphas": [str(a) for a in ideal.alphas],
            }
            ok = ok and vanish and full_rank
        return ("pass" if ok else "fail"), details

    return _entry(
        "orbit_ideal",
        "orbit ideal generators vanish exactly on orbit samples and their "
        "differentials have full rank k there",
        run,
        budget_s=60.0,
    )


def check_pbw(seed: int, n: int = 2, words: int = 30, triples: int = 50) -> dict:
    def run():
        rng = random.Random(seed)
        basis, sc = build_lie_basis(n)
        algebra = PBWAlgebra(basis, sc)
        letters = [NCPoly.letter(algebra, i) for i in range(basis.dim)]
        confluent = 0
        for _ in range(words):
            word = tuple(rng.randrange(basis.dim) for _ in range(5))
            # both rewriting orders, and the engine's product of the letters
            product = prod((letters[i] for i in word), start=NCPoly.unit(algebra)).terms
            if algebra.reduce_word(word) == algebra.reduce_word(word, rng=rng) == product:
                confluent += 1
        associative = 0
        for _ in range(triples):
            def rand_nc():
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    length = rng.randint(0, 3)
                    word = tuple(sorted(rng.randrange(basis.dim) for _ in range(length)))
                    terms[word] = HPoly.of(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
                return NCPoly(algebra, terms)

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
    def run():
        details = {}
        ok = True
        skipped = False
        for n in ns:
            try:
                engine = OrbitQuantization(
                    n, _regular_lambdas(n // 2), deg_cap=8, build_reduction=False
                )
            except CapacityError as exc:
                details[f"n={n}"] = {"status": "skipped", "reason": str(exc)}
                skipped = True
                continue
            table = engine.weight_table
            letter_report = []
            pattern_ok = True
            for j, row in enumerate(table):
                for e, scalar in enumerate(row):
                    kind, r, s = engine.basis.kinds[e]
                    # zero exactly off the diagonal gl letters
                    if scalar.is_zero() != (kind == "b" or r != s):
                        pattern_ok = False
                letter_report.append(
                    {
                        "generator": j,
                        "scalars": {engine.basis.names[e]: str(s) for e, s in enumerate(row)},
                    }
                )
            details[f"n={n}"] = {
                "proportionality": "certified",
                "vanishing_pattern": pattern_ok,
                "table": letter_report,
            }
            ok = ok and pattern_ok
        if not ok:
            return "fail", details
        return ("skipped" if skipped else "pass"), details

    return _entry(
        "symmetrized_generator_commutators",
        "commuting any basis letter past a symmetrized generator costs an exact "
        "scalar, zero except along the determinant character",
        run,
        budget_s=300.0,
    )


def check_quotient_basis_torsion(
    seed: int, n: int = 2, deg_cap: int = 6, samples: int = 50
) -> dict:
    def run():
        engine = OrbitQuantization(n, [Fraction(1)], deg_cap=deg_cap)
        basis = engine.basis_report()
        rng = random.Random(seed)
        torsion = torsion_check(
            engine, rng, samples=samples, max_degree=min(4, deg_cap - 1)
        )
        details = {"basis": basis, "torsion": torsion}
        ok = basis["independent_and_spanning"] and torsion["passed"]
        return ("pass" if ok else "fail"), details

    return _entry(
        "quotient_basis_torsion",
        "images of standard monomials are independent and spanning up to the "
        "degree cap, and reduction commutes with multiplication by h",
        run,
        budget_s=600.0,
    )


def check_deformation(
    seed: int, n: int = 2, deg_cap: int = 6, pairs: int = 50, triples: int = 20
) -> dict:
    def run():
        engine = OrbitQuantization(n, [Fraction(1)], deg_cap=deg_cap)
        rng = random.Random(seed)
        report = check_deformation_axioms(
            engine, rng, monomial_degree=2, random_pairs=pairs, triples=triples
        )
        return ("pass" if report["passed"] else "fail"), report

    return _entry(
        "deformation_axioms",
        "the star product reduces mod h to the commutative product, its "
        "commutator is h times the Poisson bracket mod h^2, and it is associative",
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
    """Run the full verification battery and assemble the report."""
    ns_all = tuple(n for n in (1, 2, 3) if n <= n_max)
    ns_23 = tuple(n for n in (2, 3) if n <= n_max)
    calls = [partial(check_embedding, seed, ns=ns_all, samples=samples)]
    if ns_23:
        calls.extend(
            [
                partial(check_coadjoint, seed + 1, ns=ns_23, samples=samples),
                partial(check_normal_form, seed + 2, ns=ns_23, samples=samples),
                partial(check_orbit_dimension, ns=ns_23),
                partial(check_semiinvariants, seed + 3, ns=ns_23, samples=samples),
                partial(
                    check_invariant_polynomials,
                    tuple((n, d) for n, d in ((2, 4), (3, 2)) if n <= n_max),
                ),
                partial(check_orbit_ideal, seed + 4, ns=ns_23, samples=samples),
                partial(check_pbw, seed + 5),
                partial(check_generator_commutators, ns=ns_23),
                partial(check_quotient_basis_torsion, seed + 7, deg_cap=deg_cap),
                partial(check_deformation, seed + 8, deg_cap=deg_cap),
            ]
        )
    if inject_failure:
        calls.append(partial(check_injected_failure, seed + 9))
    return emit_report(_run_checks(calls), seed=seed, n_max=n_max, deg_cap=deg_cap)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _call(check):
    return check()


def _run_checks(calls: list) -> list[dict]:
    """The entry of each check call, in the order of ``calls``.

    A forked worker starts as a copy of this process, so a check sees the
    module state it would see in process.  A lock that another thread
    holds at the fork stays held in the child, so a process with other
    threads runs the calls itself.  A check that raises, or a worker that
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
        return list(map(_call, calls))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_call, calls))
    finally:
        pool.shutdown(cancel_futures=True)


def emit_report(checks: list[dict], **meta) -> dict:
    """Assemble entries into the final document with a content hash."""
    from .errors import StructuralError

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
