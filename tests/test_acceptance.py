"""Acceptance battery: one test per criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all).  The criteria are property-based and anchored to exact algebraic
claims; every tolerance and budget is pinned here, not configured.
"""

import random
import time
from fractions import Fraction

from orbitquant import linalg as la
from orbitquant.hpoly import HPoly
from orbitquant.invariants import (
    measure_weight,
    membership_residual,
    no_invariants_certificate,
    orbit_ideal,
    regularity_check,
    semiinvariant_family,
    verify_semiinvariance,
)
from orbitquant.lie import build_lie_basis, standard_symplectic_form
from orbitquant.ncpoly import NCPoly, PBWAlgebra
from orbitquant.orbits import (
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
from orbitquant.quantize import OrbitQuantization
from orbitquant.sampling import (
    random_gplus_point,
    random_group_element,
    random_orbit_sample,
)
from orbitquant.verify import check_deformation, check_quotient_basis_torsion

SEED = 7


def report(number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_group_embedding_soundness():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for n in (1, 2, 3):
        J = standard_symplectic_form(n)
        for _ in range(20):
            p = random_group_element(n, rng)
            q = random_group_element(n, rng)
            mp = embed_sp(p)
            ok = ok and la.mat_mul(mp, embed_sp(q)) == embed_sp(group_multiply(p, q))
            ok = ok and la.mat_mul(la.mat_mul(la.transpose(mp), J), mp) == J
    report(1, "group/embedding soundness", ok, time.perf_counter() - t0, 5)


def test_criterion_02_coadjoint_functoriality_duality():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 1)
    ok = True
    for n in (2, 3):
        basis, _ = build_lie_basis(n)
        for _ in range(20):
            p = random_group_element(n, rng)
            q = random_group_element(n, rng)
            pt = random_gplus_point(n, rng)
            ok = ok and coadjoint(group_multiply(p, q), pt) == coadjoint(
                p, coadjoint(q, pt)
            )
            pinv = group_inverse(p)
            ok = ok and all(
                pair_dual_algebra(coadjoint(p, pt), basis_lie_element(basis, i))
                == pair_dual_algebra(pt, adjoint(pinv, basis_lie_element(basis, i)))
                for i in range(basis.dim)
            )
    report(2, "coadjoint functoriality + duality", ok, time.perf_counter() - t0, 10)


def test_criterion_03_normal_form():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 2)
    ok = True
    for n in (2, 3):
        for _ in range(20):
            pt = random_gplus_point(n, rng)
            nf = normal_form(pt)
            ok = ok and nf.residual < 1e-9
            moved = random_orbit_sample(pt, rng)
            nf2 = normal_form(moved)
            drift = max(
                (abs(x - y) for x, y in zip(nf.lambdas, nf2.lambdas)), default=0.0
            )
            ok = ok and drift < 1e-9
    report(3, "orbit normal form", ok, time.perf_counter() - t0, 30)


def test_criterion_04_orbit_dimension():
    t0 = time.perf_counter()
    ok = True
    juxtaposition = {}
    for n, expected in ((2, 6), (3, 14)):
        basis, _ = build_lie_basis(n)
        k = n // 2
        pt = DualPoint(
            la.identity(n), lambda_block_matrix(n, [Fraction(k - j) for j in range(k)])
        )
        rank = orbit_dimension(pt, basis)
        juxtaposition[n] = {"rank": rank, "n_squared_minus_k": n * n - k}
        ok = ok and rank == expected
    print(f"         dimension juxtaposition: {juxtaposition}")
    report(4, "orbit dimension = dim G - k", ok, time.perf_counter() - t0, 10)


def test_criterion_05_semiinvariance():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 3)
    ok = True
    measured_weights = {}
    for n in (2, 3):
        fam = semiinvariant_family(n)
        for m, kind in enumerate(fam.kinds):
            if kind == "trace":
                ok = ok and verify_semiinvariance(fam, m, -4 * (m + 1), rng, samples=20)
            else:
                w = measure_weight(fam, m, rng)
                measured_weights[f"n={n}"] = w
                ok = ok and isinstance(w, int)
                ok = ok and verify_semiinvariance(fam, m, w, rng, samples=20)
    print(f"         measured Pfaffian-type weights: {measured_weights}")
    report(5, "semiinvariant weight laws", ok, time.perf_counter() - t0, 60)


def test_criterion_06_no_invariant_polynomials():
    t0 = time.perf_counter()
    cert2 = no_invariants_certificate(2, 4)
    cert3 = no_invariants_certificate(3, 2)
    ok = cert2.kernel_dimension == 1 and cert3.kernel_dimension == 1
    report(6, "invariant polynomials are constants", ok, time.perf_counter() - t0, 300)


def test_criterion_07_orbit_ideal():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 4)
    ok = True
    for n in (2, 3):
        fam = semiinvariant_family(n)
        ideal = orbit_ideal([Fraction(1)], fam)
        base = ideal.normal_form_point()
        pts = [base] + [random_orbit_sample(base, rng) for _ in range(20)]
        ok = ok and all(
            all(v == 0 for v in membership_residual(ideal, pt)) for pt in pts
        )
        ok = ok and regularity_check(ideal, pts)
    report(7, "orbit ideal vanishing + Jacobian rank", ok, time.perf_counter() - t0, 60)


def test_criterion_08_pbw_engine():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 5)
    basis, sc = build_lie_basis(2)
    algebra = PBWAlgebra(basis, sc)
    ok = True
    for _ in range(30):
        word = tuple(rng.randrange(basis.dim) for _ in range(5))
        ok = ok and algebra.reduce_word(word) == algebra.reduce_word(word, rng=rng)

    def rand_nc():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(0, 3)
            word = tuple(sorted(rng.randrange(basis.dim) for _ in range(length)))
            terms[word] = HPoly.of(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        return NCPoly(algebra, terms)

    for _ in range(50):
        u, v, w = rand_nc(), rand_nc(), rand_nc()
        ok = ok and (u * v) * w == u * (v * w)
    report(8, "PBW confluence + associativity", ok, time.perf_counter() - t0, 60)


def test_criterion_09_generator_commutator_scalars():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3):
        engine = OrbitQuantization(n, [Fraction(1)], deg_cap=8, build_reduction=False)
        # proportionality is certified during construction; check the
        # vanishing pattern: zero except on the diagonal gl letters
        for row in engine.weight_table:
            for e, scalar in enumerate(row):
                kind, r, s = engine.basis.kinds[e]
                if kind == "b" or r != s:
                    ok = ok and scalar.is_zero()
                else:
                    ok = ok and not scalar.is_zero()
        letters = engine.basis.dim
        print(f"         n={n}: certified scalar table over {letters} letters")
    report(9, "symmetrized-generator commutator scalars", ok, time.perf_counter() - t0, 300)


def test_criterion_10_quotient_basis_and_torsion():
    # the check `verify --seed 7` runs: n = 2, cap 6, 50 torsion samples
    entry = check_quotient_basis_torsion(SEED + 7, n=2, deg_cap=6, samples=50)
    print(f"         basis ranks: {entry['details'].get('basis')}")
    report(
        10, "quotient basis + torsion freeness", entry["status"] == "pass",
        entry["elapsed_s"], 600,
    )


def test_criterion_11_deformation_axioms():
    # the check `verify --seed 7` runs: n = 2, cap 6, 50 pairs, 20 triples
    entry = check_deformation(SEED + 8, n=2, deg_cap=6, pairs=50, triples=20)
    counts = {
        axiom: {k: v for k, v in entry["details"].get(axiom, {}).items() if k != "witness"}
        for axiom in ("reduces_mod_h", "first_order_poisson", "associativity")
    }
    print(f"         axiom sample counts: {counts}")
    report(
        11, "deformation axioms + star associativity", entry["status"] == "pass",
        entry["elapsed_s"], 900,
    )


def test_full_battery_under_thirty_minutes():
    # the composed seeded verification must finish well under the half
    # hour budget on desk hardware
    from orbitquant.verify import build_report

    t0 = time.perf_counter()
    rep = build_report(seed=SEED, n_max=2, deg_cap=6)
    elapsed = time.perf_counter() - t0
    print(f"[battery] verify n_max=2 in {elapsed:.1f}s: {rep['overall']}")
    assert rep["overall"] == "pass"
    assert elapsed < 1800
