"""Acceptance battery: one test per criterion, read off the verify report.

Each criterion is defined once, as a check in ``orbitquant.verify``.  This
module runs the battery users run, ``orbitquant verify --n 3 --deg 6
--seed 7``, once, and each test reads one entry: it must pass, within the
budget pinned here, on the sample counts and measured values pinned here,
so a check that passes on short counts is still caught.  That each check
can fail is shown in ``tests/test_verify.py``.  Run pytest with -s to see
one line per criterion.
"""

import time

import pytest

from orbitquant.verify import build_report

SEED = 7
SAMPLES = 20


def per_n(ns, pinned):
    return {f"n={n}": pinned for n in ns}


# the content hash of that report, as ``orbitquant verify`` prints it
REFERENCE_N3 = "29ee7f662375e84a792001d345a13d3a0777fb1fb17e5f2cdc0a7804cf50feca"


@pytest.fixture(scope="module")
def report():
    return build_report(seed=SEED, n_max=3, deg_cap=6, samples=SAMPLES)


@pytest.fixture(scope="module")
def battery(report):
    return {check["name"]: check for check in report["checks"]}


def test_reference_report_hash(report):
    assert report["content_hash"] == REFERENCE_N3


def pinned_part(actual, pinned):
    """The entries of ``actual`` that ``pinned`` names, in pinned's shape."""
    if isinstance(pinned, dict) and isinstance(actual, dict):
        return {key: pinned_part(actual.get(key), value) for key, value in pinned.items()}
    if isinstance(pinned, list) and isinstance(actual, list) and len(actual) == len(pinned):
        return [pinned_part(a, p) for a, p in zip(actual, pinned)]
    return actual


def accept(battery, name, budget, pinned):
    entry = battery[name]
    print(f"[{name}] {entry['status'].upper()} ({entry['elapsed_s']:.2f}s / budget {budget:.0f}s)")
    assert entry["status"] == "pass"
    assert entry["budget_s"] == budget
    assert entry["elapsed_s"] < budget
    assert pinned_part(entry["details"], pinned) == pinned
    return entry["details"]


def test_criterion_01_group_embedding_soundness(battery):
    accept(battery, "embedding_soundness", 5, per_n(
        (1, 2, 3), {"homomorphism": SAMPLES, "symplectic": SAMPLES, "samples": SAMPLES}
    ))


def test_criterion_02_coadjoint_functoriality_duality(battery):
    accept(battery, "coadjoint_functoriality_duality", 10, per_n(
        (2, 3), {"functorial": SAMPLES, "dual": SAMPLES, "samples": SAMPLES}
    ))


def test_criterion_03_normal_form(battery):
    details = accept(battery, "normal_form", 30, per_n((2, 3), {"samples": SAMPLES}))
    for worst in details.values():
        assert worst["worst_residual"] < 1e-9 and worst["worst_lambda_drift"] < 1e-9


def test_criterion_04_orbit_dimension(battery):
    accept(battery, "orbit_dimension", 10, {"n=2": {"rank": 6}, "n=3": {"rank": 14}})


def test_criterion_05_semiinvariance(battery):
    # each law at the family's stated weight, on SAMPLES points
    accept(battery, "semiinvariant_weights", 60, {
        "n=2": [
            {"kind": "pfaffian", "weight": -1, "samples": SAMPLES, "exact_law": True},
            {"kind": "det-cleared square", "weight": -4, "samples": SAMPLES, "exact_law": True},
        ],
        "n=3": [{"kind": "trace", "weight": -4, "samples": SAMPLES, "exact_law": True}],
    })


def test_criterion_06_no_invariant_polynomials(battery):
    accept(battery, "invariant_polynomials_certificate", 300, {
        "n=2": {"degree_bound": 4, "kernel_dimension": 1},
        "n=3": {"degree_bound": 2, "kernel_dimension": 1},
    })


def test_criterion_07_orbit_ideal(battery):
    # the normal-form point and SAMPLES orbit samples
    accept(battery, "orbit_ideal", 60, per_n(
        (2, 3),
        {"samples": SAMPLES + 1, "vanishing_exact": True, "jacobian_full_rank": True},
    ))


def test_criterion_08_pbw_engine(battery):
    accept(battery, "pbw_engine", 60, {
        "confluent_words": 30, "words": 30, "associative_triples": 50, "triples": 50,
    })


def test_criterion_09_generator_commutator_scalars(battery):
    accept(battery, "symmetrized_generator_commutators", 300, per_n(
        (2, 3), {"proportionality": "certified", "vanishing_pattern": True}
    ))


def test_criterion_10_quotient_basis_and_torsion(battery):
    accept(battery, "quotient_basis_torsion", 600, {
        "basis": {"degree_cap": 6, "reduction_rank": 45, "expected_rank": 45},
        "torsion": {"samples": 50, "failures": 0, "generators_reduce_to_zero": True},
    })


def test_criterion_11_deformation_axioms(battery):
    # the degree-2 monomial pairs plus 50 random pairs, and 20 triples
    accept(battery, "deformation_axioms", 900, {
        "reduces_mod_h": {"pairs": 1346, "failures": 0},
        "first_order_poisson": {"pairs": 1346, "failures": 0},
        "associativity": {"triples": 20, "failures": 0},
        "unit": {"passed": True},
    })


def test_full_battery_under_thirty_minutes():
    # the composed seeded verification must finish well under the half
    # hour budget on desk hardware
    t0 = time.perf_counter()
    rep = build_report(seed=SEED, n_max=2, deg_cap=6)
    elapsed = time.perf_counter() - t0
    print(f"[battery] verify n_max=2 in {elapsed:.1f}s: {rep['overall']}")
    assert rep["overall"] == "pass"
    assert elapsed < 1800
