"""Every check of the verify battery can fail.

Each case runs one check on small inputs twice: as it is, where it must
pass, and with one fault planted in a name the check relies on, where it
must report "fail".  With the acceptance battery, which pins what each
passing check measured, this is the evidence that a "pass" was earned.

The battery runs its checks on forked workers: the last cases show that
the pool gives the report of a run in one process, that it really runs
on other processes, that it takes the longest checks first and still
lists the entries in report order, and that a check or worker that fails
fails the run.
"""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from orbitquant import verify
from orbitquant.hpoly import HPoly
from orbitquant.ncpoly import NCPoly
from orbitquant.orbits import DualPoint, GroupElement
from orbitquant.quantize import OrbitQuantization


def spurious_invariant(honest):
    def certificate(n, degree):
        cert = honest(n, degree)
        return dataclasses.replace(cert, kernel_dimension=cert.kernel_dimension + 1)

    return certificate


def wrong_inverse(honest):
    # a data descriptor on the class wins over the cached value, so every
    # group element reads twice its true inverse: the images stay valid
    # dual points, and only the comparisons can catch the fault
    return property(lambda self: [[2 * v for v in row] for row in honest.func(self)])


def reversed_product(honest):
    return lambda self, other: honest(other, self)


def weights_off_by_one(honest):
    def family(n):
        fam = honest(n)
        return dataclasses.replace(fam, weights=tuple(w + 1 for w in fam.weights))

    return family


def off_orbit(honest):
    # the translate with its a block doubled lies on another orbit: every
    # trace invariant f_i scales by 4^i, and the rng draws stay in order
    def sample(base, rng):
        moved = honest(base, rng)
        return DualPoint(moved.c, [[2 * v for v in row] for row in moved.a])

    return sample


def vanished_scalar(honest):
    def build(*args, **kwargs):
        engine = honest(*args, **kwargs)
        engine.weight_table[0][0] = HPoly.zero()  # letter a11, a diagonal gl letter
        return engine

    return build


def doubled_scalar(honest):
    # 2x on a diagonal gl letter keeps the vanishing pattern: only the
    # comparison with each letter's own commutator catches it
    def build(*args, **kwargs):
        engine = honest(*args, **kwargs)
        engine.weight_table[0][0] = engine.weight_table[0][0] * 2  # letter a11
        return engine

    return build


# (check name, run on small inputs, object and attribute to patch, fault)
CASES = [
    ("embedding_soundness", lambda: verify.check_embedding(1, ns=(1, 2), samples=3),
     verify, "group_multiply", lambda honest: lambda p, q: p),
    ("coadjoint_functoriality_duality", lambda: verify.check_coadjoint(2, ns=(2,), samples=2),
     verify, "coadjoint", lambda honest: lambda g, pt: honest(verify.group_inverse(g), pt)),
    ("coadjoint_functoriality_duality", lambda: verify.check_coadjoint(2, ns=(2,), samples=2),
     GroupElement, "inverse", wrong_inverse),
    ("normal_form", lambda: verify.check_normal_form(3, ns=(2,), samples=2),
     verify, "normal_form",
     lambda honest: lambda pt: dataclasses.replace(honest(pt), residual=1.0)),
    ("normal_form", lambda: verify.check_normal_form(3, ns=(2,), samples=2),
     verify, "random_orbit_sample", off_orbit),
    ("orbit_dimension", lambda: verify.check_orbit_dimension(ns=(2,)),
     verify, "orbit_dimension", lambda honest: lambda pt, basis: honest(pt, basis) - 1),
    # a fault at the first of two sizes fails the entry
    ("orbit_dimension", lambda: verify.check_orbit_dimension(ns=(2, 3)),
     verify, "orbit_dimension",
     lambda honest: lambda pt, basis: honest(pt, basis) - (pt.n == 2)),
    ("semiinvariant_weights", lambda: verify.check_semiinvariants(4, ns=(2,), samples=2),
     verify, "semiinvariant_family", weights_off_by_one),
    ("invariant_polynomials_certificate", lambda: verify.check_invariant_polynomials(((2, 2),)),
     verify, "no_invariants_certificate", spurious_invariant),
    ("orbit_ideal", lambda: verify.check_orbit_ideal(5, ns=(2,), samples=2),
     verify, "membership_residual",
     lambda honest: lambda ideal, pt: [v + 1 for v in honest(ideal, pt)]),
    ("pbw_engine", lambda: verify.check_pbw(6),
     NCPoly, "__mul__", reversed_product),
    ("symmetrized_generator_commutators", lambda: verify.check_generator_commutators(ns=(2,)),
     verify, "OrbitQuantization", vanished_scalar),
    ("symmetrized_generator_commutators", lambda: verify.check_generator_commutators(ns=(2,)),
     verify, "OrbitQuantization", doubled_scalar),
    ("quotient_basis_torsion", lambda: verify.check_quotient_basis_torsion(8),
     OrbitQuantization, "reduce",
     lambda honest: lambda self, u: honest(self, u) + NCPoly.unit(self.algebra)),
    ("deformation_axioms", lambda: verify.check_deformation(9, deg_cap=4),
     OrbitQuantization, "star", lambda honest: lambda self, f, g: honest(self, g, f)),
]


# a check's first fault is named after the check, a further one also after its attribute
IDS = [
    name if all(c[0] != name for c in CASES[:i]) else f"{name}-{attr}"
    for i, (name, _, _, attr, _) in enumerate(CASES)
]


@pytest.mark.parametrize("name, run, target, attr, fault", CASES, ids=IDS)
def test_planted_fault_fails_the_check(monkeypatch, name, run, target, attr, fault):
    honest = run()
    assert (honest["name"], honest["status"]) == (name, "pass")
    monkeypatch.setattr(target, attr, fault(getattr(target, attr)))
    assert run()["status"] == "fail"


def test_every_criterion_has_a_planted_fault():
    report = verify.build_report(seed=7, n_max=3, deg_cap=6)
    assert {case[0] for case in CASES} == {check["name"] for check in report["checks"]}


def test_pbw_check_compares_the_engine_product_with_rewriting(monkeypatch):
    # a reversed product is still associative; only the comparison of the
    # product of a word's letters with its rewritten form catches it
    monkeypatch.setattr(NCPoly, "__mul__", reversed_product(NCPoly.__mul__))
    details = verify.check_pbw(6)["details"]
    assert details["confluent_words"] < details["words"]
    assert details["associative_triples"] == details["triples"]


def test_normal_form_check_compares_the_pfaffian_sign(monkeypatch):
    # at n = 2 a translate with its a block negated keeps every trace
    # invariant; only the sign of the Pfaffian tells its orbit apart
    honest = verify.random_orbit_sample

    def negated(base, rng):
        moved = honest(base, rng)
        return DualPoint(moved.c, [[-v for v in row] for row in moved.a])

    monkeypatch.setattr(verify, "random_orbit_sample", negated)
    entry = verify.check_normal_form(3, ns=(2,), samples=2)
    assert entry["status"] == "fail"
    assert entry["details"]["n=2"]["trace_invariants_agree"] == 2
    assert entry["details"]["n=2"]["pfaffian_signs_agree"] == 0


REFERENCE_N2 = "11985b6063222b0e7eb7796367e84462b5ecde3052ce73c293ee129fb1bed9d6"
FORK = "fork" in multiprocessing.get_all_start_methods()
POOL = FORK and verify._usable_cpus() >= 2


def without_times(report):
    return {
        **report,
        "checks": [{k: v for k, v in c.items() if k != "elapsed_s"} for c in report["checks"]],
    }


def test_pool_and_in_process_runs_give_the_same_report(monkeypatch):
    pooled = verify.build_report(seed=7, n_max=2, deg_cap=6)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    in_process = verify.build_report(seed=7, n_max=2, deg_cap=6)
    assert without_times(pooled) == without_times(in_process)
    assert pooled["content_hash"] == in_process["content_hash"] == REFERENCE_N2


@pytest.mark.skipif(not POOL, reason="the pool needs fork and two usable CPUs")
def test_checks_run_on_worker_processes(monkeypatch):
    honest = verify._entry

    def entry(*args, **kwargs):
        # a check that takes a while keeps one worker from taking every call
        time.sleep(0.05)
        return {**honest(*args, **kwargs), "pid": os.getpid()}

    monkeypatch.setattr(verify, "_entry", entry)
    report = verify.build_report(seed=7, n_max=2, deg_cap=4)
    pids = {c["pid"] for c in report["checks"]}
    assert os.getpid() not in pids and len(pids) >= 2


REPORT_ORDER = [
    "check_embedding",
    "check_coadjoint",
    "check_normal_form",
    "check_orbit_dimension",
    "check_semiinvariants",
    "check_invariant_polynomials",
    "check_orbit_ideal",
    "check_pbw",
    "check_generator_commutators",
    "check_quotient_basis_torsion",
    "check_deformation",
]


@pytest.mark.skipif(not FORK, reason="the pool needs fork")
def test_the_pool_takes_the_longest_checks_first(monkeypatch):
    stated, submitted = [], []

    class RecordingExecutor:
        # records the submission order and answers each call at once with a
        # passing entry named after its check function
        def __init__(self, workers, mp_context):
            pass

        def submit(self, call):
            submitted.append(call)
            future = concurrent.futures.Future()
            future.set_result({"name": call.func.__name__, "status": "pass"})
            return future

        def shutdown(self, cancel_futures):
            pass

    honest = verify._run_checks

    def run_checks(calls):
        stated.extend(calls)
        return honest(calls)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(verify, "_run_checks", run_checks)
    report = verify.build_report(seed=7, n_max=3, deg_cap=6)
    assert submitted == [call for _, call in sorted(stated, key=lambda pair: -pair[0])]
    assert [call.func.__name__ for call in submitted[:2]] == ["check_normal_form", "check_deformation"]
    # the entries come back in report order, whatever the submission order
    assert [call.func.__name__ for _, call in stated] == REPORT_ORDER
    assert [c["name"] for c in report["checks"]] == REPORT_ORDER


FAULTY_RUN = """
import os, sys
from orbitquant import verify

def orbit_dimension(pt, basis):
    if sys.argv[1] == "raise":
        raise ValueError("planted fault")
    os._exit(3)

verify.orbit_dimension = orbit_dimension
verify._usable_cpus = lambda: 2
report = verify.build_report(seed=7, n_max=2, deg_cap=4)
print("returned", report["overall"])
"""


@pytest.mark.skipif(not FORK, reason="the pool needs fork")
@pytest.mark.parametrize(
    "fault, error", [("raise", "ValueError: planted fault"), ("exit", "BrokenProcessPool")]
)
def test_a_failing_worker_fails_the_run(fault, error, src_env):
    # in a child interpreter: a worker's os._exit must not take the test run
    # with it, and the timeout bounds a hang
    result = subprocess.run(
        [sys.executable, "-c", FAULTY_RUN, fault],
        capture_output=True, text=True, env=src_env, timeout=120,
    )
    assert result.returncode == 1
    assert "returned" not in result.stdout
    assert error in result.stderr


PARENT_MODULES = """
import json, sys
from orbitquant import cli, verify

class Stop(Exception):
    pass

def run_checks(calls):
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("orbitquant."))))
    raise Stop

verify._run_checks = run_checks
try:
    cli.main(["verify", "--n", "3", "--deg", "6", "--seed", "7"])
except Stop:
    pass
"""


def test_the_battery_holds_every_check_module_before_its_workers_fork(src_env):
    # the forked workers inherit the parent's modules; a module a check
    # imported on first use would be compiled and loaded again in each
    # worker, so verify imports them all at load (in a fresh interpreter,
    # since this test process has loaded every module already)
    result = subprocess.run(
        [sys.executable, "-c", PARENT_MODULES], capture_output=True, text=True, env=src_env
    )
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    checks = ("quantize", "groebner", "ncpoly", "invariants", "orbits", "sampling")
    assert {f"orbitquant.{name}" for name in checks} <= loaded
