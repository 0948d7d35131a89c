"""Each benchmark check accepts today's outputs and rejects a corrupted copy;
the speed gauge scales times in this process and in a child.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import orbitquant as oq  # noqa: E402

import oracles  # noqa: E402
from workloads import StarRound  # noqa: E402


@pytest.fixture(scope="module")
def engine():
    return oq.OrbitQuantization(2, [1], deg_cap=6)


def _corrupt_lowest_h(flat: dict) -> dict:
    """Change the coefficient of lowest h power, which every step's checks cover."""
    key = min(flat, key=lambda k: k[1])
    return {**flat, key: flat[key] + 1}


def _star_case(engine):
    variables = engine.variables
    x = [oq.MultiPoly.variable(variables, i) for i in range(len(variables))]
    f = x[0] * x[4] + x[1] * Fraction(2, 3)
    g = x[2] * x[6] - x[3]
    w = x[5] + 1
    rnd = StarRound()
    x0, x2 = rnd.add_input(x[0]), rnd.add_input(x[2])
    a, b = rnd.star(x0, x2), rnd.star(x2, x0)
    rnd.coordinate_pairs.append((a, b, 0, 2))
    fi, gi, wi = rnd.add_input(f), rnd.add_input(g), rnd.add_input(w)
    rnd.pair(fi, gi)
    left = rnd.star(("out", rnd.star(fi, gi)), wi)
    right = rnd.star(fi, ("out", rnd.star(gi, wi)))
    rnd.associativity.append((left, right))
    one = rnd.add_input(oq.MultiPoly.constant(variables, 1))
    rnd.unit.append((rnd.star(one, fi), fi[1]))

    outputs = []
    for left_ref, right_ref in rnd.steps:
        pick = lambda ref: rnd.inputs[ref[1]] if ref[0] == "in" else outputs[ref[1]]  # noqa: E731
        outputs.append(engine.star(pick(left_ref), pick(right_ref)))
    oracle = oracles.CommutativeOracle(
        variables, [p.terms for p in engine.ideal.generators], engine.basis.elements
    )
    inputs = [oracles.flat_of(p) for p in rnd.inputs]
    return oracle, rnd, inputs, [oracles.flat_of(p) for p in outputs]


def test_star_checks_reject_one_changed_coefficient(engine):
    oracle, rnd, inputs, outputs = _star_case(engine)
    assert oracles.check_star_round(oracle, rnd, inputs, outputs) == []
    for step in range(len(outputs)):
        corrupted = list(outputs)
        corrupted[step] = _corrupt_lowest_h(outputs[step])
        assert oracles.check_star_round(oracle, rnd, inputs, corrupted), step


def test_star_checks_reject_a_changed_h_term(engine):
    oracle, rnd, inputs, outputs = _star_case(engine)
    fg, _ = rnd.commutator_pairs[0]
    left, _ = rnd.associativity[0]
    for step in (fg, left):
        corrupted = list(outputs)
        key = max(outputs[step], key=lambda k: k[1])
        assert key[1] >= 1
        corrupted[step] = {**outputs[step], key: outputs[step][key] * 3}
        assert oracles.check_star_round(oracle, rnd, inputs, corrupted), step


def test_star_checks_reject_non_standard_support(engine):
    oracle, rnd, inputs, outputs = _star_case(engine)
    lead = oracle.leading[0]
    corrupted = list(outputs)
    corrupted[0] = {**outputs[0], (tuple(lead), 1): Fraction(1)}
    problems = oracles.check_star_round(oracle, rnd, inputs, corrupted)
    assert any("non-standard" in p for p in problems)


def test_weight_table_check_rejects_one_wrong_scalar(engine):
    gen = engine.ideal.generators[0]
    weight = oracles.det_weight(gen.terms, engine.basis.elements, 2, random.Random(3))
    row = [c.coeffs for c in engine.weight_table[0]]
    kinds = engine.basis.kinds
    assert oracles.check_weight_table(row, kinds, weight) == []
    for e in range(len(row)):
        corrupted = list(row)
        corrupted[e] = (Fraction(0), Fraction(7)) if row[e] else (Fraction(0), Fraction(1))
        assert oracles.check_weight_table(corrupted, kinds, weight), e
    assert oracles.check_weight_table(row, kinds, None)


def test_symmetrized_check_rejects_a_changed_term(engine):
    gen = engine.ideal.generators[0]
    sym = {w: c.coeffs for w, c in engine.sym_generators[0].terms.items()}
    assert oracles.check_symmetrized(gen.terms, sym, engine.basis.dim, engine.deg_cap) == []
    word = max(sym, key=len)
    changed = {**sym, word: (sym[word][0] * 2,) + tuple(sym[word][1:])}
    assert oracles.check_symmetrized(gen.terms, changed, engine.basis.dim, engine.deg_cap)
    too_deep = {**sym, word: tuple(sym[word]) + (Fraction(0),) * 8 + (Fraction(1),)}
    assert oracles.check_symmetrized(gen.terms, too_deep, engine.basis.dim, engine.deg_cap)


@pytest.mark.parametrize("n", [2, 3])
def test_family_check_rejects_a_dropped_term(n):
    basis, _ = oq.build_lie_basis(n)
    family = oq.semiinvariant_family(n, oq.DualCoordinates(basis))
    gens = [dict(g.terms) for g in family.generators]
    args = (family.kinds, family.weights, basis.elements, n)
    assert oracles.check_family(gens, *args, random.Random(5)) == []
    for m in range(len(gens)):
        dropped = list(gens)
        dropped[m] = dict(list(gens[m].items())[1:])
        assert oracles.check_family(dropped, *args, random.Random(5)), m
    wrong_weights = [w + 1 for w in family.weights]
    assert oracles.check_family(gens, family.kinds, wrong_weights, basis.elements, n, random.Random(5))


def _report(statuses, digest="abc"):
    checks = [{"name": f"c{i}", "status": s, "elapsed_s": 0.1} for i, s in enumerate(statuses)]
    return {"overall": "pass", "checks": checks, "content_hash": digest}


def test_verify_check_rejects_a_skipped_check():
    good = _report(["pass", "pass"])
    assert oracles.check_verify_reports([0, 0], [good, good]) == (0, [])
    failed, problems = oracles.check_verify_reports([0, 0], [good, _report(["pass", "skipped"])])
    assert failed == 1 and problems
    failed, problems = oracles.check_verify_reports([1], [None])
    assert failed == 1 and problems


def test_verify_check_rejects_differing_hashes():
    failed, problems = oracles.check_verify_reports(
        [0, 0], [_report(["pass"], "abc"), _report(["pass"], "abd")]
    )
    assert failed == 0 and problems


def test_manifest_lists_the_metrics_run_py_prints():
    import json

    import run
    from tracing import LAYER_UNITS
    from workloads import WORKLOADS

    manifest = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == LAYER_UNITS


def test_gauge_scales_own_time_and_child_hands_back_its_samples():
    import gauge
    from workloads import run_child

    meter = gauge.Gauge()
    result, own, scaled = meter.timed(lambda: sum(range(10**5)))
    assert result == sum(range(10**5)) and own > 0 and scaled > 0
    assert len(meter.samples) >= gauge.MIN_SAMPLES
    assert gauge.scale(2.0, [gauge.GAUGE_REFERENCE_S * 2] * 9 + [1.0]) == pytest.approx(1.0)

    run = run_child(["-c", "print(6 * 7)"], str(Path(__file__).resolve().parent.parent))
    assert (run.code, run.stdout) == (0, b"42\n") and run.own_s > 0 and run.scaled_s > 0
    assert run_child(["-c", "raise SystemExit(3)"], str(Path(__file__).resolve().parent.parent)).code == 3
