"""The four workloads: seeded inputs, closed timing loops and their checks.

Every workload runs in the calling process and thread (``verify-n3``
drives one child process at a time and waits for it), as a closed loop:
the next operation starts when the previous one has returned.  Each
returns an ``Outcome`` with the set-up and operation samples, the
operation counts, the problems its checks found, the peak resident set of
the timed part, and per-layer figures when a tracer is installed.

Every time sample is the work's own wall time scaled to a reference
machine speed by ``gauge.py``, which times a fixed pure Python kernel
every 50 ms during the work; the result reports the median sample.  Work
in a child process is gauged inside the child by ``child.py``.

Checks import sympy only after the peak resident set has been read, so
the memory figure is that of orbitquant alone.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import gauge
import oracles
from tracing import VERIFY_CHECKS

SETUP_REPEATS = 3
COLD_REPEATS = 5  # cold interpreter starts, under a second each
SYM_SETUP_REPEATS = 1  # an n=3 engine build takes 7 to 12 s
MIN_REPEATS = 2  # operations (star, sym: rounds) per run, at least
STAR_N, STAR_CAP = 2, 8
SYM_N, SYM_CAP = 3, 8
FAMILY_N = 4
VERIFY_N, VERIFY_DEG = 3, 6
CHILD_TIMEOUT_S = 75  # a verify run takes 12 to 20 s; a run must end within 180 s
FEED_DEGREE = 3
FEED_OPERAND_DEGREE = 3
TRIPLE_DEGREE = 6
SUPPORT_DESIGN = 2026
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    setup_s: list = field(default_factory=list)  # one scaled sample per set-up
    op_s: list = field(default_factory=list)  # one scaled sample per operation or round
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    wall_s: dict = field(default_factory=lambda: {"setup": [], "op": []})  # own time, unscaled

    def add(self, kind: str, own: float, scaled: float, per: int = 1):
        self.wall_s[kind].append(own / per)
        (self.setup_s if kind == "setup" else self.op_s).append(scaled / per)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


@dataclass
class ChildRun:
    code: int
    stdout: bytes
    own_s: float  # wall time minus the child's gauge time
    scaled_s: float
    rss_mb: float


def run_child(args, root: str) -> ChildRun:
    """Run ``python args`` in the checkout under ``child.py``, which gauges it."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return ChildRun(-1, b"", 0.0, 0.0, 0.0)
    wall = time.perf_counter() - start
    # communicate() has reaped the child; its rusage is folded into RUSAGE_CHILDREN
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    try:
        record = json.loads(err.splitlines()[-1])
    except (IndexError, ValueError):
        return ChildRun(-1 if proc.returncode == 0 else proc.returncode, out, 0.0, 0.0, rss)
    own = wall - record["spent"]
    return ChildRun(proc.returncode, out, own, gauge.scale(own, record["samples"]), rss)


def cold_start(args, root: str, outcome: Outcome):
    """Set-up samples: a fresh interpreter running ``args`` to completion."""
    for _ in range(COLD_REPEATS):
        run = run_child(args, root)
        if run.code != 0:
            raise RuntimeError(f"cold start {args} exited {run.code}")
        outcome.add("setup", run.own_s, run.scaled_s)


# ------------------------------------------------------------ star-n2-cap8


@dataclass
class StarRound:
    """One round of star products; refs are ("in", i) or ("out", step)."""

    inputs: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    coordinate_pairs: list = field(default_factory=list)  # (step, step, i, j)
    commutator_pairs: list = field(default_factory=list)  # (f*g step, g*f step)
    associativity: list = field(default_factory=list)  # ((f*g)*w step, f*(g*w) step)
    unit: list = field(default_factory=list)  # (step, input index)

    def add_input(self, value):
        self.inputs.append(value)
        return ("in", len(self.inputs) - 1)

    def star(self, left, right):
        self.steps.append((left, right))
        return len(self.steps) - 1

    def pair(self, left, right):
        fg, gf = self.star(left, right), self.star(right, left)
        self.commutator_pairs.append((fg, gf))
        return fg


def grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def standard_exponents(generators, nvars: int, cap: int) -> list:
    """Monomials of degree <= cap outside the leading monomial of a principal ideal."""
    if len(generators) != 1:
        raise ValueError("operand generation assumes a principal orbit ideal")
    lead = max(generators[0].terms, key=grevlex_key)
    out = []

    def rec(prefix, left):
        if len(prefix) == nvars:
            exp = tuple(prefix)
            if not all(x >= y for x, y in zip(exp, lead)):
                out.append(exp)
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e)

    rec([], cap)
    return out


def star_round(rng: random.Random, multipoly, variables, standard, cap: int) -> StarRound:
    """A round: coordinate commutators, degree x term buckets, outputs fed
    back in, associativity triples and unit products.

    Supports come from a fixed design and ``rng`` draws the coefficients.
    Single products here take from 0.1 to 50 ms depending on their
    monomials, so with seeded supports the mean cost of a 510-product round
    moved by about 12% from seed to seed, more than a regression bound.
    """
    by_degree = {d: [e for e in standard if sum(e) == d] for d in range(cap + 1)}
    nvars = len(variables)
    design = random.Random(SUPPORT_DESIGN)

    def coefficient():
        return oracles.random_rational(rng, -4, 4) or Fraction(1)

    def operand(degree: int, terms: int):
        coeffs = {design.choice(by_degree[degree]): coefficient()}
        while len(coeffs) < terms:
            coeffs[design.choice(by_degree[design.randint(0, degree)])] = coefficient()
        return multipoly(variables, coeffs)

    rnd = StarRound()
    coords = []
    for i in range(nvars):
        exp = [0] * nvars
        exp[i] = 1
        coords.append(rnd.add_input(multipoly(variables, {tuple(exp): Fraction(1)})))
    for i in range(nvars):
        for j in range(i + 1, nvars):
            a, b = rnd.star(coords[i], coords[j]), rnd.star(coords[j], coords[i])
            rnd.coordinate_pairs.append((a, b, i, j))

    # operand pairs over every (deg f, deg g) in 1..4 and 1..5 terms
    for df in range(1, 5):
        for dg in range(1, 5):
            for terms in range(1, 6):
                f = rnd.add_input(operand(df, terms))
                g = rnd.add_input(operand(dg, (terms + df) % 5 + 1))
                fg = rnd.pair(f, g)
                # products carry h terms; feed the low-degree ones back in
                if df + dg <= FEED_DEGREE:
                    q = rnd.add_input(operand(1 + terms % FEED_OPERAND_DEGREE, 1))
                    rnd.pair(("out", fg), q)

    # associativity on every degree triple with sum <= TRIPLE_DEGREE
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            for d3 in range(1, 5):
                if d1 + d2 + d3 > TRIPLE_DEGREE:
                    continue
                terms = 1 + (d1 + d2 + d3) % 2
                f, g, w = (rnd.add_input(operand(d, terms)) for d in (d1, d2, d3))
                left = rnd.star(("out", rnd.star(f, g)), w)
                right = rnd.star(f, ("out", rnd.star(g, w)))
                rnd.associativity.append((left, right))

    one = rnd.add_input(multipoly(variables, {(0,) * nvars: Fraction(1)}))
    for d in range(1, 5):
        f = rnd.add_input(operand(d, 3))
        rnd.unit.append((rnd.star(one, f), f[1]))
        rnd.unit.append((rnd.star(f, one), f[1]))
    return rnd


def play_round(engine, rnd: StarRound, outputs: list):
    """Run every step once, in order."""
    for left, right in rnd.steps:
        a = rnd.inputs[left[1]] if left[0] == "in" else outputs[left[1]]
        b = rnd.inputs[right[1]] if right[0] == "in" else outputs[right[1]]
        outputs.append(engine.star(a, b))


def run_star(seed: int, seconds: float, tracer, root: str) -> Outcome:
    import orbitquant as oq

    out = Outcome()
    meter = gauge.Gauge()
    engine = None
    for _ in range(SETUP_REPEATS):
        engine = None
        out.attempted += 1
        try:
            engine, own, scaled = meter.timed(lambda: oq.OrbitQuantization(STAR_N, [1], deg_cap=STAR_CAP))
        except oq.OrbitQuantError as exc:
            out.failed += 1
            out.problems.append(f"engine build raised {type(exc).__name__}: {exc}")
            return out
        out.add("setup", own, scaled)

    standard = standard_exponents(engine.ideal.generators, len(engine.variables), STAR_CAP)
    rnd = star_round(random.Random(seed), oq.MultiPoly, engine.variables, standard, STAR_CAP)
    if tracer is not None:
        tracer.phase = "stream"
    # one op_s sample per round: the round's scaled time per product
    first = None
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_REPEATS or time.perf_counter() - start < seconds:
        rounds += 1
        outputs = []
        out.attempted += len(rnd.steps)
        try:
            _, own, scaled = meter.timed(lambda: play_round(engine, rnd, outputs))
        except oq.OrbitQuantError as exc:
            out.failed += len(rnd.steps) - len(outputs)
            out.problems.append(f"star raised {type(exc).__name__}: {exc}")
            break
        out.add("op", own, scaled, len(rnd.steps))
        if first is None:
            first = outputs
        elif outputs != first:
            out.problems.append("a repeated round gave different products")
    out.peak_rss_mb = peak_rss_mb()

    if first is not None and not out.problems:
        oracle = oracles.CommutativeOracle(
            engine.variables, [g.terms for g in engine.ideal.generators], engine.basis.elements
        )
        out.problems += oracles.check_star_round(
            oracle,
            rnd,
            [oracles.flat_of(p) for p in rnd.inputs],
            [oracles.flat_of(p) for p in first],
        )
    if tracer is not None:
        builds = len(out.setup_s)
        products = out.attempted - builds
        out.layers = setup_layers(tracer, "setup", builds)
        out.layers.update(
            {
                "ncpoly.left_multiples_s": tracer.total("setup", "ncpoly.mul") / builds,
                "ncpoly.left_multiples": tracer.count("setup", "ncpoly.mul") / builds,
                "linalg.rref_rows_s": tracer.total("setup", "linalg.add_row") / builds,
                "linalg.rref_rows": tracer.count("setup", "linalg.add_row") / builds,
                "linalg.rref_rank": tracer.count("setup", "linalg.rank") / builds,
                "quantize.columns": tracer.columns("setup"),
                "ncpoly.pbw_mul_s": tracer.total("stream", "ncpoly.mul") / products,
                "quantize.reduce_s": tracer.total("stream", "quantize.reduce") / products,
                "linalg.reduce_vector_s": tracer.total("stream", "linalg.reduce_vector") / products,
            }
        )
    return out


def setup_layers(tracer, phase: str, ops: int) -> dict:
    """Per-operation layer figures common to every engine or family build."""
    return {
        "lie.build_s": tracer.total(phase, "lie.build") / ops,
        "invariants.family_s": tracer.total(phase, "invariants.family") / ops,
        "invariants.ideal_s": tracer.total(phase, "invariants.ideal") / ops,
        "ncpoly.symmetrize_s": tracer.total(phase, "ncpoly.symmetrize") / ops,
        "quantize.weight_table_s": tracer.total(phase, "quantize.weight") / ops,
        "groebner.basis_s": tracer.total(phase, "groebner.basis") / ops,
        "ncpoly.reduce_word_calls": tracer.count(phase, "ncpoly.reduce_word") / ops,
        "hpoly.objects": tracer.count(phase, "hpoly.init") / ops,
        "ncpoly.sym_terms": tracer.count(phase, "ncpoly.sym_terms") / ops,
        "poly.mul_s": tracer.total(phase, "poly.mul") / ops,
        "poly.mul_calls": tracer.count(phase, "poly.mul") / ops,
        "linalg.det_s": tracer.total(phase, "linalg.det") / ops,
        "linalg.adjugate_s": tracer.total(phase, "linalg.adjugate") / ops,
        "invariants.family_terms": tracer.count(phase, "invariants.family_terms") / ops,
    }


# ------------------------------------------------------------------ sym-n3


def sym_inputs(rng: random.Random, multipoly, variables) -> list:
    """Polynomials of degree 2..7 with 1..3 terms; fixed supports, seeded coefficients."""
    design = random.Random(SUPPORT_DESIGN)
    polys = []
    for degree in range(2, 8):
        for terms in (1, 2, 3):
            coeffs = {}
            while len(coeffs) < terms:
                exp = [0] * len(variables)
                for _ in range(degree):
                    exp[design.randrange(len(variables))] += 1
                coeffs[tuple(exp)] = oracles.random_rational(rng, -4, 4) or Fraction(1)
            polys.append(multipoly(variables, coeffs))
    return polys


def run_sym(seed: int, seconds: float, tracer, root: str) -> Outcome:
    """Set-up: the engine without tables.  Operations, on that engine: the
    weight table's 15 letter commutators with the symmetrized generator, and
    symmetrizing seeded polynomials of degree 2..7."""
    import orbitquant as oq
    from orbitquant.quantize import commutator_weight

    out = Outcome()
    meter = gauge.Gauge()
    engine = None
    for _ in range(SYM_SETUP_REPEATS):
        engine = None
        out.attempted += 1
        try:
            engine, own, scaled = meter.timed(
                lambda: oq.OrbitQuantization(SYM_N, [1], deg_cap=SYM_CAP, build_reduction=False)
            )
        except oq.OrbitQuantError as exc:
            out.failed += 1
            out.problems.append(f"engine build raised {type(exc).__name__}: {exc}")
            return out
        out.add("setup", own, scaled)

    algebra, sym_gen, dim = engine.algebra, engine.sym_generators[0], engine.basis.dim
    polys = sym_inputs(random.Random(seed), oq.MultiPoly, engine.variables)
    ops = [lambda e=e: commutator_weight(algebra, sym_gen, e) for e in range(dim)]
    ops += [lambda p=p: oq.symmetrize(algebra, p) for p in polys]
    if tracer is not None:
        tracer.phase = "stream"
    # one op_s sample per round: the round's scaled time per operation
    first = None
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_REPEATS or time.perf_counter() - start < seconds:
        rounds += 1
        results = []
        out.attempted += len(ops)
        try:
            _, own, scaled = meter.timed(lambda: results.extend(op() for op in ops))
        except oq.OrbitQuantError as exc:
            out.failed += len(ops) - len(results)
            out.problems.append(f"operation {len(results)} raised {type(exc).__name__}: {exc}")
            return out
        out.add("op", own, scaled, len(ops))
        results = [r.coeffs for r in results[:dim]] + [
            {w: c.coeffs for w, c in r.terms.items()} for r in results[dim:]
        ]
        if first is None:
            first = results
        elif results != first:
            out.problems.append("a repeated round gave different outputs")
    out.peak_rss_mb = peak_rss_mb()

    rng = random.Random(seed)
    gen = engine.ideal.generators[0]
    sym = {w: c.coeffs for w, c in sym_gen.terms.items()}
    out.problems += oracles.check_symmetrized(gen.terms, sym, dim, SYM_CAP)
    weight = oracles.det_weight(gen.terms, engine.basis.elements, SYM_N, rng)
    out.problems += oracles.check_weight_table([c.coeffs for c in engine.weight_table[0]], engine.basis.kinds, weight)
    out.problems += oracles.check_weight_table(first[:dim], engine.basis.kinds, weight)
    for p, terms in zip(polys, first[dim:]):
        out.problems += oracles.check_symmetrized(p.terms, terms, dim, p.total_degree())
    if tracer is not None:
        out.layers = setup_layers(tracer, "setup", SYM_SETUP_REPEATS)
    return out


# --------------------------------------------------------------- family-n4


def run_family(seed: int, seconds: float, tracer, root: str) -> Outcome:
    import orbitquant as oq

    out = Outcome()
    cold_start(["-c", "import orbitquant"], root, out)
    meter = gauge.Gauge()
    def build_family():
        basis, _ = oq.build_lie_basis(FAMILY_N)
        return basis, oq.semiinvariant_family(FAMILY_N, oq.DualCoordinates(basis))

    if tracer is not None:
        tracer.phase = "op"
    # one op_s sample per basis build plus family build
    family = first = None
    start = time.perf_counter()
    while out.attempted < MIN_REPEATS or time.perf_counter() - start < seconds:
        family = None
        out.attempted += 1
        try:
            (basis, family), own, scaled = meter.timed(build_family)
        except oq.OrbitQuantError as exc:
            out.failed += 1
            out.problems.append(f"family build raised {type(exc).__name__}: {exc}")
            return out
        out.add("op", own, scaled)
        if first is None:
            first = [g.terms for g in family.generators]
        elif [g.terms for g in family.generators] != first:
            out.problems.append("a repeated family build gave different generators")
    out.peak_rss_mb = peak_rss_mb()

    out.problems += oracles.check_family(
        first, family.kinds, family.weights, basis.elements, FAMILY_N, random.Random(seed)
    )
    if tracer is not None:
        out.layers = setup_layers(tracer, "op", out.attempted)
    return out


# --------------------------------------------------------------- verify-n3


def run_verify(seed: int, seconds: float, tracer, root: str) -> Outcome:
    out = Outcome()
    cold_start(["-m", "orbitquant.cli", "basis", "--n", "1"], root, out)
    args = ["-m", "orbitquant.cli", "verify", "--n", str(VERIFY_N), "--deg", str(VERIFY_DEG), "--seed", str(seed)]
    codes, reports = [], []
    start = time.perf_counter()
    # at least two runs with one seed, so their content hashes can be compared
    while out.attempted < MIN_REPEATS or time.perf_counter() - start < seconds:
        out.attempted += 1
        run = run_child(args, root)
        out.add("op", run.own_s, run.scaled_s)
        out.peak_rss_mb = max(out.peak_rss_mb, run.rss_mb)
        try:
            report = json.loads(run.stdout)
        except ValueError:
            report = None
        codes.append(run.code)
        reports.append(report)
    out.failed, out.problems = oracles.check_verify_reports(codes, reports)
    if tracer is not None:
        out.layers = {"cli.startup_s": statistics.median(out.wall_s["setup"])}
        for name in VERIFY_CHECKS:
            times = [c["elapsed_s"] for r in reports if r for c in r["checks"] if c["name"] == name]
            out.layers[f"verify.{name}_s"] = statistics.median(times) if times else 0.0
    return out


WORKLOADS = {
    "star-n2-cap8": run_star,
    "sym-n3": run_sym,
    "family-n4": run_family,
    "verify-n3": run_verify,
}
