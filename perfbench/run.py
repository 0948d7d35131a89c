"""orbitquant benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload star-n2-cap8 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
End-to-end times are medians of samples scaled to a reference machine
speed by ``gauge.py``.
A full record, and the trace's spans, go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbitquant" / "__init__.py").is_file():
        print(f"no orbitquant sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread here and in every child, set before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, str(ROOT))
    finally:
        if tracer is not None:
            tracer.uninstall()

    if not outcome.op_s:
        for problem in outcome.problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1
    end_to_end = {
        "setup_s": statistics.median(outcome.setup_s),
        "op_s": statistics.median(outcome.op_s),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    if args.trace:
        from tracing import LAYER_UNITS

        metrics = {}
        for name, unit in LAYER_UNITS.items():
            value = outcome.layers.get(name, 0)
            if unit == "count" and value == int(value):
                value = int(value)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in end_to_end.items()}
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": end_to_end,
        "setup_s": outcome.setup_s,
        "op_s": outcome.op_s,
        "wall_s": outcome.wall_s,
        "problems": outcome.problems,
        "layers": outcome.layers,
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.json")
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
