"""Runs Python code in a fresh interpreter with the speed gauge on.

    python3 perfbench/child.py -m orbitquant.cli verify --n 3 --deg 6
    python3 perfbench/child.py -c "import orbitquant"

It behaves as ``python -m ...`` or ``python -c ...`` would, and writes the
gauge's record, ``{"spent": s, "samples": [s, ...]}``, as the last line of
its standard error when the interpreter exits.
"""

import atexit
import json
import os
import runpy
import sys

from gauge import Gauge


def main():
    mode, target, *rest = sys.argv[1:]
    gauge = Gauge()

    def report():
        gauge.off()
        gauge.top_up(0)
        sys.stderr.write(json.dumps({"spent": gauge.spent, "samples": gauge.samples}) + "\n")

    atexit.register(report)
    gauge.on()
    if mode == "-m":
        sys.path[0] = os.getcwd()
        sys.argv = [target, *rest]
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    elif mode == "-c":
        sys.path[0] = ""
        sys.argv = ["-c", *rest]
        exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    else:
        raise SystemExit(f"usage: child.py -m module [args] | -c code [args], not {mode}")


if __name__ == "__main__":
    main()
