"""Every name a package or test module imports is used in that module,
and exact work does not load the float or worker-pool libraries."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "orbitquant").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never loaded.

    A name counts as used when it is loaded anywhere in the module
    (including as the base of an attribute chain) or listed in a
    module-level ``__all__``; ``from __future__`` imports are features,
    not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import gcd, lcm\n"
        "from typing import Sequence\n"
        "__all__ = ['lcm']\n"
        "x: Sequence[int] = [gcd(4, 6)]\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: osp"]



FLOAT_LIBRARY_PROBE = """
import runpy, sys

LAZY = ("concurrent.futures", "multiprocessing", "numpy", "scipy")

def report():
    print(sorted(m for m in LAZY if m in sys.modules), file=sys.stderr)

import orbitquant
report()
sys.argv = ["orbitquant", "basis", "--n", "1"]
try:
    runpy.run_module("orbitquant.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
report()
from orbitquant.orbits import _det
assert _det([[2.0]]) == 2.0
report()
"""


def test_import_and_exact_cli_run_do_not_load_numpy_or_scipy(src_env):
    # numpy and scipy serve only the float normal form, and multiprocessing
    # and concurrent.futures only the verify battery's workers; they load on
    # first use
    result = subprocess.run(
        [sys.executable, "-c", FLOAT_LIBRARY_PROBE], capture_output=True, text=True, env=src_env
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["n"] == 1
    # the float branch of a determinant loads numpy, and the probe sees it
    assert result.stderr.splitlines() == ["[]", "[]", "['numpy']"]
