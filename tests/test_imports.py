"""Every name a package or test module imports is used in that module,
every function and class of the package is named somewhere besides its
own definition, and exact work does not load the float or worker-pool
libraries."""

import ast
import json
import subprocess
import sys
from collections import Counter
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


def names_in(tree: ast.AST) -> Counter:
    """Each Name, Attribute name and string constant in the tree, counted."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def dead_definitions(sources: dict[str, str], defining) -> list[str]:
    """"label:line name" for each function and class defined in the sources
    labelled in ``defining`` whose name appears in no source, as a Name, an
    Attribute or a string constant, outside its own definition.  Dunders
    are called by the language and are exempt."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    total: Counter = Counter()
    for tree in trees.values():
        total.update(names_in(tree))
    dead = []
    for label in defining:
        definitions = [
            node
            for node in ast.walk(trees[label])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ]
        for node in sorted(definitions, key=lambda node: node.lineno):
            if total[node.name] == names_in(node)[node.name]:
                dead.append(f"{label}:{node.lineno} {node.name}")
    return dead


def test_every_package_definition_is_named_outside_itself():
    scanned = [
        path
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in scanned}
    package = [label for label in sources if label.startswith("src/orbitquant/")]
    assert package
    assert dead_definitions(sources, package) == []


def test_scanner_flags_a_dead_definition():
    package = (
        "class Used:\n"
        "    def method(self):\n"
        "        return self.method()\n"
        "    def __repr__(self):\n"
        "        return 'Used'\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def by_string():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner\n"
        "class Dead:\n"
        "    pass\n"
    )
    caller = "import package\npackage.Used().method()\ngetattr(package, 'by_string')\n"
    sources = {"package": package, "caller": caller}
    assert dead_definitions(sources, ["package"]) == ["package:6 recursive", "package:12 Dead"]
    # without the calling source, names used only there are dead, and so
    # is a class named only by a string inside its own body
    assert dead_definitions({"package": package}, ["package"]) == [
        "package:1 Used",
        "package:2 method",
        "package:6 recursive",
        "package:8 by_string",
        "package:12 Dead",
    ]



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
