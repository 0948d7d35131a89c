"""Every name a package or test module imports is used in that module,
every function and class of the package is named somewhere besides its
own definition, the package and each CLI verb load only the modules
they run, and exact work does not load the float or worker-pool
libraries."""

import ast
import importlib
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


def unused_imports(source: str, filename: str = "<source>") -> list[str]:
    """Names bound by import statements and never loaded.

    A name counts as used when it is loaded anywhere in the module
    (including as the base of an attribute chain) or listed in a
    module-level ``__all__``; ``from __future__`` imports are features,
    not names.  ``__all__`` is read only when it is a list or tuple
    literal; any other ``__all__`` raises ValueError naming ``filename``
    if some imported name is used nowhere else, since it might list it.
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
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    for node in tree.body:
        if unused and isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                raise ValueError(
                    f"{filename}: line {node.lineno}: __all__ is not a list or tuple literal,"
                    f" so whether it lists {', '.join(name for _, name in unused)} is unknown"
                )
            listed = {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
            unused = [(line, name) for line, name in unused if name not in listed]
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), str(path.relative_to(ROOT))) == []


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


def test_scanner_reads_a_tuple_all_and_refuses_one_it_cannot_read():
    source = "from math import gcd, lcm\n__all__ = ('lcm',)\n"
    assert unused_imports(source) == ["line 1: gcd"]
    # an __all__ built by a call may list any name: the scanner names the
    # file instead of guessing, and reads past it when every import is used
    computed = "from math import gcd, lcm\n__all__ = sorted(['lcm'])\n"
    with pytest.raises(ValueError) as refused:
        unused_imports(computed, "pkg/mod.py")
    assert str(refused.value) == (
        "pkg/mod.py: line 2: __all__ is not a list or tuple literal,"
        " so whether it lists gcd, lcm is unknown"
    )
    assert unused_imports("from math import gcd\n__all__ = sorted(['x'])\ngcd(1, 2)\n") == []


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


def repository_sources() -> tuple[dict[str, str], list[str]]:
    """The text of every Python file in src/, tests/ and perfbench/ by its
    path from the root, and the paths of the package's modules."""
    scanned = [
        path
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in scanned}
    package = [label for label in sources if label.startswith("src/orbitquant/")]
    assert package
    return sources, package


def test_every_package_definition_is_named_outside_itself():
    sources, package = repository_sources()
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


def callee_name(node: ast.AST) -> str | None:
    """The name a call target is known by: a Name's id or an Attribute's attr."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def call_sites(tree: ast.AST) -> list[tuple[str, int | None, set | None]]:
    """(callee, positional count, keyword names) of each call in the tree.

    A ``*`` argument makes the positional count None (any count) and a
    ``**`` argument the keyword names None (any name).  ``partial(f, ...)``
    counts as a call of f with the arguments after it, and a call through a
    local alias (``prepend = self._prepend``, also unpacked from a tuple)
    as a call of the aliased name too.
    """
    aliases: dict[str, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                for name, value in pairs:
                    if isinstance(name, ast.Name) and callee_name(value):
                        aliases.setdefault(name.id, set()).add(callee_name(value))
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee, args = callee_name(node.func), node.args
        if callee == "partial" and args:
            callee, args = callee_name(args[0]), args[1:]
        if callee is None:
            continue
        positional = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
        keywords = {k.arg for k in node.keywords}
        if None in keywords:
            keywords = None
        for name in {callee} | aliases.get(callee, set()):
            sites.append((name, positional, keywords))
    return sites


def defaulted_parameters(tree: ast.AST):
    """(line, called names, parameter, its index among the positional
    arguments of a call or None for a keyword-only one) of each defaulted
    parameter of a function or method in the tree, in line order.  A
    method's index leaves out self or cls, and ``__init__`` is called by
    its class name, which comes first among its names."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                owners[child] = node.name
    functions = [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for node in sorted(functions, key=lambda node: node.lineno):
        names = (node.name,)
        bound = 0
        if node in owners and "staticmethod" not in {callee_name(d) for d in node.decorator_list}:
            bound = 1
            if node.name == "__init__":
                names = (owners[node], node.name)
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index in range(first, len(positional)):
            yield node.lineno, names, positional[index].arg, index - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.lineno, names, arg.arg, None


def dead_parameters(sources: dict[str, str], defining, kept=frozenset()) -> list[str]:
    """"label:line function(parameter)" for each defaulted parameter of a
    function or method defined in the sources labelled in ``defining`` that
    no call in any source passes, by keyword or by position; ``kept`` holds
    the (function, parameter) pairs exempt as API."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    calls: dict[str, list] = {}
    for tree in trees.values():
        for name, positional, keywords in call_sites(tree):
            calls.setdefault(name, []).append((positional, keywords))
    dead = []
    for label in defining:
        for line, names, param, index in defaulted_parameters(trees[label]):
            if any((name, param) in kept for name in names):
                continue
            passed = any(
                keywords is None
                or param in keywords
                or (index is not None and (positional is None or positional > index))
                for name in names
                for positional, keywords in calls.get(name, ())
            )
            if not passed:
                dead.append(f"{label}:{line} {names[0]}({param})")
    return dead


# exported signatures kept as API though no call in the repository passes
# these parameters
KEPT_PARAMETERS = frozenset(
    {
        ("poly_normal_form", "order"),
        ("poly_normal_form", "capacity"),
        ("standard_monomials", "order"),
    }
)


def test_every_defaulted_parameter_is_passed_somewhere():
    sources, package = repository_sources()
    assert dead_parameters(sources, package, KEPT_PARAMETERS) == []


def test_scanner_flags_a_dead_parameter():
    package = (
        "from functools import partial\n"
        "class Box:\n"
        "    def __init__(self, size=1, colour=None):\n"
        "        self.size = size\n"
        "    def grow(self, by=1, *, twice=False):\n"
        "        return by\n"
        "def scale(x, factor=2, offset=0, dead=None):\n"
        "    return x * factor + offset\n"
        "def run():\n"
        "    grow = Box(3).grow\n"
        "    grow(2)\n"
        "    return partial(scale, 1, offset=5)\n"
    )
    caller = "import package\npackage.scale(1, 3)\npackage.Box(colour='red').grow(twice=True)\n"
    sources = {"package": package, "caller": caller}
    assert dead_parameters(sources, ["package"]) == ["package:7 scale(dead)"]
    # without the caller: the alias passes grow's `by` and partial passes
    # `offset`
    assert dead_parameters({"package": package}, ["package"]) == [
        "package:3 Box(colour)",
        "package:5 grow(twice)",
        "package:7 scale(factor)",
        "package:7 scale(dead)",
    ]
    assert dead_parameters({"package": package}, ["package"], {("scale", "dead")}) == [
        "package:3 Box(colour)",
        "package:5 grow(twice)",
        "package:7 scale(factor)",
    ]
    # a call that forwards * and ** arguments may pass any parameter
    forwarding = "def f(a=1, *, b=2):\n    pass\ndef g(*args, **kwargs):\n    return f(*args, **kwargs)\n"
    assert dead_parameters({"m": forwarding}, ["m"]) == []


LOAD_PROBE = """
import json, runpy, sys

LAZY = ("concurrent.futures", "hashlib", "multiprocessing", "numpy", "scipy")

def report():
    package = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("orbitquant."))
    print(json.dumps([package, sorted(m for m in LAZY if m in sys.modules)]), file=sys.stderr)

import orbitquant
report()
sys.argv = ["orbitquant", "basis", "--n", "1"]
try:
    runpy.run_module("orbitquant.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
report()
from fractions import Fraction
from orbitquant.orbits import DualPoint, normal_form
one, zero = Fraction(1), Fraction(0)
point = DualPoint([[one, zero], [zero, one]], [[zero, one], [-one, zero]])
assert normal_form(point).lambdas == (1.0,)
report()
"""


def test_import_and_exact_cli_run_do_not_load_numpy_or_scipy(src_env):
    # the package's own modules load on first use: the import loads none of
    # them and `basis --n 1` only those it runs.  numpy and scipy serve only
    # the float normal form, multiprocessing and concurrent.futures only the
    # verify battery's workers, and hashlib only its content hash; they load
    # on first use too
    result = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE], capture_output=True, text=True, env=src_env
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["n"] == 1
    basis = ["errors", "jsonio", "lie", "linalg", "poly"]
    reports = [json.loads(line) for line in result.stderr.splitlines()]
    first, after_basis, after_normal_form = reports
    assert first == [[], []]
    assert after_basis == [basis, []]
    # the float normal form loads numpy and scipy, and the probe sees them
    # (scipy loads some of the other lazy modules itself)
    assert after_normal_form[0] == sorted(basis + ["orbits"])
    assert {"numpy", "scipy"} <= set(after_normal_form[1])


HELP_PROBE = """
import contextlib, io, json, sys
from orbitquant import cli

for verb in cli.VERBS:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert cli.main([verb, "--help"]) == 0
    assert text.getvalue().startswith(f"usage: orbitquant {verb} ")
    print(json.dumps([verb, sorted(m for m in sys.modules if m.startswith("orbitquant."))]))
"""


def test_help_of_every_verb_loads_no_library_module(src_env):
    from orbitquant import cli

    result = subprocess.run(
        [sys.executable, "-c", HELP_PROBE], capture_output=True, text=True, env=src_env
    )
    assert result.returncode == 0, result.stderr
    cli_only = ["orbitquant.cli", "orbitquant.errors", "orbitquant.jsonio"]
    assert [json.loads(line) for line in result.stdout.splitlines()] == [
        [verb, cli_only] for verb in cli.VERBS
    ]


def test_every_export_resolves_to_the_object_its_submodule_defines():
    import orbitquant

    assert orbitquant.__all__ == sorted(orbitquant._EXPORTS)
    listed = dir(orbitquant)
    for name in orbitquant.__all__:
        module = importlib.import_module(f"orbitquant.{orbitquant._EXPORTS[name]}")
        value = getattr(orbitquant, name)
        assert value is getattr(module, name) and value.__module__ == module.__name__, name
        assert name in listed
    namespace = {}
    exec("from orbitquant import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == orbitquant.__all__
    with pytest.raises(AttributeError, match="^module 'orbitquant' has no attribute 'x_y'$"):
        orbitquant.x_y
    # a submodule is no exported name: __getattr__ refuses it, so the import
    # system falls back to loading the submodule
    with pytest.raises(AttributeError, match="'invariants'"):
        orbitquant.__getattr__("invariants")
    from orbitquant import invariants

    assert invariants is sys.modules["orbitquant.invariants"]
