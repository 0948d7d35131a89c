"""Span tracing around orbitquant's public entry points, installed from outside.

The benchmark never edits the package.  ``Tracer.install`` replaces a
fixed set of public functions and methods with wrappers that record
inclusive wall time and call counts per (phase, name), keeps coarse spans
(name, start, end, parent) in memory, and puts every original back on
``uninstall``.  A wrapper that is re-entered while its own span is open
(recursive ``det``, ``reduce_vector`` inside ``add_row`` of the same name)
passes straight through, so each name's time is counted once.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# Boundaries whose spans are kept; the rest only accumulate totals, since
# they are entered up to millions of times per operation.
SPAN_NAMES = {
    "lie.build",
    "invariants.family",
    "invariants.ideal",
    "ncpoly.symmetrize",
    "quantize.weight",
    "groebner.basis",
    "ncpoly.mul",
    "quantize.reduce",
}

VERIFY_CHECKS = (
    "embedding_soundness",
    "coadjoint_functoriality_duality",
    "normal_form",
    "orbit_dimension",
    "semiinvariant_weights",
    "invariant_polynomials_certificate",
    "orbit_ideal",
    "pbw_engine",
    "symmetrized_generator_commutators",
    "quotient_basis_torsion",
    "deformation_axioms",
)

# Every per-layer metric of a traced run, with its unit.  A workload that
# never enters a layer reports 0 for it.
LAYER_UNITS = {
    **{
        name: "s"
        for name in (
            "lie.build_s",
            "invariants.family_s",
            "invariants.ideal_s",
            "ncpoly.symmetrize_s",
            "quantize.weight_table_s",
            "groebner.basis_s",
            "ncpoly.left_multiples_s",
            "linalg.rref_rows_s",
            "ncpoly.pbw_mul_s",
            "quantize.reduce_s",
            "linalg.reduce_vector_s",
            "poly.mul_s",
            "linalg.det_s",
            "linalg.adjugate_s",
        )
    },
    **{
        name: "count"
        for name in (
            "ncpoly.left_multiples",
            "linalg.rref_rows",
            "linalg.rref_rank",
            "quantize.columns",
            "ncpoly.reduce_word_calls",
            "hpoly.objects",
            "ncpoly.sym_terms",
            "poly.mul_calls",
            "invariants.family_terms",
        )
    },
    **{f"verify.{name}_s": "s" for name in VERIFY_CHECKS},
    "cli.startup_s": "s",
}


class Tracer:
    """Totals, counts and spans keyed by (phase, name); the caller sets ``phase``."""

    def __init__(self):
        self.phase = "setup"
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.columns_seen: dict[str, set] = defaultdict(set)
        self.spans: list[list] = []
        self._open: list[str] = []
        self._open_spans: list[int] = []
        self._restore: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            keep = name in SPAN_NAMES
            parent = tracer._open_spans[-1] if tracer._open_spans else None
            tracer._open.append(name)
            if keep:
                tracer._open_spans.append(len(tracer.spans))
                tracer.spans.append([tracer.phase, name, 0.0, 0.0, parent])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                key = (tracer.phase, name)
                tracer.seconds[key] += end - start
                tracer.calls[key] += 1
                if keep:
                    span = tracer.spans[tracer._open_spans.pop()]
                    span[2], span[3] = start, end
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[(tracer.phase, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add_count(self, name: str, amount: int):
        self.calls[(self.phase, name)] += amount

    # -- installation -------------------------------------------------------

    def _patch_function(self, module, attr, wrapper_factory):
        """Replace a function in every orbitquant namespace that holds it."""
        original = getattr(module, attr)
        wrapper = wrapper_factory(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "orbitquant" or name.startswith("orbitquant.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, wrapper_factory):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrapper_factory(original))

    def install(self):
        import orbitquant.groebner as groebner
        import orbitquant.invariants as invariants
        import orbitquant.lie as lie
        import orbitquant.linalg as linalg
        import orbitquant.ncpoly as ncpoly
        import orbitquant.quantize as quantize
        from orbitquant.hpoly import HPoly
        from orbitquant.poly import MultiPoly

        timed = self._timed
        self._patch_function(lie, "build_lie_basis", lambda f: timed("lie.build", f))
        self._patch_function(
            invariants,
            "semiinvariant_family",
            lambda f: timed("invariants.family", f, observe=_family_terms),
        )
        self._patch_function(invariants, "orbit_ideal", lambda f: timed("invariants.ideal", f))
        self._patch_function(
            ncpoly, "symmetrize", lambda f: timed("ncpoly.symmetrize", f, observe=_sym_terms)
        )
        self._patch_function(quantize, "commutator_weight", lambda f: timed("quantize.weight", f))
        self._patch_function(groebner, "groebner_basis", lambda f: timed("groebner.basis", f))
        self._patch_function(linalg, "det", lambda f: timed("linalg.det", f))
        self._patch_function(linalg, "adjugate", lambda f: timed("linalg.adjugate", f))

        self._patch_method(ncpoly.NCPoly, "__mul__", lambda f: timed("ncpoly.mul", f))
        self._patch_method(
            linalg.SparseRREF, "add_row", lambda f: timed("linalg.add_row", f, observe=_rref_row)
        )
        self._patch_method(
            linalg.SparseRREF, "reduce_vector", lambda f: timed("linalg.reduce_vector", f)
        )
        self._patch_method(quantize.OrbitQuantization, "reduce", lambda f: timed("quantize.reduce", f))
        mul = self._timed("poly.mul", MultiPoly.__dict__["__mul__"])
        for attr in ("__mul__", "__rmul__"):
            self._patch_method(MultiPoly, attr, lambda f: mul)
        self._patch_method(
            ncpoly.PBWAlgebra, "reduce_word", lambda f: self._counted("ncpoly.reduce_word", f)
        )
        self._patch_method(HPoly, "__init__", lambda f: self._counted("hpoly.init", f))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def total(self, phase: str, name: str) -> float:
        return self.seconds.get((phase, name), 0.0)

    def count(self, phase: str, name: str) -> int:
        return self.calls.get((phase, name), 0)

    def columns(self, phase: str) -> int:
        return len(self.columns_seen.get(phase, ()))

    def dump(self, path):
        """Write spans and totals as JSON; spans are [phase, name, start, end, parent]."""
        doc = {
            "seconds": {f"{p}/{n}": v for (p, n), v in sorted(self.seconds.items())},
            "calls": {f"{p}/{n}": v for (p, n), v in sorted(self.calls.items())},
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _family_terms(tracer, args, family):
    tracer.add_count("invariants.family_terms", sum(len(g.terms) for g in family.generators))


def _sym_terms(tracer, args, sym):
    tracer.add_count("ncpoly.sym_terms", len(sym.terms))


def _rref_row(tracer, args, pivot):
    tracer.columns_seen[tracer.phase].update(args[1])
    if pivot is not None:
        tracer.add_count("linalg.rank", 1)
