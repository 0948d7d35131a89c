"""The benchmark's tracer (``perfbench/tracing.py``) wraps names of the
package from outside; a refactor that drops one of them fails here, not
only in a benchmark run."""

from fractions import Fraction
from pathlib import Path

from orbitquant.hpoly import HPoly
from orbitquant.ncpoly import NCPoly, PBWAlgebra
from orbitquant.poly import MultiPoly
from orbitquant.quantize import OrbitQuantization

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_traces_a_star_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    patched = [
        (HPoly, "__init__"),
        (NCPoly, "__mul__"),
        (OrbitQuantization, "reduce"),
        (PBWAlgebra, "reduce_word"),
        (MultiPoly, "__mul__"),
    ]
    originals = [cls.__dict__[attr] for cls, attr in patched]
    untraced = OrbitQuantization(2, [Fraction(1)], deg_cap=6)
    f, g = (MultiPoly.variable(untraced.variables, i) for i in (4, 0))
    expected = untraced.star(f, g)

    tracer = Tracer()
    tracer.install()
    try:
        engine = OrbitQuantization(2, [Fraction(1)], deg_cap=6)
        tracer.phase = "stream"
        product = engine.star(f, g)
    finally:
        tracer.uninstall()

    assert product == expected and max(c.degree() for c in product.terms.values()) == 1
    assert tracer.count("setup", "lie.build") == 1
    assert tracer.count("setup", "ncpoly.symmetrize") == 1
    # the weight row certifies a11, a22, a12, a21 and b11 and derives b12, b22
    assert tracer.count("setup", "quantize.weight") == 5
    assert tracer.count("setup", "ncpoly.sym_terms") == len(engine.sym_generators[0].terms)
    assert tracer.count("setup", "hpoly.init") > 0
    assert [cls.__dict__[attr] for cls, attr in patched] == originals


def test_tracer_sees_the_symmetrizer_and_the_weights(monkeypatch):
    # the per-layer hooks read the symmetrizer's terms view, whose keys stay
    # tuple words of ints while the layout inside is keyed by packed words
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import orbitquant.ncpoly as ncpoly
    import orbitquant.quantize as quantize
    from tracing import Tracer

    engine = OrbitQuantization(2, [Fraction(1)], deg_cap=6, build_reduction=False)
    generator = engine.ideal.generators[0]
    originals = (ncpoly.symmetrize, quantize.commutator_weight)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "stream"
        sym = ncpoly.symmetrize(engine.algebra, generator)
        weights = [quantize.commutator_weight(engine.algebra, sym, e) for e in range(engine.basis.dim)]
    finally:
        tracer.uninstall()

    assert sym == engine.sym_generators[0] and weights == engine.weight_table[0]
    assert tracer.count("stream", "ncpoly.symmetrize") == 1
    assert tracer.count("stream", "quantize.weight") == engine.basis.dim
    assert tracer.count("stream", "ncpoly.sym_terms") == len(sym.terms) > 0
    assert all(type(w) is tuple and all(type(l) is int for l in w) for w in sym.terms)
    assert (ncpoly.symmetrize, quantize.commutator_weight) == originals


def test_tracer_sees_the_family_layers_and_reads_multipoly(monkeypatch):
    # family-n4's per-layer hooks: the family span and its term count, the
    # MultiPoly product wrapper, and the oracles' reading of MultiPoly terms
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import orbitquant.invariants as invariants
    import oracles
    from tracing import Tracer

    originals = [MultiPoly.__dict__[attr] for attr in ("__mul__", "__rmul__")]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "stream"
        family = invariants.semiinvariant_family(3)
    finally:
        tracer.uninstall()

    assert family.generators == invariants.semiinvariant_family(3).generators
    assert tracer.count("stream", "invariants.family") == 1
    assert tracer.count("stream", "invariants.family_terms") == sum(
        len(g.terms) for g in family.generators
    )
    assert tracer.count("stream", "poly.mul") > 0
    assert [MultiPoly.__dict__[attr] for attr in ("__mul__", "__rmul__")] == originals
    h1 = family.generators[0]
    assert oracles.flat_of(h1) == {(e, 0): c for e, c in h1.terms.items()}
    assert oracles.flat_of(h1) and all(type(c) is Fraction for c in oracles.flat_of(h1).values())


def test_tracer_sees_the_lie_build_and_the_adjugate_of_a_family_build(monkeypatch):
    # lie.build_s and linalg.adjugate_s are read off wrappers around the
    # module-level names build_lie_basis, adjugate and det: the n = 3
    # family enters the Lie build once and the symbolic adjugate of c once,
    # and det(c) is read off that adjugate, so no symbolic det runs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import orbitquant.invariants as invariants
    import orbitquant.lie as lie
    import orbitquant.linalg as linalg
    from tracing import Tracer

    names = ((lie, "build_lie_basis"), (linalg, "adjugate"), (linalg, "det"))
    originals = [getattr(mod, name) for mod, name in names]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(mod, name) is not f for (mod, name), f in zip(names, originals))
        tracer.phase = "stream"
        family = invariants.semiinvariant_family(3)
    finally:
        tracer.uninstall()

    assert family.generators == invariants.semiinvariant_family(3).generators
    assert tracer.count("stream", "lie.build") == 1
    assert tracer.count("stream", "linalg.adjugate") == 1
    assert tracer.count("stream", "linalg.det") == 0
    assert tracer.total("stream", "linalg.adjugate") > 0
    assert [getattr(mod, name) for mod, name in names] == originals
