"""Command-line interface: every pipeline stage as a batch verb.

All verbs consume and produce JSON (rationals as exact strings, floats
with 17 significant digits).  No mathematics lives here; verbs are thin
adapters over the library, and the exit code contract is

    0  success,
    1  a mathematical check failed,
    2  usage, input, or capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    CapacityError,
    CertificationError,
    DomainError,
    StructuralError,
)
from .hpoly import HPoly
from .jsonio import float_to_str, matrix_from_json, matrix_to_json
from .lie import DualCoordinates, basis_to_json, build_lie_basis
from .ncpoly import NCPoly, PBWAlgebra, symmetrize
from .orbits import DualPoint, GroupElement, LieElement, adjoint, coadjoint, group_multiply, normal_form
from .poly import MultiPoly, as_fraction
from .quantize import OrbitQuantization, QuotientElement
from .invariants import (
    invariant_trace_power,
    no_invariants_certificate,
    orbit_ideal,
    pfaffian_invariant,
    regularity_check,
    semiinvariant_family,
)
from .verify import (
    build_report,
    check_semiinvariants,
    emit_report,
    render_pretty,
)

VERBS = (
    "basis",
    "group-mul",
    "adjoint",
    "coadjoint",
    "normal-form",
    "invariants",
    "semi-check",
    "no-invariants",
    "orbit-ideal",
    "regularity",
    "pbw",
    "sym",
    "star",
    "verify",
)


def _load_input(args) -> dict:
    if args.input is None:
        raise StructuralError("this verb requires --input FILE (or '-' for stdin)")
    if args.input == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.input) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise StructuralError(f"input must be a JSON object, not {type(data).__name__}")
    return data


def _write_output(args, document: dict, pretty_text: str | None = None):
    if getattr(args, "pretty", False) and pretty_text is not None:
        payload = pretty_text + "\n"
    else:
        payload = json.dumps(document, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _group_element(data) -> GroupElement:
    return GroupElement(matrix_from_json(data["x"]), matrix_from_json(data["g"]))


def _dual_point(data, exact=True) -> DualPoint:
    return DualPoint(
        matrix_from_json(data["c"], exact=exact),
        matrix_from_json(data["a"], exact=exact),
    )


def _group_element_json(p: GroupElement) -> dict:
    return {"x": matrix_to_json(p.x), "g": matrix_to_json(p.g)}


def _dual_point_json(pt: DualPoint) -> dict:
    return {"c": matrix_to_json(pt.c), "a": matrix_to_json(pt.a)}


def _lambdas(args) -> list[Fraction]:
    if not args.lambdas:
        raise StructuralError("this verb requires --lambdas (comma-separated exact rationals)")
    return [as_fraction(part) for part in args.lambdas.split(",")]


def cmd_basis(args) -> int:
    basis, sc = build_lie_basis(args.n)
    doc = basis_to_json(basis, sc)
    coords = DualCoordinates(basis)
    doc["pairing_matrix"] = matrix_to_json(coords.pairing_matrix())
    doc["coordinates"] = list(coords.variables)
    _write_output(args, doc)
    return 0


def cmd_group_mul(args) -> int:
    data = _load_input(args)
    product = group_multiply(_group_element(data["p"]), _group_element(data["q"]))
    _write_output(args, {"product": _group_element_json(product)})
    return 0


def cmd_adjoint(args) -> int:
    data = _load_input(args)
    elt = LieElement(matrix_from_json(data["point"]["b"]), matrix_from_json(data["point"]["a"]))
    image = adjoint(_group_element(data["element"]), elt)
    _write_output(args, {"b": matrix_to_json(image.b), "a": matrix_to_json(image.a)})
    return 0


def cmd_coadjoint(args) -> int:
    data = _load_input(args)
    image = coadjoint(_group_element(data["element"]), _dual_point(data["point"]))
    _write_output(args, {"point": _dual_point_json(image)})
    return 0


def cmd_normal_form(args) -> int:
    data = _load_input(args)
    nf = normal_form(_dual_point(data["point"]), tol=args.tolerance)
    doc = {
        "lambdas": [float_to_str(l) for l in nf.lambdas],
        "H": matrix_to_json([list(row) for row in nf.H]),
        "witness": {
            "x": matrix_to_json(nf.witness.x),
            "g": matrix_to_json(nf.witness.g),
        },
        "residual": float_to_str(nf.residual),
        "regular": nf.regular,
    }
    _write_output(args, doc)
    return 0


def cmd_invariants(args) -> int:
    data = _load_input(args)
    pt = _dual_point(data["point"])
    k = pt.n // 2
    doc = {
        "n": pt.n,
        "trace_invariants": [str(invariant_trace_power(i, pt)) for i in range(1, k + 1)],
    }
    if pt.n % 2 == 0:
        doc["pfaffian_invariant"] = float_to_str(pfaffian_invariant(pt))
    _write_output(args, doc)
    return 0


def _exit_code(report: dict) -> int:
    """pass -> 0, fail -> 1, incomplete (a capacity skip) -> 2."""
    return {"pass": 0, "fail": 1, "incomplete": 2}[report["overall"]]


def cmd_semi_check(args) -> int:
    # self-test hook: --perturb offsets every expected weight by 1, so the
    # exact laws are checked against wrong weights and must fail
    entry = check_semiinvariants(
        args.seed, ns=(args.n,), samples=args.samples, weight_offset=1 if args.perturb else 0
    )
    doc = emit_report([entry], seed=args.seed, n_max=args.n)
    _write_output(args, doc, render_pretty(doc))
    return _exit_code(doc)


def cmd_no_invariants(args) -> int:
    cert = no_invariants_certificate(args.n, args.deg)
    doc = {
        "n": cert.n,
        "degree_bound": cert.degree_bound,
        "kernel_dimension": cert.kernel_dimension,
        "per_degree": list(cert.per_degree),
        "only_constants": cert.only_constants,
    }
    _write_output(args, doc)
    return 0 if cert.only_constants else 1


def cmd_orbit_ideal(args) -> int:
    lambdas = _lambdas(args)
    fam = semiinvariant_family(args.n)
    ideal = orbit_ideal(lambdas, fam)
    doc = {
        "n": ideal.n,
        "k": ideal.k,
        "lambdas": [str(l) for l in ideal.lambdas],
        "alphas": [str(a) for a in ideal.alphas],
        "det_exponents": list(ideal.det_exponents),
        "kinds": list(ideal.kinds),
        "weights": list(fam.weights),
        "generators": [g.to_records() for g in ideal.generators],
    }
    _write_output(args, doc)
    return 0


def cmd_regularity(args) -> int:
    import random as _random

    from .sampling import random_orbit_sample

    lambdas = _lambdas(args)
    fam = semiinvariant_family(args.n)
    ideal = orbit_ideal(lambdas, fam)
    rng = _random.Random(args.seed)
    if args.input:
        data = _load_input(args)
        pts = [_dual_point(rec) for rec in data["points"]]
    else:
        base = ideal.normal_form_point()
        pts = [base] + [random_orbit_sample(base, rng) for _ in range(args.samples)]
    try:
        ok = regularity_check(ideal, pts)
    except DomainError as exc:
        _write_output(args, {"passed": False, "error": str(exc)})
        return 1
    _write_output(args, {"passed": ok, "points": len(pts), "rank_required": ideal.k})
    return 0 if ok else 1


def _algebra(n: int) -> PBWAlgebra:
    basis, sc = build_lie_basis(n)
    return PBWAlgebra(basis, sc)


def cmd_pbw(args) -> int:
    data = _load_input(args)
    algebra = _algebra(args.n)
    coeff = HPoly.from_json(data.get("coefficient", ["1"]))
    result = NCPoly.from_word(algebra, data["word"], coeff)
    _write_output(args, {"terms": result.to_json()})
    return 0


def cmd_sym(args) -> int:
    data = _load_input(args)
    algebra = _algebra(args.n)
    poly = MultiPoly.from_records(data["polynomial"])
    if args.cap_terms is not None and len(poly.flat) > args.cap_terms:
        raise CapacityError(
            f"input has {len(poly.flat)} terms, over --cap-terms {args.cap_terms}"
        )
    result = symmetrize(algebra, poly)
    _write_output(args, {"terms": result.to_json()})
    return 0


def cmd_star(args) -> int:
    if args.f is not None and args.g is not None:
        data = {"f": json.loads(args.f), "g": json.loads(args.g)}
    else:
        data = _load_input(args)
    engine = OrbitQuantization(args.n, _lambdas(args), deg_cap=args.deg)

    def parse_operand(rec) -> QuotientElement:
        if "terms" in rec and rec.get("variables"):
            first = rec["terms"][0] if rec["terms"] else None
            if first is not None and isinstance(first.get("coefficient"), list):
                return QuotientElement.from_json(rec)
        return QuotientElement.from_multipoly(MultiPoly.from_records(rec))

    result = engine.star(parse_operand(data["f"]), parse_operand(data["g"]))
    _write_output(args, result.to_json())
    return 0


def cmd_verify(args) -> int:
    report = build_report(
        seed=args.seed,
        n_max=args.n,
        deg_cap=args.deg,
        samples=args.samples,
        inject_failure=args.perturb,
    )
    _write_output(args, report, render_pretty(report))
    return _exit_code(report)


HANDLERS = {
    "basis": cmd_basis,
    "group-mul": cmd_group_mul,
    "adjoint": cmd_adjoint,
    "coadjoint": cmd_coadjoint,
    "normal-form": cmd_normal_form,
    "invariants": cmd_invariants,
    "semi-check": cmd_semi_check,
    "no-invariants": cmd_no_invariants,
    "orbit-ideal": cmd_orbit_ideal,
    "regularity": cmd_regularity,
    "pbw": cmd_pbw,
    "sym": cmd_sym,
    "star": cmd_star,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitquant",
        description="Exact coadjoint-orbit computations and their quantization.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--n", type=int, default=2, help="matrix size")
        p.add_argument("--deg", type=int, default=6, help="degree cap")
        p.add_argument("--seed", type=int, default=7, help="seed for sampled checks")
        p.add_argument("--samples", type=int, default=20, help="sample count")
        p.add_argument("--lambdas", type=str, default=None,
                       help="comma-separated exact orbit parameters, e.g. '1' or '3,1'")
        p.add_argument("--input", type=str, default=None, help="JSON input file or '-'")
        p.add_argument("--output", type=str, default=None, help="output file (default stdout)")
        p.add_argument("--pretty", action="store_true", help="human-readable report rendering")
        p.add_argument("--cap-terms", type=int, default=None, help="term cap on sym's input polynomial")
        p.add_argument("--tolerance", type=float, default=1e-9, help="numeric tolerance")
        p.add_argument("--perturb", action="store_true",
                       help="inject a deliberate failure (reporting self-test)")
        if verb == "star":
            p.add_argument("--f", type=str, default=None, help="inline JSON operand")
            p.add_argument("--g", type=str, default=None, help="inline JSON operand")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return HANDLERS[args.verb](args)
    except (StructuralError, CapacityError, DomainError) as exc:
        _emit_error(args, exc)
        return 2
    except CertificationError as exc:
        _emit_error(args, exc)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        _emit_error(args, exc)
        return 2


def _emit_error(args, exc: Exception):
    document = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stdout.write(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
