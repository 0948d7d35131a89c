"""Command-line interface: every pipeline stage as a batch verb.

All verbs consume and produce JSON (rationals as exact strings, floats
with 17 significant digits).  No mathematics lives here; verbs are thin
adapters over the library, and the exit code contract is

    0  success,
    1  a mathematical check failed,
    2  usage, input, or capacity error.

``VERBS`` is the one table of verbs: each takes ``--output`` and only the
options its handler reads, so any other option is a usage error.  JSON
input is read through the checked readers of ``jsonio`` and the record
parsers, which raise StructuralError for a missing key, a wrong shape or
an inexact value; ``main`` reports package errors, file errors and
malformed JSON, and lets anything else show as a traceback.

The library loads on first use: at module level this file imports only
the standard library, ``errors`` and ``jsonio``, and each handler imports
the library names it calls, so ``basis --n 1`` loads ``lie``, ``linalg``
and ``poly`` and no Gröbner, PBW, quantization or verify code, and
``--help`` loads no library module.  ``verify`` itself imports all of its
checks' modules at load, before the battery forks its workers.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import CertificationError, DomainError, OrbitQuantError, StructuralError
from .jsonio import as_fraction, float_to_str, frac_to_str, matrix_to_json, required


def _parse_json(load, source):
    """``load(source)``; bytes that are not text, an integer over Python's
    digit limit and nesting deeper than the recursion limit are input
    errors (json.JSONDecodeError keeps its own type)."""
    try:
        return load(source)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise StructuralError(f"unreadable JSON input: {exc}") from None


def _load_input(args) -> dict:
    if args.input is None:
        raise StructuralError("this verb requires --input FILE (or '-' for stdin)")
    if args.input == "-":
        data = _parse_json(json.load, sys.stdin)
    else:
        with open(args.input) as fh:
            data = _parse_json(json.load, fh)
    if not isinstance(data, dict):
        raise StructuralError(f"input must be a JSON object, not {type(data).__name__}")
    return data


def _write_output(args, document: dict, pretty_text: str | None = None):
    # only the verbs that pass pretty_text take --pretty
    if pretty_text is not None and args.pretty:
        payload = pretty_text + "\n"
    else:
        payload = json.dumps(document, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _group_element_json(p) -> dict:
    return {"x": matrix_to_json(p.x), "g": matrix_to_json(p.g)}


def _lambdas(args) -> list[Fraction]:
    if not args.lambdas:
        raise StructuralError("this verb requires --lambdas (comma-separated exact rationals)")
    return [as_fraction(part) for part in args.lambdas.split(",")]


def cmd_basis(args) -> int:
    from .lie import DualCoordinates, basis_to_json, build_lie_basis

    basis, sc = build_lie_basis(args.n)
    doc = basis_to_json(basis, sc)
    coords = DualCoordinates(basis)
    doc["pairing_matrix"] = matrix_to_json(coords.pairing_matrix())
    doc["coordinates"] = list(coords.variables)
    _write_output(args, doc)
    return 0


def cmd_group_mul(args) -> int:
    from .orbits import GroupElement, group_multiply

    data = _load_input(args)
    p, q = GroupElement.from_json(required(data, "p")), GroupElement.from_json(required(data, "q"))
    product = group_multiply(p, q)
    _write_output(args, {"product": _group_element_json(product)})
    return 0


def cmd_adjoint(args) -> int:
    from .orbits import GroupElement, LieElement, adjoint

    data = _load_input(args)
    p = GroupElement.from_json(required(data, "element"))
    image = adjoint(p, LieElement.from_json(required(data, "point")))
    _write_output(args, {"b": matrix_to_json(image.b), "a": matrix_to_json(image.a)})
    return 0


def cmd_coadjoint(args) -> int:
    from .orbits import DualPoint, GroupElement, coadjoint

    data = _load_input(args)
    p = GroupElement.from_json(required(data, "element"))
    image = coadjoint(p, DualPoint.from_json(required(data, "point")))
    _write_output(args, {"point": {"c": matrix_to_json(image.c), "a": matrix_to_json(image.a)}})
    return 0


def cmd_normal_form(args) -> int:
    from .orbits import DualPoint, normal_form

    data = _load_input(args)
    nf = normal_form(DualPoint.from_json(required(data, "point")))
    doc = {
        "lambdas": [float_to_str(l) for l in nf.lambdas],
        "H": matrix_to_json([list(row) for row in nf.H]),
        "witness": _group_element_json(nf.witness),
        "residual": float_to_str(nf.residual),
        "regular": nf.regular,
    }
    _write_output(args, doc)
    return 0


def cmd_invariants(args) -> int:
    from .invariants import invariant_trace_power, pfaffian_invariant
    from .orbits import DualPoint

    data = _load_input(args)
    pt = DualPoint.from_json(required(data, "point"))
    k = pt.n // 2
    doc = {
        "n": pt.n,
        "trace_invariants": [frac_to_str(invariant_trace_power(i, pt)) for i in range(1, k + 1)],
    }
    if pt.n % 2 == 0:
        doc["pfaffian_invariant"] = float_to_str(pfaffian_invariant(pt))
    _write_output(args, doc)
    return 0


def _exit_code(report: dict) -> int:
    """pass -> 0, fail -> 1, incomplete (a capacity skip) -> 2."""
    return {"pass": 0, "fail": 1, "incomplete": 2}[report["overall"]]


def cmd_semi_check(args) -> int:
    from .verify import check_semiinvariants, emit_report, render_pretty

    # self-test hook: --perturb offsets every expected weight by 1, so the
    # exact laws are checked against wrong weights and must fail
    entry = check_semiinvariants(
        args.seed, ns=(args.n,), samples=args.samples, weight_offset=1 if args.perturb else 0
    )
    doc = emit_report([entry], seed=args.seed, n_max=args.n)
    _write_output(args, doc, render_pretty(doc))
    return _exit_code(doc)


def cmd_no_invariants(args) -> int:
    from .invariants import no_invariants_certificate

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
    from .invariants import orbit_ideal, semiinvariant_family

    lambdas = _lambdas(args)
    fam = semiinvariant_family(args.n)
    ideal = orbit_ideal(lambdas, fam)
    doc = {
        "n": ideal.n,
        "k": ideal.k,
        "lambdas": [frac_to_str(l) for l in ideal.lambdas],
        "alphas": [frac_to_str(a) for a in ideal.alphas],
        "det_exponents": list(ideal.det_exponents),
        "kinds": list(ideal.kinds),
        "weights": list(fam.weights),
        "generators": [g.to_records() for g in ideal.generators],
    }
    _write_output(args, doc)
    return 0


def cmd_regularity(args) -> int:
    import random as _random

    from .invariants import orbit_ideal, regularity_check, semiinvariant_family
    from .orbits import DualPoint
    from .sampling import random_orbit_sample

    lambdas = _lambdas(args)
    fam = semiinvariant_family(args.n)
    ideal = orbit_ideal(lambdas, fam)
    rng = _random.Random(args.seed)
    if args.input:
        data = _load_input(args)
        records = required(data, "points")
        if not isinstance(records, list) or not records:
            raise StructuralError("points must be a nonempty list of dual points")
        pts = [DualPoint.from_json(rec, args.n) for rec in records]
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


def _algebra(n: int):
    from .lie import build_lie_basis
    from .ncpoly import PBWAlgebra

    basis, sc = build_lie_basis(n)
    return PBWAlgebra(basis, sc)


def cmd_pbw(args) -> int:
    from .hpoly import HPoly
    from .ncpoly import NCPoly

    data = _load_input(args)
    algebra = _algebra(args.n)
    coeff = HPoly.from_json(data.get("coefficient", ["1"]))
    result = NCPoly.from_word(algebra, required(data, "word"), coeff)
    _write_output(args, {"terms": result.to_json()})
    return 0


def cmd_sym(args) -> int:
    from .ncpoly import symmetrize
    from .poly import MultiPoly

    data = _load_input(args)
    algebra = _algebra(args.n)
    poly = MultiPoly.from_records(required(data, "polynomial"))
    result = symmetrize(algebra, poly)
    _write_output(args, {"terms": result.to_json()})
    return 0


def _operand(rec):
    from .poly import MultiPoly, polynomial_record
    from .quantize import QuotientElement

    variables, terms = polynomial_record(rec)
    if variables and terms and isinstance(terms[0].get("coefficient"), list):
        return QuotientElement.from_json(rec)
    return QuotientElement.from_multipoly(MultiPoly.from_records(rec))


def cmd_star(args) -> int:
    from .quantize import OrbitQuantization

    inline = (args.f, args.g)
    if inline == (None, None):
        data = _load_input(args)
    elif None in inline or args.input is not None:
        raise StructuralError("star takes its operands from --f and --g together, or from --input")
    else:
        data = {"f": _parse_json(json.loads, args.f), "g": _parse_json(json.loads, args.g)}
    lambdas = _lambdas(args)
    f, g = _operand(required(data, "f")), _operand(required(data, "g"))
    result = OrbitQuantization(args.n, lambdas, deg_cap=args.deg).star(f, g)
    _write_output(args, result.to_json())
    return 0


def cmd_verify(args) -> int:
    from .verify import build_report, render_pretty

    report = build_report(
        seed=args.seed,
        n_max=args.n,
        deg_cap=args.deg,
        samples=args.samples,
        inject_failure=args.perturb,
    )
    _write_output(args, report, render_pretty(report))
    return _exit_code(report)


OPTIONS = {
    "--n": dict(type=int, default=2, help="matrix size"),
    "--deg": dict(type=int, default=6, help="degree cap"),
    "--seed": dict(type=int, default=7, help="seed for sampled checks"),
    "--samples": dict(type=int, default=20, help="sample count"),
    "--lambdas": dict(type=str, default=None,
                      help="comma-separated exact orbit parameters, e.g. '1' or '3,1'"),
    "--input": dict(type=str, default=None, help="JSON input file or '-'"),
    "--output": dict(type=str, default=None, help="output file (default stdout)"),
    "--pretty": dict(action="store_true", help="human-readable report rendering"),
    "--perturb": dict(action="store_true",
                      help="inject a deliberate failure (reporting self-test)"),
    "--f": dict(type=str, default=None, help="inline JSON operand (with --g)"),
    "--g": dict(type=str, default=None, help="inline JSON operand (with --f)"),
}

# verb -> (handler, the options it reads); every verb also takes --output
VERBS = {
    "basis": (cmd_basis, ("--n",)),
    "group-mul": (cmd_group_mul, ("--input",)),
    "adjoint": (cmd_adjoint, ("--input",)),
    "coadjoint": (cmd_coadjoint, ("--input",)),
    "normal-form": (cmd_normal_form, ("--input",)),
    "invariants": (cmd_invariants, ("--input",)),
    "semi-check": (cmd_semi_check, ("--n", "--seed", "--samples", "--perturb", "--pretty")),
    "no-invariants": (cmd_no_invariants, ("--n", "--deg")),
    "orbit-ideal": (cmd_orbit_ideal, ("--n", "--lambdas")),
    "regularity": (cmd_regularity, ("--n", "--lambdas", "--seed", "--samples", "--input")),
    "pbw": (cmd_pbw, ("--n", "--input")),
    "sym": (cmd_sym, ("--n", "--input")),
    "star": (cmd_star, ("--n", "--lambdas", "--deg", "--input", "--f", "--g")),
    "verify": (cmd_verify, ("--n", "--deg", "--seed", "--samples", "--perturb", "--pretty")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitquant",
        description="Exact coadjoint-orbit computations and their quantization.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (handler, options) in VERBS.items():
        p = sub.add_parser(verb)
        p.set_defaults(handler=handler)
        for option in options + ("--output",):
            p.add_argument(option, **OPTIONS[option])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except CertificationError as exc:
        _emit_error(exc)
        return 1
    except (OrbitQuantError, OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2


def _emit_error(exc: Exception):
    document = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stdout.write(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
