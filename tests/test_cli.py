"""CLI verbs: thin adapters, deterministic output, exit-code contract."""

import json
import subprocess
import sys
import time

import pytest

from orbitquant.cli import OPTIONS, VERBS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_unknown_verb_is_usage_error(capsys):
    assert main(["no-such-verb"]) == 2


def test_basis_matches_library(capsys, tmp_path):
    code, doc = run_json(capsys, "basis", "--n", "1")
    assert code == 0
    from orbitquant.lie import basis_to_json, build_lie_basis

    basis, sc = build_lie_basis(1)
    expected = basis_to_json(basis, sc)
    assert doc["names"] == expected["names"]
    assert doc["elements"] == expected["elements"]
    assert doc["structure_constants"] == expected["structure_constants"]


def test_group_mul_against_library(capsys, tmp_path):
    request = {
        "p": {"x": [["1"]], "g": [["2"]]},
        "q": {"x": [["4"]], "g": [["3"]]},
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(request))
    code, doc = run_json(capsys, "group-mul", "--input", str(path))
    assert code == 0
    assert doc["product"] == {"x": [["17"]], "g": [["6"]]}


def test_coadjoint_scalar(capsys, tmp_path):
    request = {
        "element": {"x": [["1"]], "g": [["2"]]},
        "point": {"c": [["4"]], "a": [["3"]]},
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(request))
    code, doc = run_json(capsys, "coadjoint", "--input", str(path))
    assert code == 0
    assert doc["point"] == {"c": [["1"]], "a": [["4"]]}


def test_normal_form_trivial_point(capsys, tmp_path):
    request = {
        "point": {
            "c": [["1", "0"], ["0", "1"]],
            "a": [["0", "1"], ["-1", "0"]],
        }
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(request))
    code, doc = run_json(capsys, "normal-form", "--input", str(path))
    assert code == 0
    assert abs(float(doc["lambdas"][0]) - 1.0) < 1e-9
    assert float(doc["residual"]) < 1e-9
    assert doc["regular"] is True
    # the point has no symmetric part to remove: the witness's x is zero,
    # written "0", never "-0"
    assert doc["witness"]["x"] == [["0", "0"], ["0", "0"]]


def test_normal_form_rejects_bad_point(capsys, tmp_path):
    request = {
        "point": {"c": [["-1", "0"], ["0", "1"]], "a": [["0", "0"], ["0", "0"]]}
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(request))
    code, doc = run_json(capsys, "normal-form", "--input", str(path))
    assert code == 2
    assert doc["error"]["type"] == "DomainError"


def test_missing_input_is_usage_error(capsys):
    code, doc = run_json(capsys, "coadjoint")
    assert code == 2
    assert "error" in doc


def test_star_with_units(capsys, tmp_path):
    from orbitquant.lie import DualCoordinates, build_lie_basis
    from orbitquant.poly import MultiPoly

    basis, _ = build_lie_basis(2)
    coords = DualCoordinates(basis)
    one = MultiPoly.constant(coords.variables, 1).to_records()
    request = {"f": one, "g": one}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(request))
    code, doc = run_json(
        capsys, "star", "--n", "2", "--lambdas", "1", "--deg", "4",
        "--input", str(path),
    )
    assert code == 0
    assert doc["terms"] == [
        {"exponents": [0] * 7, "coefficient": ["1"]}
    ]


def test_star_matches_library(capsys, tmp_path):
    from fractions import Fraction

    from orbitquant.quantize import OrbitQuantization
    from orbitquant.poly import MultiPoly

    engine = OrbitQuantization(2, [Fraction(1)], deg_cap=4)
    f = MultiPoly.variable(engine.variables, 0)
    g = MultiPoly.variable(engine.variables, 4)
    expected = engine.star(f, g).to_json()
    request = {"f": f.to_records(), "g": g.to_records()}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(request))
    code, doc = run_json(
        capsys, "star", "--n", "2", "--lambdas", "1", "--deg", "4",
        "--input", str(path),
    )
    assert code == 0
    assert doc == expected


def test_star_n3_matches_library(capsys):
    # the n = 3 engine certifies its 15-letter weight table on every call;
    # xb11 * xa11 is out of PBW order, so the product carries -2 h xb11
    from fractions import Fraction

    from orbitquant.poly import MultiPoly
    from orbitquant.quantize import OrbitQuantization

    engine = OrbitQuantization(3, [Fraction(1)], deg_cap=8)
    variables = engine.variables
    f, g = (MultiPoly.variable(variables, variables.index(x)) for x in ("xb11", "xa11"))
    code, doc = run_json(
        capsys, "star", "--n", "3", "--lambdas", "1", "--deg", "8",
        "--f", json.dumps(f.to_records()), "--g", json.dumps(g.to_records()),
    )
    assert code == 0
    assert doc == engine.star(f, g).to_json()
    assert {"exponents": [0] * 9 + [1] + [0] * 5, "coefficient": ["0", "-2"]} in doc["terms"]


def test_pbw_verb(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"word": [1, 0]}))
    code, doc = run_json(capsys, "pbw", "--n", "1", "--input", str(path))
    assert code == 0
    # letters A < B at n=1: B A = A B - 2 h B
    assert {"word": [0, 1], "coefficient": ["1"]} in doc["terms"]
    assert {"word": [1], "coefficient": ["0", "-2"]} in doc["terms"]


def test_no_invariants_verb(capsys):
    code, doc = run_json(capsys, "no-invariants", "--n", "2", "--deg", "2")
    assert code == 0
    assert doc["only_constants"] is True


def test_no_invariants_at_n4(capsys):
    code, doc = run_json(capsys, "no-invariants", "--n", "4", "--deg", "2")
    assert code == 0
    assert doc["per_degree"] == [1, 0, 0]
    assert doc["only_constants"] is True


def test_no_invariants_over_cap_is_refused_at_once(capsys, monkeypatch):
    # n = 4, degree 6 needs 736,281 monomials; enumerating them first ran
    # for minutes and could end in a MemoryError traceback
    from orbitquant import invariants

    def no_enumeration(*args):
        raise AssertionError("monomials enumerated before the capacity check")

    monkeypatch.setattr(invariants, "monomials_up_to_degree", no_enumeration)
    start = time.perf_counter()
    code, doc = run_json(capsys, "no-invariants", "--n", "4", "--deg", "6")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert doc["error"] == {
        "type": "CapacityError",
        "message": (
            "degree 6 needs 19143306 equation rows (26 letters x 736281 monomials), "
            "over the cap of 1000000"
        ),
    }


class Enumerated(Exception):
    """Raised by a patched monomial enumerator: the capacity check was passed."""


def test_no_invariants_cap_bounds_the_equation_rows(capsys, monkeypatch):
    # the cap counts equation rows, one per letter and monomial of a degree:
    # n = 4 at degree 5 has 26 x 142,506 = 3,705,156 and is refused before
    # any monomial is built, while degree 4, with 26 x 23,751 = 617,526,
    # passes the check and goes on to enumerate its monomials
    from orbitquant import invariants

    def sentinel(*args):
        raise Enumerated(*args)

    monkeypatch.setattr(invariants, "monomials_up_to_degree", sentinel)
    start = time.perf_counter()
    code, doc = run_json(capsys, "no-invariants", "--n", "4", "--deg", "5")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert doc["error"] == {
        "type": "CapacityError",
        "message": (
            "degree 5 needs 3705156 equation rows (26 letters x 142506 monomials), "
            "over the cap of 1000000"
        ),
    }
    with pytest.raises(Enumerated) as passed:
        invariants.no_invariants_certificate(4, 4)
    assert passed.value.args == (26, 4)


def test_orbit_ideal_requires_lambdas(capsys):
    code, doc = run_json(capsys, "orbit-ideal", "--n", "2")
    assert code == 2


def test_orbit_ideal_round_trip(capsys):
    code, doc = run_json(capsys, "orbit-ideal", "--n", "2", "--lambdas", "1")
    assert code == 0
    from orbitquant.poly import MultiPoly

    gen = MultiPoly.from_records(doc["generators"][0])
    from fractions import Fraction

    from orbitquant.invariants import orbit_ideal, semiinvariant_family

    ideal = orbit_ideal([Fraction(1)], semiinvariant_family(2))
    assert gen == ideal.generators[0]


def test_regularity_verb(capsys):
    code, doc = run_json(
        capsys, "regularity", "--n", "2", "--lambdas", "1", "--samples", "5"
    )
    assert code == 0
    assert doc["passed"] is True


def test_semi_check_perturbed_fails(capsys):
    code, doc = run_json(
        capsys, "semi-check", "--n", "2", "--seed", "3", "--perturb"
    )
    assert code == 1
    assert doc["overall"] == "fail"
    assert doc["checks"][0]["status"] == "fail"
    # the laws were really checked against the offset weights, and failed
    laws = doc["checks"][0]["details"]["n=2"]
    assert laws and all(rec["exact_law"] is False for rec in laws)


@pytest.mark.parametrize("n, seeds", [(2, range(60)), (3, range(30))])
def test_semi_check_perturbed_fails_on_one_sample(capsys, n, seeds):
    # one sample must tell the weights apart: a point where the polynomial
    # vanishes or a g with det(g) = 1 would satisfy the offset law too
    for seed in seeds:
        code, doc = run_json(
            capsys, "semi-check", "--n", str(n), "--seed", str(seed), "--samples", "1", "--perturb"
        )
        assert (code, doc["overall"]) == (1, "fail"), seed


def test_semi_check_passes(capsys):
    code, doc = run_json(capsys, "semi-check", "--n", "2", "--seed", "3", "--samples", "5")
    assert code == 0
    assert doc["overall"] == "pass"


def test_verify_deterministic_hash(capsys):
    code1, doc1 = run_json(
        capsys, "verify", "--n", "2", "--deg", "6", "--seed", "11", "--samples", "3"
    )
    code2, doc2 = run_json(
        capsys, "verify", "--n", "2", "--deg", "6", "--seed", "11", "--samples", "3"
    )
    assert code1 == code2 == 0
    assert doc1["content_hash"] == doc2["content_hash"]
    # timing fields are excluded from the hash but present per check
    assert all("elapsed_s" in c for c in doc1["checks"])


def test_star_inline_operands(capsys):
    from orbitquant.lie import DualCoordinates, build_lie_basis
    from orbitquant.poly import MultiPoly

    basis, _ = build_lie_basis(2)
    coords = DualCoordinates(basis)
    one = json.dumps(MultiPoly.constant(coords.variables, 1).to_records())
    code, doc = run_json(
        capsys, "star", "--n", "2", "--lambdas", "1", "--deg", "4",
        "--f", one, "--g", one,
    )
    assert code == 0
    assert doc["terms"] == [{"exponents": [0] * 7, "coefficient": ["1"]}]


def test_emit_report_rejects_empty_check_list():
    from orbitquant.errors import StructuralError
    from orbitquant.verify import emit_report

    with pytest.raises(StructuralError):
        emit_report([])


def test_verify_capacity_skip_is_incomplete(capsys):
    # cap 3 at n = 2 is below the generator's degree 4: the checks that
    # need the reduction are skipped, so the run cannot pass
    code, doc = run_json(capsys, "verify", "--n", "2", "--deg", "3")
    assert code == 2
    assert doc["overall"] == "incomplete"
    skipped = {c["name"] for c in doc["checks"] if c["status"] == "skipped"}
    assert skipped == {"quotient_basis_torsion", "deformation_axioms"}


def test_verify_torsion_at_the_generator_degree(capsys):
    # at cap 4 = the generator's degree only h^0 g fits under the cap; the
    # torsion check must not reduce h g beyond it
    code, doc = run_json(
        capsys, "verify", "--n", "2", "--deg", "4", "--seed", "11", "--samples", "3"
    )
    assert code == 0
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["quotient_basis_torsion"] == "pass"


def test_generator_commutators_skip_marks_entry(monkeypatch):
    from orbitquant import verify
    from orbitquant.errors import CapacityError

    def over_capacity(*args, **kwargs):
        raise CapacityError("test capacity")

    monkeypatch.setattr(verify, "OrbitQuantization", over_capacity)
    entry = verify.check_generator_commutators(ns=(2,))
    assert entry["status"] == "skipped"
    assert entry["details"] == {"reason": "capacity: test capacity"}
    assert verify.emit_report([entry])["overall"] == "incomplete"


def test_star_rejects_foreign_variables(capsys, tmp_path):
    foreign = ["a", "b", "c", "d", "e", "f", "g"]
    operand = {
        "variables": foreign,
        "terms": [{"coefficient": "1", "exponents": [1, 0, 0, 0, 0, 0, 0]}],
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"f": operand, "g": operand}))
    code, doc = run_json(
        capsys, "star", "--n", "2", "--lambdas", "1", "--deg", "4",
        "--input", str(path),
    )
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"


@pytest.mark.parametrize("variables", [["xb11", "xa11"], ["q", "p"]])
def test_sym_rejects_foreign_variables(capsys, tmp_path, variables):
    # exponents are read by position, so swapped names would symmetrize
    # xa11 as the letter b11
    poly = {"variables": variables, "terms": [{"coefficient": "1", "exponents": [0, 1]}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"polynomial": poly}))
    code, doc = run_json(capsys, "sym", "--n", "1", "--input", str(path))
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"
    assert "xa11" in doc["error"]["message"]


STAR_N2_VARIABLES = ["xa11", "xa12", "xa21", "xa22", "xb11", "xb12", "xb22"]


@pytest.mark.parametrize(
    "exponents,coefficient",
    [
        # a negative slot lifted to the empty word: its square was the unit 1
        ([-1, 0, 0, 0, 0, 0, 0], ["1"]),
        # eight slots for seven variables: an IndexError traceback
        ([1, 0, 0, 0, 0, 0, 0, 0], ["1"]),
        # a float read as its binary expansion 3602879701896397/36028797018963968,
        # in an h polynomial and as a plain coefficient
        ([1, 0, 0, 0, 0, 0, 0], [0.1]),
        ([1, 0, 0, 0, 0, 0, 0], 0.1),
        # an exponent that is no sequence: a TypeError traceback
        (5, ["1"]),
        (5, "1"),
    ],
)
def test_star_rejects_malformed_quotient_operand(capsys, tmp_path, exponents, coefficient):
    operand = {
        "variables": STAR_N2_VARIABLES,
        "terms": [{"exponents": exponents, "coefficient": coefficient}],
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"f": operand, "g": operand}))
    code, doc = run_json(
        capsys, "star", "--n", "2", "--lambdas", "1", "--deg", "6",
        "--input", str(path),
    )
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"


@pytest.mark.parametrize("value", ["1/0", True], ids=["zero_denominator", "json_true"])
@pytest.mark.parametrize(
    "argv,request_of",
    [
        # a matrix entry, read by jsonio.square_matrix
        (("group-mul",), lambda v: {"p": {"x": [["0"]], "g": [[v]]},
                                    "q": {"x": [["0"]], "g": [["1"]]}}),
        # a coefficient of an h polynomial, read by HPoly.from_json
        (("pbw", "--n", "1"), lambda v: {"word": [1, 0], "coefficient": [v]}),
        # a plain coefficient, read by MultiPoly.from_records
        (("star", "--n", "2", "--lambdas", "1", "--deg", "6"), lambda v: {
            "f": {"variables": STAR_N2_VARIABLES,
                  "terms": [{"exponents": [1, 0, 0, 0, 0, 0, 0], "coefficient": v}]},
            "g": {"variables": STAR_N2_VARIABLES, "terms": []},
        }),
    ],
    ids=["group-mul", "pbw", "star"],
)
def test_inexact_or_undefined_rationals_are_input_errors(
    capsys, tmp_path, argv, request_of, value
):
    # "1/0" was a ZeroDivisionError traceback with exit 1; true was read as 1
    path = tmp_path / "in.json"
    path.write_text(json.dumps(request_of(value)))
    code, doc = run_json(capsys, *argv, "--input", str(path))
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"


@pytest.mark.parametrize(
    "word",
    [[1.5, 0], [True, 0], ["1", 0], [2, 0], [-1, 0], "10", 1],
    ids=["float", "json_true", "string", "out_of_range", "negative", "string_word", "int_word"],
)
def test_pbw_letters_must_be_ints_in_range(capsys, tmp_path, word):
    # [1.5, 0] and [true, 0] were rewritten into the words [0, 1.5] and
    # [0, true] with exit 0; ["1", 0] was a TypeError traceback with exit 1
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"word": word}))
    code, doc = run_json(capsys, "pbw", "--n", "1", "--input", str(path))
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"


@pytest.mark.parametrize("lambdas", ["1/0", "x", "true"])
def test_lambdas_must_be_exact_rationals(capsys, lambdas):
    code, doc = run_json(capsys, "orbit-ideal", "--n", "2", "--lambdas", lambdas)
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"


@pytest.mark.parametrize(
    "coefficients",
    [
        ("1", "5"),  # MultiPoly records: the second used to replace the first
        (["1"], ["5", "1"]),  # QuotientElement records
    ],
    ids=["multipoly", "quotient"],
)
def test_star_refuses_a_repeated_exponent(capsys, coefficients):
    f = {
        "variables": STAR_N2_VARIABLES,
        "terms": [{"exponents": [1, 0, 0, 0, 0, 0, 0], "coefficient": c} for c in coefficients],
    }
    one = {"variables": STAR_N2_VARIABLES,
           "terms": [{"exponents": [0] * 7, "coefficient": "1"}]}
    code, doc = run_json(
        capsys, "star", "--n", "2", "--lambdas", "1", "--deg", "6",
        "--f", json.dumps(f), "--g", json.dumps(one),
    )
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"
    assert "appears in two records" in doc["error"]["message"]


def test_ncpoly_from_json_refuses_a_repeated_word():
    from orbitquant.errors import StructuralError
    from orbitquant.ncpoly import NCPoly, PBWAlgebra
    from orbitquant.lie import build_lie_basis

    algebra = PBWAlgebra(*build_lie_basis(1))
    records = [{"word": [0, 1], "coefficient": ["1"]}, {"word": [0, 1], "coefficient": ["5"]}]
    with pytest.raises(StructuralError, match="appears in two records"):
        NCPoly.from_json(algebra, records)
    assert NCPoly.from_json(algebra, records[:1]).to_json() == [records[0]]


def test_verify_injected_failure_exit_code(capsys):
    code, doc = run_json(
        capsys, "verify", "--n", "2", "--deg", "4", "--seed", "11",
        "--samples", "2", "--perturb",
    )
    assert code == 1
    assert doc["overall"] == "fail"
    failing = [c for c in doc["checks"] if c["status"] == "fail"]
    assert failing and "residuals" in failing[0]["details"]


def test_entry_point_runs(src_env):
    result = subprocess.run(
        [sys.executable, "-m", "orbitquant.cli", "no-invariants", "--n", "2", "--deg", "1"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["only_constants"] is True


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("basis", "--n", "1"), "basis_n1.json"),
        (("pbw", "--n", "1", "--input", "-"), "pbw_n1.json"),
        # f * g reaches the leading monomial x_a21^2 x_b11^2, so a division
        # step runs; g is a QuotientElement with an h term
        (("star", "--n", "2", "--lambdas", "1", "--deg", "6", "--input", "-"), "star_n2.json"),
        # the group verbs on one n = 3 input with non-integer entries; the
        # normal form is float and pins its bits
        (("group-mul", "--input", "-"), "group_mul_n3.json"),
        (("adjoint", "--input", "-"), "adjoint_n3.json"),
        (("coadjoint", "--input", "-"), "coadjoint_n3.json"),
        (("normal-form", "--input", "-"), "normal_form_n3.json"),
        # the basis elements through algebra_block, the pairing through dual_block
        (("basis", "--n", "2"), "basis_n2.json"),
        # two exact trace invariants and the float Pfaffian invariant at n = 4
        (("invariants", "--input", "-"), "invariants_n4.json"),
    ],
)
def test_golden_outputs(capsys, monkeypatch, tmp_path, argv, golden):
    import io
    import pathlib

    folder = pathlib.Path(__file__).parent / "golden"

    def orbits_n3():
        return (folder / "orbits_n3_input.json").read_text()

    stdin = {
        "pbw_n1.json": lambda: json.dumps({"word": [1, 0]}),
        "star_n2.json": lambda: (folder / "star_n2_input.json").read_text(),
        "group_mul_n3.json": orbits_n3,
        "adjoint_n3.json": orbits_n3,
        "coadjoint_n3.json": orbits_n3,
        "normal_form_n3.json": orbits_n3,
        "invariants_n4.json": lambda: (folder / "invariants_n4_input.json").read_text(),
    }
    if "--input" in argv:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin[golden]()))
    code, out = run_cli(capsys, *argv)
    assert code == 0
    expected = (folder / golden).read_text()
    assert out == expected


@pytest.mark.parametrize("document", ["[1, 0]", '"x"'])
@pytest.mark.parametrize(
    "argv",
    [
        ("pbw", "--n", "2", "--input", "-"),
        ("sym", "--n", "2", "--input", "-"),
        ("star", "--n", "2", "--lambdas", "1", "--deg", "4", "--input", "-"),
    ],
)
def test_input_that_is_not_an_object_is_a_usage_error(capsys, monkeypatch, argv, document):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"
    assert "JSON object" in doc["error"]["message"]


@pytest.mark.parametrize(
    "argv, document",
    [
        (("star", "--n", "2", "--lambdas", "1", "--deg", "4", "--input", "-"),
         '{"f": [1, 0], "g": "x"}'),
        (("star", "--n", "2", "--lambdas", "1", "--deg", "4", "--f", "[1,0]", "--g", "[2]"), ""),
        (("sym", "--n", "2", "--input", "-"), '{"polynomial": [1]}'),
    ],
    ids=["star-stdin", "star-inline", "sym-stdin"],
)
def test_operand_that_is_not_an_object_is_a_usage_error(capsys, monkeypatch, argv, document):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"] == {
        "type": "StructuralError",
        "message": "a polynomial must be a JSON object, not list",
    }


@pytest.mark.parametrize(
    "argv",
    [
        # embedding_soundness ran over an empty range of n and passed
        ("verify", "--n", "0"),
        # the report said n_max 4 and passed, yet checked no size above 3
        ("verify", "--n", "4"),
        # every sampled check passed on zero samples
        ("verify", "--n", "2", "--deg", "4", "--samples", "0"),
        # the refused size was reported as a failed law (exit 1)
        ("semi-check", "--n", "1"),
        ("semi-check", "--n", "2", "--samples", "0"),
        # the certificate checked no positive degree and passed
        ("no-invariants", "--n", "2", "--deg", "0"),
        ("no-invariants", "--n", "2", "--deg", "-1"),
    ],
    ids=[
        "verify-n0",
        "verify-n4",
        "verify-samples0",
        "semi-check-n1",
        "semi-check-samples0",
        "no-invariants-deg0",
        "no-invariants-deg-1",
    ],
)
def test_runs_that_would_check_nothing_are_usage_errors(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"


@pytest.mark.parametrize("entry", ["1e400", "1e-400"], ids=["overflow", "underflow"])
@pytest.mark.parametrize("verb", ["normal-form", "invariants"])
def test_points_out_of_float_range_are_domain_errors(capsys, monkeypatch, verb, entry):
    # "1e400" was an OverflowError traceback in float(); "1e-400" became a
    # float zero, so the Cholesky factor or the Pfaffian division failed
    import io

    point = {"c": [[entry, "0"], ["0", "1"]], "a": [["0", "1"], ["-1", "0"]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"point": point})))
    code, doc = run_json(capsys, verb, "--input", "-")
    assert code == 2
    assert doc["error"]["type"] == "DomainError"


@pytest.mark.parametrize(
    "argv, document",
    [
        # n = 1 points at --n 2 were an IndexError traceback
        (("regularity", "--n", "2", "--lambdas", "1"),
         {"points": [{"c": [["1"]], "a": [["0"]]}]}),
        # no points at all would pass vacuously
        (("regularity", "--n", "2", "--lambdas", "1"), {"points": []}),
        # 0x0 matrices were read as n = 0 points and elements
        (("invariants",), {"point": {"c": [], "a": []}}),
        (("group-mul",), {"p": {"x": [], "g": []}, "q": {"x": [], "g": []}}),
        (("normal-form",), {"point": {"c": [], "a": []}}),
        # blocks of two sizes, and a ragged matrix
        (("coadjoint",), {"element": {"x": [["1"]], "g": [["1"]]},
                          "point": {"c": [["1", "0"], ["0", "1"]], "a": [["0", "0"], ["0", "0"]]}}),
        (("adjoint",), {"element": {"x": [["0", "0"], ["0"]], "g": [["1", "0"], ["0", "1"]]},
                        "point": {"b": [["0"]], "a": [["0"]]}}),
        # matrix-shaped input that is no matrix was a TypeError traceback
        (("invariants",), {"point": [1]}),
        (("normal-form",), {"point": {"c": 5, "a": [["1"]]}}),
        (("group-mul",), {"p": [1], "q": 2}),
    ],
    ids=["regularity-n1-at-n2", "regularity-no-points", "invariants-0x0", "group-mul-0x0",
         "normal-form-0x0", "coadjoint-sizes", "adjoint-ragged", "invariants-list",
         "normal-form-int", "group-mul-lists"],
)
def test_matrix_inputs_are_checked_where_they_enter(capsys, monkeypatch, argv, document):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
    code, doc = run_json(capsys, *argv, "--input", "-")
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"


@pytest.mark.parametrize(
    "argv, document",
    [
        # a product of 10**6000 was a ValueError traceback in str()
        (("group-mul",), {"p": {"x": [["0"]], "g": [["1e3000"]]},
                          "q": {"x": [["0"]], "g": [["1e3000"]]}}),
        (("invariants",), {"point": {"c": [["1e-3000", "0"], ["0", "1e-3000"]],
                                     "a": [["0", "1e3000"], ["-1e3000", "0"]]}}),
        (("orbit-ideal", "--n", "2", "--lambdas", "1e3000"), None),
        # exponents that could never be written out are refused as read;
        # "1e999999999" spent minutes building 10**999999999
        (("orbit-ideal", "--n", "2", "--lambdas", "1e5000"), None),
        (("orbit-ideal", "--n", "2", "--lambdas", "1e999999999"), None),
        (("group-mul",), {"p": {"x": [["0"]], "g": [["1e-999999999"]]},
                          "q": {"x": [["0"]], "g": [["1"]]}}),
    ],
    ids=["group-mul-product", "invariants-trace", "orbit-ideal-generators",
         "orbit-ideal-exponent", "orbit-ideal-huge-exponent", "group-mul-huge-exponent"],
)
def test_values_past_the_digit_limit_are_capacity_errors(capsys, monkeypatch, argv, document):
    import io

    if document is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
        argv += ("--input", "-")
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "CapacityError"


def test_missing_key_is_named(capsys, monkeypatch):
    # it was reported as {"type": "KeyError", "message": "'q'"}
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"p": {"x": [["1"]], "g": [["2"]]}}'))
    code, doc = run_json(capsys, "group-mul", "--input", "-")
    assert code == 2
    assert doc["error"] == {"type": "StructuralError", "message": "missing key 'q'"}


def test_input_that_is_not_text_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_bytes(b'{"word": "\xff"}')
    code, doc = run_json(capsys, "pbw", "--n", "1", "--input", str(path))
    assert code == 2
    assert doc["error"]["type"] == "StructuralError"


def test_star_takes_both_inline_operands_or_input(capsys, tmp_path):
    # a lone --f or --g fell back to --input; --input was ignored when both
    # inline operands were given
    one = json.dumps({"variables": STAR_N2_VARIABLES,
                      "terms": [{"exponents": [0] * 7, "coefficient": "1"}]})
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"f": json.loads(one), "g": json.loads(one)}))
    star = ("star", "--n", "2", "--lambdas", "1", "--deg", "4")
    for extra in (("--f", one), ("--g", one), ("--f", one, "--input", str(path)),
                  ("--f", one, "--g", one, "--input", str(path))):
        code, doc = run_json(capsys, *star, *extra)
        assert code == 2
        assert doc["error"]["type"] == "StructuralError"
    assert run_json(capsys, *star, "--input", str(path))[0] == 0


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_each_verb_refuses_the_options_it_does_not_read(capsys, verb):
    # every verb takes --output; no other option it does not read parses
    _, reads = VERBS[verb]
    refused = [opt for opt in OPTIONS if opt not in reads + ("--output",)]
    assert refused
    for opt in refused:
        value = () if OPTIONS[opt].get("action") == "store_true" else ("1",)
        assert main([verb, opt, *value]) == 2, opt
    capsys.readouterr()


def test_sym_takes_no_term_cap(capsys):
    # the verbs share 11 options over 50 slots (each verb's own and
    # --output); --cap-terms is gone, so it is a usage error
    assert len(OPTIONS) == 11
    assert sum(len(reads) + 1 for _, reads in VERBS.values()) == 50
    assert main(["sym", "--n", "1", "--cap-terms", "5"]) == 2
    capsys.readouterr()


def _json_values():
    from hypothesis import strategies as st

    return st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
        | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=2), inner, max_size=3),
        max_leaves=6,
    )


def _verb_inputs():
    """Each verb that takes --input, with its argv and a strategy for its
    request: the verb's own keys over values that are matrices, records,
    words and polynomials of the right shape or arbitrary JSON."""
    from hypothesis import strategies as st

    any_json = _json_values()
    rational = st.integers(-3, 3) | st.sampled_from(
        ["1/2", "-2/3", "0", "1e400", "1e-400", "1e3000", "1e5000", "1/0", "x"]
    )

    def square(n):
        rows = st.lists(st.lists(rational, min_size=n, max_size=n), min_size=n, max_size=n)
        mirrored = rows.map(lambda m: [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
        return rows | mirrored

    matrix = st.integers(1, 3).flatmap(square) | any_json

    def record(*keys, matrix=matrix):
        return st.fixed_dictionaries({k: matrix for k in keys}) | any_json

    def polynomial(variables):
        term = st.fixed_dictionaries({
            "exponents": st.lists(st.integers(-1, 1), min_size=len(variables),
                                  max_size=len(variables)) | any_json,
            "coefficient": rational | st.lists(rational, max_size=2) | any_json,
        })
        return st.fixed_dictionaries({
            "variables": st.just(list(variables)) | any_json,
            "terms": st.lists(term | any_json, max_size=2) | any_json,
        }) | any_json

    group = record("x", "g")
    return {
        "group-mul": ((), st.fixed_dictionaries({"p": group, "q": group})),
        "adjoint": ((), st.fixed_dictionaries({"element": group, "point": record("b", "a")})),
        "coadjoint": ((), st.fixed_dictionaries({"element": group, "point": record("c", "a")})),
        "normal-form": ((), st.fixed_dictionaries({"point": record("c", "a")})),
        "invariants": ((), st.fixed_dictionaries({"point": record("c", "a")})),
        "regularity": (("--n", "2", "--lambdas", "1"), st.fixed_dictionaries(
            {"points": st.lists(record("c", "a", matrix=square(2) | matrix), max_size=2)
             | any_json})),
        "pbw": (("--n", "1"), st.fixed_dictionaries(
            {"word": st.lists(st.integers(-1, 2), max_size=3) | any_json},
            optional={"coefficient": st.lists(rational, max_size=2) | any_json})),
        "sym": (("--n", "1"), st.fixed_dictionaries(
            {"polynomial": polynomial(["xa11", "xb11"])})),
        "star": (("--n", "2", "--lambdas", "1", "--deg", "4"), st.fixed_dictionaries(
            {"f": polynomial(STAR_N2_VARIABLES), "g": polynomial(STAR_N2_VARIABLES)})),
    }


VERBS_WITH_INPUT = sorted(verb for verb, (_, reads) in VERBS.items() if "--input" in reads)


@pytest.mark.parametrize("verb", VERBS_WITH_INPUT)
def test_arbitrary_json_input_keeps_the_exit_code_contract(verb):
    # every document gives exit 0, 1 or 2 and exactly one JSON document on
    # stdout; an exception escaping main fails the example
    import contextlib
    import io
    import warnings
    from datetime import timedelta
    from unittest import mock

    from hypothesis import HealthCheck, given, settings

    argv, requests = _verb_inputs()[verb]

    @settings(max_examples=60, deadline=timedelta(seconds=5),
              suppress_health_check=[HealthCheck.too_slow])
    @given(requests | _json_values())
    def run(request):
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(json.dumps(request))), \
                contextlib.redirect_stdout(out), warnings.catch_warnings():
            # numpy warns on overflow before the normal form refuses the point
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([verb, *argv, "--input", "-"])
        assert code in (0, 1, 2)
        json.loads(out.getvalue())

    run()
