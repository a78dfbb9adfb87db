"""End-to-end tests of the command-line entry point (exit codes and JSON
payloads, no subprocesses)."""

import json

import numpy as np
import pytest

from _support import refuse, scalar_fixture, wrong_beyond_degree
from liftkit import cli
from liftkit.cli import main
from liftkit.hardy import PolyOpFn
from liftkit.linalg import Subspace
from liftkit.lifting import InterpolationProblem
from liftkit.serialize import (MAX_DEGREE, MAX_ENTRIES, dumps, load, poly_from_json,
                               poly_to_json, problem_to_json)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def coefficient_record(record: dict) -> dict:
    """The coefficient record of the H that a solve record encodes."""
    H = poly_from_json(record, "H")
    return poly_to_json(PolyOpFn(H.out_dim, H.in_dim, H.coeffs))


def one_line_usage_error(capsys, *argv) -> str:
    """stderr of a run that must exit 1 with one error line and no usage text."""
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1
    assert out.err.startswith("error: ")
    assert "usage:" not in out.err
    return out.err


def test_no_arguments_is_usage_error(capsys):
    code, _ = run(capsys, )
    assert code == 1


def test_bad_dims_is_usage_error(capsys):
    one_line_usage_error(capsys, "--cmd", "gen", "--dims", "1,2")
    one_line_usage_error(capsys, "--cmd", "gen", "--dims", "1,1,2")


def test_small_degree_is_usage_error(capsys):
    err = one_line_usage_error(capsys, "--cmd", "solve", "--degree", "3")
    assert err == "error: --degree must be at least 4\n"


@pytest.mark.parametrize("degree", [MAX_DEGREE + 1, 10 ** 15])
def test_large_degree_is_usage_error(capsys, degree):
    # a degree past the bound of a record's degree would exhaust memory
    err = one_line_usage_error(capsys, "--cmd", "solve", "--degree", str(degree))
    assert err == f"error: --degree must be at most {MAX_DEGREE}\n"


@pytest.mark.parametrize("dims", ["100000,100000,1", "1024,1,0", "0,1025,0"])
def test_large_dims_is_usage_error(capsys, monkeypatch, dims):
    # (U + Y)^2 past the bound of a record's entries would exhaust memory;
    # the error comes before any input is generated
    refuse(monkeypatch, cli, "random_problem", "random_data_set")
    for cmd in ("gen", "rcl"):
        err = one_line_usage_error(capsys, "--cmd", cmd, "--dims", dims)
        assert err == f"error: --dims requires (U + Y)^2 <= {MAX_ENTRIES}\n"


@pytest.mark.parametrize("argv,message", [
    ((), "the following arguments are required: --cmd"),
    (("--cmd", "nope"), "argument --cmd: invalid choice: 'nope'"),
    (("--cmd", "solve", "--degree", "abc"), "argument --degree: invalid int value: 'abc'"),
    (("--cmd", "gen", "--bogus"), "unrecognized arguments: --bogus"),
])
def test_argparse_errors_are_one_line_usage_errors(capsys, argv, message):
    assert message in one_line_usage_error(capsys, *argv)


def test_gen_is_deterministic(capsys):
    code, out = run(capsys, "--cmd", "gen", "--seed", "11")
    assert code == 0
    code2, out2 = run(capsys, "--cmd", "gen", "--seed", "11")
    assert code2 == 0
    assert out.out == out2.out
    payload = json.loads(out.out)
    assert payload["schema"] == "liftkit/1"
    assert payload["ok"] is True
    assert "problem" in payload and "Z" in payload


def test_gen_solve_verify_chain(tmp_path, capsys):
    g = str(tmp_path / "gen.json")
    s = str(tmp_path / "solve.json")
    assert run(capsys, "--cmd", "gen", "--seed", "5", "--out", g)[0] == 0
    assert run(capsys, "--cmd", "solve", "--in", g, "--out", s)[0] == 0
    solved = load(s)
    assert solved["ok"] is True
    assert solved["failures"] == []
    assert solved["report"]["recurrence_residual"] <= 1e-9
    # solve output carries problem and H, which is exactly verify's input
    code, out = run(capsys, "--cmd", "verify", "--in", s)
    assert code == 0
    assert json.loads(out.out)["ok"] is True


def test_verify_rejects_tampered_solution(tmp_path, capsys):
    g = str(tmp_path / "gen.json")
    s = str(tmp_path / "solve.json")
    run(capsys, "--cmd", "gen", "--seed", "5", "--out", g)
    run(capsys, "--cmd", "solve", "--in", g, "--out", s)
    solved = load(s)
    solved["H"] = coefficient_record(solved["H"])
    solved["H"]["coeffs"][0]["re"][0] += 0.05
    bad = tmp_path / "tampered.json"
    bad.write_text(dumps(solved))
    code, out = run(capsys, "--cmd", "verify", "--in", str(bad))
    assert code == 2
    payload = json.loads(out.out)
    assert payload["ok"] is False
    assert any("recurrence_residual" in msg for msg in payload["failures"])


def test_verify_rejects_a_tampered_realization(tmp_path, capsys):
    # solve writes H as its closed loop; D is H_0
    s = tmp_path / "solve.json"
    assert run(capsys, "--cmd", "solve", "--seed", "5", "--out", str(s))[0] == 0
    solved = load(str(s))
    assert "coeffs" not in solved["H"]
    solved["H"]["realization"]["D"]["re"][0] += 0.05
    s.write_text(dumps(solved))
    code, out = run(capsys, "--cmd", "verify", "--in", str(s))
    assert code == 2
    assert_canonical_json(out.out)
    payload = json.loads(out.out)
    assert payload["ok"] is False
    assert any("recurrence_residual" in msg for msg in payload["failures"])


def test_verify_rejects_a_realization_wrong_only_beyond_its_degree(tmp_path, capsys):
    # H's loop plus a shift register that changes degree N + 2 only: the
    # coefficients verify reads at a coefficient record's degree are H's
    s = tmp_path / "solve.json"
    assert run(capsys, "--cmd", "solve", "--seed", "5", "--out", str(s))[0] == 0
    solved = load(str(s))
    solved["H"] = poly_to_json(wrong_beyond_degree(poly_from_json(solved["H"], "H"), 24, 1e-3))
    assert "realization" in solved["H"]
    s.write_text(dumps(solved))
    code, out = run(capsys, "--cmd", "verify", "--in", str(s))
    assert code == 2
    assert any("recurrence_residual" in msg for msg in json.loads(out.out)["failures"])
    solved["H"] = coefficient_record(solved["H"])
    s.write_text(dumps(solved))
    assert run(capsys, "--cmd", "verify", "--in", str(s))[0] == 0


def test_solve_scalar_fixture_from_file(tmp_path, capsys):
    inp = tmp_path / "fixture.json"
    inp.write_text(dumps({"problem": problem_to_json(scalar_fixture())}))
    code, out = run(capsys, "--cmd", "solve", "--in", str(inp))
    assert code == 0
    payload = json.loads(out.out)
    payload["H"] = coefficient_record(payload["H"])
    coeffs = payload["H"]["coeffs"]
    worst = max(abs(coeffs[n]["re"][0] - 0.6 * 0.8 ** n)
                for n in range(len(coeffs)))
    assert worst < 1e-12


def test_verify_requires_input(capsys):
    code, out = run(capsys, "--cmd", "verify")
    assert code == 1
    assert "error" in out.err


def test_expansive_problem_is_a_numeric_error(tmp_path, capsys):
    p = InterpolationProblem(U_dim=1, Y_dim=1, F=Subspace(1, np.eye(1)),
                             omega1=np.array([[0.6]]),
                             omega2=np.array([[0.6]]))
    d = problem_to_json(p)
    # blow up omega past the contraction bound in the raw record
    d["omega1"]["re"][0] = 1.2
    inp = tmp_path / "expansive.json"
    inp.write_text(dumps({"problem": d}))
    code, out = run(capsys, "--cmd", "solve", "--in", str(inp))
    assert code == 3
    payload = json.loads(out.out)
    assert payload["ok"] is False
    assert "NotAContraction" in payload["error"]


def test_fiber_command(capsys):
    code, out = run(capsys, "--cmd", "fiber", "--seed", "2")
    assert code == 0
    payload = json.loads(out.out)
    assert payload["roundtrip_residual"] <= 1e-7
    assert payload["constraint_residual"] <= 1e-8
    assert payload["w0_residual"] <= 1e-10


@pytest.mark.parametrize("dims", ["1,1,1", "2,2,1", "3,2,2", "8,8,4"])
@pytest.mark.parametrize("degree", [4, 8, 12])
@pytest.mark.parametrize("seed", range(4))
def test_fiber_command_meets_the_constraint_at_low_degree(capsys, dims, degree, seed):
    # Z_C is built from the Gram of H's exact column and W's first sums run
    # over every degree of the realized H, so Z_C meets the constraint where
    # the truncated column and the sums over the retained degrees missed it
    code, out = run(capsys, "--cmd", "fiber", "--seed", str(seed), "--degree", str(degree),
                    "--dims", dims)
    assert code == 0
    payload = json.loads(out.out)
    assert payload["ok"] is True
    assert payload["constraint_residual"] <= 1e-8


def test_rcl_command(capsys):
    code, out = run(capsys, "--cmd", "rcl", "--seed", "3")
    assert code == 0
    payload = json.loads(out.out)
    assert payload["valid"] is True
    assert payload["projection_residual"] <= 1e-10
    assert payload["intertwining_residual"] <= 1e-8


def test_modelspace_command(capsys):
    code, out = run(capsys, "--cmd", "modelspace", "--seed", "4")
    assert code == 0
    payload = json.loads(out.out)
    assert payload["mult_norm"] <= 1.0 + 1e-8
    assert payload["roundtrip_residual"] <= 1e-6
    assert payload["model_dim"] >= 1


def test_selftest_passes(capsys):
    code, out = run(capsys, "--cmd", "selftest", "--seed", "7")
    assert code == 0
    payload = json.loads(out.out)
    assert payload["ok"] is True
    for name, suite in payload["suites"].items():
        assert suite["pass"], name


def test_out_file_is_parseable(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    code, _ = run(capsys, "--cmd", "selftest", "--seed", "7", "--degree", "12",
                  "--out", path)
    assert code == 0
    assert load(path)["ok"] is True


def _malformed_verify(tmp_path, capsys, payload):
    inp = tmp_path / "malformed.json"
    inp.write_text(json.dumps(payload))
    code, out = run(capsys, "--cmd", "verify", "--in", str(inp))
    assert code == 1
    assert "Traceback" not in out.err
    assert len(out.err.strip().splitlines()) == 1
    return out.err


def test_verify_missing_field_is_a_one_line_usage_error(tmp_path, capsys):
    err = _malformed_verify(tmp_path, capsys, {"problem": {}})
    assert "problem.U: missing" in err


def test_verify_non_finite_entry_is_a_one_line_usage_error(tmp_path, capsys):
    d = problem_to_json(scalar_fixture())
    d["omega1"]["re"][0] = float("nan")
    err = _malformed_verify(tmp_path, capsys, {"problem": d, "H": {}})
    assert "problem.omega1: non-finite entry" in err


def assert_canonical_json(text):
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ("--cmd", "gen", "--seed", "3"),
    ("--cmd", "solve", "--seed", "3", "--dims", "3,2,2"),
    ("--cmd", "fiber", "--seed", "2"),
    ("--cmd", "rcl", "--seed", "3"),
    ("--cmd", "modelspace", "--seed", "4"),
    ("--cmd", "selftest", "--seed", "7", "--degree", "12"),
])
def test_command_output_is_byte_identical_to_json(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert_canonical_json(out.out)


def test_chain_files_and_error_envelopes_are_byte_identical_to_json(tmp_path, capsys):
    g, s = tmp_path / "gen.json", tmp_path / "solve.json"
    assert run(capsys, "--cmd", "gen", "--seed", "5", "--out", str(g))[0] == 0
    assert run(capsys, "--cmd", "solve", "--in", str(g), "--out", str(s))[0] == 0
    assert_canonical_json(g.read_text())
    assert_canonical_json(s.read_text())
    code, out = run(capsys, "--cmd", "verify", "--in", str(s))
    assert code == 0
    assert_canonical_json(out.out)
    solved = load(str(s))
    solved["H"] = coefficient_record(solved["H"])
    solved["H"]["coeffs"][0]["re"][0] += 0.05
    s.write_text(dumps(solved))
    code, out = run(capsys, "--cmd", "verify", "--in", str(s))
    assert code == 2
    assert_canonical_json(out.out)
    d = problem_to_json(scalar_fixture())
    d["omega1"]["re"][0] = 1.2
    s.write_text(dumps({"problem": d}))
    code, out = run(capsys, "--cmd", "solve", "--in", str(s))
    assert code == 3
    assert_canonical_json(out.out)


def test_foreign_schema_tag_is_a_one_line_usage_error(tmp_path, capsys):
    payload = {"schema": "liftkit/9",
               "problem": problem_to_json(scalar_fixture())}
    err = _malformed_verify(tmp_path, capsys, payload)
    assert err == 'error: schema: expected "liftkit/1", got "liftkit/9"\n'
    inp = tmp_path / "foreign.json"
    inp.write_text(json.dumps(payload))
    code, out = run(capsys, "--cmd", "solve", "--in", str(inp))
    assert code == 1
    assert out.out == ""


@pytest.mark.parametrize("argv", [
    ("--cmd", "solve", "--tol-verify", "nan", "--tol-contract", "nan"),
    ("--cmd", "solve", "--tol-contract", "nan"),
    ("--cmd", "selftest", "--tol-verify", "nan"),
    ("--cmd", "solve", "--tol-verify", "inf"),
    ("--cmd", "fiber", "--tol-contract=-inf"),
    ("--cmd", "solve", "--tol-contract", "0"),
])
def test_non_finite_or_nonpositive_tolerance_is_a_one_line_usage_error(capsys, argv):
    # the acceptance thresholds are constants, so every tolerance flag,
    # whatever its value, is an unknown argument
    err = one_line_usage_error(capsys, *argv)
    assert err.startswith("error: unrecognized arguments: --tol-")


@pytest.mark.filterwarnings("error")
def test_verify_of_an_overflowing_H_is_a_numeric_error(tmp_path, capsys):
    s = tmp_path / "solve.json"
    assert run(capsys, "--cmd", "solve", "--seed", "1", "--out", str(s))[0] == 0
    solved = load(str(s))
    solved["H"] = coefficient_record(solved["H"])
    for c in solved["H"]["coeffs"]:
        c["re"] = [(-1.0) ** i * 1e308 for i in range(len(c["re"]))]
    s.write_text(dumps(solved))
    code, out = run(capsys, "--cmd", "verify", "--in", str(s))
    assert code == 3
    assert out.err == ""
    payload = json.loads(out.out)
    assert payload["ok"] is False
    assert payload["error"].startswith("NonFiniteResult: ")
    assert len(payload["error"].splitlines()) == 1


def test_envelope_degree_is_the_degree_the_command_ran_at(tmp_path, capsys):
    s = tmp_path / "solve.json"
    assert run(capsys, "--cmd", "solve", "--seed", "1", "--degree", "40",
               "--out", str(s))[0] == 0
    code, out = run(capsys, "--cmd", "verify", "--in", str(s))
    assert code == 0
    payload = json.loads(out.out)
    assert payload["degree"] == payload["report"]["degree"] == 40
    # modelspace runs at no less than degree 32
    for degree, used in (("24", 32), ("40", 40)):
        code, out = run(capsys, "--cmd", "modelspace", "--seed", "1",
                        "--degree", degree)
        assert code == 0
        assert json.loads(out.out)["degree"] == used


@pytest.mark.parametrize("argv", [
    ("--cmd", "gen", "--seed", "-1"),
    ("--cmd", "modelspace", "--seed", "-5"),
    ("--cmd", "selftest", "--seed", "-300"),
])
def test_negative_seed_is_a_one_line_usage_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1
    assert out.err.startswith("error: --seed")
    assert "Traceback" not in out.err


def _zero_map(rows: int, cols: int) -> dict:
    return {"rows": rows, "cols": cols, "re": [0.0] * (rows * cols),
            "im": [0.0] * (rows * cols)}


@pytest.mark.parametrize("cmd", ["gen", "solve", "fiber"])
def test_z_of_another_problem_is_a_one_line_usage_error(tmp_path, capsys, cmd):
    # a valid colligation from C^3 into C^4, for a problem on U = Y = C^2
    g = tmp_path / "gen.json"
    assert run(capsys, "--cmd", "gen", "--seed", "1", "--out", str(g))[0] == 0
    payload = load(str(g))
    payload["Z"] = {"A": _zero_map(0, 0), "B": _zero_map(0, 3),
                    "C": _zero_map(4, 0), "D": _zero_map(4, 3)}
    g.write_text(dumps(payload))
    err = one_line_usage_error(capsys, "--cmd", cmd, "--in", str(g))
    assert err == "error: Z: must map C^2 into C^4, got 4 x 3\n"


# edits of the Z record of `gen --seed 1` (state 2, U = Y = 2) whose
# matrices do not chain, and the error line each must give
@pytest.mark.parametrize("edit,message", [
    ({"A": _zero_map(2, 3)}, "Z: A is 2 x 3, expected 2 x 2"),
    ({"B": _zero_map(3, 2)}, "Z: B is 3 x 2, expected 2 x 2"),
    ({"C": _zero_map(4, 3)}, "Z: C is 4 x 3, expected 4 x 2"),
])
def test_a_z_record_that_does_not_chain_is_a_one_line_usage_error(tmp_path, capsys, edit,
                                                                  message):
    g = tmp_path / "gen.json"
    assert run(capsys, "--cmd", "gen", "--seed", "1", "--out", str(g))[0] == 0
    payload = load(str(g))
    payload["Z"].update(edit)
    g.write_text(dumps(payload))
    err = one_line_usage_error(capsys, "--cmd", "solve", "--in", str(g))
    assert err == f"error: {message}\n"


def test_h_of_another_problem_is_a_one_line_usage_error(tmp_path, capsys):
    s = tmp_path / "solve.json"
    assert run(capsys, "--cmd", "solve", "--seed", "1", "--out", str(s))[0] == 0
    solved = load(str(s))
    solved["H"] = coefficient_record(solved["H"])
    for c in solved["H"]["coeffs"]:
        # keep the first row of every coefficient
        c["rows"], c["re"], c["im"] = 1, c["re"][:c["cols"]], c["im"][:c["cols"]]
    solved["H"]["out"] = 1
    s.write_text(dumps(solved))
    err = one_line_usage_error(capsys, "--cmd", "verify", "--in", str(s))
    assert err == "error: H: must map C^2 into C^2, got 1 x 2\n"


def test_selftest_reports_the_degree_each_suite_ran_at(capsys):
    for degree, modelspace in ((12, 32), (28, 32)):
        code, out = run(capsys, "--cmd", "selftest", "--seed", "1", "--degree", str(degree))
        assert code == 0
        payload = json.loads(out.out)
        assert payload["degree"] == degree
        ran = {name: suite["degree"] for name, suite in payload["suites"].items()}
        assert ran == {"scalar_fixture": degree, "solve_recurrence": degree,
                       "solve_gram_excess": degree, "fiber_roundtrip": degree,
                       "omega_roundtrip": degree, "rcl_equivalence": degree,
                       "modelspace_decomposition": modelspace,
                       "modelspace_roundtrip": modelspace, "tilde_validates": degree}


def _diagonal(n: int, value: float) -> dict:
    return {"rows": n, "cols": n, "re": [value if i % (n + 1) == 0 else 0.0
                                         for i in range(n * n)], "im": [0.0] * (n * n)}


# edits of the realization record of `solve --seed 1` (state 4, U = Y = 2,
# degree 24) and the error line each must give
@pytest.mark.parametrize("edit,message", [
    ({"degree": -1}, f"H.degree: -1 is not in 0..{MAX_DEGREE}"),
    ({"degree": 2.5}, "H.degree: expected an integer"),
    ({"degree": "24"}, "H.degree: expected an integer"),
    ({"degree": MAX_DEGREE + 1}, f"H.degree: {MAX_DEGREE + 1} is not in 0..{MAX_DEGREE}"),
    ({"degree": 10 ** 7}, f"H.degree: 10000000 is not in 0..{MAX_DEGREE}"),
    ({"degree": 10 ** 9}, f"H.degree: 1000000000 is not in 0..{MAX_DEGREE}"),
    ({"A": _zero_map(4, 3)}, "H.realization: A is 4 x 3, expected 4 x 4"),
    ({"B": _zero_map(3, 2)}, "H.realization: B is 3 x 2, expected 4 x 2"),
    ({"C": _zero_map(2, 3)}, "H.realization: C is 2 x 3, expected 2 x 4"),
    ({"D": _zero_map(2, 3)}, "H.realization.D: expected 2 x 2, got 2 x 3"),
    ({"D": _zero_map(1, 2)}, "H.realization.D: expected 2 x 2, got 1 x 2"),
    # A^2 overflows, so C A^2 B, the coefficient of degree 3, is not finite
    ({"A": _diagonal(4, 1e300)}, "H.realization: matrix has non-finite entries"),
    # a record of a few kB whose stack would take hundreds of MB
    ({"degree": MAX_DEGREE, "in": 100, "B": _zero_map(4, 100), "D": _zero_map(2, 100)},
     f"H.realization: its stack needs {(MAX_DEGREE + 1) * 4 * 100} entries, "
     f"above {MAX_ENTRIES}"),
])
@pytest.mark.filterwarnings("error")
def test_a_bad_realization_record_is_a_one_line_usage_error(tmp_path, capsys, edit, message):
    s = tmp_path / "solve.json"
    assert run(capsys, "--cmd", "solve", "--seed", "1", "--out", str(s))[0] == 0
    solved = load(str(s))
    for key, value in edit.items():
        (solved["H"] if key in ("degree", "in") else solved["H"]["realization"])[key] = value
    s.write_text(dumps(solved))
    err = one_line_usage_error(capsys, "--cmd", "verify", "--in", str(s))
    assert err == f"error: {message}\n"
