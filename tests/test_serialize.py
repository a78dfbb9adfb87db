import json

import numpy as np
import pytest

from _support import DIMS, scalar_fixture
from liftkit.errors import ConfigError
from liftkit.hardy import GRID, PolyOpFn
from liftkit.lifting import random_constrained_z, random_problem, solve_from_Z
from liftkit.linalg import Subspace, operator_norm
from liftkit.modelspace import h_from_Z_theta, random_inner
from liftkit.rcl import random_data_set
from liftkit import serialize
from liftkit.schur import random_schur
from liftkit.serialize import (MAX_DEGREE, SCHEMA, dataset_from_json, dataset_to_json,
                               dumps, load, matrix_from_json, matrix_to_json,
                               poly_from_json, poly_to_json,
                               problem_from_json, problem_to_json, save,
                               schur_from_json, schur_to_json,
                               subspace_from_json, subspace_to_json)


def test_schema_tag():
    assert SCHEMA == "liftkit/1"


def test_matrix_roundtrip_complex():
    M = np.array([[1.0 + 2.0j, -0.5], [0.0, 3.25j]])
    back = matrix_from_json(matrix_to_json(M))
    assert np.array_equal(back, M)


def test_matrix_roundtrip_empty():
    M = np.zeros((0, 3))
    back = matrix_from_json(matrix_to_json(M))
    assert back.shape == (0, 3)


def test_matrix_malformed():
    with pytest.raises(ConfigError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
    with pytest.raises(ConfigError):
        matrix_from_json({"cols": 2, "re": [], "im": []})


def test_subspace_roundtrip():
    s = Subspace(3, np.eye(3, 2))
    back = subspace_from_json(subspace_to_json(s))
    assert back.ambient_dim == 3
    assert np.array_equal(back.basis, s.basis)


def test_poly_roundtrip():
    p = PolyOpFn(2, 1, (np.array([[1.0], [0.0]]), np.array([[0.0], [2.0 - 1j]])))
    back = poly_from_json(poly_to_json(p))
    assert back.out_dim == 2 and back.in_dim == 1 and back.degree == 1
    for n in range(2):
        assert np.array_equal(back.coeff(n), p.coeff(n))


def _through_json(H) -> PolyOpFn:
    """H encoded, written by dumps, parsed by json and decoded."""
    return poly_from_json(json.loads(dumps({"H": poly_to_json(H)}))["H"], "H")


def _solved(u, y, f, N):
    p = random_problem(u, y, f, seed=u + 10 * y + 100 * f, scale=0.45)
    return p, solve_from_Z(p, random_constrained_z(p, 2, 7, scale=0.5), N)


@pytest.mark.parametrize("dims,N", [(d, 24) for d in DIMS]
                         + [((8, 8, 4), 192), ((24, 24, 12), 192)])
def test_realized_poly_roundtrip_is_bit_identical(dims, N):
    H = _solved(*dims, N)[1]
    back = _through_json(H)
    assert "realization" in poly_to_json(H) and back.realization is not None
    assert (back.out_dim, back.in_dim, back.degree) == (H.out_dim, H.in_dim, N)
    assert np.array_equal(back.taylor_stack(N), H.taylor_stack(N))
    assert np.array_equal(back.eval_many(GRID), H.eval_many(GRID))


def test_multiplier_of_an_inner_function_roundtrips():
    theta = random_inner(3, 2, 2)
    Z = random_schur(2 + theta.in_dim, theta.out_dim, 2, 4, scale=0.5)
    H = h_from_Z_theta(theta, Z, 64)
    back = _through_json(H)
    assert back.realization is not None
    assert np.array_equal(back.taylor_stack(64), H.taylor_stack(64))
    assert np.array_equal(back.eval_many(GRID), H.eval_many(GRID))


def test_solve_record_of_a_realized_H_stays_small():
    # its 193 coefficient matrices took 7.7 MB; the closed loop of state 26
    # takes about 161 kB
    p, H = _solved(24, 24, 12, 192)
    text = dumps({"problem": problem_to_json(p), "H": poly_to_json(H)})
    assert len(text) < 250_000


def test_a_realized_poly_above_the_degree_limit_is_written_as_coefficients():
    one = np.full((1, 1), 0.5)
    H = PolyOpFn.truncated(one, one, one, one, MAX_DEGREE + 1)
    d = poly_to_json(H)
    assert "realization" not in d and len(d["coeffs"]) == MAX_DEGREE + 2
    assert np.array_equal(_through_json(H).taylor_stack(MAX_DEGREE + 1),
                          H.taylor_stack(MAX_DEGREE + 1))


def test_a_realized_poly_above_the_entry_limit_is_written_as_coefficients(monkeypatch):
    monkeypatch.setattr(serialize, "MAX_ENTRIES", 8)
    one = np.full((1, 1), 0.5)
    # degree N of a scalar loop of state 1 asks for N + 1 entries
    assert "realization" in poly_to_json(PolyOpFn.truncated(one, one, one, one, 7))
    H = PolyOpFn.truncated(one, one, one, one, 8)
    assert len(poly_to_json(H)["coeffs"]) == 9
    assert np.array_equal(_through_json(H).taylor_stack(8), H.taylor_stack(8))


def test_schur_roundtrip():
    Z = random_schur(2, 3, 2, seed=5)
    back = schur_from_json(schur_to_json(Z))
    for lam in (0.0, 0.3 + 0.1j):
        assert operator_norm(back.eval(lam) - Z.eval(lam)) == 0.0


def test_problem_roundtrip():
    p = scalar_fixture()
    back = problem_from_json(problem_to_json(p))
    assert (back.U_dim, back.Y_dim, back.F.dim) == (1, 1, 1)
    assert np.array_equal(back.omega, p.omega)
    assert np.array_equal(back.F.basis, p.F.basis)


def test_dataset_roundtrip():
    ds = random_data_set(seed=2)
    back = dataset_from_json(dataset_to_json(ds))
    for name in ("A", "Tprime", "R", "Q"):
        assert np.array_equal(getattr(back, name), getattr(ds, name))


def test_dumps_is_deterministic():
    payload = {"b": 1, "a": {"z": [1, 2], "m": 0.5}}
    s1 = dumps(payload)
    s2 = dumps({"a": {"m": 0.5, "z": [1, 2]}, "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    assert s1.index('"a"') < s1.index('"b"')


def test_save_and_load(tmp_path):
    path = str(tmp_path / "payload.json")
    save(path, {"schema": SCHEMA, "M": matrix_to_json(np.eye(2))})
    d = load(path)
    assert d["schema"] == SCHEMA
    assert np.array_equal(matrix_from_json(d["M"]), np.eye(2))


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError):
        load(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load(str(bad))


@pytest.mark.parametrize("record,message", [
    ({"rows": 1, "cols": 1, "re": [float("inf")], "im": [0.0]},
     "M: non-finite entry"),
    ({"rows": "two", "cols": 1, "re": [], "im": []}, "M.rows: expected an integer"),
    ({"rows": float("inf"), "cols": 1, "re": [], "im": []},
     "M.rows: expected an integer"),
    ({"rows": -1, "cols": 1, "re": [1.0], "im": [0.0]}, "M: negative shape"),
    ([1.0, 2.0], "M: expected an object"),
])
def test_matrix_errors_name_the_json_path(record, message):
    with pytest.raises(ConfigError, match=message):
        matrix_from_json(record, "M")


def test_problem_errors_name_the_json_path():
    d = problem_to_json(scalar_fixture())
    del d["F"]["basis"]["im"]
    with pytest.raises(ConfigError, match=r"^problem\.F\.basis\.im: missing$"):
        problem_from_json(d)
    d = problem_to_json(scalar_fixture())
    d["omega2"] = matrix_to_json(np.zeros((2, 1)))
    # a row-count mismatch is bad input, not a numeric failure
    with pytest.raises(ConfigError, match=r"^problem: expected 1 rows, got 2$"):
        problem_from_json(d)


def test_poly_errors_name_the_coefficient():
    d = poly_to_json(PolyOpFn(1, 1, (np.eye(1), np.eye(1))))
    d["coeffs"][1]["im"] = [float("nan")]
    with pytest.raises(ConfigError, match=r"^H\.coeffs\[1\]: non-finite entry$"):
        poly_from_json(d, "H")


def test_poly_shape_errors_name_the_record():
    d = poly_to_json(PolyOpFn(1, 1, (np.eye(1), np.eye(1))))
    d["coeffs"][1] = matrix_to_json(np.ones((2, 1)))
    with pytest.raises(ConfigError, match=r"^H: expected 1 rows, got 2$"):
        poly_from_json(d, "H")
    d["coeffs"][0] = matrix_to_json(np.ones((2, 1)))
    with pytest.raises(ConfigError, match=r"^H: expected 1 rows, got 2$"):
        poly_from_json(d, "H")


def reference_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _encoder_outputs():
    p = random_problem(3, 2, 2, seed=4)
    H = solve_from_Z(p, random_constrained_z(p, 2, 5), 12)
    return {
        "matrix": matrix_to_json(np.array([[1.0 + 2.0j, -0.5], [0.0, 3.25j]])),
        "empty matrix": matrix_to_json(np.zeros((0, 3))),
        "subspace": subspace_to_json(Subspace(3, np.eye(3, 2))),
        "poly": poly_to_json(H),
        "poly coefficients": poly_to_json(PolyOpFn(H.out_dim, H.in_dim, H.coeffs)),
        "schur": schur_to_json(random_schur(2, 3, 2, seed=5)),
        "problem": problem_to_json(p),
        "unconstrained problem": problem_to_json(random_problem(2, 1, 0, seed=6)),
        "dataset": dataset_to_json(random_data_set(seed=2)),
    }


@pytest.mark.parametrize("name", sorted(_encoder_outputs()))
def test_dumps_is_byte_identical_to_json_on_encoder_output(name):
    d = _encoder_outputs()[name]
    assert dumps(d) == reference_dumps(d)
    assert dumps({"schema": SCHEMA, name: d}) == reference_dumps({"schema": SCHEMA, name: d})


@pytest.mark.parametrize("payload", [
    {"x": [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e300,
           -1e-300, 2 ** 64 + 1, -(2 ** 70), 0, 7]},
    {"nan": float("nan"), "int": 2 ** 80, "neg_zero": -0.0},
    {}, [], {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[], {}]},
    {"deep": [[1.0, 2], [[3.5], {"k": [4, 5.0]}], [[[]]]]},
    {"flags": [1.0, True, 2, False, None], "bools": [True, False], "t": True},
    {"np": np.float64(0.1), "mix": [np.float64(2.5), 1.0, 3]},
    {"text": "caf\u00e9 \u2603 \U0001f600", "\u00fc": ["\u00e9", 1.0], "quote": "a\"b\\c\n"},
    {"b": 1, "a": 2, "B": 3, "_": 4, "aa": 5, "": 6},
    [1.0, [2.0, [3.0]], "s", None],
    {"tuple": (1.0, 2.0), "int keys": {2: "b", 1: [1.0]}},
    "just a string", 1.5, 3, None, True,
])
def test_dumps_is_byte_identical_to_json_on_edge_payloads(payload):
    assert dumps(payload) == reference_dumps(payload)


def test_dumps_rejects_what_json_rejects():
    for bad in ({"x": np.float32(1.0)}, {"x": [np.int64(1)]}, {"x": {1, 2}}):
        with pytest.raises(TypeError):
            reference_dumps(bad)
        with pytest.raises(TypeError):
            dumps(bad)
