"""JSON encoding of the operator types; schema tag "liftkit/1".

Matrices are {"rows", "cols", "re", "im"} with row-major coefficient
lists, so files are diffable and independent of numpy.  Encoders return
plain dicts; write them with dumps for byte-stable output.  Decoders take
the JSON path of their record and raise ConfigError naming the path of the
first bad field, for example
``problem.omega1: non-finite entry``.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .hardy import PolyOpFn
from .lifting import InterpolationProblem
from .linalg import Subspace, as_operator
from .rcl import RclDataSet
from .schur import SchurRealization

SCHEMA = "liftkit/1"
# limits of a realization record: its degree, and the entries of the largest
# array that decoding it allocates (see _stack_entries); a realized
# polynomial above either is written as coefficients
MAX_DEGREE = 4096
MAX_ENTRIES = 1 << 20


def field(d, key: str, path: str = ""):
    """d[key] for a decoded JSON object d found at path.

    Raises ConfigError naming the JSON path, for example
    ``problem.U: missing``, when d is not an object or lacks key.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'input'}: expected an object, "
                          f"got {type(d).__name__}")
    if key not in d:
        raise ConfigError(f"{_at(path, key)}: missing")
    return d[key]


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _int(d, key: str, path: str) -> int:
    try:
        # unlike int(), this refuses 2.5 and "3"
        return operator.index(field(d, key, path))
    except TypeError as exc:
        raise ConfigError(f"{_at(path, key)}: expected an integer") from exc


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with shape and value errors as ConfigError at path."""
    try:
        return make(*args, **kwargs)
    except (DimensionMismatch, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def matrix_to_json(M) -> dict:
    A = as_operator(M)
    return {"rows": A.shape[0], "cols": A.shape[1],
            "re": A.real.ravel().tolist(), "im": A.imag.ravel().tolist()}


def matrix_from_json(d: dict, path: str = "matrix") -> np.ndarray:
    rows, cols = _int(d, "rows", path), _int(d, "cols", path)
    if rows < 0 or cols < 0:
        raise ConfigError(f"{path}: negative shape {rows} x {cols}")
    try:
        re = np.asarray(field(d, "re", path), dtype=np.float64).reshape(rows, cols)
        im = np.asarray(field(d, "im", path), dtype=np.float64).reshape(rows, cols)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed matrix record: {exc}") from exc
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ConfigError(f"{path}: non-finite entry")
    return re + 1j * im


def subspace_to_json(s: Subspace) -> dict:
    return {"ambient": s.ambient_dim, "basis": matrix_to_json(s.basis)}


def subspace_from_json(d: dict, path: str = "subspace") -> Subspace:
    return _build(path, Subspace, _int(d, "ambient", path),
                  matrix_from_json(field(d, "basis", path), _at(path, "basis")))


def _stack_entries(N: int, n: int, out: int, inn: int) -> int:
    """Size of the largest array realization_stack makes for a degree-N loop of state n."""
    return (N + 1) * max(n, out) * inn


def poly_to_json(p: PolyOpFn) -> dict:
    """A realized p within the limits as its loop, any other as its coefficients."""
    loop = p.realization
    if loop is not None and p.degree <= MAX_DEGREE and _stack_entries(
            p.degree, len(loop[0]), p.out_dim, p.in_dim) <= MAX_ENTRIES:
        return {"out": p.out_dim, "in": p.in_dim, "degree": p.degree,
                "realization": dict(zip("ABCD", map(matrix_to_json, loop)))}
    return {"out": p.out_dim, "in": p.in_dim,
            "coeffs": [matrix_to_json(c) for c in p.coeffs]}


def poly_from_json(d: dict, path: str = "poly") -> PolyOpFn:
    """Either record of poly_to_json, a loop rebuilt by PolyOpFn.truncated."""
    if isinstance(d, dict) and "realization" in d:
        return _realized_poly(d, path)
    raw = field(d, "coeffs", path)
    if not isinstance(raw, list):
        raise ConfigError(f"{_at(path, 'coeffs')}: expected a list")
    coeffs = tuple(matrix_from_json(c, f"{path}.coeffs[{n}]") for n, c in enumerate(raw))
    return _build(path, PolyOpFn, _int(d, "out", path), _int(d, "in", path), coeffs)


def _realized_poly(d: dict, path: str) -> PolyOpFn:
    N = _int(d, "degree", path)
    # checked before the matrices are read: the record asks for N + 1 coefficients
    if not 0 <= N <= MAX_DEGREE:
        raise ConfigError(f"{_at(path, 'degree')}: {N} is not in 0..{MAX_DEGREE}")
    out, inn = _int(d, "out", path), _int(d, "in", path)
    at = _at(path, "realization")
    loop = _matrices(field(d, "realization", path), "ABCD", at)
    if loop[3].shape != (out, inn):
        raise ConfigError(f"{at}.D: expected {out} x {inn}, got %d x %d" % loop[3].shape)
    # a stack far larger than the record is refused before it is built
    size = _stack_entries(N, len(loop[0]), out, inn)
    if size > MAX_ENTRIES:
        raise ConfigError(f"{at}: its stack needs {size} entries, above {MAX_ENTRIES}")
    return _build(at, PolyOpFn.truncated, *loop, N)


def schur_to_json(s: SchurRealization) -> dict:
    return {"A": matrix_to_json(s.A), "B": matrix_to_json(s.B),
            "C": matrix_to_json(s.C), "D": matrix_to_json(s.D)}


def _matrices(d: dict, keys, path: str) -> list:
    return [matrix_from_json(field(d, k, path), _at(path, k)) for k in keys]


def schur_from_json(d: dict, path: str = "schur") -> SchurRealization:
    return _build(path, SchurRealization, *_matrices(d, "ABCD", path))


def problem_to_json(p: InterpolationProblem) -> dict:
    return {"U": p.U_dim, "Y": p.Y_dim, "F": subspace_to_json(p.F),
            "omega1": matrix_to_json(p.omega1),
            "omega2": matrix_to_json(p.omega2)}


def problem_from_json(d: dict, path: str = "problem") -> InterpolationProblem:
    u, y = _int(d, "U", path), _int(d, "Y", path)
    F = subspace_from_json(field(d, "F", path), _at(path, "F"))
    om1, om2 = _matrices(d, ("omega1", "omega2"), path)
    return _build(path, InterpolationProblem, U_dim=u, Y_dim=y, F=F,
                  omega1=om1, omega2=om2)


def dataset_to_json(ds: RclDataSet) -> dict:
    return {"A": matrix_to_json(ds.A), "Tprime": matrix_to_json(ds.Tprime),
            "R": matrix_to_json(ds.R), "Q": matrix_to_json(ds.Q)}


def dataset_from_json(d: dict, path: str = "dataset") -> RclDataSet:
    return _build(path, RclDataSet,
                  *_matrices(d, ("A", "Tprime", "R", "Q"), path))


# element types of the lists that dumps hands to the C encoder whole
_PLAIN_NUMBERS = frozenset({float, int})
# the string encoder json uses for keys and values with ensure_ascii
_json_string = json.encoder.encode_basestring_ascii


def dumps(payload: dict) -> str:
    """Deterministic serialization used for every file the tools write.

    Byte-identical to json.dumps(payload, sort_keys=True, indent=2) + "\n",
    which runs CPython's pure-Python encoder one token at a time because
    of the indent.  Here dicts and lists are laid out directly and every
    list of plain numbers goes to the C encoder in one call.
    """
    return _dumps(payload, "\n") + "\n"


def _dumps(v, nl: str) -> str:
    """v as json.dumps(v, sort_keys=True, indent=2), nested at line start nl."""
    inner = nl + "  "
    if type(v) is dict and v and all(type(k) is str for k in v):
        return ("{" + inner + ("," + inner).join(
            _json_string(k) + ": " + _dumps(v[k], inner) for k in sorted(v))
            + nl + "}")
    if type(v) is list and v:
        if set(map(type, v)) <= _PLAIN_NUMBERS:
            # the C encoder separates items by ", ", which no number contains
            return "[" + inner + json.dumps(v)[1:-1].replace(", ", "," + inner) + nl + "]"
        return "[" + inner + ("," + inner).join(_dumps(x, inner) for x in v) + nl + "]"
    if type(v) is int:
        return repr(v)
    if isinstance(v, (dict, list, tuple)):
        # JSON strings hold no raw newline, so re-indenting the lines is exact
        return json.dumps(v, sort_keys=True, indent=2).replace("\n", nl)
    # a scalar is spelled the same with and without indent
    return json.dumps(v)


def save(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(payload))


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
