"""The public names: what liftkit exports, what the benchmark imports, the
aliases that were removed in favour of one accessor each, the
parameters with defaults that some caller sets, the one module that
makes the numerical guards' decisions, the one place that gives a
polynomial its loop, the library-only use of the constructors that skip
a copy or a check, and the one function that builds every fiber parameter Z_C.

The benchmark's own test (bench/test_smoke.py) is not collected with this
suite, so the benchmark's imports are checked here by parsing its sources,
and its pipelines by running each workload once at its smoke size from
bench/workloads.py, which the run only reads.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import liftkit
from _support import count_calls, scalar_fixture
from liftkit import lifting
from liftkit.hardy import AnalyticFn, PolyOpFn
from liftkit.lifting import InterpolationProblem
from liftkit.linalg import Subspace, contraction_on_generators
from liftkit.modelspace import BlaschkeFactor, InnerFn, ModelSpace
from liftkit.rcl import LiftingCandidate, RclDataSet
from liftkit.schur import SchurRealization

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _liftkit_imports(path: Path):
    """(module, name) for every import of liftkit in one source file.

    name is None for a plain ``import liftkit...``.
    """
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "liftkit"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "liftkit":
                    yield alias.name, None


def test_every_name_the_benchmark_imports_resolves():
    imports = [(path.name, module, name)
               for path in sorted(BENCH.glob("*.py"))
               for module, name in _liftkit_imports(path)]
    assert imports, f"no liftkit imports found under {BENCH}"
    unresolved = []
    for filename, module, name in imports:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        # `from liftkit import serialize` names a submodule
        if importlib.util.find_spec(f"{module}.{name}") is None:
            unresolved.append(f"{filename}: {module}.{name}")
    assert not unresolved


def _bench_module(monkeypatch, name: str):
    """bench/<name>.py, imported without writing bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_pipeline_runs_clean_at_smoke_size(monkeypatch):
    # the pipelines bench/run.py times, one smoke-size pass of each workload
    # with the checks on, so that a library change that breaks a benchmark
    # call fails here
    wl_mod = _bench_module(monkeypatch, "workloads")
    tracer = _bench_module(monkeypatch, "tracing").Tracer(False)
    failures = {}
    for name, wl in wl_mod.WORKLOADS.items():
        ck = wl_mod.Checks()
        for i, inp in enumerate(wl.generate(0, *wl.sizes["smoke"])):
            ck.start(i)
            wl.run(inp, tracer, ck)
        if wl.oracle:
            wl_mod.check_scalar_oracle(wl_mod.scalar_oracle_input(0), ck)
        if ck.failures:
            failures[name] = ck.failures
    assert not failures


def test_every_exported_name_resolves():
    assert len(set(liftkit.__all__)) == len(liftkit.__all__)
    missing = [name for name in liftkit.__all__ if not hasattr(liftkit, name)]
    assert not missing


# the exported names, errors aside, that no library module and no benchmark
# source reads, and why each stays public
UNREFERENCED_EXPORTS = {
    # the lifting -> interpolation direction of the equivalence
    "b_to_gamma",
    # the Schur parameters with Z|_F = omega, for any free part X
    "constrained_completion",
    # the PSD square root that gives a defect operator D_T = (I - T*T)^(1/2)
    "hermitian_sqrt_psd",
    # the constraint datum Omega of the fiber over a solution
    "omega_hat",
    # the fiber test for a C of any type: it only samples C
    "parameter_membership",
}


def test_every_unreferenced_export_has_a_reason_to_stay():
    # a name read by no library module and no benchmark source is public only
    # for the reason given above; any other is dead code or a test helper
    read = set()
    sources = [path for path in sorted((ROOT / "src" / "liftkit").glob("*.py"))
               if path.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    errors = importlib.import_module("liftkit.errors")
    unread = {name for name in liftkit.__all__
              if not hasattr(errors, name) and name not in read}
    assert unread == UNREFERENCED_EXPORTS


@pytest.mark.parametrize("owner,name", [
    (PolyOpFn, "taylor"), (AnalyticFn, "taylor"), (InnerFn, "taylor"),
    (SchurRealization, "taylor"),
    (importlib.import_module("liftkit.schur"), "taylor_coeffs"),
    (importlib.import_module("liftkit.lifting"), "gamma_from_solution"),
    (importlib.import_module("liftkit.hardy"), "shift_and_embed"),
    (liftkit, "taylor_coeffs"), (liftkit, "shift_and_embed"),
    (importlib.import_module("liftkit.linalg"), "is_contraction"),
    (importlib.import_module("liftkit.schur"), "herglotz_eval"),
    (BlaschkeFactor, "scalar_coeff"), (InnerFn, "as_poly"),
    (Subspace, "projector"),
    (liftkit, "is_contraction"), (liftkit, "herglotz_eval"),
    (importlib.import_module("liftkit.hardy"), "analytic_toeplitz"),
    (liftkit, "analytic_toeplitz"),
    (BlaschkeFactor, "projector"), (BlaschkeFactor, "scalar_stack"),
    (BlaschkeFactor, "apply"), (BlaschkeFactor, "kernel_stack"),
    (BlaschkeFactor, "eval_scalar"), (InnerFn, "model_columns"),
    (importlib.import_module("liftkit.serialize"), "inner_to_json"),
    (importlib.import_module("liftkit.serialize"), "inner_from_json"),
    (InnerFn, "_realization"), (importlib.import_module("liftkit.schur"), "_transfer_values"),
    (PolyOpFn, "truncated"), (importlib.import_module("liftkit.linalg"), "observability_gramian"),
    (InnerFn, "phi_poly"), (LiftingCandidate, "stacked"),
    (importlib.import_module("liftkit.schur"), "herglotz_many"),
    (importlib.import_module("liftkit.rcl"), "sns_lifting"),
    (liftkit, "herglotz_many"), (liftkit, "sns_lifting"),
    (InnerFn, "coeff"), (importlib.import_module("liftkit.modelspace"), "theta_shift"),
    (liftkit, "theta_shift"),
])
def test_removed_aliases_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in liftkit.__all__


IDENTITY_CASES = [
    (PolyOpFn, lambda: PolyOpFn(2, 2, [np.eye(2)])),
    (InterpolationProblem, scalar_fixture),
    (Subspace, lambda: Subspace(2, np.eye(2))),
    (BlaschkeFactor, lambda: BlaschkeFactor(a=0.5, w=np.array([1.0, 0.0]))),
    (ModelSpace, lambda: liftkit.model_space(liftkit.InnerFn(1, 1), 8)),
    (RclDataSet, lambda: liftkit.random_data_set(0)),
    (LiftingCandidate, lambda: liftkit.gamma_to_B(
        liftkit.data_set_from_omega(scalar_fixture()), np.array([[0.6]]), 0)),
]


@pytest.mark.parametrize("cls, make", IDENTITY_CASES, ids=[c.__name__ for c, _ in IDENTITY_CASES])
def test_library_values_compare_and_hash_by_identity(cls, make):
    # a field-wise == on array fields raised, and so did hash, so even `in` failed
    a, b = make(), make()
    assert type(a) is cls and type(b) is cls
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    assert a in [b, a] and a not in [b]


def _defaults(where: str, call: str, fn: ast.FunctionDef, skip: int):
    """(where, call, parameter, position) for each parameter of fn with a default.

    The position counts the call's positional arguments, so a method skips
    self; it is None for keyword-only parameters.
    """
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    for i, arg in enumerate(pos[first:], first):
        yield where, call, arg.arg, i - skip
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield where, call, arg.arg, None


def _knobs():
    """Every parameter with a default in src/liftkit.

    A class's __init__ is called by the class name, and so is the
    generated __init__ whose keywords are the fields with defaults.
    """
    for path in sorted((ROOT / "src" / "liftkit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield from _defaults(f"{path.stem}.{node.name}", node.name, node, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        call = node.name if item.name == "__init__" else item.name
                        yield from _defaults(f"{path.stem}.{node.name}.{item.name}",
                                             call, item, 1)
                    elif isinstance(item, ast.AnnAssign) and item.value is not None:
                        yield (f"{path.stem}.{node.name}", node.name,
                               item.target.id, None)


def _calls() -> dict:
    """{function name: [ast.Call]} over src/, tests/ and bench/."""
    calls: dict = {}
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name:
                        calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position) -> bool:
    """True iff the call passes param by keyword, by **kwargs or by position."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    for j, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return position is not None and position >= j
    return position is not None and position < len(call.args)


def test_the_knob_scan_reads_a_custom_init():
    # InnerFn's keywords are the parameters of its own __init__, not fields
    knobs = {(call, param, position) for _, call, param, position in _knobs()}
    assert {("InnerFn", "power", 2), ("InnerFn", "factors", 3),
            ("InnerFn", "V0", 4)} <= knobs


def test_every_default_parameter_is_set_by_some_caller():
    # a default that no call in the library, the tests or the benchmark
    # overrides is an untested setting; it should be a constant instead
    calls = _calls()
    unset = [f"{where}: {param}" for where, call, param, position in _knobs()
             if not any(_passes(c, param, position) for c in calls.get(call, ()))]
    assert not unset


GUARD_ERRORS = {"NotAContraction", "SingularResolvent", "InconsistentGenerators"}
# the per-module guard constants that linalg's CONTRACTION_SLACK and COND_MAX replace
REMOVED_CONSTANTS = {"INV_COND_MAX", "RESOLVENT_COND_MAX", "W_COND_MAX", "COLLIGATION_SLACK"}


def _name(node) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_numerical_guards_are_decided_only_in_linalg():
    raised, constants, slacks, inverses, spectra = [], [], [], [], []
    paths = sorted((ROOT / "src" / "liftkit").glob("*.py"))
    assert ROOT / "src" / "liftkit" / "linalg.py" in paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            made = (node.func if isinstance(node, ast.Call)
                    else node.exc if isinstance(node, ast.Raise) else None)
            if path.name != "linalg.py" and _name(made) in GUARD_ERRORS:
                raised.append(where)
            if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in REMOVED_CONSTANTS:
                constants.append(where)
            # a contraction check spelled out as `norm > 1.0 + 1e-10`
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                    and isinstance(node.left, ast.Constant) and node.left.value == 1.0
                    and isinstance(node.right, ast.Constant) and node.right.value == 1e-10):
                slacks.append(where)
            # every inverse comes with its guard: np.linalg.inv
            if (path.name != "linalg.py" and isinstance(node, ast.Attribute)
                    and node.attr == "inv" and _name(node.value) == "linalg"):
                inverses.append(where)
            # and every stability decision is linalg's: np.linalg.eigvals
            if (path.name != "linalg.py" and isinstance(node, ast.Attribute)
                    and node.attr == "eigvals" and _name(node.value) == "linalg"):
                spectra.append(where)
    assert not raised
    assert not constants
    assert not slacks
    assert not inverses
    assert not spectra


def _linalg_calls(node, attr: str) -> list:
    """Every call `*.linalg.<attr>(...)` under an AST node."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == attr
            and _name(call.func.value) == "linalg"]


def _guards(handler: ast.ExceptHandler) -> bool:
    """True iff the handler catches LinAlgError and lets linalg decide."""
    return _name(handler.type) == "LinAlgError" and any(
        _name(call.func) == "require_invertible"
        for call in ast.walk(handler) if isinstance(call, ast.Call))


def test_linear_solves_are_made_only_in_schur_and_guarded():
    # np.linalg.solve raises LinAlgError on an exactly singular matrix; each
    # call sits in a try whose handler turns that into SingularResolvent
    for path in sorted((ROOT / "src" / "liftkit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        solves = _linalg_calls(tree, "solve")
        if path.name != "schur.py":
            assert not solves, path.name
            continue
        guarded = [call for node in ast.walk(tree) if isinstance(node, ast.Try)
                   and any(map(_guards, node.handlers))
                   for stmt in node.body for call in _linalg_calls(stmt, "solve")]
        assert len(solves) == 2
        assert sorted(map(id, guarded)) == sorted(map(id, solves))


def _sets_realization(node) -> bool:
    """True iff node assigns an attribute named realization, by setattr or
    object.__setattr__ with that name, or as the target of an assignment."""
    if isinstance(node, ast.Call) and _name(node.func) in ("setattr", "__setattr__"):
        return any(isinstance(a, ast.Constant) and a.value == "realization" for a in node.args)
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(t, ast.Attribute) and t.attr == "realization" for t in targets)


def test_only_realization_truncated_gives_a_polynomial_its_loop():
    # PolyOpFn declares the slot (a class attribute, None); a loop is set
    # only by schur.Realization.truncated, through object.__setattr__
    setters = [f"{path.name}:{node.lineno}"
               for path in sorted((ROOT / "src" / "liftkit").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if _sets_realization(node)]
    assert len(setters) == 1 and setters[0].startswith("schur.py:"), setters


# constructors that keep what they are handed with no copy or no finiteness
# scan: hardy._poly (a computed coefficient stack), schur._assembled (loops
# built from checked loops) and rcl._candidate (guarded parts)
UNCHECKED = {"_poly": "hardy.py", "_assembled": "schur.py", "_candidate": "rcl.py"}


def _read_array(node):
    """The expression an argument reads its entries from, past slices and
    method calls: `Z.D[:y]` reads `Z.D`, `s.reshape(n)` and `s[1:].T` read `s`."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        elif isinstance(node, ast.Attribute) and node.attr in ("T", "real", "imag"):
            node = node.value
        else:
            return node


def _unchecked_calls(node, params=frozenset()):
    """(call, parameter names of its enclosing functions) for each UNCHECKED call."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        a = node.args
        params = params | {x.arg for x in (a.posonlyargs + a.args + a.kwonlyargs
                                           + [a.vararg, a.kwarg]) if x}
    if isinstance(node, ast.Call) and _name(node.func) in UNCHECKED:
        yield node, params
    for child in ast.iter_child_nodes(node):
        yield from _unchecked_calls(child, params)


def test_unchecked_constructors_take_only_arrays_the_library_made():
    # called in src/liftkit only, and never on an array a caller handed in:
    # no argument reads a parameter of an enclosing function by name
    defined, outside, handed, called = [], [], [], set()
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            defined += [(node.name, path.name) for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name in UNCHECKED]
            for call, params in _unchecked_calls(tree):
                where = f"{path.relative_to(ROOT)}:{call.lineno}"
                called.add(_name(call.func))
                if top != "src":
                    outside.append(where)
                handed += [where for arg in call.args
                           if isinstance(_read_array(arg), ast.Name) and _read_array(arg).id in params]
    assert sorted(defined) == sorted(UNCHECKED.items())
    assert called == set(UNCHECKED)
    assert not outside
    assert not handed


def _private_imports(path: Path, module: str) -> set:
    """The underscore names a source file imports from a sibling module."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names if alias.name.startswith("_")}


def test_modelspace_builds_its_parameters_only_through_lifting_fiber_z():
    # no copy of the defect -> central member -> W(0) -> Z_C sequence outside
    # lifting; _failures is the shared verdict of DecompositionReport
    path = ROOT / "src" / "liftkit" / "modelspace.py"
    assert _private_imports(path, "lifting") == {"_failures", "_feedback", "_fiber_z"}


def test_the_cli_compares_no_value_with_a_threshold():
    # every pass/fail verdict is lifting._failures, through a report's
    # failures() or a bare float's (name, residual, threshold) row
    path = ROOT / "src" / "liftkit" / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {_name(node) for node in ast.walk(tree)} | {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not names & {"_exceeding", "_report_failures"}
    compared = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                for side in [node.left, *node.comparators] for sub in ast.walk(side)
                if "tol" in (_name(sub) or "").lower()]
    assert not compared


def _defect_route(p, Gamma):
    """Oracle: (Bd, F_Gamma basis, Omega) from linalg.defect of Gamma itself."""
    D, drange = liftkit.defect(Gamma, lifting.CHECK_TOL)
    Bd = drange.basis
    FG, Om = contraction_on_generators(D @ p.F.basis, Bd.conj().T @ (D @ p.omega2),
                                       lifting.CHECK_TOL)
    return Bd, FG.basis, Om


@pytest.mark.parametrize("pipeline", ["fiber_roundtrip_residuals", "truncated z_from_H_theta",
                                      "central_C", "omega_hat", "parameter_membership"])
def test_a_fiber_pipeline_takes_one_defect_of_its_column(monkeypatch, pipeline):
    # one defect of the column's Gram gives the central member and the W(0)
    # check, or Gamma's (Bd, F_Gamma, Omega) with the bits of the oracle's;
    # linalg.defect, which forms the Gram again, is not imported
    p = liftkit.random_problem(3, 2, 2, seed=41, scale=0.45)
    Z = liftkit.random_constrained_z(p, 2, seed=42, scale=0.5)
    Gamma = liftkit.column_operator(liftkit.solve_from_Z(p, Z, 24), 24)
    Bd, FG, Om = _defect_route(p, Gamma)
    central = SchurRealization(np.zeros((0, 0)), np.zeros((0, Bd.shape[1])),
                               np.zeros((Bd.shape[1], 0)), Om @ (FG.conj().T @ Bd))
    theta = liftkit.random_inner(72, 2, 2)
    H = liftkit.random_multiplier(theta, 2, 32, seed=73)
    coeffs, ms = PolyOpFn(H.out_dim, H.in_dim, H.coeffs), liftkit.model_space(theta, 32)
    assert not hasattr(lifting, "defect")
    calls = count_calls(monkeypatch, lifting, "gram_defect")
    if pipeline == "fiber_roundtrip_residuals":
        liftkit.fiber_roundtrip_residuals(p, Z, 24)
    elif pipeline == "truncated z_from_H_theta":
        assert isinstance(liftkit.z_from_H_theta(theta, coeffs, ms, 32), AnalyticFn)
    elif pipeline == "central_C":
        assert np.array_equal(liftkit.central_C(p, Gamma).D, central.D)
    elif pipeline == "omega_hat":
        got, F_Gamma = liftkit.omega_hat(p, Gamma)
        assert np.array_equal(got, Om) and np.array_equal(F_Gamma.basis, FG)
    else:
        assert liftkit.parameter_membership(central, p, Gamma)
    assert len(calls) == 1
