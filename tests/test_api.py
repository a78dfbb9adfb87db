"""The public names: what liftkit exports, what the benchmark imports, and
the aliases that were removed in favour of one accessor each.

The benchmark's own test (bench/test_smoke.py) is not collected with this
suite, so the benchmark's imports are checked here by parsing its sources,
without importing or running them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import liftkit
from liftkit.hardy import AnalyticFn, PolyOpFn
from liftkit.modelspace import InnerFn
from liftkit.schur import SchurRealization

BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def test_every_exported_name_resolves():
    assert len(set(liftkit.__all__)) == len(liftkit.__all__)
    missing = [name for name in liftkit.__all__ if not hasattr(liftkit, name)]
    assert not missing


@pytest.mark.parametrize("owner,name", [
    (PolyOpFn, "taylor"), (AnalyticFn, "taylor"), (InnerFn, "taylor"),
    (SchurRealization, "taylor"),
    (importlib.import_module("liftkit.schur"), "taylor_coeffs"),
    (importlib.import_module("liftkit.lifting"), "gamma_from_solution"),
    (importlib.import_module("liftkit.hardy"), "shift_and_embed"),
    (liftkit, "taylor_coeffs"), (liftkit, "shift_and_embed"),
])
def test_removed_aliases_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in liftkit.__all__
