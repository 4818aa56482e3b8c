"""Every exported name resolves, so deleting a function cannot leave a stale export behind."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import gossipvr
import gossipvr.harness as harness
from gossipvr.objectives import FiniteSumObjective

MODULES = sorted(info.name for info in pkgutil.iter_modules(gossipvr.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gossipvr.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"gossipvr.{name}.__all__ lists undefined names {missing}"


def test_package_reexports_public_names():
    tree = ast.parse(Path(gossipvr.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"gossipvr.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"gossipvr re-exports {alias.name}, not in {node.module}.__all__"
            assert getattr(gossipvr, alias.asname or alias.name) is getattr(module, alias.name)


def test_benchmark_tracer_names_exist(monkeypatch):
    """``perfbench/tracer.py`` wraps these names by lookup; a deleted one would break ``--trace 1``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [name for name in tracer.HARNESS_SPANS if not hasattr(harness, name)]
    assert not missing, f"gossipvr.harness lacks traced names {missing}"
    queries = [*tracer.ORACLE_UNITS, *tracer.METRIC_EVALS, *tracer.PASSTHROUGH]
    missing = [name for name in queries if not hasattr(FiniteSumObjective, name)]
    assert not missing, f"FiniteSumObjective lacks traced queries {missing}"
