"""Every exported name resolves, so deleting a function cannot leave a stale export behind."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gossipvr
import gossipvr.harness as harness
from gossipvr.network import GraphSequence
from gossipvr.objectives import FiniteSumObjective

ROOT = Path(__file__).resolve().parents[1]
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


def test_readme_library_example_runs():
    """The README's ``python`` block runs from the repo root and reaches its stated accuracy."""
    (code,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) < 1e-7


def test_import_loads_no_process_pool():
    """``import gossipvr`` stays free of multiprocessing; only a ``--jobs`` sweep loads it."""
    code = "import sys, gossipvr; print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _benchmark_tracer(monkeypatch):
    """``perfbench/tracer.py``, loaded without writing bytecode under ``perfbench/``."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_names_exist(monkeypatch):
    """``perfbench/tracer.py`` wraps these names by lookup; a deleted one would break ``--trace 1``."""
    tracer = _benchmark_tracer(monkeypatch)
    missing = [name for name in tracer.HARNESS_SPANS if not hasattr(harness, name)]
    assert not missing, f"gossipvr.harness lacks traced names {missing}"
    queries = [*tracer.ORACLE_UNITS, *tracer.METRIC_EVALS, *tracer.PASSTHROUGH]
    missing = [name for name in queries if not hasattr(FiniteSumObjective, name)]
    assert not missing, f"FiniteSumObjective lacks traced queries {missing}"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_benchmark_traced_sequence_methods_exist(monkeypatch):
    """``trace_sequence`` wraps a sequence's methods by name (``graph``, ``gossip``): every sequence
    class in the package must define each, not leave it to ``GraphSequence``'s stub."""
    tracer = _benchmark_tracer(monkeypatch)
    tree = ast.parse(inspect.getsource(tracer.trace_sequence))
    wrapped = {
        target.attr for node in ast.walk(tree) if isinstance(node, ast.Assign) for target in node.targets
        if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "seq"
        and isinstance(node.value, ast.Call)
    }
    assert {"graph", "gossip"} <= wrapped
    classes = [cls for cls in _subclasses(GraphSequence) if cls.__module__.startswith("gossipvr.")]
    assert len(classes) >= 5
    stubs = [f"{cls.__name__}.{name}" for cls in classes for name in sorted(wrapped)
             if getattr(cls, name) is getattr(GraphSequence, name)]
    assert not stubs, f"sequence methods the benchmark wraps are base-class stubs: {stubs}"


def test_benchmark_traced_objective_answers_batched_queries(monkeypatch, objective_families):
    """The benchmark's ``TracedObjective`` forwards only per-node queries, so its batched queries are
    the base-class loops: they must answer the raw objective's bits and record one span per node,
    named after the per-node query and tagged with its ``ORACLE_UNITS`` units."""
    tracing = _benchmark_tracer(monkeypatch)
    for family, obj in objective_families.items():
        rng = np.random.default_rng(22)
        nodes = np.array([obj.m - 1, 0, 1])
        idx = rng.integers(0, obj.n, size=(3, 2))
        X, X_old = rng.normal(size=(2, 3, obj.d))
        module = type(obj).__module__.rsplit(".", 1)[-1]
        tracer = tracing.Tracer()
        traced = tracing.TracedObjective(obj, tracer)
        for query, args, per_node, units in (
            ("batch_sampled_gradients", (nodes, idx, X), "sampled_gradients", 2),
            ("batch_sampled_gradient_pairs", (nodes, idx, X, X_old), "sampled_gradient_pairs", 2),
            ("batch_component_gradients", (nodes, X), "local_component_gradients", obj.n),
            ("batch_local_gradients", (nodes, X), "local_gradient", obj.n),
        ):
            first = len(tracer.spans)
            got, want = getattr(traced, query)(*args), getattr(obj, query)(*args)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (family, query)
            spans = [(name, parent, tag) for name, _, _, parent, tag in tracer.spans[first:]]
            assert spans == [(f"{module}.{per_node}", -1, units)] * len(nodes), (family, query)
            assert units == tracing.ORACLE_UNITS[per_node](obj, (nodes[0], idx[0]))
