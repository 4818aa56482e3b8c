"""Every exported name resolves, so deleting a function cannot leave a stale export behind."""

import ast
import importlib
import importlib.util
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
import gossipvr.network as network
from gossipvr.network import (
    GraphSequence,
    RandomGeometricSequence,
    RotatingStarSequence,
    StaticSequence,
    TwoStarHopSequence,
    ring_graph,
)
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


def test_benchmark_traced_sequences_answer_and_record(monkeypatch):
    """``trace_sequence`` wraps a sequence instance's ``graph`` and ``gossip``: on one instance of each
    package sequence class, both answer what the untraced twin answers and record their spans."""
    tracing = _benchmark_tracer(monkeypatch)
    monkeypatch.setattr(network, "_builder_can_run", lambda: False)
    makers = {
        StaticSequence: lambda: StaticSequence(ring_graph(5)),
        TwoStarHopSequence: lambda: TwoStarHopSequence(5),
        RotatingStarSequence: lambda: RotatingStarSequence(5),
        RandomGeometricSequence: lambda: RandomGeometricSequence(5, 0.7, seed=0),
    }
    classes = {cls for cls in _subclasses(GraphSequence) if cls.__name__ in network.__all__}
    assert classes == set(makers)
    for make in makers.values():
        seq, twin, tracer = make(), make(), tracing.Tracer()
        tracing.trace_sequence(seq, tracer)
        assert seq.graph(0) == twin.graph(0)
        assert tracer.spans[0][0] == "network.graph"  # a random-geometric graph also records its gossip
        first = len(tracer.spans)
        served, reference = seq.gossip(0), twin.gossip(0)
        assert served.matrix.tobytes() == reference.matrix.tobytes() and served.chi == reference.chi
        assert [(name, parent, tag) for name, _, _, parent, tag in tracer.spans[first:]] == [("network.gossip", -1, 0)]


def test_only_the_base_sequence_defines_gossip():
    """Sequences serve through ``window``; ``gossip`` is ``GraphSequence``'s one-step view of it."""
    defined = []
    for path in sorted((ROOT / "src" / "gossipvr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                defined += [f"{path.name}:{node.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef) and item.name == "gossip"]
    assert defined == ["network.py:GraphSequence"]


def test_no_package_class_subclasses_the_callable_finite_sum():
    """The package's own instances answer batched queries directly; ``CallableFiniteSum`` is a public form only."""
    subclasses = []
    for path in sorted((ROOT / "src" / "gossipvr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = [ast.unparse(base) for base in node.bases]
                subclasses += [f"{path.name}:{node.name}" for base in bases if base.rsplit(".", 1)[-1] == "CallableFiniteSum"]
    assert subclasses == []


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


# The per-node queries: one-node views of the node-batched ones, kept for proxies and tests.
PER_NODE_QUERIES = (
    "component_value", "local_value", "component_gradient", "component_gradient_pair",
    "sampled_gradients", "sampled_gradient_pairs", "local_gradient", "local_component_gradients",
)


def test_package_calls_no_per_node_query():
    """The package asks its objectives node-batched queries only: no module calls a per-node query
    outside ``FiniteSumObjective``'s own definitions, where the batched loops fall back on them."""
    assert all(name in vars(FiniteSumObjective) for name in PER_NODE_QUERIES)
    calls, inside = [], 0
    for path in sorted((ROOT / "src" / "gossipvr").glob("*.py")):
        tree = ast.parse(path.read_text())
        base = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "FiniteSumObjective"]
        skipped = {id(node) for cls in base for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in PER_NODE_QUERIES:
                if id(node) in skipped:
                    inside += 1
                else:
                    calls.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.func.attr}")
    assert inside > 0  # the walk sees the base class's own fallback calls
    assert not calls, f"per-node queries called in the package: {calls}"
