"""Layer spans recorded from outside the gossipvr package.

The benchmark never edits the package.  It replaces, for the length of one
execution, the module attributes that ``harness.run_experiment`` and
``optimizers.run`` call through (``gossipvr.harness.run``,
``gossipvr.harness.measure_chi``, ...) with wrappers that record a span per
call, and it wraps the graph sequence, the objective and the method that
``run()`` receives.  Spans are kept in memory and reduced to per-layer
metrics by :func:`layer_metrics` once the execution has ended.

A span is ``(name, start, end, parent, tag)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``tag`` is an optional number recorded at
the call, such as the step index of a gossip query or the units of an oracle
query.  A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import gossipvr.harness as harness
from gossipvr.objectives import FiniteSumObjective

# Oracle queries of FiniteSumObjective and the oracle units each one costs.
ORACLE_UNITS = {
    "component_gradient": lambda obj, args: 1,
    "component_gradient_pair": lambda obj, args: 1,
    "sampled_gradients": lambda obj, args: len(args[1]),
    "sampled_gradient_pairs": lambda obj, args: len(args[1]),
    "local_gradient": lambda obj, args: obj.n,
    "local_component_gradients": lambda obj, args: obj.n,
}
# Evaluations that record() makes for the trace; they are not charged as oracle calls.
METRIC_EVALS = ("average_value", "average_gradient")
PASSTHROUGH = ("component_value", "local_value", "stacked_gradient")

# Setup and artifact calls of run_experiment, by the attribute it looks up in gossipvr.harness.
HARNESS_SPANS = {
    "parse_libsvm": "harness.parse_libsvm",
    "partition_dataset": "harness.partition_dataset",
    "logistic_objective": "objectives.constants",
    "nlls_objective": "objectives.constants",
    "measure_chi": "network.measure_chi",
    "reference_solution": "harness.reference_solution",
    "write_trace_csv": "harness.write_trace_csv",
    "dump_sequence": "harness.dump_sequence",
}


class Tracer:
    """In-memory span recorder; one per traced execution."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, tag=None):
        """``fn`` recording one span per call; ``tag(args, result)`` gives the span's tag."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                tagged = tag(args, result) if tag is not None and result is not None else None
                self.spans[index] = (name, start, end, parent, tagged)

        return traced


class TracedObjective(FiniteSumObjective):
    """Delegating proxy that records a span around every query of ``base``.

    Oracle spans are named after the module that implements the objective
    (``objectives`` or ``hardinstances``); metric evaluations are
    ``objectives.metrics_eval`` whatever the objective.
    """

    def __init__(self, base: FiniteSumObjective, tracer: Tracer):
        self.base = base
        self.m, self.n, self.d, self.info = base.m, base.n, base.d, base.info
        module = type(base).__module__.rsplit(".", 1)[-1]
        for method, units in ORACLE_UNITS.items():
            tag = lambda args, result, units=units: units(base, args)
            setattr(self, method, tracer.wrap(f"{module}.{method}", getattr(base, method), tag))
        for method in METRIC_EVALS:
            setattr(self, method, tracer.wrap("objectives.metrics_eval", getattr(base, method)))
        for method in PASSTHROUGH:
            setattr(self, method, getattr(base, method))


class TracedMethod:
    """Delegating proxy that records ``init`` and ``step`` spans of a method."""

    def __init__(self, base, tracer: Tracer):
        self.base = base
        self.name = base.name
        self.init = tracer.wrap("optimizers.init", base.init)
        self.step = tracer.wrap("optimizers.step", base.step)


def trace_sequence(seq, tracer: Tracer) -> None:
    """Record ``graph``/``gossip`` spans on this sequence instance (idempotent)."""
    if getattr(seq, "_perfbench_traced", False):
        return
    seq.graph = tracer.wrap("network.graph", seq.graph)
    seq.gossip = tracer.wrap("network.gossip", seq.gossip, tag=lambda args, result: args[0])
    seq._perfbench_traced = True


@contextlib.contextmanager
def patched(module, replacements: dict):
    """Set module attributes for the duration of the block, then restore them."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, value in replacements.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@contextlib.contextmanager
def run_boundary(marks: dict, tracer: Tracer | None = None, before_run=None):
    """Patch ``gossipvr.harness.run`` to stamp when the optimizer loop starts and ends.

    ``marks`` receives ``run_start``, ``run_end`` and the ``method``, ``obj``
    and ``seq`` that run() was handed.  With
    a tracer the loop's graph sequence, objective, method and progress tracker
    are traced as well.  ``before_run(method)`` is called at the boundary; it
    may raise to end the execution after its setup.
    """
    real_run = harness.run

    def boundary(method, obj, seq, *args, **kwargs):
        marks["run_start"] = perf_counter()
        marks.update(method=method, obj=obj, seq=seq)
        if before_run is not None:
            before_run(method)
        if tracer is not None:
            trace_sequence(seq, tracer)
            method, obj = TracedMethod(method, tracer), TracedObjective(obj, tracer)
            tracker = kwargs.get("progress_tracker")
            if tracker is not None:
                tracker.update = tracer.wrap("hardinstances.progress_update", tracker.update)
        try:
            return real_run(method, obj, seq, *args, **kwargs)
        finally:
            marks["run_end"] = perf_counter()

    if tracer is None:
        with patched(harness, {"run": boundary}):
            yield
        return
    replacements = {"run": tracer.wrap("optimizers.run", boundary)}
    for attr, name in HARNESS_SPANS.items():
        fn = getattr(harness, attr)
        if attr in ("measure_chi", "dump_sequence"):
            fn = _tracing_first_arg(fn, tracer)
        tag = (lambda args, result: result.iterations) if attr == "reference_solution" else None
        replacements[attr] = tracer.wrap(name, fn, tag)
    with patched(harness, replacements):
        yield


def _tracing_first_arg(fn, tracer: Tracer):
    def call(seq, *args, **kwargs):
        trace_sequence(seq, tracer)
        return fn(seq, *args, **kwargs)

    return call


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------


def _tree(spans):
    """Self time, root span name and enclosing step index of every span."""
    self_s = [end - start for _, start, end, _, _ in spans]
    root = [""] * len(spans)
    step = [-1] * len(spans)
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            root[index] = name
        else:
            self_s[parent] -= end - start
            root[index] = root[parent]
            step[index] = parent if spans[parent][0] == "optimizers.step" else step[parent]
    return self_s, root, step


def layer_metrics(spans, method_name: str) -> tuple[dict[str, float], list[float]]:
    """Per-layer times and counts of one traced execution, and its step times in ms.

    Oracle, gossip and step figures cover the optimizer loop only (spans under
    ``optimizers.run``); ``network.graph.dump_s`` is the graph time spent
    re-sampling steps for the ``.graphs`` dump.
    """
    self_s, root, step = _tree(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    units: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    gossip_steps = set()
    in_step: dict[str, list[int]] = {}  # span name -> enclosing step of each call inside a step
    step_ms = []
    for index, (name, start, end, _, tag) in enumerate(spans):
        key = name if root[index] in (name, "optimizers.run") else f"{name}@{root[index]}"
        total[key] = total.get(key, 0.0) + self_s[index]
        inclusive[key] = inclusive.get(key, 0.0) + (end - start)
        calls[key] = calls.get(key, 0) + 1
        if key == "network.gossip":
            gossip_steps.add(tag)
        elif isinstance(tag, int):
            units[key] = units.get(key, 0) + tag
        if key == "optimizers.step":
            step_ms.append((end - start) * 1e3)
        if step[index] >= 0:
            in_step.setdefault(name, []).append(step[index])

    run_s = inclusive.get("optimizers.run", 0.0)
    oracle_s = sum(v for k, v in total.items() if k.split(".", 1)[-1] in ORACLE_UNITS)
    network_s = total.get("network.graph", 0.0) + total.get("network.gossip", 0.0)
    objective_units = sum(units.get(f"objectives.{q}", 0) for q in ORACLE_UNITS)
    objective_s = sum(total.get(f"objectives.{q}", 0.0) for q in ORACLE_UNITS)
    # gt_page restarts: steps that query full node gradients; adom_vr refreshes:
    # full component recomputations inside steps (init excluded).
    restarts = len(set(in_step.get("objectives.local_gradient", ()))) if method_name == "gt_page" else 0
    refreshes = len(in_step.get("objectives.local_component_gradients", ())) if method_name == "adom_vr" else 0

    def inc(name):
        return inclusive.get(name, 0.0)

    out = {
        "network.graph.s": total.get("network.graph", 0.0),
        "network.graph.dump_s": total.get("network.graph@harness.dump_sequence", 0.0),
        "network.gossip.s": total.get("network.gossip", 0.0),
        "network.gossip.calls": calls.get("network.gossip", 0),
        "network.gossip.steps": len(gossip_steps),
        "network.measure_chi.s": inc("network.measure_chi"),
    }
    for prefix, queries in (
        ("objectives", ("sampled_gradients", "local_component_gradients", "sampled_gradient_pairs", "local_gradient")),
        ("hardinstances", ("local_gradient",)),
    ):
        for query in queries:
            key = f"{prefix}.{query}"
            out[f"{key}.s"] = total.get(key, 0.0)
            out[f"{key}.calls"] = calls.get(key, 0)
            if "sampled" in query:
                out[f"{key}.units"] = units.get(key, 0)
    out.update({
        "objectives.us_per_unit": 1e6 * objective_s / objective_units if objective_units else 0.0,
        "objectives.metrics_eval.s": inc("objectives.metrics_eval"),
        "objectives.constants.s": inc("objectives.constants"),
        "hardinstances.progress_update.s": inc("hardinstances.progress_update"),
        "optimizers.init.s": inc("optimizers.init"),
        "optimizers.step.calls": calls.get("optimizers.step", 0),
        "optimizers.step.self_s": total.get("optimizers.step", 0.0),
        "optimizers.full_restarts": restarts,
        "optimizers.omega_refreshes": refreshes,
        "harness.parse_libsvm.s": inc("harness.parse_libsvm"),
        "harness.partition_dataset.s": inc("harness.partition_dataset"),
        "harness.reference_solution.s": inc("harness.reference_solution"),
        "harness.reference_solution.iters": units.get("harness.reference_solution", 0),
        "harness.write_trace_csv.s": inc("harness.write_trace_csv"),
        "harness.dump_sequence.s": inc("harness.dump_sequence"),
        "trace.run_s": run_s,
        "trace.unattributed_s": total.get("optimizers.run", 0.0),
        "split.network_share": network_s / run_s if run_s else 0.0,
        "split.oracle_share": oracle_s / run_s if run_s else 0.0,
    })
    return out, step_ms
