"""Experiment harness: data ingestion, reference solutions, CLI.

Runs are described by a flat key=value config (overridable from the command
line), wire a topology, an objective and an optimizer together, and write a
CSV trace plus a JSON metadata sidecar.  Reruns with the same config and seed
produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import asdict, dataclass, fields
from functools import cache
from itertools import chain
from pathlib import Path
from typing import NoReturn

import numpy as np

from .hardinstances import ChainObjective, ProgressTracker, nonconvex_hard_objective, progress_audit, progress_bound
from .network import (
    DUMP_STEPS,
    GraphSequence,
    RandomGeometricSequence,
    RotatingStarSequence,
    StaticSequence,
    TwoStarHopSequence,
    complete_graph,
    dump_sequence,
    measure_chi,
    path_graph,
    ring_graph,
    star_graph,
)
from .objectives import DatasetShard, FiniteSumObjective, logistic_objective, nlls_objective
from .optimizers import (
    AdomVr,
    GtBaseline,
    GtPage,
    RunAbort,
    RunBudgets,
    RunTrace,
    adom_vr_params,
    corollary_batch_size,
    gt_page_params,
    run,
)

__all__ = [
    "parse_libsvm",
    "partition_dataset",
    "reference_solution",
    "ReferenceSolution",
    "ExperimentConfig",
    "run_experiment",
    "main",
    "CSV_HEADER",
]

CSV_HEADER = "iter,comms,oracle_calls,dist_sq,grad_norm_sq,consensus_err"


# ---------------------------------------------------------------------------
# Data ingestion
# ---------------------------------------------------------------------------


def parse_libsvm(path: str | Path, max_features: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """Parse a sparse `label idx:val ...` file into a dense ``(rows, d)`` feature
    matrix and its ``(rows,)`` labels.

    Indices are 1-based; the dense dimension is the maximum index seen, capped
    at ``max_features`` (rows are densified, so an unexpectedly huge index
    must fail rather than allocate).  Binary {0, 1} label sets are remapped to
    {-1, +1}.

    The whole file is converted and checked in bulk.  A file that fails a bulk
    check goes to :func:`_check_lines`, which raises its first bad line.
    """
    with open(path) as handle:
        lines = handle.read().split("\n")
    data = [parts for parts in map(str.split, lines) if parts and not parts[0].startswith("#")]
    if not data:
        raise ValueError(f"{path}: no data rows")
    arrays = _convert(data, max_features)
    if arrays is None:
        _check_lines(path, lines, max_features)
    labels, width, cells, vals = arrays
    dense = np.zeros((len(data), width))
    dense.reshape(-1)[cells] = vals
    if set(labels.tolist()) == {0.0, 1.0}:
        labels = np.where(labels == 0.0, -1.0, labels)
    return dense, labels


def _convert(data: list[list[str]], max_features: int):
    """Labels, dense width, and each pair's dense offset and value, of the split data lines.

    None if a check fails: a pair token without exactly one colon, a number that
    does not convert, a non-finite label or value, an index out of
    ``[1, max_features]`` or repeated in its row.
    """
    pairs = list(chain.from_iterable(parts[1:] for parts in data))
    flat = " ".join(pairs)
    # The colons and spaces of `flat` alternate ": : ... :" exactly when every pair token holds one colon.
    text = np.frombuffer(flat.encode(), dtype=np.uint8)
    if text[(text == ord(":")) | (text == ord(" "))].tobytes() != (b": " * len(pairs))[:-1]:
        return None
    halves = flat.replace(":", " ").split(" ")
    try:
        labels = np.fromiter(map(float, (parts[0] for parts in data)), dtype=float, count=len(data))
        idx = np.fromiter(map(int, halves[0::2]), dtype=np.int64, count=len(pairs))
        vals = np.fromiter(map(float, halves[1::2]), dtype=float, count=len(pairs))
    except (ValueError, OverflowError):
        return None
    row = np.repeat(np.arange(len(data)), [len(parts) - 1 for parts in data])
    if not (np.isfinite(labels).all() and np.isfinite(vals).all() and np.all((idx >= 1) & (idx <= max_features))):
        return None
    width = int(idx.max(initial=0))
    cells = row * width + idx - 1  # each pair's offset in the dense (rows, width) matrix
    if np.any(np.diff(np.sort(cells)) == 0):
        return None  # an index repeated in a row
    return labels, width, cells, vals


def _check_lines(path: str | Path, lines: list[str], max_features: int) -> NoReturn:
    """Raise the first failure of a ``parse_libsvm`` file, walking its lines token by token."""
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            label = float(parts[0])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad label {parts[0]!r}") from None
        if not math.isfinite(label):
            raise ValueError(f"{path}:{lineno}: non-finite label {parts[0]!r}")
        seen: set[int] = set()
        for token in parts[1:]:
            if ":" not in token:
                raise ValueError(f"{path}:{lineno}: malformed pair {token!r}")
            idx_s, val_s = token.split(":", 1)
            try:
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric pair {token!r}") from None
            if not math.isfinite(val):
                raise ValueError(f"{path}:{lineno}: non-finite value {token!r}")
            if idx < 1:
                raise ValueError(f"{path}:{lineno}: index must be >= 1, got {idx}")
            if idx > max_features:
                raise ValueError(f"{path}:{lineno}: feature index {idx} exceeds the cap {max_features}")
            if idx in seen:
                raise ValueError(f"{path}:{lineno}: feature index {idx} repeated")
            seen.add(idx)
    raise ValueError(f"{path}: the feature indices are too large to densify")


def partition_dataset(data: tuple[np.ndarray, np.ndarray], m: int, n: int, seed: int) -> list[DatasetShard]:
    """Shuffle the rows of ``data = (features, labels)``, as :func:`parse_libsvm`
    returns them, split them contiguously across nodes, round-robin into components.

    The remainder after equal division goes one row per node starting at node
    0.  With fewer than ``m * n`` rows some component would be empty, which is
    an error.
    """
    features, labels = data
    rows = len(labels)
    if len(features) != rows:
        raise ValueError(f"{len(features)} feature rows for {rows} labels")
    if rows < m * n:
        raise ValueError(f"{rows} rows cannot fill {m} nodes x {n} components")
    order = np.random.default_rng(seed).permutation(rows)
    features, labels = features[order], labels[order]
    base, extra = divmod(rows, m)
    shards = []
    cursor = 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        own = slice(cursor, cursor + size)
        cursor += size
        blocks = tuple(np.arange(j, size, n) for j in range(n))
        shards.append(DatasetShard(node=i, features=features[own], labels=labels[own], block_rows=blocks))
    return shards


# ---------------------------------------------------------------------------
# Reference solution
# ---------------------------------------------------------------------------


REF_MAX_ITERATIONS = 10_000_000


@dataclass(frozen=True)
class ReferenceSolution:
    x_star: np.ndarray
    iterations: int


def reference_solution(obj: FiniteSumObjective, tolerance: float = 1e-12) -> ReferenceSolution:
    """Accelerated full-gradient solve of the averaged objective, which must be
    strongly convex (``mu > 0``) for the minimizer to be certified.

    Stops when the gradient norm falls below ``tolerance * max(1, |grad at
    0|)``, and fails after ``REF_MAX_ITERATIONS`` iterations.
    """
    mu, L = obj.info.mu, obj.info.L
    if mu <= 0:
        raise ValueError("a certified minimizer needs a strongly convex objective (mu > 0)")
    w = np.zeros(obj.d)
    g0 = obj.average_gradient(w)
    target = tolerance * max(1.0, float(np.linalg.norm(g0)))
    kappa = L / mu
    momentum = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    step = 1.0 / L
    prev = w.copy()
    best_val = obj.average_value(w)
    grad = g0
    k = 0
    while float(np.linalg.norm(grad)) > target:
        if k >= REF_MAX_ITERATIONS:
            raise RuntimeError(f"reference solve exceeded {REF_MAX_ITERATIONS} iterations (|grad| = {np.linalg.norm(grad):.3e})")
        look = w + momentum * (w - prev)
        g_look = obj.average_gradient(look)
        prev, w = w, look - step * g_look
        val = obj.average_value(w)
        if val > best_val + 1e-12 * max(1.0, abs(best_val)):
            prev = w.copy()  # restart momentum on non-monotone progress
        best_val = min(best_val, val)
        grad = obj.average_gradient(w)
        k += 1
    return ReferenceSolution(x_star=w, iterations=k)


# ---------------------------------------------------------------------------
# Run choices
# ---------------------------------------------------------------------------

# One table per kind of choice: each choice maps to (the config fields it reads beyond those every
# run reads, its builder).  A field that some choice of a kind reads is unread under the others.
# Builders look their constructors up as module attributes when called, so patching one takes effect.


def _shards(cfg: ExperimentConfig) -> list[DatasetShard]:
    return partition_dataset(parse_libsvm(cfg.dataset), cfg.m, cfg.n, cfg.seed)


def _zero_chain(cfg: ExperimentConfig) -> tuple[FiniteSumObjective, GraphSequence]:
    comms = cfg.budget_comms or 4 * cfg.budget_iters
    oracle = cfg.budget_oracle or max(cfg.n, cfg.budget_iters * cfg.n)
    return nonconvex_hard_objective(cfg.m, cfg.n, cfg.zc_L, cfg.zc_delta, comms, oracle)


# Builders return (objective, its own graph sequence or None).  stop_dist_sq needs mu > 0, a minimizer.
_OBJECTIVES = {
    "logistic": (("dataset", "reg", "stop_dist_sq"), lambda cfg: (logistic_objective(_shards(cfg), cfg.reg), None)),
    "nlls": (("dataset",), lambda cfg: (nlls_objective(_shards(cfg)), None)),
    "chain": (
        ("chain_L", "chain_mu", "chain_dim", "stop_dist_sq"),
        lambda cfg: (ChainObjective(cfg.m, cfg.n, cfg.chain_L, cfg.chain_mu, cfg.chain_dim), None),
    ),
    "zero_chain": (("zc_L", "zc_delta"), _zero_chain),  # brings its own rotating star
}

# chi_trials is read where run_experiment measures the random-geometric sequence's chi.
_TOPOLOGIES = {
    "random-geometric": (("radius", "chi_trials"), lambda cfg: RandomGeometricSequence(cfg.m, cfg.radius, seed=cfg.seed + 104729)),
    "two-star-hop": ((), lambda cfg: TwoStarHopSequence(cfg.m)),
    "rotating-star": ((), lambda cfg: RotatingStarSequence(cfg.m)),
    "static-complete": ((), lambda cfg: StaticSequence(complete_graph(cfg.m))),
    "static-star": ((), lambda cfg: StaticSequence(star_graph(cfg.m))),
    "static-ring": ((), lambda cfg: StaticSequence(ring_graph(cfg.m))),
    "static-path": ((), lambda cfg: StaticSequence(path_graph(cfg.m))),
}


def _adom_vr(cfg: ExperimentConfig, obj: FiniteSumObjective, chi: float) -> AdomVr:
    info = obj.info
    if info.mu <= 0:
        raise ValueError("adom_vr needs a strongly convex objective (mu > 0)")
    b = cfg.b or corollary_batch_size(info.mu, info.L, info.Lbar, obj.n)
    return AdomVr(adom_vr_params(info.mu, info.L, info.Lbar, chi, obj.n, b))


def _gt_page(cfg: ExperimentConfig, obj: FiniteSumObjective, chi: float) -> GtPage:
    return GtPage(gt_page_params(obj.info.L, obj.info.Lhat, chi, obj.n, b=cfg.b or None))


def _gt_baseline(cfg: ExperimentConfig, obj: FiniteSumObjective, chi: float) -> GtBaseline:
    rho = 1.0 / chi
    return GtBaseline(eta=cfg.gt_eta or rho * rho / (4.0 * obj.info.L))


# Builders take (cfg, objective, the schedule's chi) and return the method.
_METHODS = {
    "adom_vr": (("b",), _adom_vr),
    "gt_page": (("b",), _gt_page),
    "gt_baseline": (("gt_eta",), _gt_baseline),
}

METHODS, OBJECTIVES, TOPOLOGIES = tuple(_METHODS), tuple(_OBJECTIVES), tuple(_TOPOLOGIES)


# The fewest nodes a topology or objective serves where it needs more than the 2 of every gossip graph.
_LEAST_M = {"two-star-hop": 4, "rotating-star": 3, "chain": 3, "zero_chain": 3}


def _build_sequence(cfg: ExperimentConfig) -> GraphSequence:
    return _TOPOLOGIES[cfg.topology][1](cfg)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    method: str = "adom_vr"
    objective: str = "logistic"
    topology: str = "random-geometric"
    dataset: str = ""
    m: int = 10
    n: int = 10
    b: int = 0  # 0: schedule default
    seed: int = 0
    reg: float = 0.1
    radius: float = 0.7
    budget_iters: int = 1000
    budget_comms: int = 0  # 0: unlimited
    budget_oracle: int = 0  # 0: unlimited
    metric_every: int = 10
    out: str = "runs"
    chi_trials: int = 20
    gt_eta: float = 0.0  # 0: derived from the spectral gap
    chain_L: float = 4.0
    chain_mu: float = 1.0
    chain_dim: int = 12
    zc_L: float = 1.0
    zc_delta: float = 1.0
    stop_dist_sq: float = 0.0  # 0: disabled

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {', '.join(METHODS)}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}; valid: {', '.join(OBJECTIVES)}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; valid: {', '.join(TOPOLOGIES)}")
        if "dataset" in _OBJECTIVES[self.objective][0]:
            if not self.dataset:
                raise ValueError(f"objective {self.objective!r} needs --dataset")
            if not Path(self.dataset).exists():
                raise ValueError(f"dataset file not found: {self.dataset}")
        kinds = ("objective",) if self.objective == "zero_chain" else ("objective", "topology")  # it brings its own star
        least, kind = max((_LEAST_M.get(getattr(self, kind), 2), kind) for kind in kinds)
        if self.m < least:
            raise ValueError(f"m must be >= {least} for {kind} {getattr(self, kind)!r}, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # A budget_comms, budget_oracle or b of 0 keeps its default: no limit, or the schedule's batch.
        for name, least in (("n", 1), ("budget_iters", 1), ("metric_every", 1), ("chi_trials", 1),
                            ("budget_comms", 0), ("budget_oracle", 0), ("b", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if "b" in _METHODS[self.method][0] and self.b > self.n:
            raise ValueError(f"b must be at most n={self.n}, got {self.b}")
        if self.chi_trials > DUMP_STEPS:  # past the dump, the walk would build measure_chi's blocks again
            raise ValueError(f"chi_trials must be at most {DUMP_STEPS}, the steps a .graphs dump keeps, got {self.chi_trials}")
        for f in fields(self):
            if isinstance(f.default, float) and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("gt_eta", "stop_dist_sq"):  # 0 keeps the default: derived step, no stop
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        unread = self._unread()
        for f in fields(self):  # the first unread field set, in field order
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ValueError(f"{f.name}={getattr(self, f.name)!r} is never read: {unread[f.name]} ignores it")

    def _unread(self) -> dict[str, str]:
        """The fields this run never reads, each with what ignores it: those the other choices of
        its method, objective and topology read."""
        unread, tables = {}, {"method": _METHODS, "objective": _OBJECTIVES, "topology": _TOPOLOGIES}
        declared = {kind: {name for reads, _ in table.values() for name in reads} for kind, table in tables.items()}
        for kind, table in tables.items():
            choice = getattr(self, kind)
            unread.update(dict.fromkeys(declared[kind] - set(table[choice][0]), f"{kind} {choice!r}"))
        if self.objective == "zero_chain":  # it brings its own rotating star
            unread.update(dict.fromkeys(("topology", *declared["topology"]), "objective 'zero_chain'"))
        return unread

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        """Config from ``key=value`` lines; a malformed line, an unknown or repeated
        key and a value of the wrong type fail naming ``path:line``."""
        cfg, seen = cls(), set()
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key in seen:
                    raise ValueError(f"{path}:{lineno}: config key {key!r} repeated")
                seen.add(key)
                try:
                    cfg = cfg.replace(**{key: val})
                except ValueError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from None
        return cfg

    def replace(self, **overrides) -> "ExperimentConfig":
        current = asdict(self)
        for key, val in overrides.items():
            if key not in current:
                raise ValueError(f"unknown config key {key!r}")
            if val is not None:  # converted to the type of the field's default: int, float or str
                current[key] = type(getattr(ExperimentConfig, key))(val)
        return ExperimentConfig(**current)

    def tag(self) -> str:
        return f"{self.method}_{self.objective}_{self.topology}_m{self.m}_n{self.n}_seed{self.seed}"


def _format_metric(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    return f"{v:.17g}"


def write_trace_csv(trace: RunTrace, path: Path) -> None:
    lines = [CSV_HEADER]
    for r in trace.records:
        lines.append(
            f"{r.iteration},{r.comms},{r.oracle_calls},"
            f"{_format_metric(r.dist_sq)},{_format_metric(r.grad_norm_sq)},{_format_metric(r.consensus_err)}"
        )
    path.write_text("\n".join(lines) + "\n")


@cache
def _source_sha256() -> str:
    """sha256 of the package's ``*.py`` files, each file's name, a NUL and its bytes, in name order."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256(b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files)).hexdigest()


def _environment() -> dict:
    """What a run's bits and timings depend on beyond its config: the numpy build and its BLAS,
    the interpreter, the machine, the CPUs the process may use, whether Python compiles the
    package at every start, and the package's sources (hashed once per process)."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "source_sha256": _source_sha256(),
    }


def _rounds(method) -> int:
    """The communication rounds of one iteration: ``stages`` for ``gt_page``, one otherwise."""
    return method.params.stages if method.name == "gt_page" else 1


def _oracle_ledger(method, trace: RunTrace) -> dict:
    """The oracle calls the method's cost model expects from the trace's counters, its last
    iteration ``k`` and the batch ``b`` (n per full node gradient, b per node batch), next to
    the calls the oracle charged; and the comms of ``k`` iterations, next to the last record's
    comms.  After an abort, the calls the failing step made past the last state reached show
    as the difference."""
    meta, final = trace.metadata, trace.final()
    m, n, k, counters = meta["m"], meta["n"], final.iteration, meta["counters"]
    if method.name == "adom_vr":
        expected = m * n + m * method.params.b * k + n * (counters["omega_to_x_f"] + counters["omega_to_x_g"])
    elif method.name == "gt_page":  # node-level restarts: the shared coin restarts every node
        restarts = m * counters["full_restarts"]
        expected = m * n + n * restarts + method.params.b * (m * k - restarts)
    else:
        expected = m * n * (k + 1)
    measured = sum(meta["oracle_calls_per_node"])
    comms = k * _rounds(method)
    return {
        "expected": expected, "measured": measured, "exact": expected == measured,
        "comms_expected": comms, "comms_measured": final.comms, "comms_exact": comms == final.comms,
    }


def run_experiment(cfg: ExperimentConfig, progress_tracker: ProgressTracker | None = None):
    """Wire topology + objective + optimizer, run, and write trace artifacts.

    Returns ``(trace, csv_path, meta_path)``.  ``budget_comms`` allows the whole iterations
    it pays for; one below an iteration's rounds fails before any file is written.  A run that
    ends in a :class:`RunAbort` carrying its records writes the artifacts of those records,
    with an ``abort`` entry in the sidecar, and then re-raises the abort.
    """
    cfg.validate()
    audited = None  # every zero-chain run audits its progress, in the caller's tracker if it passes one
    if cfg.objective == "zero_chain":
        audited = progress_tracker = progress_tracker or ProgressTracker(cfg.m)
    obj, own_seq = _OBJECTIVES[cfg.objective][1](cfg)
    seq = own_seq or _build_sequence(cfg)
    info = obj.info
    try:
        chi = seq.chi if seq.chi is not None else measure_chi(seq, trials=cfg.chi_trials)
        seq.certificate = chi
        x_star = reference_solution(obj).x_star if info.mu > 0 else None
        method = _METHODS[cfg.method][1](cfg, obj, chi)
        iters, rounds = cfg.budget_iters, _rounds(method)
        if cfg.budget_comms:
            if cfg.budget_comms < rounds:
                raise ValueError(f"budget_comms={cfg.budget_comms} is below one {method.name} iteration's {rounds} rounds")
            iters = min(iters, cfg.budget_comms // rounds)
        budgets = RunBudgets(max_iterations=iters, max_oracle_calls_per_node=cfg.budget_oracle or None)
        abort = None
        try:
            trace = run(
                method, obj, seq, budgets, metric_every=cfg.metric_every, seed=cfg.seed, x_star=x_star,
                progress_tracker=progress_tracker, stop_dist_sq=cfg.stop_dist_sq or None,
            )
        except RunAbort as exc:
            if exc.trace is None:
                raise
            trace, abort = exc.trace, exc
    finally:  # a random-geometric walk may have forked a builder child; it ends with the run
        seq.close()
    graphs = None  # the other sequences build their graphs once, up front
    if isinstance(seq, RandomGeometricSequence):
        graphs = {"built": seq.built, "resamples": seq.resamples, "chi_max": seq.chi_max,
                  "builder_blocks": seq.builder_blocks, "builder_pinned": seq.builder_pinned}
    certificate = {
        "chi_schedule": chi,
        "chi_consumed_max": seq.chi_max,
        "steps_over_certificate": seq.steps_over_certificate,
        # None unless consensus_residual certified a window, as gt_page does once per iteration
        **{name: getattr(seq, name) for name in ("window_bound_max", "windows_checked_exactly", "window_norm_max")},
    }

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.tag()}.csv"
    meta_path = out_dir / f"{cfg.tag()}.json"
    write_trace_csv(trace, csv_path)
    with open(out_dir / f"{cfg.tag()}.graphs", "w") as sink:
        dump_sequence(seq, min(trace.final().comms, DUMP_STEPS) or 1, sink)
    values = trace.column("avg_value")
    progress = None
    if audited is not None:  # the last point is the last state reached, also on an abort
        report, (comms, oracle, _) = progress_audit(audited, cfg.m, cfg.n), audited.audit_points[-1]
        bound = progress_bound(comms, oracle, cfg.m, cfg.n)
        progress = {"final": report.final_prog, "bound": bound, "passed": report.passed, "violations": len(report.violations)}
    meta = {
        "config": asdict(cfg),
        "topology": seq.kind,
        "chi": chi,
        "graphs": graphs,
        "certificate": certificate,
        "constants": {
            "L": info.L,
            "mu": info.mu,
            "Lbar": info.Lbar,
            "Lhat": info.Lhat,
        },
        "parameters": asdict(getattr(method, "params", method)),  # gt_baseline's only parameter is its eta
        "records": len(trace.records),
        "counters": trace.metadata["counters"],
        "ledger": _oracle_ledger(method, trace),
        "progress": progress,
        "environment": _environment(),
        "f_best_observed": float(values.min()),
        # Best-observed gap; a lower bound on the true initial suboptimality.
        "delta_observed": float(values[0] - values.min()),
        "final": {
            "iteration": trace.final().iteration,
            "comms": trace.final().comms,
            "oracle_calls": trace.final().oracle_calls,
        },
    }
    if abort is not None:  # the failing step started from the last recorded state
        final, cause = trace.final(), abort.__cause__ or abort
        meta["abort"] = {"iteration": final.iteration, "comms": final.comms, "type": type(cause).__name__, "message": str(abort)}
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True, default=float) + "\n")
    if abort is not None:
        raise abort
    return trace, csv_path, meta_path


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipvr",
        description="Decentralized finite-sum optimization runs over time-varying gossip graphs",
    )
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    helps = {"dataset": "LibSVM text file for data-backed objectives", "m": "node count", "n": "components per node",
             "b": "batch size (0 = schedule default)", "reg": "l2 regularization for the logistic loss",
             "radius": "random geometric connection radius", "out": "output directory for trace CSV/JSON",
             "gt_eta": "baseline step size"}
    choices = {"method": METHODS, "objective": OBJECTIVES, "topology": TOPOLOGIES}
    for f in fields(ExperimentConfig):  # one flag per field, of the type of its default
        flag = f"--{f.name.replace('_', '-')}"
        parser.add_argument(flag, dest=f.name, type=type(f.default), choices=choices.get(f.name), help=helps.get(f.name))
    parser.add_argument("--seeds", help="comma-separated seeds to run as separate experiments")
    parser.add_argument("--jobs", type=int, default=1, help="parallel processes when sweeping --seeds")
    return parser


def _run_one(cfg: ExperimentConfig) -> str:
    trace, csv_path, _ = run_experiment(cfg)
    final = trace.final()
    return f"{csv_path} iters={final.iteration} comms={final.comms} oracle={final.oracle_calls}"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
        overrides = {
            k: v
            for k, v in vars(args).items()
            if k not in ("config", "seeds", "jobs") and v is not None
        }
        cfg = cfg.replace(**overrides)
        configs = [cfg.replace(seed=s) for s in args.seeds.split(",")] if args.seeds else [cfg]
        if len({one.seed for one in configs}) < len(configs):
            raise ValueError(f"--seeds repeats a seed: {args.seeds}")
        for one in configs:  # every run's config is checked before the first one writes a file
            one.validate()
        if args.jobs > 1 and len(configs) > 1:
            from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing

            with ProcessPoolExecutor(max_workers=min(args.jobs, len(configs))) as pool:
                for line in pool.map(_run_one, configs):
                    print(line)
        else:
            for one in configs:
                print(_run_one(one))
    except Exception as exc:  # structured nonzero exit for any module error
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
