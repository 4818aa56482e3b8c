"""Experiment harness: data ingestion, reference solutions, CLI.

Runs are described by a flat key=value config (overridable from the command
line), wire a topology, an objective and an optimizer together, and write a
CSV trace plus a JSON metadata sidecar.  Reruns with the same config and seed
produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import NoReturn

import numpy as np

from .hardinstances import ChainObjective, ProgressTracker, nonconvex_hard_objective
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

METHODS = ("adom_vr", "gt_page", "gt_baseline")
OBJECTIVES = ("logistic", "nlls", "chain", "zero_chain")
TOPOLOGIES = (
    "random-geometric",
    "two-star-hop",
    "rotating-star",
    "static-complete",
    "static-star",
    "static-ring",
    "static-path",
)


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
    strict_step: int = 0
    per_node_coins: int = 0

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {', '.join(METHODS)}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}; valid: {', '.join(OBJECTIVES)}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; valid: {', '.join(TOPOLOGIES)}")
        if self.objective in ("logistic", "nlls"):
            if not self.dataset:
                raise ValueError(f"objective {self.objective!r} needs --dataset")
            if not Path(self.dataset).exists():
                raise ValueError(f"dataset file not found: {self.dataset}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("reg", "radius", "gt_eta", "chain_L", "chain_mu", "zc_L", "zc_delta", "stop_dist_sq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("gt_eta", "stop_dist_sq"):  # 0 keeps the default: derived step, no stop
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("per_node_coins", "strict_step"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {getattr(self, name)}")
        for name, reader in self._unread().items():
            if getattr(self, name) != self.__dataclass_fields__[name].default:
                raise ValueError(f"{name}={getattr(self, name)!r} is never read: {reader} ignores it")

    def _unread(self) -> dict[str, str]:
        """The fields this run never reads, each with what ignores it."""
        method, objective = f"method {self.method!r}", f"objective {self.objective!r}"
        unread = {}
        if self.method != "gt_baseline":
            unread["gt_eta"] = method
        else:
            unread["b"] = method
        if self.method != "gt_page":
            unread["strict_step"] = unread["per_node_coins"] = method
        if self.objective == "zero_chain":  # it brings its own rotating star
            unread["topology"] = unread["radius"] = unread["chi_trials"] = objective
        elif self.topology != "random-geometric":
            unread["radius"] = unread["chi_trials"] = f"topology {self.topology!r}"
        if self.objective != "logistic":
            unread["reg"] = objective
        if self.objective not in ("logistic", "nlls"):
            unread["dataset"] = objective
        if self.objective in ("nlls", "zero_chain"):  # mu = 0: no minimizer to measure the distance to
            unread["stop_dist_sq"] = objective
        if self.objective != "chain":
            unread.update(dict.fromkeys(("chain_L", "chain_mu", "chain_dim"), objective))
        if self.objective != "zero_chain":
            unread.update(dict.fromkeys(("zc_L", "zc_delta"), objective))
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
        types = {f.name: f.type for f in fields(self)}
        for key, val in overrides.items():
            if key not in current:
                raise ValueError(f"unknown config key {key!r}")
            if val is None:
                continue
            kind = types[key]
            if kind == "int":
                current[key] = int(val)
            elif kind == "float":
                current[key] = float(val)
            else:
                current[key] = str(val)
        return ExperimentConfig(**current)

    def tag(self) -> str:
        return f"{self.method}_{self.objective}_{self.topology}_m{self.m}_n{self.n}_seed{self.seed}"


def _build_sequence(cfg: ExperimentConfig) -> GraphSequence:
    if cfg.topology == "random-geometric":
        return RandomGeometricSequence(cfg.m, cfg.radius, seed=cfg.seed + 104729)
    if cfg.topology == "two-star-hop":
        return TwoStarHopSequence(cfg.m)
    if cfg.topology == "rotating-star":
        return RotatingStarSequence(cfg.m)
    maker = {
        "static-complete": complete_graph,
        "static-star": star_graph,
        "static-ring": ring_graph,
        "static-path": path_graph,
    }[cfg.topology]
    return StaticSequence(maker(cfg.m))


def _build_objective(cfg: ExperimentConfig) -> tuple[FiniteSumObjective, GraphSequence | None]:
    """Returns (objective, its own graph sequence or None): the zero-chain instance brings its rotating star."""
    if cfg.objective in ("logistic", "nlls"):
        shards = partition_dataset(parse_libsvm(cfg.dataset), cfg.m, cfg.n, cfg.seed)
        return (logistic_objective(shards, cfg.reg) if cfg.objective == "logistic" else nlls_objective(shards)), None
    if cfg.objective == "chain":
        return ChainObjective(cfg.m, cfg.n, cfg.chain_L, cfg.chain_mu, cfg.chain_dim), None
    comms = cfg.budget_comms or 4 * cfg.budget_iters
    oracle = cfg.budget_oracle or max(cfg.n, cfg.budget_iters * cfg.n)
    return nonconvex_hard_objective(cfg.m, cfg.n, cfg.zc_L, cfg.zc_delta, comms, oracle)


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


def run_experiment(cfg: ExperimentConfig, progress_tracker: ProgressTracker | None = None):
    """Wire topology + objective + optimizer, run, and write trace artifacts.

    Returns ``(trace, csv_path, meta_path)``.  A run that ends in a :class:`RunAbort`
    carrying its records writes the artifacts of those records, with an ``abort`` entry
    in the sidecar, and then re-raises the abort.
    """
    cfg.validate()
    obj, hard_seq = _build_objective(cfg)
    seq = hard_seq or _build_sequence(cfg)
    info = obj.info
    try:
        chi = seq.chi if seq.chi is not None else measure_chi(seq, trials=cfg.chi_trials)
        seq.certificate = chi

        x_star = None
        if info.mu > 0:
            ref = reference_solution(obj)
            x_star = ref.x_star

        if cfg.method == "adom_vr":
            if info.mu <= 0:
                raise ValueError("adom_vr needs a strongly convex objective (mu > 0)")
            b = cfg.b or corollary_batch_size(info.mu, info.L, info.Lbar, obj.n)
            params = adom_vr_params(info.mu, info.L, info.Lbar, chi, obj.n, b)
            method = AdomVr(params)
        elif cfg.method == "gt_page":
            b = cfg.b or None
            params = gt_page_params(info.L, info.Lhat, chi, obj.n, b=b, strict_step=bool(cfg.strict_step))
            method = GtPage(params, per_node_coins=bool(cfg.per_node_coins))
        else:
            rho = 1.0 / chi
            eta = cfg.gt_eta or rho * rho / (4.0 * info.L)
            params = None
            method = GtBaseline(eta=eta)

        budgets = RunBudgets(
            max_iterations=cfg.budget_iters,
            max_communications=cfg.budget_comms or None,
            max_oracle_calls_per_node=cfg.budget_oracle or None,
        )
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
    if isinstance(seq, RandomGeometricSequence):
        built, resamples, chi_max, over = seq.counters()
        graphs = {"built": built, "resamples": resamples, "chi_max": chi_max, "builder_blocks": seq.builder_blocks}
    else:  # the other sequences build their graphs once, up front
        graphs, chi_max, over = None, seq.chi_max, seq.steps_over_certificate
    certificate = {
        "chi_schedule": chi,
        "chi_consumed_max": chi_max,
        "steps_over_certificate": over,
        "resamples_over_cap": 0,  # no chi cap redraws a step yet
    }
    windowed = cfg.method == "gt_page"  # the one method that certifies a window of rounds per iteration
    for name in ("window_bound_max", "windows_checked_exactly", "window_norm_max"):
        certificate[name] = getattr(seq, name) if windowed else None

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.tag()}.csv"
    meta_path = out_dir / f"{cfg.tag()}.json"
    write_trace_csv(trace, csv_path)
    with open(out_dir / f"{cfg.tag()}.graphs", "w") as sink:
        dump_sequence(seq, min(trace.final().comms, DUMP_STEPS) or 1, sink)
    values = trace.column("avg_value")
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
        "parameters": asdict(params) if params is not None else {"eta": method.eta},
        "records": len(trace.records),
        "counters": trace.metadata["counters"],
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
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--objective", choices=OBJECTIVES)
    parser.add_argument("--topology", choices=TOPOLOGIES)
    parser.add_argument("--dataset", help="LibSVM text file for data-backed objectives")
    parser.add_argument("--m", type=int, help="node count")
    parser.add_argument("--n", type=int, help="components per node")
    parser.add_argument("--b", type=int, help="batch size (0 = schedule default)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--reg", type=float, help="l2 regularization for the logistic loss")
    parser.add_argument("--radius", type=float, help="random geometric connection radius")
    parser.add_argument("--budget-iters", dest="budget_iters", type=int)
    parser.add_argument("--budget-comms", dest="budget_comms", type=int)
    parser.add_argument("--budget-oracle", dest="budget_oracle", type=int)
    parser.add_argument("--metric-every", dest="metric_every", type=int)
    parser.add_argument("--out", help="output directory for trace CSV/JSON")
    parser.add_argument("--gt-eta", dest="gt_eta", type=float, help="baseline step size")
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
