"""gossipvr benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload adom_logistic_rg --seed 0 --seconds 30 --trace 0

The run repeats full ``run_experiment`` executions of the workload while
they fit in ``--seconds`` (at least two, so that their CSVs can be compared)
and reports medians.  ``--trace 0`` times untraced executions and reports
the end-to-end metrics, its times scaled to a reference host speed by
:func:`calibrate`; ``--trace 1`` alternates untraced and traced
executions and reports the per-layer metrics, the tracing overhead among
them.  Human-readable lines come first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# All matrices here are 10x10 or smaller: pin BLAS/OpenMP to one thread before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

_erf = np.vectorize(math.erf, otypes=[float])

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Setup-only executions per run, on top of the setup of every full execution:
# at least this many, and for at least this long.
SETUP_PASSES = 5
SETUP_SECONDS = 1.0
# Calibration time that defines a reference second: about the loop's median on
# the 2-core host the baseline was measured on.
REFERENCE_CALIBRATION_S = 0.04
# run()'s own time outside every layer span may reach this share of run_s
# when it exceeds the measured tracing overhead.
SELF_TIME_SLACK = 0.05


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def repeat(step, deadline: float, minimum: int) -> None:
    """Call ``step(i)`` at least ``minimum`` times, then while another call is
    expected to end before ``deadline``."""
    durations: list[float] = []
    while len(durations) < minimum or perf_counter() + statistics.median(durations) <= deadline:
        start = perf_counter()
        step(len(durations))
        durations.append(perf_counter() - start)


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy operations and Python loops.

    Shared hosts switch between speeds up to 2x apart and stay in one for tens
    of seconds, so a run's wall times follow the host, not the program.  This
    loop's time, taken right before and after each measured piece, tracks that
    speed.  Its mix is the program's: 10x10 products and ufuncs, gathered rows,
    masked ufuncs, segment sums, small eigensolves, tuples and per-node loops.
    """
    rng = np.random.default_rng(0)
    a, x = rng.random((10, 10)), rng.random((10, 20))
    feats, labels = rng.standard_normal((50, 20)), np.sign(rng.standard_normal(50))
    blocks = [np.arange(j, 50, 10) for j in range(10)]
    lap = a @ a.T + np.diag(np.arange(10.0))
    w, acc = np.zeros(20), 0.0
    start = perf_counter()
    for i in range(1500):
        y = a @ x
        acc += float(np.exp(-np.abs(y[:, :3])).sum()) * 1e-9 + (i % 7) * 0.5
        x = y / (1.0 + float(np.max(y)))
    for i in range(150):
        r = np.random.default_rng((3, i))
        picked = np.searchsorted(np.cumsum(np.full(10, 0.1)), r.random(4), side="right")
        rows = np.concatenate([blocks[int(j) % 10] for j in picked])
        f, y = feats[rows], labels[rows]
        margin = -y * (f @ w)
        sig, pos = np.empty_like(margin), margin >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-margin[pos]))
        e = np.exp(margin[~pos])
        sig[~pos] = e / (1.0 + e)
        w = w - 1e-3 * np.add.reduceat(f * (-y * sig)[:, None], np.arange(0, len(rows), 5), axis=0).mean(axis=0)
        pts = r.uniform(size=(10, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        ii, jj = np.where(np.triu(np.sum(diff * diff, axis=2) <= 0.49, k=1))
        edges = tuple(sorted((int(p), int(q), 1.0) for p, q in zip(ii, jj)))
        acc += len(edges) + float(np.linalg.eigvalsh(lap)[0]) + float(_erf(w[:8]).sum())
        for k in range(10):
            acc += float(w[k]) * 0.5
    return perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor turning a wall time measured between two calibrations into reference seconds."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


def end_to_end(workload, seed, out, seconds):
    from workloads import execute, setup_pass

    deadline = perf_counter() + seconds
    calibrations = [calibrate()]
    setups, runs, scales = [], [], []
    repeat(lambda i: setups.append(setup_pass(workload, seed, ROOT, out)[0]), perf_counter() + SETUP_SECONDS, SETUP_PASSES)
    calibrations.append(calibrate())
    setups = [s * host_scale(*calibrations[-2:]) for s in setups]

    def step(i):
        runs.append(execute(workload, seed, ROOT, out))
        calibrations.append(calibrate())
        scales.append(host_scale(*calibrations[-2:]))

    repeat(step, deadline, 2)
    done = [(r, k) for r, k in zip(runs, scales) if r.completed]
    setups += [r.setup_s * k for r, k in done]
    metrics, wall = {}, {}
    if done:
        n = len(done)
        metrics = {
            "total_s": (statistics.median(r.total_s * k for r, k in done), "s", n),
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "run_s": (statistics.median(r.run_s * k for r, k in done), "s", n),
            "comms": (statistics.median_low(r.comms for r, _ in done), "count", n),
            "oracle_calls_max": (statistics.median_low(r.oracle_calls_max for r, _ in done), "count", n),
            "residual_decades": (statistics.median(-math.log10(r.residual_ratio) for r, _ in done), "decades", n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
        wall = {
            "total_s": statistics.median(r.total_s for r, _ in done),
            "run_s": statistics.median(r.run_s for r, _ in done),
            "calibration_ms": 1e3 * statistics.median(calibrations),
        }
    return runs, metrics, {"wall": wall}


def per_layer(workload, seed, out, seconds):
    from tracer import Tracer, layer_metrics
    from workloads import execute

    plain, traced, layers, step_ms = [], [], [], []
    calibrations = [calibrate()]

    def step(i):
        if i % 2 == 0:
            plain.append(execute(workload, seed, ROOT, out))
            calibrations.append(calibrate())
            return
        tracer = Tracer()
        result = execute(workload, seed, ROOT, out, tracer)
        traced.append(result)
        if result.completed:
            values, steps = layer_metrics(tracer.spans, result.method)
            values["harness.artifact_bytes"] = result.artifact_bytes
            layers.append(values)
            step_ms.extend(steps)
        calibrations.append(calibrate())

    repeat(step, perf_counter() + seconds, 4)
    runs = plain + traced
    plain_done = [r for r in plain if r.completed]
    metrics, extra_checks = {}, {}
    if layers and plain_done:
        for name in layers[0]:
            if isinstance(layers[0][name], float):
                metrics[name] = (statistics.median(v[name] for v in layers), _unit(name), len(layers))
            else:
                metrics[name] = (statistics.median_low(v[name] for v in layers), _unit(name), len(layers))
        metrics["optimizers.step_ms.p50"] = (statistics.median(step_ms), "ms", len(step_ms))
        metrics["optimizers.step_ms.p99"] = (statistics.quantiles(step_ms, n=100)[98], "ms", len(step_ms))
        untraced_run_s = statistics.median(r.run_s for r in plain_done)
        overhead = metrics["trace.run_s"][0] - untraced_run_s
        metrics["trace.overhead_s"] = (overhead, "s", len(layers))
        metrics["host.calibration_ms"] = (1e3 * statistics.median(calibrations), "ms", len(calibrations))
        # The layers' self times must explain run_s up to the tracing overhead.
        unattributed = metrics["trace.unattributed_s"][0]
        extra_checks["layer_self_times_add_up_to_run_s"] = unattributed <= max(abs(overhead), SELF_TIME_SLACK * untraced_run_s)
    topology = {r.topology for r in runs if r.completed}
    return runs, metrics, {"checks": extra_checks, "topology": sorted(topology)}


def _unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith((".calls", ".units", ".steps", ".iters", "_restarts", "_refreshes")):
        return "count"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("us_per_unit"):
        return "us"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gossipvr" / "__init__.py").is_file():
        print(f"error: the gossipvr sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import DATASET, WORKLOADS, choose_seed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / DATASET).is_file():
        print(f"error: dataset {DATASET} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        started = perf_counter()
        seed = choose_seed(workload, args.seed, ROOT, out)
        chosen_s = perf_counter() - started
        measure = per_layer if args.trace else end_to_end
        runs, metrics, extra = measure(workload, seed, out, args.seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    checks = {}
    reference = next((r.csv for r in runs if r.completed), None)
    for i, r in enumerate(runs):
        for name, passed in r.checks.items():
            checks[f"{name}#{i}"] = passed
        if i and r.completed:
            checks[f"csv_identical_to_first#{i}"] = r.csv == reference
    checks.update(extra.get("checks", {}))
    failed = sorted(name for name, passed in checks.items() if not passed)

    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed} -> config seed {seed} (chosen in {chosen_s:.2f} s), trace {args.trace}")
    if "topology" in extra:
        print(f"topology run() received: {', '.join(extra['topology'])}; config says {workload.config.get('topology', 'random-geometric')}")
    if extra.get("wall"):
        print("unscaled wall medians: " + ", ".join(f"{k} = {v:.6g}" for k, v in extra["wall"].items()))
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (median of {samples})" if samples > 1 else f"metric {name} = {value:.6g} {unit}")
    print(f"checks attempted {len(checks)} failed {len(failed)}" + (f": {', '.join(failed)}" if failed else ""))
    result = {
        "correct": not failed and bool(metrics),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
