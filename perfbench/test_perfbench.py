"""Tests of the benchmark itself: seeds, checks, tracing and the layer split.

Run from the repository root with ``python -m pytest perfbench``.  They use
shortened copies of the workloads, except the baseline test, which runs each
workload once at its README seed (about 15 s).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gossipvr.harness as harness  # noqa: E402
from gossipvr import network, optimizers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from gossipvr.optimizers import RunAbort  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, choose_seed, execute, setup_pass  # noqa: E402


def shortened(name: str, iters: int = 20, **fields) -> workloads.Workload:
    """The workload cut to ``iters`` iterations; its residual threshold no longer applies."""
    w = WORKLOADS[name]
    fields.setdefault("residual_max", float("inf"))
    config = dict(w.config, budget_iters=iters)
    if "budget_comms" in config:
        config["budget_comms"] = iters
    return dataclasses.replace(w, config=config, **fields)


def run_main(monkeypatch, capsys, workload, trace=0):
    monkeypatch.setitem(WORKLOADS, workload.name, workload)
    assert bench.main(["--workload", workload.name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name, in_band, other", [("adom_logistic_rg", 4, 11), ("gtpage_nlls_rg", 0, 2)])
def test_seed_changes_inputs_of_random_geometric_workloads(tmp_path, name, in_band, other):
    w = WORKLOADS[name]
    assert choose_seed(w, in_band, ROOT, tmp_path) == in_band
    assert choose_seed(w, other, ROOT, tmp_path) == other
    _, first = setup_pass(w, in_band, ROOT, tmp_path)
    _, again = setup_pass(w, in_band, ROOT, tmp_path)
    _, second = setup_pass(w, other, ROOT, tmp_path)
    assert first["seq"].graph(0) == again["seq"].graph(0)
    assert (first["obj"].info.L_ij == again["obj"].info.L_ij).all()
    assert first["seq"].graph(0) != second["seq"].graph(0)
    assert not (first["obj"].info.L_ij == second["obj"].info.L_ij).all()


def test_seed_outside_the_chi_band_is_replaced(tmp_path):
    w = WORKLOADS["gtpage_nlls_rg"]
    chosen = choose_seed(w, 1, ROOT, tmp_path)  # seed 1 measures chi = 10: ten stages
    assert chosen != 1 and chosen % workloads.SEED_STRIDE == 1
    assert choose_seed(w, 1, ROOT, tmp_path) == chosen
    _, marks = setup_pass(w, chosen, ROOT, tmp_path)
    assert marks["method"].params.stages == 11


def test_zero_chain_seed_is_passed_through(tmp_path):
    assert choose_seed(WORKLOADS["gtbase_zerochain_star"], 7, ROOT, tmp_path) == 7


def test_passing_run_counts_every_check(monkeypatch, capsys):
    lines, result = run_main(monkeypatch, capsys, shortened("gtbase_zerochain_star"))
    assert result["correct"] and result["failed"] == 0
    # Per execution: completion, comms, NaN, residual, progress audit; from the
    # second on, the CSV comparison.
    executions = 2
    assert result["attempted"] == 5 * executions + (executions - 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert any(line.startswith("metric total_s = ") and "median of 2" in line for line in lines)


def test_failing_check_is_counted(monkeypatch, capsys):
    _, result = run_main(monkeypatch, capsys, shortened("gtpage_nlls_rg", residual_max=0.0))
    assert not result["correct"]
    assert result["failed"] == 2  # the residual check of each execution
    assert result["attempted"] > result["failed"]


def test_run_abort_is_counted_as_a_failure(monkeypatch, capsys):
    def abort(*args, **kwargs):
        raise RunAbort("diverged", trace=None)

    monkeypatch.setattr(harness, "run", abort)
    _, result = run_main(monkeypatch, capsys, shortened("gtbase_zerochain_star"))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"] == {}


def test_traced_execution_writes_the_same_csv_and_splits_the_layers(tmp_path):
    w = shortened("gtpage_nlls_rg")
    plain = execute(w, 0, ROOT, tmp_path)
    tracer = Tracer()
    traced = execute(w, 0, ROOT, tmp_path, tracer)
    assert traced.csv == plain.csv
    assert harness.run is optimizers.run and harness.measure_chi is network.measure_chi
    batch = setup_pass(w, 0, ROOT, tmp_path)[1]["method"].params.b
    values, step_ms = layer_metrics(tracer.spans, traced.method)
    assert values["optimizers.step.calls"] == len(step_ms) == 20
    assert values["network.gossip.steps"] == plain.comms == 20 * 11
    assert values["network.gossip.calls"] == 2 * plain.comms
    assert values["objectives.sampled_gradient_pairs.units"] == batch * values["objectives.sampled_gradient_pairs.calls"]
    assert values["objectives.sampled_gradient_pairs.calls"] + values["objectives.local_gradient.calls"] == 10 * 21
    assert values["optimizers.full_restarts"] * 10 == values["objectives.local_gradient.calls"] - 10
    assert values["hardinstances.local_gradient.calls"] == 0
    assert values["trace.unattributed_s"] < 0.05 * values["trace.run_s"]


def test_zero_chain_reports_the_rotating_star_it_runs_on(tmp_path):
    w = shortened("gtbase_zerochain_star")
    tracer = Tracer()
    result = execute(w, 0, ROOT, tmp_path, tracer)
    assert w.config.get("topology", "random-geometric") == "random-geometric"
    assert result.topology == "rotating-star"
    values, _ = layer_metrics(tracer.spans, result.method)
    assert values["hardinstances.local_gradient.calls"] == 9 * 21
    assert values["objectives.local_gradient.calls"] == 0
    assert values["network.graph.s"] == 0.0  # the star's gossip matrices are built once, in setup


def test_benchmark_json_lists_every_metric_the_run_reports(monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    _, result = run_main(monkeypatch, capsys, shortened("adom_logistic_rg"), trace=1)
    assert result["correct"], result
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adom_logistic_rg", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_baseline_counts_at_readme_seeds(tmp_path):
    baseline = json.loads((HERE / "baseline.json").read_text())["readme_seeds"]
    for name, expected in baseline.items():
        w = WORKLOADS[name]
        seed = choose_seed(w, expected["seed"], ROOT, tmp_path)
        assert seed == expected["seed"]
        result = execute(w, seed, ROOT, tmp_path)
        assert all(result.checks.values()), result.checks
        assert (result.comms, result.oracle_calls_max) == (expected["comms"], expected["oracle_calls_max"])
