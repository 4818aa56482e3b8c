"""Regenerate the golden traces that ``tests/test_golden.py`` compares runs against.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_golden.py           # rewrite golden_traces.json
    PYTHONPATH=src python tests/data/make_golden.py --check   # compare, write nothing
    PYTHONPATH=src python tests/data/make_golden.py --case adom_vr_logistic_rg   # rewrite one record

``--case NAME`` (repeatable) limits a rewrite or a check to the named cases; a
rewrite leaves the other records as they are, drift and all.

``--check`` re-runs every case and prints, per float column, the largest
relative deviation from the frozen rows, which shows how much of the test's
``rtol`` a change uses; it exits with status 1 if a count or row differs.

Each case is a 200-iteration cut of a README CLI run.  ``golden_traces.json``
keeps, per case, the config, the CSV lines the run wrote and the per-node
oracle counts.  Regenerate only when a change is meant to alter the traces,
and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from gossipvr.harness import ExperimentConfig, run_experiment

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_traces.json"

CASES = {
    "adom_vr_logistic_rg": dict(
        method="adom_vr", objective="logistic", dataset="logreg500.libsvm", topology="random-geometric",
        m=10, n=10, reg=0.1, budget_iters=200, metric_every=5, seed=4,
    ),
    "gt_page_nlls_rg": dict(
        method="gt_page", objective="nlls", dataset="logreg500.libsvm", topology="random-geometric",
        m=10, n=10, budget_iters=200, metric_every=5, seed=0,
    ),
    "gt_baseline_zero_chain": dict(
        method="gt_baseline", objective="zero_chain", m=9, n=4, budget_iters=200, budget_comms=200, metric_every=5,
    ),
    "adom_vr_chain_two_star_hop": dict(
        method="adom_vr", objective="chain", topology="two-star-hop", m=6, n=4, budget_iters=200, metric_every=5,
    ),
}


def run_case(config: dict, out_dir: Path) -> dict:
    """Run one case (``dataset``, if any, relative to this directory) and return its golden record."""
    fields = dict(config, out=str(out_dir))
    if "dataset" in config:
        fields["dataset"] = str(HERE / config["dataset"])
    trace, csv_path, _ = run_experiment(ExperimentConfig().replace(**fields))
    header, *rows = csv_path.read_text().splitlines()
    return {
        "config": config,
        "header": header,
        "rows": rows,
        "oracle_calls_per_node": trace.metadata["oracle_calls_per_node"],
    }


def largest_deviations(fresh: dict, golden: dict) -> dict[str, float] | None:
    """Largest relative deviation of each float column, or None if a count or row differs."""
    rows = [row.split(",") for row in fresh["rows"]]
    want = [row.split(",") for row in golden["rows"]]
    if len(rows) != len(want) or fresh["oracle_calls_per_node"] != golden["oracle_calls_per_node"]:
        return None
    if any(r[:3] != w[:3] for r, w in zip(rows, want)):
        return None
    out = {}
    for col, name in enumerate(golden["header"].split(",")[3:], start=3):
        worst = 0.0
        for r, w in zip(rows, want):
            new, old = float(r[col]), float(w[col])
            if new != old and not (math.isnan(new) and math.isnan(old)):
                worst = max(worst, abs(new - old) / abs(old) if old else math.inf)
        out[name] = worst
    return out


def check(names: list[str]) -> int:
    golden = json.loads(GOLDEN_PATH.read_text())
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, record in golden.items():
            if name not in names:
                continue
            worst = largest_deviations(run_case(record["config"], Path(tmp)), record)
            if worst is None:
                print(f"{name}: counts or rows differ")
                status = 1
            else:
                print(f"{name}: counts exact; " + ", ".join(f"{col} {dev:.3g}" for col, dev in worst.items()))
    return status


def regenerate(names: list[str], path: Path = GOLDEN_PATH) -> None:
    """Re-run the named cases and rewrite their records in ``path``; the other records stay as they are."""
    golden = json.loads(path.read_text()) if path.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            golden[name] = run_case(CASES[name], Path(tmp))
    path.write_text(json.dumps(golden, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare fresh runs with the golden traces; write nothing")
    parser.add_argument("--case", action="append", choices=sorted(CASES), help="only this case (repeatable)")
    args = parser.parse_args()
    names = args.case or list(CASES)
    if args.check:
        return check(names)
    regenerate(names)
    print(f"wrote {', '.join(names)} to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
