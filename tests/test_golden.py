"""Short README runs compared against traces frozen in ``tests/data/golden_traces.json``.

Iterations, comms and oracle counts (the CSV column and the per-node totals)
must match exactly.  The float columns must match within ``RTOL``, so a change
that only reorders floating-point sums (a batched oracle, say) passes while a
change to the logic fails.  Regenerate the file with
``tests/data/make_golden.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent / "data"))
from make_golden import GOLDEN_PATH, run_case  # noqa: E402

RTOL = 1e-9
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _split(rows: list[str]) -> tuple[np.ndarray, np.ndarray]:
    cells = [row.split(",") for row in rows]
    counts = np.array([[int(c) for c in row[:3]] for row in cells])
    floats = np.array([[float(c) for c in row[3:]] for row in cells])
    return counts, floats


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_golden(name, tmp_path):
    golden = GOLDEN[name]
    fresh = run_case(golden["config"], tmp_path)
    assert fresh["header"] == golden["header"]
    assert fresh["oracle_calls_per_node"] == golden["oracle_calls_per_node"]
    assert len(fresh["rows"]) == len(golden["rows"])
    counts, floats = _split(fresh["rows"])
    want_counts, want_floats = _split(golden["rows"])
    np.testing.assert_array_equal(counts, want_counts)  # iter, comms, oracle_calls
    np.testing.assert_allclose(floats, want_floats, rtol=RTOL, atol=0.0, equal_nan=True)


def test_case_rewrite_leaves_other_records(tmp_path):
    """``make_golden.py --case NAME`` rewrites the named record only: every other record keeps its bytes."""
    import make_golden

    text = GOLDEN_PATH.read_text()
    assert text == json.dumps(GOLDEN, indent=1) + "\n"
    name = "gt_baseline_zero_chain"
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({**GOLDEN, name: dict(GOLDEN[name], rows=[])}, indent=1) + "\n")
    make_golden.regenerate([name], path)
    fresh = json.loads(path.read_text())[name]
    assert fresh == run_case(make_golden.CASES[name], tmp_path)
    assert path.read_text() == json.dumps({**GOLDEN, name: fresh}, indent=1) + "\n"
