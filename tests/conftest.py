import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

FIXTURE_500 = Path(__file__).parent / "data" / "logreg500.libsvm"


def child_left() -> bool:
    """Whether this process still has a child, running or exited but unreaped (which it reaps)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which this process still has a child: a random-geometric builder
    child must end with its run."""
    yield
    if child_left():
        pytest.fail("a child process outlived the test")


@pytest.fixture(scope="session")
def fixture_path() -> Path:
    return FIXTURE_500


@pytest.fixture(scope="session")
def objective_families(fixture_path) -> dict:
    """One small objective of every family, by name, for tests of the shared query surface."""
    from gossipvr.hardinstances import ChainObjective, nonconvex_hard_objective
    from gossipvr.harness import parse_libsvm, partition_dataset
    from gossipvr.objectives import logistic_objective, nlls_objective
    from test_objectives import random_quadratic

    shards = partition_dataset(parse_libsvm(fixture_path), 7, 9, seed=3)  # unequal blocks: padding is exercised
    return {
        "logistic": logistic_objective(shards, 0.1),
        "nlls": nlls_objective(shards, probe_pairs=100),
        "chain": ChainObjective(4, 3, big_l=4.0, mu=1.0, dim=8),
        "zero_chain": nonconvex_hard_objective(6, 3, big_l=1.0, delta=1.0, budget_comms=40, budget_oracle=40)[0],
        "callable": random_quadratic(np.random.default_rng(18), m=3, n=3),
    }
