import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gossipvr.hardinstances import ChainObjective, nonconvex_hard_objective
from gossipvr.harness import parse_libsvm, partition_dataset
from gossipvr.objectives import (
    CallableFiniteSum,
    CountingObjective,
    DatasetShard,
    FiniteSumObjective,
    SmoothnessInfo,
    finite_difference_check,
    logistic_objective,
    _logistic_dloss,
    _nlls_dloss,
    _nlls_loss,
    nlls_objective,
)


def make_shards(rng, m=3, n=2, d=4, rows_per_block=3, labels="pm1", scale=1.0):
    shards = []
    for i in range(m):
        rows = n * rows_per_block
        feats = scale * rng.normal(size=(rows, d))
        if labels == "pm1":
            y = rng.choice([-1.0, 1.0], size=rows)
        else:
            y = rng.uniform(0, 1, size=rows)
        blocks = tuple(np.arange(j, rows, n) for j in range(n))
        shards.append(DatasetShard(node=i, features=feats, labels=y, block_rows=blocks))
    return shards


def quadratic_objective(mats, vecs):
    """f_ij(w) = 0.5 w^T A w - b^T w per component, with exact constants."""
    m, n = len(mats), len(mats[0])
    d = mats[0][0].shape[0]
    comps = []
    l_ij = np.zeros((m, n))
    mus = []
    for i in range(m):
        row = []
        for j in range(n):
            a, b = mats[i][j], vecs[i][j]
            row.append(lambda w, a=a, b=b: (0.5 * w @ a @ w - b @ w, a @ w - b))
            l_ij[i, j] = np.linalg.eigvalsh(a)[-1]
        comps.append(row)
        mean_a = sum(mats[i]) / n
        mus.append(np.linalg.eigvalsh(mean_a)[0])
    L = max(float(np.linalg.eigvalsh(sum(mats[i]) / n)[-1]) for i in range(m))
    lhat = min(max(float(np.sqrt((l_ij**2).mean(axis=1)).max()), L), math.sqrt(n) * L)
    info = SmoothnessInfo(L=L, mu=max(min(mus), 0.0), L_ij=l_ij, Lhat=lhat)
    return CallableFiniteSum(comps, d, info)


def random_quadratic(rng, m=2, n=3, d=4):
    mats, vecs = [], []
    for _ in range(m):
        row_a, row_b = [], []
        for _ in range(n):
            q = rng.normal(size=(d, d))
            row_a.append(q @ q.T / d + 0.5 * np.eye(d))
            row_b.append(rng.normal(size=d))
        mats.append(row_a)
        vecs.append(row_b)
    return quadratic_objective(mats, vecs)


class TestLogistic:
    def test_single_row_at_zero(self):
        shard = DatasetShard(0, np.array([[1.0, 0.0]]), np.array([1.0]), (np.array([0]),))
        obj = logistic_objective([shard], 0.0)
        assert obj.component_value(0, 0, np.zeros(2)) == pytest.approx(math.log(2))
        assert obj.component_gradient(0, 0, np.zeros(2)) == pytest.approx([-0.5, 0.0])

    def test_regularizer_gradient_vanishes_at_zero(self):
        rng = np.random.default_rng(0)
        shards = make_shards(rng)
        g_reg = logistic_objective(shards, 0.1).local_gradient(0, np.zeros(4))
        g_no = logistic_objective(shards, 0.0).local_gradient(0, np.zeros(4))
        assert g_reg == pytest.approx(g_no)

    def test_rejects_bad_labels(self):
        good = DatasetShard(0, np.eye(2), np.array([1.0, -1.0]), (np.array([0]), np.array([1])))
        bad = [DatasetShard(i, np.eye(2), np.array([1.0, y]), (np.array([0]), np.array([1]))) for i, y in ((1, 2.0), (2, 3.0))]
        with pytest.raises(ValueError, match=r"\+-1, got 2\.0$"):  # the first bad label in node order
            logistic_objective([good, *bad], 0.0)

    def test_rejects_empty_block(self):
        shard = DatasetShard(0, np.eye(2), np.array([1.0, -1.0]), (np.arange(2), np.array([], dtype=int)))
        with pytest.raises(ValueError, match="empty"):
            logistic_objective([shard], 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        obj = logistic_objective(make_shards(rng), 0.1)
        x = rng.normal(size=(obj.m, obj.d))
        report = finite_difference_check(obj, x, h=1e-6, tolerance=1e-5)
        assert report.passed, report

    def test_local_gradient_matches_component_mean(self):
        rng = np.random.default_rng(2)
        obj = logistic_objective(make_shards(rng, n=3), 0.05)
        w = rng.normal(size=obj.d)
        mean = sum(obj.component_gradient(0, j, w) for j in range(obj.n)) / obj.n
        assert obj.local_gradient(0, w) == pytest.approx(mean)


class TestNlls:
    def test_zero_residual(self):
        # With labels exactly sigmoid(<a, w>), value and gradient vanish at w.
        a = np.array([[1.0, 2.0]])
        w = np.array([0.3, -0.2])
        y = 1.0 / (1.0 + np.exp(-(a @ w)))
        shard = DatasetShard(0, a, y, (np.array([0]),))
        obj = nlls_objective([shard], probe_pairs=50)
        assert obj.component_value(0, 0, w) == pytest.approx(0.0, abs=1e-14)
        assert obj.component_gradient(0, 0, w) == pytest.approx(np.zeros(2), abs=1e-12)

    def test_hand_value_and_gradient_at_zero(self):
        shard = DatasetShard(0, np.array([[1.0]]), np.array([0.0]), (np.array([0]),))
        obj = nlls_objective([shard], probe_pairs=50)
        assert obj.component_value(0, 0, np.zeros(1)) == pytest.approx(0.25)
        assert obj.component_gradient(0, 0, np.zeros(1)) == pytest.approx([0.25])

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        obj = nlls_objective(make_shards(rng, labels="real"), probe_pairs=100)
        x = rng.normal(size=(obj.m, obj.d))
        report = finite_difference_check(obj, x, h=1e-6, tolerance=1e-5)
        assert report.passed, report

    def test_rejects_empty_block_and_mismatched_shards(self):
        shard = DatasetShard(0, np.eye(2), np.array([0.2, 0.7]), (np.arange(2), np.array([], dtype=int)))
        with pytest.raises(ValueError, match="empty"):
            nlls_objective([shard], probe_pairs=10)
        rng = np.random.default_rng(5)
        shards = make_shards(rng, m=1, n=2, labels="real") + make_shards(rng, m=1, n=3, labels="real")
        with pytest.raises(ValueError, match="agree on n and d"):
            nlls_objective(shards, probe_pairs=10)

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_rejects_a_probe_without_pairs(self, pairs):
        shards = make_shards(np.random.default_rng(7), labels="real")
        with pytest.raises(ValueError, match=f"probe_pairs must be at least 1, got {pairs}"):
            nlls_objective(shards, probe_pairs=pairs)


# The two-branch sigmoid as a plain expression, the reference of the logistic derivative.
def plain_sigmoid(t):
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def plain_nlls_loss(t, y):
    return (y - 1.0 / (1.0 + np.exp(np.minimum(-t, 700.0)))) ** 2


def plain_nlls_dloss(t, y):
    z = np.exp(np.minimum(-t, 700.0))
    sig = 1.0 / (1.0 + z)
    return 2.0 * (sig - y) * z * sig * sig


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is no wider than double here")
def test_nlls_dloss_matches_the_long_double_closed_form():
    """Against ``2 (sig - y) sig (1 - sig)`` in long double, ``sig (1 - sig) = e / (1 + e)^2`` with
    ``e = exp(-|t|)``, for |t| up to 700: within 8 ulp of it at label -1, where ``sig - y`` cannot
    cancel, also above t = 37, where ``1 - sig`` rounds to 0 in double; at labels 1 and in [0, 1]
    its error stays within 8 ulp of the terms' magnitude ``2 (sig + |y|) sig (1 - sig)``."""
    rng = np.random.default_rng(41)
    t = np.concatenate([rng.uniform(-700.0, 700.0, 100_000), rng.uniform(37.0, 700.0, 50_000),
                        20.0 * rng.standard_normal(100_000), [700.0, -700.0, 37.0, 38.0, 0.0, -0.0, 5e-324]])
    tl = t.astype(np.longdouble)
    e = np.exp(-np.abs(tl))
    curvature = e / (1 + e) ** 2  # sig (1 - sig)
    sig = np.where(tl >= 0, 1, e) / (1 + e)
    for y in (-1.0, 1.0, rng.uniform(0.0, 1.0, t.shape)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _nlls_dloss(t, y)
        want = 2 * (sig - y) * curvature
        scale = (2 * (sig + np.abs(y)) * curvature).astype(float)
        assert np.all(np.abs(got - want).astype(float) <= 8.0 * np.spacing(scale))
        if np.ndim(y) == 0 and y == -1.0:
            assert np.all(np.abs(got - want).astype(float) <= 8.0 * np.spacing(np.abs(want).astype(float)))


def plain_logistic_dloss(t, y):
    return -y / (1.0 + np.exp(np.minimum(y * t, 700.0)))


def two_branch_logistic_dloss(t, y):
    """The logistic derivative as ``-y sigmoid(-y t)``, through the two-branch sigmoid."""
    neg_y = -y
    return neg_y * plain_sigmoid(neg_y * t)


def test_logistic_dloss_stays_within_4_ulp_of_the_two_branch_form():
    """The capped one-branch kernel against ``-y sigmoid(-y t)``: at most 4 ulp apart where |t| <= 700,
    NaN exactly where it is NaN, and below 1e-300 in magnitude where it rounds to 0."""
    rng = np.random.default_rng(40)
    t = np.concatenate([rng.uniform(-700.0, 700.0, 200_000), 40.0 * rng.standard_normal(200_000),
                        rng.uniform(-1e-3, 1e-3, 50_000), [700.0, -700.0, 699.99, 0.0, -0.0, 5e-324, -5e-324]])
    y = rng.choice([-1.0, 1.0], t.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = _logistic_dloss(t, y), two_branch_logistic_dloss(t, y)
    assert np.all(want != 0.0)
    assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 4.0
    special = np.array([800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan, 1e4, -1e4])
    for y in (1.0, -1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = _logistic_dloss(special, y), two_branch_logistic_dloss(special, y)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        zero = want == 0.0
        assert zero.sum() == 3 and np.all(np.abs(got[zero]) < 1e-300)
        kept = ~zero & ~np.isnan(want)
        assert np.array_equal(got[kept], want[kept])


@pytest.mark.parametrize("kernel, plain, labels", [
    (_nlls_dloss, plain_nlls_dloss, lambda rng, shape: rng.uniform(0, 1, shape)),
    (_logistic_dloss, plain_logistic_dloss, lambda rng, shape: rng.choice([-1.0, 1.0], shape)),
    (_nlls_loss, plain_nlls_loss, lambda rng, shape: rng.uniform(0, 1, shape)),
])
def test_loss_derivatives_equal_their_plain_expressions_bit_for_bit(kernel, plain, labels):
    """The derivatives, and the NLLS loss that shares their in-place sigmoid: NaN, infinities, subnormals,
    0-d arrays and numpy scalars included; the margins are left as they are."""
    rng = np.random.default_rng(1)
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2e-310, -2e-310, 800.0, -800.0]
    t = np.concatenate([special, 30.0 * rng.standard_normal(488)]).reshape(25, 20)
    cases = [(t, labels(rng, t.shape)), (t, labels(rng, (25, 1))), (t, float(labels(rng, ())))]
    cases += [(np.asarray(x), labels(rng, ())) for x in (3.0, -np.inf, np.nan)] + [(np.float64(-2.5), labels(rng, ()))]
    for t, y in cases:
        before = np.copy(t)
        got, want = kernel(t, y), plain(t, y)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes(), (t, y)
        assert np.asarray(t).tobytes() == before.tobytes()


NLLS_CONSTANTS = Path(__file__).parent / "data" / "nlls_constants.json"
# Partitions of logreg500 as (m, n, seed, probe_pairs): two README-size ones, an uneven one
# (m * n = 91 blocks of 5 or 6 rows) and a short probe.
NLLS_CASES = {"m10_n10_seed0": (10, 10, 0, 1000), "m10_n10_seed4": (10, 10, 4, 1000),
              "m7_n13_seed1": (7, 13, 1, 1000), "m10_n10_seed0_pairs37": (10, 10, 0, 37)}


def nlls_constants(fixture_path, m, n, seed, pairs):
    """``float.hex`` of the probed NLLS constants, the schedule ``gt_page`` runs on."""
    info = nlls_objective(partition_dataset(parse_libsvm(fixture_path), m, n, seed), probe_pairs=pairs).info
    return {"L": info.L.hex(), "Lbar": info.Lbar.hex(), "Lhat": info.Lhat.hex(),
            "L_ij": [[float(v).hex() for v in row] for row in info.L_ij]}


@pytest.mark.parametrize("case", NLLS_CASES)
def test_nlls_probe_constants_are_pinned_bit_for_bit(fixture_path, case):
    """The probe's constants equal the frozen ones to the last bit: a faster probe must not move
    the schedule.  Regenerate the file only with a change that means to move it:
    ``{case: nlls_constants(path, *args) for case, args in NLLS_CASES.items()}``, indent 1."""
    assert nlls_constants(fixture_path, *NLLS_CASES[case]) == json.loads(NLLS_CONSTANTS.read_text())[case]


def test_padded_block_tensors_match_the_block_loop(objective_families):
    """The one-scatter fill of the padded tensors equals filling them block by block."""
    obj = objective_families["logistic"]  # 7 x 9 blocks of unequal sizes
    R = max(rows.size for s in obj._shards for rows in s.block_rows)
    feats, labels, weights = np.zeros((obj.m, obj.n, R, obj.d)), np.ones((obj.m, obj.n, R)), np.zeros((obj.m, obj.n, R))
    for i, s in enumerate(obj._shards):
        for j, rows in enumerate(s.block_rows):
            feats[i, j, : rows.size] = s.features[rows]
            labels[i, j, : rows.size] = s.labels[rows]
            weights[i, j, : rows.size] = 1.0 / rows.size
    assert obj._features.tobytes() == feats.tobytes()
    assert obj._labels.tobytes() == labels.tobytes()
    assert obj._weights.tobytes() == weights.tobytes()


@pytest.mark.parametrize("family", ["logistic", "nlls"])
def test_shard_averages_match_the_node_batched_form(objective_families, family):
    """The in-place averages answer the base class's node-batched averages bit for bit."""
    obj = objective_families[family]
    rng = np.random.default_rng(23)
    for scale in (0.0, 1e-3, 1.0, 30.0):
        w = scale * rng.normal(size=obj.d)
        w[rng.random(obj.d) < 0.2] = -0.0
        assert obj.average_gradient(w).tobytes() == FiniteSumObjective.average_gradient(obj, w).tobytes()
        assert np.float64(obj.average_value(w)).tobytes() == np.float64(FiniteSumObjective.average_value(obj, w)).tobytes()


def assert_stacked_averages(obj, W):
    """``average_*(W)[k]`` is bitwise ``average_*(W[k])``, for the stack ``W`` and a stack of one
    point; a lone point gives a float and a (d,) array."""
    for stack in (W, W[:1]):
        grads, values = obj.average_gradient(stack), obj.average_value(stack)
        assert grads.shape == stack.shape and values.shape == (len(stack),)
        for k, w in enumerate(stack):
            grad, value = obj.average_gradient(w), obj.average_value(w)
            assert type(value) is float and grad.shape == (obj.d,)
            assert grads[k].tobytes() == grad.tobytes(), k
            assert values[k].tobytes() == np.float64(value).tobytes(), k


@pytest.mark.parametrize("family", ["logistic", "nlls"])
def test_shard_averages_of_a_stack_equal_each_point_alone(objective_families, family):
    obj = objective_families[family]
    rng = np.random.default_rng(24)
    W = rng.normal(size=(40, obj.d)) * np.repeat([0.0, 1e-3, 1.0, 30.0], 10)[:, None]
    W[rng.random(W.shape) < 0.2] = -0.0
    assert_stacked_averages(obj, W)
    # Both through the base class's node-batched form too: one query over K * m rows.
    base = FiniteSumObjective.average_gradient(obj, W), FiniteSumObjective.average_value(obj, W)
    assert base[0].tobytes() == obj.average_gradient(W).tobytes()
    assert base[1].tobytes() == obj.average_value(W).tobytes()


def reference_block_gradients(obj, nodes, idx, X):
    """The per-block kernel ``ShardObjective`` ran before its node-level products: the blocks
    gathered by two-index indexing, then one margin and one gradient product per block."""
    at = (nodes[:, None], idx)
    a, y, wt, x = obj._features[at], obj._labels[at], obj._weights[at], X[:, None, :]
    g = ((obj.dloss((a @ x[..., None])[..., 0], y) * wt)[..., None, :] @ a)[..., 0, :]
    return g + obj.reg * x if obj.reg else g


def assert_relatively_close(got, want):
    """Each gradient within 1e-12 of the reference, relative to the reference's largest entry."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want).max(axis=-1) <= 1e-12 * np.abs(want).max(axis=-1))


@pytest.mark.parametrize("family", ["logistic", "nlls"])
def test_shard_gradients_match_the_per_block_kernel(objective_families, family):
    obj = objective_families[family]  # 7 x 9 blocks of unequal sizes
    rng = np.random.default_rng(25)
    nodes, every = np.array([obj.m - 1, 0, 3, 3]), np.arange(obj.n)
    for scale in (1e-3, 1.0, 30.0):
        idx = rng.integers(0, obj.n, size=(len(nodes), 5))
        X, X_old = scale * rng.normal(size=(2, len(nodes), obj.d))
        components = reference_block_gradients(obj, nodes, np.tile(every, (len(nodes), 1)), X)
        pairs = zip(obj.batch_sampled_gradient_pairs(nodes, idx, X, X_old), (X, X_old))
        assert_relatively_close(obj.batch_sampled_gradients(nodes, idx, X), reference_block_gradients(obj, nodes, idx, X))
        for got, x in pairs:
            assert_relatively_close(got, reference_block_gradients(obj, nodes, idx, x))
        assert_relatively_close(obj.batch_component_gradients(nodes, X), components)
        assert_relatively_close(obj.batch_local_gradients(nodes, X), components.mean(axis=1))
        everywhere = np.tile(every, (obj.m, 1))
        averages = np.stack([
            reference_block_gradients(obj, np.arange(obj.m), everywhere, np.tile(x, (obj.m, 1))).mean(axis=1).mean(axis=0)
            for x in X
        ])
        assert_relatively_close(obj.average_gradient(X), averages)
        assert_relatively_close(obj.average_gradient(X[0]), averages[0])


@pytest.mark.parametrize("family", ["logistic", "nlls"])
def test_a_nan_point_spoils_only_its_own_node_rows(objective_families, family):
    obj = objective_families[family]
    rng = np.random.default_rng(26)
    nodes, idx = np.array([2, 0, 5]), rng.integers(0, obj.n, size=(3, 4))
    X, X_old = rng.normal(size=(2, 3, obj.d))
    X[1] = np.nan
    g_new, g_old = obj.batch_sampled_gradient_pairs(nodes, idx, X, X_old)
    for got in (obj.batch_sampled_gradients(nodes, idx, X), g_new, obj.batch_component_gradients(nodes, X), obj.batch_local_gradients(nodes, X)):
        assert np.isnan(got[1]).all() and np.isfinite(np.delete(got, 1, axis=0)).all()
    assert np.isfinite(g_old).all()  # the pair's other point, though it shares the NaN point's products


def chain_slot_reference(obj, i, y):
    """The chain's one-slot formulas, frozen as the reference its stacked queries answer bit for bit: node
    i's value and gradient at one slot ``y``, with the quadratic as ``y @ y`` and the square as a scalar's
    ``** 2`` (which goes through ``pow``)."""
    mu, c = obj.mu_chain, (obj.big_l - obj.mu_chain) / 4.0
    if i not in (0, 1):
        return 0.5 * (mu / (obj.m - 2)) * y @ y, (mu / (obj.m - 2)) * y
    # The left node couples the 1-based pairs (2k, 2k+1), the right node (2k-1, 2k).
    first = 1 if i == 0 else 0
    end = first + 2 * ((obj.dim - first) // 2)
    lead, trail = slice(first, end, 2), slice(first + 1, end, 2)
    diff = y[lead] - y[trail]
    val, grad = 0.5 * mu * y @ y, mu * y
    if i == 0:
        val += c * (y[0] - 1.0) ** 2
        grad[0] += 2.0 * c * (y[0] - 1.0)
    grad[lead] += 2.0 * c * diff
    grad[trail] -= 2.0 * c * diff
    return val + float(np.sum(c * diff * diff)), grad


def test_chain_values_are_the_slot_formula_values(objective_families, monkeypatch):
    """The chain's values are its one-slot formula's values bit for bit, and computing them takes no slot gradient."""
    obj = objective_families["chain"]
    nodes = np.tile([0, 1, 3, 2, 1], 20)  # both chain nodes and the bystanders
    X = np.random.default_rng(27).normal(size=(len(nodes), obj.d))
    X[::7, ::3] = -0.0
    want = np.array([[chain_slot_reference(obj, i, y)[0] for y in x.reshape(obj.n, obj.dim)] for i, x in zip(nodes, X)])
    average = np.array([[chain_slot_reference(obj, i, y)[0] for y in X[0].reshape(obj.n, obj.dim)] for i in range(obj.m)])
    monkeypatch.setattr(obj, "_gradients", None)
    got = obj.batch_component_values(nodes, X)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.float64(obj.average_value(X[0])).tobytes() == average.mean(axis=1).reshape(1, -1).mean(axis=1)[0].tobytes()


def test_logistic_rejects_negative_regularization():
    with pytest.raises(ValueError, match="nonnegative"):
        logistic_objective(make_shards(np.random.default_rng(6)), -0.1)


class TestSmoothnessInfo:
    @pytest.mark.parametrize("family", ["logistic", "nlls", "quadratic"])
    def test_ordering(self, family):
        rng = np.random.default_rng(4)
        if family == "logistic":
            obj = logistic_objective(make_shards(rng), 0.1)
        elif family == "nlls":
            obj = nlls_objective(make_shards(rng, labels="real"), probe_pairs=200)
        else:
            obj = random_quadratic(rng)
        info, n = obj.info, obj.n
        assert info.L <= info.Lbar * (1 + 1e-12) <= n * info.L * (1 + 1e-12)
        assert info.L <= info.Lhat * (1 + 1e-12) <= math.sqrt(n) * info.L * (1 + 1e-12)
        assert info.mu <= info.L

    @pytest.mark.parametrize("family", ["logistic", "nlls"])
    def test_empirical_smoothness(self, family):
        rng = np.random.default_rng(5)
        if family == "logistic":
            obj = logistic_objective(make_shards(rng, rows_per_block=4), 0.1)
        else:
            obj = nlls_objective(make_shards(rng, rows_per_block=4, labels="real"), probe_pairs=500)
        for _ in range(100):
            u = rng.normal(size=obj.d)
            v = u + rng.normal(scale=0.5, size=obj.d)
            for i in range(obj.m):
                lhs = np.linalg.norm(obj.local_gradient(i, u) - obj.local_gradient(i, v))
                assert lhs <= 1.01 * obj.info.L * np.linalg.norm(u - v) + 1e-12

    @pytest.mark.parametrize("family", ["logistic", "nlls"])
    def test_empirical_average_smoothness(self, family):
        rng = np.random.default_rng(6)
        if family == "logistic":
            obj = logistic_objective(make_shards(rng), 0.1)
        else:
            obj = nlls_objective(make_shards(rng, labels="real"), probe_pairs=500)
        for _ in range(100):
            u = rng.normal(size=obj.d)
            v = u + rng.normal(scale=0.5, size=obj.d)
            gap_sq = np.sum((u - v) ** 2)
            for i in range(obj.m):
                mean_sq = np.mean(
                    [np.sum((obj.component_gradient(i, j, u) - obj.component_gradient(i, j, v)) ** 2) for j in range(obj.n)]
                )
                assert mean_sq <= 1.01 * obj.info.Lhat**2 * gap_sq + 1e-12

    @pytest.mark.parametrize(
        "family",
        [
            "logistic",
            pytest.param(
                "nlls",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 1: the NLLS gradient-ratio probe gives an L below the largest node "
                    "Hessian norm (0.0383 against 0.0419 at w = 0)",
                ),
            ),
        ],
    )
    def test_node_smoothness_bounds_the_hessian(self, fixture_path, family):
        """``L`` is at least every node's Hessian norm, by central differences of the node gradients, at
        ``w = 0`` and at random points with N(0, 0.25) entries, on the README runs' 10 x 10 partition.  The
        1e-9 relative slack covers the differences' rounding; the NLLS shortfall is far larger.  The
        logistic ``L`` takes its node caps from an exact ``eigvalsh`` of the node Gram matrices."""
        shards = partition_dataset(parse_libsvm(fixture_path), 10, 10, seed=0)
        obj = logistic_objective(shards, 0.1) if family == "logistic" else nlls_objective(shards)
        nodes, h, rng = np.arange(obj.m), 1e-4, np.random.default_rng(8)
        for w in [np.zeros(obj.d)] + [rng.normal(scale=0.5, size=obj.d) for _ in range(4)]:
            hess = np.empty((obj.m, obj.d, obj.d))
            for k, step in enumerate(h * np.eye(obj.d)):
                plus, minus = (obj.batch_local_gradients(nodes, np.tile(w + s, (obj.m, 1))) for s in (step, -step))
                hess[:, :, k] = (plus - minus) / (2.0 * h)
            norms = np.abs(np.linalg.eigvalsh((hess + hess.transpose(0, 2, 1)) / 2.0)).max(axis=1)
            assert obj.info.L * (1 + 1e-9) >= norms.max(), (family, w)

    def test_strong_convexity(self):
        rng = np.random.default_rng(7)
        obj = logistic_objective(make_shards(rng), 0.3)
        for _ in range(100):
            u = rng.normal(size=obj.d)
            v = u + rng.normal(scale=0.5, size=obj.d)
            for i in range(obj.m):
                inner = np.dot(obj.local_gradient(i, u) - obj.local_gradient(i, v), u - v)
                assert inner >= 0.99 * obj.info.mu * np.sum((u - v) ** 2)


class TestFullGradient:
    def test_single_component(self):
        rng = np.random.default_rng(8)
        obj = random_quadratic(rng, m=2, n=1)
        x = rng.normal(size=(2, 4))
        g = obj.stacked_gradient(x)
        for i in range(2):
            assert g[i] == pytest.approx(obj.component_gradient(i, 0, x[i]))

    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(9)
        mats, vecs = [], []
        for _ in range(2):
            row_a = [np.diag(rng.uniform(1, 2, size=3)) for _ in range(2)]
            row_b = [rng.normal(size=3) for _ in range(2)]
            mats.append(row_a)
            vecs.append(row_b)
        obj = quadratic_objective(mats, vecs)
        x = rng.normal(size=(2, 3))
        g = obj.stacked_gradient(x)
        for i in range(2):
            a_mean = sum(mats[i]) / 2
            b_mean = sum(vecs[i]) / 2
            assert g[i] == pytest.approx(a_mean @ x[i] - b_mean)


class TestFiniteDifferenceCheck:
    def test_linear_function_is_exact(self):
        info = SmoothnessInfo(L=1.0, mu=0.0, L_ij=np.ones((1, 1)), Lhat=1.0)
        obj = CallableFiniteSum([[lambda w: (2.0 * w[0] - w[1], np.array([2.0, -1.0]))]], 2, info)
        report = finite_difference_check(obj, np.array([[0.3, -0.7]]), h=1e-6, tolerance=1e-8)
        assert report.max_rel_error < 1e-9

    def test_a_nan_value_fails_the_check(self):
        """A displaced value that is NaN makes its coordinate the worst, and the check fails."""
        info = SmoothnessInfo(L=1.0, mu=0.0, L_ij=np.ones((1, 1)), Lhat=1.0)
        obj = CallableFiniteSum([[lambda w: (np.nan if w[1] > 0 else 2.0 * w[0], np.array([2.0, 0.0]))]], 2, info)
        report = finite_difference_check(obj, np.array([[0.3, 0.0]]), h=1e-6, tolerance=1e-8)
        assert np.isnan(report.max_rel_error) and not report.passed
        assert (report.worst_node, report.worst_coordinate) == (0, 1)

    def test_rejects_nonpositive_h(self):
        rng = np.random.default_rng(15)
        obj = random_quadratic(rng)
        with pytest.raises(ValueError):
            finite_difference_check(obj, np.zeros((obj.m, obj.d)), h=0.0, tolerance=1e-5)


class TestCountingObjective:
    def test_counts_match_queries(self):
        rng = np.random.default_rng(16)
        obj = CountingObjective(random_quadratic(rng, m=2, n=3))
        w = rng.normal(size=4)
        obj.component_gradient(0, 1, w)
        obj.component_gradient_pair(0, 2, w, w + 1)
        obj.local_gradient(1, w)
        obj.local_component_gradients(1, w)
        assert obj.calls.tolist() == [2, 6]
        assert obj.max_calls() == 6

    def test_values_are_free(self):
        rng = np.random.default_rng(17)
        obj = CountingObjective(random_quadratic(rng))
        obj.component_value(0, 0, rng.normal(size=4))
        obj.local_value(1, rng.normal(size=4))
        assert obj.calls.sum() == 0


def per_node_answers(obj, nodes, idx, X, X_old):
    """The four node-batched queries, answered by stacking per-node queries."""
    pairs = [obj.sampled_gradient_pairs(int(i), ix, xn, xo) for i, ix, xn, xo in zip(nodes, idx, X, X_old)]
    return (
        np.stack([obj.sampled_gradients(int(i), ix, x) for i, ix, x in zip(nodes, idx, X)]),
        np.stack([g for g, _ in pairs]),
        np.stack([g for _, g in pairs]),
        np.stack([obj.local_component_gradients(int(i), x) for i, x in zip(nodes, X)]),
        np.stack([obj.local_gradient(int(i), x) for i, x in zip(nodes, X)]),
    )


def batched_answers(obj, nodes, idx, X, X_old):
    return (
        obj.batch_sampled_gradients(nodes, idx, X),
        *obj.batch_sampled_gradient_pairs(nodes, idx, X, X_old),
        obj.batch_component_gradients(nodes, X),
        obj.batch_local_gradients(nodes, X),
    )


class TestNodeBatchedQueries:
    @pytest.fixture(scope="class")
    def rows(self, fixture_path):
        return parse_libsvm(fixture_path)

    @pytest.mark.parametrize("family", ["logistic", "nlls"])
    @pytest.mark.parametrize("m,n", [(10, 10), (7, 9)])
    def test_shard_batched_equals_per_node_bitwise(self, rows, family, m, n):
        shards = partition_dataset(rows, m, n, seed=3)
        if (m, n) == (7, 9):  # remainders leave unequal blocks, so padding is exercised
            assert len({block.size for s in shards for block in s.block_rows}) > 1
        obj = logistic_objective(shards, 0.1) if family == "logistic" else nlls_objective(shards)
        rng = np.random.default_rng(m * n)
        for nodes in (np.arange(m), np.array([m - 1, 0, 2]), np.array([1])):
            k = len(nodes)
            idx = rng.integers(0, n, size=(k, 4))
            X, X_old = rng.normal(size=(2, k, obj.d))
            for got, want in zip(batched_answers(obj, nodes, idx, X, X_old), per_node_answers(obj, nodes, idx, X, X_old)):
                assert np.array_equal(got, want)

    def test_shard_gradients_match_row_loops(self, rows):
        shards = partition_dataset(rows, 7, 9, seed=3)
        obj = logistic_objective(shards, 0.1)
        w = np.random.default_rng(5).normal(size=obj.d)
        s = shards[4]
        assert [s.block_rows[j].size for j in (0, 8)] == [8, 7]  # block 8 carries one padding row
        for j in (0, 8):
            a, y = s.features[s.block_rows[j]], s.labels[s.block_rows[j]]
            want = sum(-yr * ar / (1 + np.exp(yr * (ar @ w))) for ar, yr in zip(a, y)) / len(y) + 0.1 * w
            assert np.allclose(obj.component_gradient(4, j, w), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ChainObjective(4, 3, big_l=4.0, mu=1.0, dim=8),
            lambda: nonconvex_hard_objective(3, 2, big_l=1.0, delta=1.0, budget_comms=40, budget_oracle=40)[0],
            lambda: random_quadratic(np.random.default_rng(18), m=3, n=3),
        ],
        ids=["chain", "zero_chain", "callable"],
    )
    def test_base_class_defaults_stack_per_node_queries(self, make):
        """k-row answers of each family's own batched queries equal its one-row answers.  The base-class
        loops are covered by ``test_benchmark_traced_objective_answers_batched_queries`` and
        ``test_per_node_proxy_writes_identical_csv``."""
        obj = make()
        rng = np.random.default_rng(19)
        nodes = np.array([obj.m - 1, 0])
        idx = rng.integers(0, obj.n, size=(2, 3))
        X, X_old = rng.normal(size=(2, 2, obj.d))
        for got, want in zip(batched_answers(obj, nodes, idx, X, X_old), per_node_answers(obj, nodes, idx, X, X_old)):
            assert np.array_equal(got, want)

    def test_counting_charges_equal_per_node_charges(self, objective_families):
        """The per-node queries charge through the batched charges, in their own units:
        one per sampled index (a pair is one), n per node gradient, and nothing for values."""
        for family, base in objective_families.items():
            rng = np.random.default_rng(20)
            nodes = np.array([base.m - 1, 1, 2])
            idx = rng.integers(0, base.n, size=(3, 2))
            X, X_old = rng.normal(size=(2, 3, base.d))
            batched, per_node = CountingObjective(base), CountingObjective(base)
            batched_answers(batched, nodes, idx, X, X_old)
            per_node_answers(per_node, nodes, idx, X, X_old)
            want = np.zeros(base.m, dtype=int)
            np.add.at(want, nodes, 2 + 2 + 2 * base.n)
            assert batched.calls.tolist() == per_node.calls.tolist() == want.tolist(), family

            counting, w, w_old = CountingObjective(base), X[0], X_old[0]
            for query, units in (
                (lambda: counting.component_gradient(1, 2, w), 1),
                (lambda: counting.component_gradient_pair(1, 2, w, w_old), 1),
                (lambda: counting.sampled_gradients(1, idx[0], w), 2),
                (lambda: counting.sampled_gradient_pairs(1, idx[0], w, w_old), 2),
                (lambda: counting.local_gradient(1, w), base.n),
                (lambda: counting.local_component_gradients(1, w), base.n),
                (lambda: counting.component_value(1, 2, w), 0),
                (lambda: counting.local_value(1, w), 0),
            ):
                before = counting.calls.copy()
                query()
                charged = counting.calls - before
                assert charged[1] == units and charged.sum() == units, family

    def test_batched_values_equal_one_row_calls(self, objective_families):
        for family, obj in objective_families.items():
            nodes = np.array([obj.m - 1, 0, 2, 1, 0])
            X = np.random.default_rng(21).normal(size=(len(nodes), obj.d))
            values, local = obj.batch_component_values(nodes, X), obj.batch_local_values(nodes, X)
            assert values.shape == (len(nodes), obj.n) and local.shape == (len(nodes),), family
            for r, (i, x) in enumerate(zip(nodes, X)):
                one_row = [obj.component_value(int(i), j, x) for j in range(obj.n)]
                assert values[r].tobytes() == np.array(one_row).tobytes(), family
                assert local[r].tobytes() == np.float64(obj.local_value(int(i), x)).tobytes(), family
