import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import gossipvr.network as network
import gossipvr.optimizers as optimizers

from gossipvr.hardinstances import nonconvex_hard_objective
from gossipvr.network import (
    GraphSequence,
    StaticSequence,
    TwoStarHopSequence,
    complete_graph,
    consensus_error,
    gossip_from_laplacian,
    measure_chi,
    node_mean,
    path_graph,
    ring_graph,
)
from gossipvr.objectives import CountingObjective, DatasetShard, SmoothnessInfo, logistic_objective
from gossipvr.optimizers import (
    ADOM_BLOCKS,
    AdomVr,
    GtBaseline,
    GtPage,
    RECORD_BLOCK,
    RunAbort,
    RunBudgets,
    TraceRecord,
    _batch_estimator,
    adom_vr_iteration_budget,
    adom_vr_params,
    corollary_batch_size,
    gt_page_params,
    importance_probabilities,
    run,
)

from test_harness import PerNodeProxy
from test_objectives import make_shards, quadratic_objective, random_quadratic


class SingleNodeSequence(GraphSequence):
    kind = "static"
    m = 1
    chi = 1.0
    period = 1

    def window(self, start, stages):
        return np.zeros((stages, 1, 1)), np.ones(stages)


def strongly_convex_quadratic(rng, m=3, n=2, d=3, mu_floor=0.4):
    mats, vecs = [], []
    for _ in range(m):
        row_a, row_b = [], []
        for _ in range(n):
            q = rng.normal(size=(d, d))
            row_a.append(q @ q.T / (2 * d) + mu_floor * np.eye(d))
            row_b.append(rng.normal(size=d))
        mats.append(row_a)
        vecs.append(row_b)
    return quadratic_objective(mats, vecs), mats, vecs


def quadratic_minimizer(mats, vecs):
    m, n = len(mats), len(mats[0])
    a = sum(mats[i][j] for i in range(m) for j in range(n)) / (m * n)
    b = sum(vecs[i][j] for i in range(m) for j in range(n)) / (m * n)
    return np.linalg.solve(a, b)


class TestAdomVrParams:
    def test_unit_example(self):
        p = adom_vr_params(mu=1.0, L=1.0, Lbar=1.0, chi=1.0, n=1, b=1)
        assert p.tau2 == pytest.approx(0.5)
        assert p.tau0 == pytest.approx(0.5)
        assert p.tau1 == pytest.approx(0.2)
        assert p.eta == pytest.approx(1.0)
        assert p.alpha == pytest.approx(0.5)
        assert p.nu == pytest.approx(0.5)
        assert p.beta == pytest.approx(0.5)
        assert p.sigma2 == pytest.approx(1.0 / 16.0)
        assert p.sigma1 == pytest.approx(2.0 / 33.0)
        assert p.delta == pytest.approx(1.0 / 17.0)
        assert p.gamma == pytest.approx(4.0 / 7.0)
        assert p.theta == pytest.approx(2.0)
        assert p.lam == pytest.approx(5.5)
        assert p.p1 == pytest.approx(1.0 / 11.0)
        assert p.p2 == pytest.approx(10.0 / 11.0)
        assert p.p1 + p.p2 == pytest.approx(1.0)

    def test_batch_precondition(self):
        with pytest.raises(ValueError, match="precondition"):
            adom_vr_params(mu=0.1, L=1.0, Lbar=3.0, chi=2.0, n=8, b=2)

    @pytest.mark.parametrize("chi", [math.nan, math.inf])
    def test_non_finite_chi_rejected(self, chi):
        with pytest.raises(ValueError, match=f"chi must be finite and >= 1, got {chi}"):
            adom_vr_params(mu=0.1, L=1.0, Lbar=2.0, chi=chi, n=10, b=2)

    def test_probability_sum_never_exceeds_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            L = float(rng.uniform(0.5, 10))
            mu = L * float(rng.uniform(1e-4, 1.0))
            lbar = L * float(rng.uniform(1.0, n))
            chi = float(rng.uniform(1, 100))
            b = int(rng.integers(max(1, math.ceil(lbar / L)), n + 1))
            p = adom_vr_params(mu, L, lbar, chi, n, b)
            assert p.p1 + p.p2 <= 1 + 1e-12
            assert p.nu < p.mu

    def test_corollary_batch_size(self):
        b = corollary_batch_size(mu=0.1, L=1.0, Lbar=2.0, n=10)
        assert 1 <= b <= 10
        assert b >= 2.0 / 1.0  # precondition preserved


class TestImportanceSampling:
    def test_probabilities_normalize(self):
        l_ij = np.array([[1.0, 3.0], [2.0, 2.0]])
        p = importance_probabilities(l_ij)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert p[0, 1] == pytest.approx(3.0 / 4.0)

    def test_estimator_unbiased_by_enumeration(self):
        rng = np.random.default_rng(1)
        obj, mats, vecs = strongly_convex_quadratic(rng, m=2, n=3)
        probs = importance_probabilities(obj.info.L_ij)
        weights = AdomVr.init(obj).weights
        x_g = rng.normal(size=obj.d)
        omega = rng.normal(size=obj.d)
        for i in range(obj.m):
            cache = obj.local_component_gradients(i, omega)
            grad_omega = cache.mean(axis=0)
            mean = np.zeros(obj.d)
            for j in range(obj.n):
                (est,) = _batch_estimator(
                    obj, np.array([i]), x_g[None], np.array([[j]]), np.array([[j]]), weights[i, [[j]]], cache[None], grad_omega[None]
                )
                mean += probs[i, j] * est
            assert np.max(np.abs(mean - obj.local_gradient(i, x_g))) < 1e-12

    def test_estimator_unbiased_batch_two(self):
        # Full enumeration over ordered batches of size 2 (sampling is i.i.d.
        # with replacement, so the joint weight is the product of the marginals).
        rng = np.random.default_rng(21)
        obj, _, _ = strongly_convex_quadratic(rng, m=1, n=4)
        probs = importance_probabilities(obj.info.L_ij)
        weights = AdomVr.init(obj).weights
        x_g = rng.normal(size=obj.d)
        omega = rng.normal(size=obj.d)
        cache = obj.local_component_gradients(0, omega)
        grad_omega = cache.mean(axis=0)
        mean = np.zeros(obj.d)
        for j1 in range(obj.n):
            for j2 in range(obj.n):
                (est,) = _batch_estimator(
                    obj, np.array([0]), x_g[None], np.array([[j1, j2]]), np.array([[j1, j2]]), weights[0, [[j1, j2]]],
                    cache[None], grad_omega[None],
                )
                mean += probs[0, j1] * probs[0, j2] * est
        assert np.max(np.abs(mean - obj.local_gradient(0, x_g))) < 1e-12

    def test_estimator_equals_the_gathered_formula_bit_for_bit(self):
        """The flat ``take`` and the drawn row weights give ``(fresh - omega_grads[rows, idx]) *
        weights[rows, idx]`` summed over the batch, with repeated indices and nodes out of order."""
        rng = np.random.default_rng(40)
        obj = logistic_objective(make_shards(rng, m=4, n=6, d=5), 0.1)
        nodes, idx = np.array([2, 0, 3, 2]), np.array([[1, 1, 4, 1], [0, 5, 0, 0], [3, 3, 3, 3], [5, 4, 5, 2]])
        x_g, grad_omega = rng.normal(size=(2, len(nodes), obj.d))
        omega_grads, weights = rng.normal(size=(len(nodes), obj.n, obj.d)), rng.uniform(0.5, 2.0, (len(nodes), obj.n))
        rows = np.arange(len(nodes))[:, None]
        got = _batch_estimator(obj, nodes, x_g, idx, rows * obj.n + idx, weights[rows, idx], omega_grads, grad_omega)
        diff = (obj.batch_sampled_gradients(nodes, idx, x_g) - omega_grads[rows, idx]) * weights[rows, idx][..., None]
        assert got.tobytes() == (diff.sum(axis=1) / idx.shape[1] + grad_omega).tobytes()


class TestAdomVrStep:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.obj, self.mats, self.vecs = strongly_convex_quadratic(rng, m=3, n=2, d=3)
        self.seq = StaticSequence(ring_graph(3))
        info = self.obj.info
        self.params = adom_vr_params(info.mu, info.L, info.Lbar, self.seq.chi, self.obj.n, b=self.obj.n)

    def saddle_state(self):
        w_star = quadratic_minimizer(self.mats, self.vecs)
        x_star = np.tile(w_star, (self.obj.m, 1))
        grads = np.stack([self.obj.local_gradient(i, w_star) for i in range(self.obj.m)])
        y_star = grads - self.params.nu * x_star
        z_star = -grads
        state = AdomVr.init(self.obj, x0=x_star)
        state.y = y_star.copy()
        state.y_f = y_star.copy()
        state.z = z_star.copy()
        state.z_f = z_star.copy()
        return state, x_star, y_star, z_star

    def test_saddle_point_is_fixed(self):
        state, x_star, y_star, z_star = self.saddle_state()
        for k in range(5):
            state = AdomVr(self.params).step(state, self.obj, self.seq, seed=9)
        assert np.max(np.abs(state.x - x_star)) < 1e-10
        assert np.max(np.abs(state.x_f - x_star)) < 1e-10
        assert np.max(np.abs(state.omega - x_star)) < 1e-10
        assert np.max(np.abs(state.y - y_star)) < 1e-10
        assert np.max(np.abs(state.z - z_star)) < 1e-10
        assert np.max(np.abs(state.z_f - z_star)) < 1e-10

    def test_z_stays_zero_sum(self):
        state = AdomVr.init(self.obj)
        for _ in range(200):
            state = AdomVr(self.params).step(state, self.obj, self.seq, seed=3)
            scale = max(1.0, float(np.linalg.norm(state.z)))
            assert np.linalg.norm(state.z.sum(axis=0)) < 1e-8 * scale
            assert np.linalg.norm(state.z_f.sum(axis=0)) < 1e-8 * scale

    def test_single_node_matches_scalar_recursion(self):
        # 1-D quadratic with mu = L: f(x) = (x - 3)^2 / 2.
        info = SmoothnessInfo(L=1.0, mu=1.0, L_ij=np.ones((1, 1)), Lhat=1.0)
        from gossipvr.objectives import CallableFiniteSum

        obj = CallableFiniteSum([[lambda w: (0.5 * (w[0] - 3.0) ** 2, np.array([w[0] - 3.0]))]], 1, info)
        params = adom_vr_params(1.0, 1.0, 1.0, 1.0, 1, 1)
        state = AdomVr.init(obj)
        seq = SingleNodeSequence()

        # Independent scalar transcription of the update rules (W = 0, z = 0).
        p = params
        xs = xf = om = ys = yf = 0.0
        dist_prev = 3.0
        for k in range(100):
            state = AdomVr(params).step(state, obj, seq, seed=11)
            rng = np.random.default_rng((11, k))
            rng.random((1, 1))  # batch draw (single component, value irrelevant)
            omega_u = float(rng.random(1)[0])
            x_g = p.tau1 * xs + p.tau0 * om + (1 - p.tau1 - p.tau0) * xf
            est = x_g - 3.0  # single component: the estimator is the exact gradient
            y_g = p.sigma1 * ys + (1 - p.sigma1) * yf
            drive = est - p.nu * x_g
            r_x = xs + p.eta * p.alpha * x_g - p.eta * drive
            r_y = ys + p.theta * p.beta * drive - (p.theta / p.nu) * y_g
            det = (1 + p.eta * p.alpha) * (1 + p.theta * p.beta) + p.eta * p.theta
            x_new = ((1 + p.theta * p.beta) * r_x + p.eta * r_y) / det
            y_new = ((1 + p.eta * p.alpha) * r_y - p.theta * r_x) / det
            xf_old = xf
            xf = x_g + p.tau2 * (x_new - xs)
            yf = y_g + p.sigma2 * (y_new - ys)
            if omega_u < p.p1:
                om = xf_old
            elif omega_u < p.p1 + p.p2:
                om = x_g
            xs, ys = x_new, y_new
            assert state.x[0, 0] == pytest.approx(xs, abs=1e-12)
            assert state.omega[0, 0] == pytest.approx(om, abs=1e-12)

            dist = abs(xs - 3.0)
            assert dist <= dist_prev + 1e-12
            dist_prev = dist

    def test_oracle_cost_per_step(self):
        counting = CountingObjective(self.obj)
        state = AdomVr.init(counting)
        assert counting.calls.tolist() == [self.obj.n] * self.obj.m
        for k in range(50):
            before = counting.calls.copy()
            rng = np.random.default_rng((5, state.k))
            rng.random((self.obj.m, self.params.b))
            omega_u = rng.random(self.obj.m)
            resets = omega_u < self.params.p1 + self.params.p2
            state = AdomVr(self.params).step(state, counting, self.seq, seed=5)
            delta = counting.calls - before
            expected = self.params.b + self.obj.n * resets.astype(int)
            assert delta.tolist() == expected.tolist()


class TestAdomVrState:
    """The eight blocks live in one (8, m, d) array, each name a view of its row."""

    def setup_method(self):
        self.obj, _, _ = strongly_convex_quadratic(np.random.default_rng(5), m=3, n=2, d=3)
        self.seq = StaticSequence(ring_graph(3))
        info = self.obj.info
        self.method = AdomVr(adom_vr_params(info.mu, info.L, info.Lbar, self.seq.chi, self.obj.n, b=self.obj.n))

    def test_names_write_the_shared_array(self):
        state = self.method.init(self.obj)
        assert state.blocks.shape == (8, 3, 3) and ADOM_BLOCKS[:3] == ("x", "y", "z")
        for i, name in enumerate(ADOM_BLOCKS):
            setattr(state, name, np.full((3, 3), i + 1.0))
            assert np.shares_memory(getattr(state, name), state.blocks)
        assert state.blocks.tolist() == [np.full((3, 3), i + 1.0).tolist() for i in range(8)]
        state.y_f[0, 1] = -5.0
        assert state.blocks[ADOM_BLOCKS.index("y_f"), 0, 1] == -5.0

    def test_step_leaves_the_previous_array_unchanged(self):
        state = self.method.init(self.obj)
        for _ in range(3):
            state = self.method.step(state, self.obj, self.seq, 7)
        before = state.blocks.copy()
        after = self.method.step(state, self.obj, self.seq, 7)
        assert not np.shares_memory(after.blocks, state.blocks)
        assert state.blocks.tobytes() == before.tobytes()
        assert_same_adom_state(after, self.method.step(state, self.obj, self.seq, 7))


ADOM_FIELDS = ("x", "x_f", "omega", "y", "y_f", "z", "z_f", "momentum", "omega_grads", "grad_omega")


def reference_adom_draws(params, obj, seed, k):
    """Iteration ``k``'s batch indices and omega coins (to x_f, to x_g), read from
    ``default_rng((seed, k))`` directly."""
    p, m, n = params, obj.m, obj.n
    probs = importance_probabilities(obj.info.L_ij)
    rng = np.random.default_rng((seed, k))
    batch_u = rng.random((m, p.b))
    omega_u = rng.random(m)
    idx = np.minimum((batch_u[..., None] >= np.cumsum(probs, axis=1)[:, None, :]).sum(axis=-1), n - 1)
    take_f = omega_u < p.p1
    return idx, take_f, ~take_f & (omega_u < p.p1 + p.p2)


def reference_adom_step(params, st, obj, seq, seed, k):
    """One adom_vr iteration transcribed formula by formula, independently of the step: its
    draws come from :func:`reference_adom_draws`, the estimator and omega refresh are spelled
    out.  ``st`` maps the fields of ``ADOM_FIELDS`` to arrays and comes back updated."""
    p, m, n = params, obj.m, obj.n
    probs = importance_probabilities(obj.info.L_ij)
    idx, take_f, take_g = reference_adom_draws(params, obj, seed, k)
    x_g = p.tau1 * st["x"] + p.tau0 * st["omega"] + (1.0 - p.tau1 - p.tau0) * st["x_f"]
    rows = np.arange(m)[:, None]
    fresh = obj.batch_sampled_gradients(np.arange(m), idx, x_g)
    inv = 1.0 / (n * probs[rows, idx])
    est = ((fresh - st["omega_grads"][rows, idx]) * inv[..., None]).mean(axis=1) + st["grad_omega"]
    y_g = p.sigma1 * st["y"] + (1.0 - p.sigma1) * st["y_f"]
    z_g = p.sigma1 * st["z"] + (1.0 - p.sigma1) * st["z_f"]
    drive = est - p.nu * x_g
    r_x = st["x"] + p.eta * p.alpha * x_g - p.eta * drive
    r_y = st["y"] + p.theta * p.beta * drive - (p.theta / p.nu) * (y_g + z_g)
    det = (1.0 + p.eta * p.alpha) * (1.0 + p.theta * p.beta) + p.eta * p.theta
    x_new = ((1.0 + p.theta * p.beta) * r_x + p.eta * r_y) / det
    y_new = ((1.0 + p.eta * p.alpha) * r_y - p.theta * r_x) / det
    omega = st["omega"].copy()
    omega[take_f] = st["x_f"][take_f]
    omega[take_g] = x_g[take_g]
    w = seq.gossip(k).matrix
    yz = y_g + z_g
    w_mix = (p.gamma / p.nu) * (w @ yz) + w @ st["momentum"]
    og, go = st["omega_grads"].copy(), st["grad_omega"].copy()
    for i in np.flatnonzero(take_f | take_g):
        og[i] = obj.batch_component_gradients(np.array([i]), omega[i][None])[0]
        go[i] = og[i][None].mean(axis=1)[0]
    return dict(
        x=x_new, x_f=x_g + p.tau2 * (x_new - st["x"]), omega=omega, y=y_new, y_f=y_g + p.sigma2 * (y_new - st["y"]),
        z=st["z"] + p.gamma * p.delta * (z_g - st["z"]) - w_mix, z_f=z_g - p.zeta * (w @ yz),
        momentum=(p.gamma / p.nu) * yz + st["momentum"] - w_mix, omega_grads=og, grad_omega=go,
    )


def assert_same_adom_state(a, b):
    """Bitwise equality (signed zeros included) of two adom_vr states."""
    for f in ADOM_FIELDS:
        assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f
    assert (a.k, a.comms, a.counters) == (b.k, b.comms, b.counters)


class TestAdomVrDraws:
    """The step's block-built draws against ``default_rng((seed, k))``, per iteration."""

    def setup_method(self):
        shards = make_shards(np.random.default_rng(31), m=4, n=6, d=5, rows_per_block=3)
        self.obj = logistic_objective(shards, 0.2)
        self.seq = TwoStarHopSequence(4)
        info = self.obj.info
        self.b_small = math.ceil(info.Lbar / info.L)
        assert self.b_small < self.obj.n
        self.method = {
            b: AdomVr(adom_vr_params(info.mu, info.L, info.Lbar, self.seq.chi, self.obj.n, b))
            for b in (self.b_small, self.obj.n)
        }

    def solo(self, seed, steps, state=None):
        method = self.method[self.b_small]
        state = method.init(self.obj) if state is None else state
        for _ in range(steps):
            state = method.step(state, self.obj, self.seq, seed)
        return state

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("batch", ["b<n", "b=n"])
    def test_draws_match_default_rng(self, seed, batch):
        method = self.method[self.b_small if batch == "b<n" else self.obj.n]
        state = method.init(self.obj)
        for k in range(300):
            state = method.step(state, self.obj, self.seq, seed)
            got_idx, _, _, to_f, to_g, moved, moves = state.draws.rows[k - state.draws.start]
            idx, take_f, take_g = reference_adom_draws(method.params, self.obj, seed, k)
            assert got_idx.tobytes() == idx.astype(np.intp).tobytes()
            assert to_f[:, 0].tolist() == take_f.tolist()
            assert to_g[:, 0].tolist() == take_g.tolist()
            assert moved.tolist() == np.flatnonzero(take_f | take_g).tolist()
            assert moves == (int(take_f.sum()), int(take_g.sum()))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("batch", ["b<n", "b=n"])
    def test_matches_default_rng_reference(self, seed, batch):
        # The step sums its linear part in another order than the formulas, so each block of
        # each step agrees with the per-formula reference from the same state to 1e-13 of the
        # block's largest entry (the largest deviation measured is 1.6e-15 of it, on x_f).
        method = self.method[self.b_small if batch == "b<n" else self.obj.n]
        counting, ref_counting = CountingObjective(self.obj), CountingObjective(self.obj)
        state = method.init(counting)
        method.init(ref_counting)
        moves = 0
        for k in range(300):
            ref = reference_adom_step(
                method.params, {f: getattr(state, f) for f in ADOM_FIELDS}, ref_counting, self.seq, seed, k
            )
            omega, state = state.omega, method.step(state, counting, self.seq, seed)
            for f in ADOM_FIELDS:
                np.testing.assert_allclose(getattr(state, f), ref[f], rtol=0, atol=1e-13 * np.abs(ref[f]).max(), err_msg=f)
            moves += int((state.omega != omega).any())
            assert counting.calls.tolist() == ref_counting.calls.tolist()
        assert moves > 0  # the omega coins moved omega on some iterations

    @pytest.mark.parametrize("block", [1, 7, 128])
    def test_block_size_does_not_change_the_run(self, monkeypatch, block):
        expected = self.solo(5, 150)
        monkeypatch.setattr(optimizers, "DRAW_BLOCK", block)
        assert_same_adom_state(expected, self.solo(5, 150))

    @pytest.mark.parametrize("at", [37, 64])
    @pytest.mark.parametrize("carried", [True, False])
    def test_resumed_run_equals_uninterrupted(self, at, carried):
        expected = self.solo(9, 150)
        resumed = self.solo(9, at)
        if not carried:
            resumed = dataclasses.replace(resumed, draws=None)
        assert_same_adom_state(expected, self.solo(9, 150 - at, state=resumed))

    def test_foreign_draws_are_replaced(self):
        # A state carrying another seed's block for the same iterations.
        expected = self.solo(9, 100)
        state = dataclasses.replace(self.solo(9, 10), draws=self.solo(8, 10).draws)
        assert_same_adom_state(expected, self.solo(9, 90, state=state))

    def test_block_of_another_method_is_replaced(self):
        # The carried block holds b_small-wide batches; a method with b = n rebuilds it.
        other = self.method[self.obj.n]
        state = self.solo(9, 10)
        expected = other.step(dataclasses.replace(state, draws=None), self.obj, self.seq, 9)
        assert_same_adom_state(expected, other.step(state, self.obj, self.seq, 9))
        assert other.step(state, self.obj, self.seq, 9).draws.rows[0][0].shape[-1] == self.obj.n

    def test_block_of_other_weights_is_replaced(self):
        # Same seed, params and cum_probs, but other importance weights: the carried block's row
        # weights were gathered from the old ones, so the step redraws it.
        state = self.solo(9, 10)
        state = dataclasses.replace(state, weights=state.weights * 2.0)
        fresh = self.solo(9, 20, state=dataclasses.replace(state, draws=None))
        carried = self.solo(9, 20, state=state)
        assert_same_adom_state(fresh, carried)
        assert carried.draws is not state.draws and carried.draws.basis[1] is state.weights
        for old, new in zip(state.draws.rows[10:30], carried.draws.rows[10:30]):
            assert old[0].tobytes() == new[0].tobytes() and new[2].tobytes() == (2.0 * old[2]).tobytes()

    def test_block_of_another_sampling_is_replaced(self):
        # Same seed and params, but uniform sampling: the carried block's batches were drawn from
        # the importance distribution, so a step that read them would take other components.
        state = self.solo(9, 10)
        uniform = np.full(state.cum_probs.shape, 1.0 / self.obj.n)
        state = dataclasses.replace(state, weights=np.ones_like(uniform), cum_probs=np.cumsum(uniform, axis=1))
        fresh = self.solo(9, 20, state=dataclasses.replace(state, draws=None))
        carried = self.solo(9, 20, state=state)
        assert_same_adom_state(fresh, carried)
        rows = zip(state.draws.rows[10:30], fresh.draws.rows[10:30])
        assert any(old[0].tobytes() != new[0].tobytes() for old, new in rows)  # the sampling changed the batches

    def test_interleaved_seeds_equal_solo_runs(self):
        method = self.method[self.b_small]
        a = b = method.init(self.obj)
        for _ in range(150):
            a = method.step(a, self.obj, self.seq, 1)
            b = method.step(b, self.obj, self.seq, 2**40)
        assert_same_adom_state(self.solo(1, 150), a)
        assert_same_adom_state(self.solo(2**40, 150), b)

    def test_state_counts_the_omega_moves_of_its_draws(self):
        method, iters = self.method[self.b_small], 150
        trace = run(method, self.obj, self.seq, RunBudgets(max_iterations=iters), metric_every=50, seed=9)
        probs = importance_probabilities(self.obj.info.L_ij)
        cum_probs, weights = np.cumsum(probs, axis=1), 1.0 / (self.obj.n * probs)
        blocks = [
            optimizers._draw_row(None, k, (9, method.params), (cum_probs, weights), optimizers._adom_rows)[0]
            for k in range(0, iters, optimizers.DRAW_BLOCK)
        ]
        rows = [row for block in blocks for row in block.rows][:iters]
        to_f, to_g = (sum(int(row[i].sum()) for row in rows) for i in (3, 4))
        assert to_f > 0 and to_g > 0
        assert trace.metadata["counters"] == {"omega_to_x_f": to_f, "omega_to_x_g": to_g}

    def test_seed_domain(self):
        method = self.method[self.b_small]
        state = method.init(self.obj)
        assert_same_adom_state(self.solo(7, 70), self.solo(np.uint64(7), 70))
        with pytest.raises(TypeError):
            method.step(state, self.obj, self.seq, 1.5)
        with pytest.raises(ValueError, match="non-negative"):
            method.step(state, self.obj, self.seq, -1)
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*32\)"):
            method.step(dataclasses.replace(state, k=2**32), self.obj, self.seq, 0)

class TestGtPageParams:
    def test_defaults_n1(self):
        p = gt_page_params(L=1.0, Lhat=1.0, chi=1.0, n=1)
        assert p.b == 1
        assert p.p == pytest.approx(0.5)

    def test_p_formula(self):
        p = gt_page_params(L=1.0, Lhat=1.0, chi=1.0, n=4)
        assert p.b == 2
        assert p.p == pytest.approx(1.0 / 3.0)

    def test_step_positive_and_capped(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            L = float(rng.uniform(0.1, 5))
            lhat = L * float(rng.uniform(1.0, math.sqrt(n)))
            chi = float(rng.uniform(1, 40))
            p = gt_page_params(L, lhat, chi, n)
            assert 0 < p.eta <= p.rho / p.L + 1e-15
            assert p.eta_strict <= p.eta

    def test_eta_strict_is_the_minimum_of_all_bounds(self):
        from gossipvr.optimizers import _gt_page_step_bounds

        p = gt_page_params(L=1.0, Lhat=2.0, chi=10.0, n=10)
        b2, b3, b4, cap = _gt_page_step_bounds(p.L, p.Lhat, p.b, p.p, p.rho)
        assert p.eta_strict == min(b2, b3, b4, cap) < p.eta == min(b2, b3, cap)
        dataclasses.replace(p, eta=p.eta_strict).validate()  # the conservative step is a valid schedule

    @pytest.mark.parametrize("chi", [math.nan, math.inf])
    def test_non_finite_chi_rejected(self, chi):
        with pytest.raises(ValueError, match=f"chi must be finite and >= 1, got {chi}"):
            gt_page_params(L=1.0, Lhat=2.0, chi=chi, n=10)

    def test_batch_out_of_range(self):
        with pytest.raises(ValueError):
            gt_page_params(L=1.0, Lhat=1.0, chi=1.0, n=4, b=5)


class TestGtPageStep:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.obj, _, _ = strongly_convex_quadratic(rng, m=4, n=3, d=2)
        self.seq = TwoStarHopSequence(4)
        info = self.obj.info
        self.params = gt_page_params(info.L, info.Lhat, self.seq.chi, self.obj.n, stages=1)

    def test_full_restart_equals_exact_tracking(self):
        params = gt_page_params(self.obj.info.L, self.obj.info.Lhat, self.seq.chi, self.obj.n, p=1.0, stages=1)
        state = GtPage.init(self.obj)
        for k in range(10):
            state = GtPage(params).step(state, self.obj, self.seq, seed=1)
            expected = np.stack([self.obj.local_gradient(i, state.x[i]) for i in range(self.obj.m)])
            assert np.allclose(state.y, expected, atol=1e-14)

    def test_tracker_mean_identity(self):
        state = GtPage.init(self.obj)
        for _ in range(200):
            state = GtPage(self.params).step(state, self.obj, self.seq, seed=2)
            vbar = node_mean(state.v)
            ybar = node_mean(state.y)
            scale = max(1.0, float(np.linalg.norm(ybar)))
            assert np.linalg.norm(vbar - ybar) < 1e-10 * scale

    def test_average_iterate_recursion(self):
        state = GtPage.init(self.obj)
        for _ in range(50):
            xbar = node_mean(state.x)
            vbar = node_mean(state.v)
            state = GtPage(self.params).step(state, self.obj, self.seq, seed=3)
            assert np.allclose(node_mean(state.x), xbar - self.params.eta * vbar, atol=1e-13)

    def test_zero_step_contracts_consensus_error(self):
        import dataclasses

        params = gt_page_params(self.obj.info.L, self.obj.info.Lhat, self.seq.chi, self.obj.n, stages=1)
        params = dataclasses.replace(params, eta=1e-300)
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(4, 2))
        state = GtPage.init(self.obj, x0=x0)
        start = state.x.copy()
        errs = []
        for _ in range(40):
            base = node_mean(state.x)
            errs.append(float(np.sum((state.x - base) ** 2)))
            state = GtPage(params).step(state, self.obj, self.seq, seed=7)
        assert np.allclose(node_mean(state.x), node_mean(start), atol=1e-10)
        assert errs[-1] < 1e-6 * errs[0]

    def test_conditional_mean_by_enumeration(self):
        rng = np.random.default_rng(8)
        obj, _, _ = strongly_convex_quadratic(rng, m=2, n=3, d=2)
        x_old = rng.normal(size=(2, obj.d))
        x_new = rng.normal(size=(2, obj.d))
        y_old = rng.normal(size=(2, obj.d))
        p = 0.37
        for i in range(obj.m):
            page_mean = np.zeros(obj.d)
            for j in range(obj.n):
                g_new = obj.component_gradient(i, j, x_new[i])
                g_old = obj.component_gradient(i, j, x_old[i])
                page_mean += (y_old[i] + g_new - g_old) / obj.n
            full = obj.local_gradient(i, x_new[i])
            expected = p * full + (1 - p) * (y_old[i] + obj.local_gradient(i, x_new[i]) - obj.local_gradient(i, x_old[i]))
            assert np.max(np.abs(p * full + (1 - p) * page_mean - expected)) < 1e-12

    def test_init_replicates_flat_start_point(self):
        x0 = np.array([1.0, -2.0])
        state = GtPage.init(self.obj, x0=x0)
        assert np.allclose(state.x, np.tile(x0, (self.obj.m, 1)))
        assert np.allclose(state.v, np.tile(node_mean(state.y), (self.obj.m, 1)))

    def test_multi_stage_consumes_stage_graphs(self):
        params = gt_page_params(self.obj.info.L, self.obj.info.Lhat, self.seq.chi, self.obj.n)
        state = GtPage.init(self.obj)
        state = GtPage(params).step(state, self.obj, self.seq, seed=0)
        assert state.comms == params.stages
        state = GtPage(params).step(state, self.obj, self.seq, seed=0)
        assert state.comms == 2 * params.stages

    def test_expected_oracle_cost(self):
        rng = np.random.default_rng(9)
        obj, _, _ = strongly_convex_quadratic(rng, m=2, n=5, d=2)
        params = gt_page_params(obj.info.L, obj.info.Lhat, 1.0, obj.n, b=2, stages=1)
        counting = CountingObjective(obj)
        state = GtPage.init(counting)
        base = counting.calls.copy()
        steps = 10_000
        seq = StaticSequence(complete_graph(2))
        for _ in range(steps):
            state = GtPage(params).step(state, counting, seq, seed=13)
        mean_cost = (counting.calls - base).mean() / steps
        expected = params.p * obj.n + (1 - params.p) * params.b
        assert abs(mean_cost - expected) / expected < 0.05


class QueryRecorder(CountingObjective):
    """Records the nodes of every full-gradient query and the nodes and batches of every paired query."""

    def __init__(self, base):
        super().__init__(base)
        self.full, self.paired = [], []

    def batch_local_gradients(self, nodes, X):
        self.full.append(np.array(nodes))
        return super().batch_local_gradients(nodes, X)

    def batch_sampled_gradient_pairs(self, nodes, idx, X_new, X_old):
        self.paired.append((np.array(nodes), np.array(idx)))
        return super().batch_sampled_gradient_pairs(nodes, idx, X_new, X_old)


class TestGtPageDraws:
    """``gt_page`` draws its batches and coins in blocks of ``DRAW_BLOCK`` iterations, bitwise those of
    ``default_rng((seed, k))``: ``integers(0, n, (m, b))``, then ``random(1)``."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.obj, _, _ = strongly_convex_quadratic(rng, m=4, n=5, d=2)
        self.seq = TwoStarHopSequence(4)
        info = self.obj.info
        self.params = dataclasses.replace(gt_page_params(info.L, info.Lhat, self.seq.chi, self.obj.n, b=3, stages=1), p=0.4)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 + 3])
    def test_block_matches_default_rng(self, seed):
        m, n, b = self.obj.m, self.obj.n, self.params.b
        for k in [*range(130), 2**32 - 1]:
            _, (idx, coin) = optimizers._draw_row(None, k, (seed, n, (m, b)), (), optimizers._page_rows)
            rng = np.random.default_rng((seed, k))
            assert np.array_equal(idx, rng.integers(0, n, size=(m, b))), k
            assert coin == rng.random(1)[0], k

    def test_steps_take_the_default_rng_draws(self):
        m, n, b, seed = self.obj.m, self.obj.n, self.params.b, 11
        method, recorder = GtPage(self.params), QueryRecorder(self.obj)
        state = method.init(recorder)
        kinds = set()
        for k in range(150):
            rng = np.random.default_rng((seed, k))
            idx, restart = rng.integers(0, n, size=(m, b)), bool(rng.random(1)[0] < self.params.p)
            recorder.full.clear(), recorder.paired.clear()
            state = method.step(state, recorder, self.seq, seed)
            assert [q.tolist() for q in recorder.full] == ([list(range(m))] if restart else [])
            if restart:
                assert recorder.paired == []
            else:
                ((nodes, got),) = recorder.paired
                assert nodes.tolist() == list(range(m)) and np.array_equal(got, idx)
            kinds.add(restart)
        assert kinds == {True, False}  # restarts and sampled steps

    def solo(self, seed, steps, state=None, params=None):
        method = GtPage(params or self.params)
        state = method.init(self.obj) if state is None else state
        for _ in range(steps):
            state = method.step(state, self.obj, self.seq, seed)
        return state

    @staticmethod
    def assert_same_state(a, b):
        for name in ("x", "y", "v", "k", "comms", "full_restarts"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_state_counts_the_restart_coins_of_its_draws(self):
        (m, n), iters = (self.obj.m, self.obj.n), 150
        trace = run(GtPage(self.params), self.obj, self.seq, RunBudgets(max_iterations=iters), metric_every=50, seed=11)
        key = (11, n, (m, self.params.b))
        blocks = [optimizers._draw_row(None, k, key, (), optimizers._page_rows)[0] for k in range(0, iters, optimizers.DRAW_BLOCK)]
        coins = np.array([row[1] for block in blocks for row in block.rows])[:iters]
        restarts = int(np.count_nonzero(coins < self.params.p))
        assert 0 < restarts < coins.size
        assert trace.metadata["counters"] == {"full_restarts": restarts}

    @pytest.mark.parametrize("at", [37, 64])
    def test_resumed_or_foreign_blocks_are_replaced(self, at):
        expected = self.solo(9, 100)
        resumed = self.solo(9, at)
        self.assert_same_state(expected, self.solo(9, 100 - at, state=dataclasses.replace(resumed, draws=None)))
        foreign = dataclasses.replace(resumed, draws=self.solo(8, at).draws)  # another seed, same iterations
        self.assert_same_state(expected, self.solo(9, 100 - at, state=foreign))
        other_batch = dataclasses.replace(resumed, draws=self.solo(9, at, params=dataclasses.replace(self.params, b=2)).draws)
        self.assert_same_state(expected, self.solo(9, 100 - at, state=other_batch))
        assert self.solo(9, 1, state=other_batch).draws.rows[0][0].shape == (self.obj.m, self.params.b)


class TestReplicaDrawRows:
    """The draw rows come from the replica's raw PCG64 outputs, bitwise ``default_rng((seed, k))``:
    ``gt_page`` its ``integers(0, n, (m, b))`` then ``random()``, ``adom_vr`` its ``random(m b + m)``.
    Seeds of one and two entropy words; blocks of 7 steps, so the last one is cut at ``2**32``."""

    SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
    STARTS = [0, 100, 2**32 - 1]

    @staticmethod
    def block(seed, k):
        steps, streams = network._block_streams(seed, k, 7)
        assert steps.start == k - k % 7 and steps.stop == min(steps.start + 7, 2**32)
        return steps, streams

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", STARTS)
    @pytest.mark.parametrize("n, m, b", [
        (10, 10, 7),  # README-sized; 70 words, an even count
        (5, 3, 3),  # an odd word count: the coin is the output after the one whose high half is unread
        (3 * 2**30, 5, 5),  # the Lemire threshold 2**30 rejects a quarter of the words
        (3 * 2**30, 10, 7),  # ... so the first chunk of outputs runs short and the loop draws more
        (2**31 + 1, 2, 3),  # the threshold 2**31 - 1 rejects about half
        (2**32, 3, 3),  # the full 32-bit range: every word is an index
        (1, 4, 2),  # one component: numpy reads no word, the coin is the first output
    ])
    def test_page_rows(self, seed, k, n, m, b):
        steps, streams = self.block(seed, k)
        rows = optimizers._page_rows((seed, n, (m, b)), (), streams)
        assert len(rows) == len(steps)
        for j, (idx, coin) in zip(steps, rows):
            rng = np.random.default_rng((seed, j))
            expected = rng.integers(0, n, size=(m, b))
            assert idx.dtype == expected.dtype and np.array_equal(idx, expected), j
            assert coin == rng.random(), j

    def test_page_rows_reject_more_than_two_to_the_32_components(self):
        with pytest.raises(ValueError, match=r"integers are drawn from n in \[1, 2\*\*32\], got n=4294967297"):
            optimizers._page_rows((0, 2**32 + 1, (2, 2)), (), self.block(0, 0)[1])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", STARTS)
    @pytest.mark.parametrize("p1, p2, sizes", [(0.2, 0.3, {0, 1, 2, 3, 4}), (1e-300, 1e-300, {0}), (0.6, 0.4, {4})],
                             ids=["some", "none", "all"])
    def test_adom_rows(self, seed, k, p1, p2, sizes):
        """Every row field against ``default_rng((seed, k))``; the coins move some, none or all of the nodes."""
        steps, streams = self.block(seed, k)
        assert self.check_adom_rows(seed, steps, streams, p1, p2) <= sizes

    def test_adom_rows_in_one_block_move_no_node_and_every_node(self):
        """A 64-iteration block whose moved lists, cut from one ``nonzero``, include empty and full rows."""
        steps, streams = network._block_streams(3, 0, 64)
        assert {0, 4} < self.check_adom_rows(3, steps, streams, 0.2, 0.3)

    @staticmethod
    def check_adom_rows(seed, steps, streams, p1, p2):
        """Checks ``_adom_rows`` of the block ``steps`` row by row; returns the moved-list sizes seen."""
        m, n, b = 4, 6, 3
        params = dataclasses.replace(adom_vr_params(1.0, 2.0, 2.0, 3.0, n, b), p1=p1, p2=p2)
        probs = np.random.default_rng(1).dirichlet(np.ones(n), size=m)
        cum_probs, weights = np.cumsum(probs, axis=1), 1.0 / (n * probs)
        rows = optimizers._adom_rows((seed, params), (cum_probs, weights), streams)
        assert len(rows) == len(steps)
        counts = set()
        for j, (idx, flat, row_weights, to_f, to_g, moved, moves) in zip(steps, rows):
            u = np.random.default_rng((seed, j)).random(m * b + m)
            batch_u, omega_u = u[: m * b].reshape(m, b), u[m * b :, None]
            expected = np.minimum((batch_u[..., None] >= cum_probs[:, None, :]).sum(axis=-1), n - 1)
            assert np.array_equal(idx, expected), j
            assert np.array_equal(flat, np.arange(m)[:, None] * n + expected), j
            assert row_weights.tobytes() == weights[np.arange(m)[:, None], expected].tobytes(), j
            assert np.array_equal(to_f, omega_u < p1) and np.array_equal(to_g, (omega_u >= p1) & (omega_u < p1 + p2)), j
            assert moved.dtype == np.intp and moved.tolist() == np.flatnonzero(omega_u < p1 + p2).tolist(), j
            assert moves == (to_f.sum(), to_g.sum()), j
            counts.add(moved.size)
        return counts


def test_optimizers_draw_nothing_through_numpy_random():
    """Every optimizer draw comes from the replica: the module names no ``np.random``."""
    tree = ast.parse(Path(optimizers.__file__).read_text())
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "random" and isinstance(node.value, ast.Name)]
    imports = [alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if "random" in alias.name or "random" in (getattr(node, "module", None) or "")]
    assert uses == [] and imports == []


@pytest.mark.parametrize(
    "init", [AdomVr.init, GtPage.init, GtBaseline.init], ids=["adom_vr_init", "gt_page_init", "gt_baseline_init"]
)
class TestStartPoint:
    def setup_method(self):
        self.obj = random_quadratic(np.random.default_rng(22), m=3, n=2, d=4)

    def test_flat_point_starts_every_node(self, init):
        x0 = np.arange(4.0)
        assert np.array_equal(init(self.obj, x0=x0).x, np.tile(x0, (3, 1)))

    @pytest.mark.parametrize("shape", [(5,), (2, 4), (4, 4), (3, 5), (3, 4, 1)])
    def test_bad_shapes_rejected(self, init, shape):
        with pytest.raises(ValueError, match="x0 must have shape"):
            init(self.obj, x0=np.zeros(shape))


class TestGtBaseline:
    def test_single_node_is_gradient_descent(self):
        rng = np.random.default_rng(10)
        obj, mats, vecs = strongly_convex_quadratic(rng, m=1, n=2, d=3)
        seq = SingleNodeSequence()
        state = GtBaseline.init(obj)
        eta = 0.3
        w_manual = np.zeros(3)
        for k in range(25):
            state = GtBaseline(eta).step(state, obj, seq, seed=0)
            w_manual = w_manual - eta * obj.local_gradient(0, w_manual)
            assert np.allclose(state.x[0], w_manual, atol=1e-12)

    def test_tracking_mean_identity(self):
        rng = np.random.default_rng(11)
        obj, _, _ = strongly_convex_quadratic(rng, m=4, n=2, d=2)
        seq = TwoStarHopSequence(4)
        state = GtBaseline.init(obj)
        for k in range(30):
            state = GtBaseline(0.05).step(state, obj, seq, seed=0)
            grads = np.stack([obj.local_gradient(i, state.x[i]) for i in range(4)])
            assert np.allclose(node_mean(state.y), node_mean(grads), atol=1e-12)

    def test_zero_step_only_mixes(self):
        rng = np.random.default_rng(12)
        obj, _, _ = strongly_convex_quadratic(rng, m=4, n=2, d=2)
        seq = StaticSequence(ring_graph(4))
        x0 = rng.normal(size=(4, 2))
        state = GtBaseline.init(obj, x0=x0)
        errs = []
        for k in range(60):
            base = node_mean(state.x)
            errs.append(float(np.sum((state.x - base) ** 2)))
            state = GtBaseline(0.0).step(state, obj, seq, seed=0)
        assert errs[-1] < 1e-8 * errs[0]
        assert np.allclose(node_mean(state.x), node_mean(x0), atol=1e-12)


class RecordingSequence(GraphSequence):
    """Forwards every gossip and window query to ``base`` and records the step, or the
    ``(start, stages)`` window, it asked for."""

    def __init__(self, base: GraphSequence):
        self.base, self.m, self.chi, self.reads, self.windows = base, base.m, base.chi, [], []

    def gossip(self, k):
        self.reads.append(k)
        return self.base.gossip(k)

    def window(self, start, stages):
        self.windows.append((start, stages))
        return self.base.window(start, stages)


@pytest.mark.parametrize("name", ["adom_vr", "gt_page", "gt_baseline"])
def test_step_reads_its_graphs_from_comms(name):
    # adom_vr and gt_baseline read graph `comms` once per step; gt_page reads its
    # window of `stages` graphs from `comms` with one window call, mixing x and v together.
    obj, _, _ = strongly_convex_quadratic(np.random.default_rng(23), m=4, n=2, d=2)
    seq = RecordingSequence(TwoStarHopSequence(4))
    info = obj.info
    method = {
        "adom_vr": lambda: AdomVr(adom_vr_params(info.mu, info.L, info.Lbar, seq.chi, obj.n, b=obj.n)),
        "gt_page": lambda: GtPage(gt_page_params(info.L, info.Lhat, seq.chi, obj.n, stages=3)),
        "gt_baseline": lambda: GtBaseline(0.05),
    }[name]()
    state = method.init(obj)
    for _ in range(6):
        comms, reads, windows = state.comms, len(seq.reads), len(seq.windows)
        state = method.step(state, obj, seq, seed=4)
        if name == "gt_page":
            assert seq.windows[windows:] == [(comms, 3)] and seq.reads == []
        else:
            assert seq.reads[reads:] == [comms] and seq.windows == []
    assert state.comms == (18 if name == "gt_page" else 6)


class DotRecorder(np.ndarray):
    """Gossip matrices that append the shape of every ``dot`` operand to ``self.products``; the
    matrices of a window stack, iterated or indexed, share their stack's list."""

    def __array_finalize__(self, obj):
        self.products = getattr(obj, "products", None)

    def dot(self, other, out=None):
        self.products.append(other.shape)
        return np.asarray(self).dot(other, out)


class ProductRecordingSequence(RecordingSequence):
    """A RecordingSequence whose window matrices also record their products in ``products``."""

    def __init__(self, base: GraphSequence):
        super().__init__(base)
        self.products = []

    def window(self, start, stages):
        matrices, chi = super().window(start, stages)
        matrices = matrices.view(DotRecorder)
        matrices.products = self.products
        return matrices, chi


def test_gt_page_step_makes_one_window_call_and_product_per_stage():
    # x and v (m = 4, d = 3) are mixed as one (4, 6) stack: one window of `stages` steps from
    # comms, no gossip call, and `stages` products, not 2 * stages.
    obj, _, _ = strongly_convex_quadratic(np.random.default_rng(24), m=4, n=2, d=3)
    seq = ProductRecordingSequence(TwoStarHopSequence(4))
    params = gt_page_params(obj.info.L, obj.info.Lhat, seq.chi, obj.n, stages=5)
    state = GtPage(params).step(GtPage.init(obj), obj, seq, seed=4)
    assert seq.windows == [(0, 5)] and seq.reads == [] and seq.products == [(4, 6)] * 5 and state.comms == 5


class CompleteThenPath(GraphSequence):
    """Complete graphs on ``m`` nodes for the first ``complete`` steps, then paths."""

    def __init__(self, m: int, complete: int):
        self.m, self.complete = m, complete
        gossips = [gossip_from_laplacian(complete_graph(m)), gossip_from_laplacian(path_graph(m))]
        self._matrices, self._chi = np.stack([g.matrix for g in gossips]), np.array([g.chi for g in gossips])

    def window(self, start, stages):
        paths = (np.arange(start, start + stages) >= self.complete).astype(int)
        return self._matrices[paths], self._chi[paths]


def test_gt_page_window_certificate_aborts_on_a_path_window():
    """chi measured over complete graphs is 1, so the schedule takes one stage and assumes a 1/e
    contraction; the first path window contracts by 1 - 1/chi(path) and ends the run with its records."""
    obj, _, _ = strongly_convex_quadratic(np.random.default_rng(25), m=3, n=2, d=2)
    trials = 20
    seq = CompleteThenPath(3, trials)
    chi = measure_chi(seq, trials=trials)
    params = gt_page_params(obj.info.L, obj.info.Lhat, chi, obj.n)
    assert chi == 1.0 and params.stages == 1
    with pytest.raises(RunAbort, match=r"window of steps 20\.\.20 contracts .* above the 0\.367879") as exc_info:
        run(GtPage(params), obj, seq, RunBudgets(max_iterations=100), metric_every=7, seed=0)
    assert [r.iteration for r in exc_info.value.trace.records] == [0, 7, 14, 20]
    path_factor = 1.0 - 1.0 / gossip_from_laplacian(path_graph(3)).chi  # 2/3: the path's I - W on zero-mean
    assert seq.windows_checked_exactly == 1 and seq.window_bound_max == path_factor
    assert seq.window_norm_max == pytest.approx(path_factor, rel=1e-12)


def newton_logistic_minimizer(shards, reg, d, iters=60):
    w = np.zeros(d)
    feats = np.vstack([s.features for s in shards])
    labels = np.concatenate([s.labels for s in shards])
    # Equal block sizes make the plain row average match the node/component mean.
    for _ in range(iters):
        t = labels * (feats @ w)
        sig = 1.0 / (1.0 + np.exp(t))
        grad = feats.T @ (-labels * sig) / len(labels) + reg * w
        hess_w = sig * (1.0 - sig)
        hess = feats.T @ (feats * hess_w[:, None]) / len(labels) + reg * np.eye(d)
        w = w - np.linalg.solve(hess, grad)
    return w


def poison_first_step(monkeypatch, state_cls, field, value):
    """Make the state a step builds at iteration 1 hold ``value`` at entry (1, 2) of ``field``,
    written through the field (for adom_vr, the view of its block in the state's array)."""

    def poisoned(**fields):
        state = state_cls(**fields)
        if state.k == 1:
            getattr(state, field)[1, 2] = value
        return state

    monkeypatch.setattr(optimizers, state_cls.__name__, poisoned)


class FailingSequence(StaticSequence):
    """A static sequence that cannot serve step 30 or later."""

    def window(self, start, stages):
        if start + stages > 30:
            raise RuntimeError(f"no connected geometric graph (step={max(start, 30)})")
        return super().window(start, stages)


def records_one_at_a_time(method, obj, seq, seed, iterations, x_star=None):
    """The records of a ``metric_every=1`` run of ``iterations`` steps, each one's objective metrics
    evaluated alone, at its own node mean."""
    counting, records = CountingObjective(obj), []
    state = method.init(counting)
    while True:
        xbar, dist = node_mean(state.x), math.nan
        if x_star is not None:
            diff = state.x - x_star[None, :]
            dist = float(np.mean(np.sum(diff * diff, axis=1)))
        grad = obj.average_gradient(xbar)
        records.append(TraceRecord(
            iteration=state.k, comms=state.comms, oracle_calls=counting.max_calls(), dist_sq=dist,
            grad_norm_sq=float(np.dot(grad, grad)), consensus_err=consensus_error(state.x),
            avg_value=obj.average_value(xbar),
        ))
        if state.k == iterations:
            return records
        state = method.step(state, counting, seq, seed)


def record_bytes(records) -> bytes:
    return np.array([dataclasses.astuple(r) for r in records], dtype=float).tobytes()


class TestRunDriver:
    def make_setup(self, seed=0, m=4, n=3, rows_per_block=4, d=5, reg=0.2):
        rng = np.random.default_rng(seed)
        shards = make_shards(rng, m=m, n=n, d=d, rows_per_block=rows_per_block)
        obj = logistic_objective(shards, reg)
        seq = StaticSequence(ring_graph(m))
        w_star = newton_logistic_minimizer(shards, reg, d)
        return obj, seq, w_star

    def test_zero_iteration_budget(self):
        obj, seq, w_star = self.make_setup()
        params = adom_vr_params(obj.info.mu, obj.info.L, obj.info.Lbar, seq.chi, obj.n, b=obj.n)
        trace = run(AdomVr(params), obj, seq, RunBudgets(max_iterations=1), seed=0, x_star=w_star)
        assert len(trace.records) >= 1
        assert trace.records[0].iteration == 0

    def test_deterministic_given_seed(self):
        obj, seq, w_star = self.make_setup()
        params = adom_vr_params(obj.info.mu, obj.info.L, obj.info.Lbar, seq.chi, obj.n, b=obj.n)
        t1 = run(AdomVr(params), obj, seq, RunBudgets(max_iterations=50), seed=42, x_star=w_star)
        t2 = run(AdomVr(params), obj, seq, RunBudgets(max_iterations=50), seed=42, x_star=w_star)
        assert t1.records == t2.records

    def test_adom_vr_linear_convergence(self):
        obj, seq, w_star = self.make_setup()
        info = obj.info
        b = corollary_batch_size(info.mu, info.L, info.Lbar, obj.n)
        params = adom_vr_params(info.mu, info.L, info.Lbar, seq.chi, obj.n, b=b)
        budget = adom_vr_iteration_budget(info.mu, info.L, info.Lbar, seq.chi, obj.n, b, eps_rel=1e-8)
        trace = run(
            AdomVr(params), obj, seq, RunBudgets(max_iterations=20 * budget),
            metric_every=10, seed=3, x_star=w_star, stop_dist_sq=1e-8 * float(np.dot(w_star, w_star)),
        )
        d0 = trace.records[0].dist_sq
        dN = trace.final().dist_sq
        assert dN / d0 <= 1e-8
        # stop_dist_sq reads each record's dist_sq when it is made, not when its block of
        # objective metrics is evaluated: the run stops at the first record below the target.
        assert trace.final().iteration == 440 and len(trace.records) == 45
        assert trace.records[-2].dist_sq > 1e-8 * float(np.dot(w_star, w_star))
        # Log-linear decay: negative slope with strong fit.
        ks = trace.column("iteration")
        ds = trace.column("dist_sq")
        mask = ds > 0
        slope, r2 = _fit_line(ks[mask], np.log(ds[mask]))
        assert slope < 0
        assert r2 > 0.9

    def test_gt_page_running_min_bounded(self):
        rng = np.random.default_rng(14)
        shards = make_shards(rng, m=4, n=3, d=5, rows_per_block=4, labels="real")
        from gossipvr.objectives import nlls_objective

        obj = nlls_objective(shards, probe_pairs=300)
        seq = StaticSequence(ring_graph(4))
        params = gt_page_params(obj.info.L, obj.info.Lhat, seq.chi, obj.n)
        trace = run(GtPage(params), obj, seq, RunBudgets(max_iterations=400), metric_every=5, seed=5)
        grads = trace.column("grad_norm_sq")
        running_min = np.minimum.accumulate(grads)
        assert np.all(np.diff(running_min) <= 1e-18)
        vals = trace.column("avg_value")
        delta_obs = vals[0] - vals.min()
        n_iters = trace.final().iteration
        assert running_min[-1] * n_iters <= 10.0 * obj.info.L * delta_obs

    def test_divergence_aborts_with_trace(self):
        obj, seq, _ = self.make_setup()
        with pytest.raises(RunAbort) as exc_info:
            run(GtBaseline(eta=1e9), obj, seq, RunBudgets(max_iterations=500), seed=0)
        assert len(exc_info.value.trace.records) >= 1

    def test_graph_failure_aborts_with_trace(self):
        """A graph the sequence cannot serve mid-run ends it with the records so far (all four still
        pending, mid-block, when the step fails)."""
        obj, seq, _ = self.make_setup()
        failing = FailingSequence(ring_graph(obj.m))
        with pytest.raises(RunAbort, match=r"^no connected geometric graph \(step=30\)$") as exc_info:
            run(GtBaseline(eta=0.1), obj, failing, RunBudgets(max_iterations=100), metric_every=10, seed=0)
        assert [r.iteration for r in exc_info.value.trace.records] == [0, 10, 20, 30]
        assert len(exc_info.value.trace.metadata["oracle_calls_per_node"]) == obj.m  # the failed step's charges

    def test_abort_mid_block_keeps_every_record(self):
        """Records 0..30 span more than one block; those pending when step 30 fails are evaluated before the abort."""
        obj, seq, _ = self.make_setup()
        with pytest.raises(RunAbort) as exc_info:
            run(GtBaseline(eta=0.1), obj, FailingSequence(ring_graph(obj.m)), RunBudgets(max_iterations=100), seed=0)
        records = exc_info.value.trace.records
        assert [r.iteration for r in records] == list(range(31)) and 31 % RECORD_BLOCK
        assert record_bytes(records) == record_bytes(records_one_at_a_time(GtBaseline(eta=0.1), obj, seq, 0, 30))

    @pytest.mark.parametrize("instance", ["adom_vr_logistic", "gt_baseline_zero_chain"])
    def test_block_records_equal_records_evaluated_alone(self, instance):
        """A 200-step ``metric_every=1`` run crosses 12 full blocks of records and ends mid-block."""
        if instance == "adom_vr_logistic":
            obj, seq, x_star = self.make_setup()
            method = AdomVr(adom_vr_params(obj.info.mu, obj.info.L, obj.info.Lbar, seq.chi, obj.n, b=obj.n))
        else:
            obj, seq = nonconvex_hard_objective(9, 4, 1.0, 1.0, budget_comms=200, budget_oracle=800)
            method, x_star = GtBaseline(eta=5.0), None
        trace = run(method, obj, seq, RunBudgets(max_iterations=200), seed=4, x_star=x_star)
        expected = records_one_at_a_time(method, obj, seq, 4, 200, x_star)
        assert len(trace.records) == 201 and 201 % RECORD_BLOCK
        assert record_bytes(trace.records) == record_bytes(expected)
        assert len({r.grad_norm_sq for r in expected}) > 100  # the metrics move along the run

    def test_metrics_take_one_call_per_block(self):
        """The objective metrics of a block of records take one call of each average: evaluating
        records one at a time (201 calls each here) fails this test."""
        obj, seq, w_star = self.make_setup()
        calls = dict.fromkeys(("average_gradient", "average_value"), 0)
        for name in calls:
            def counted(w, name=name, real=getattr(obj, name)):
                calls[name] += 1
                return real(w)

            setattr(obj, name, counted)
        method = AdomVr(adom_vr_params(obj.info.mu, obj.info.L, obj.info.Lbar, seq.chi, obj.n, b=obj.n))
        trace = run(method, obj, seq, RunBudgets(max_iterations=200), seed=0, x_star=w_star)
        assert len(trace.records) == 201
        assert 0 < max(calls.values()) <= math.ceil(201 / RECORD_BLOCK) < 201

    def test_unimplemented_sequence_propagates(self):
        obj, _, _ = self.make_setup()

        class Unimplemented(GraphSequence):
            m = obj.m

        with pytest.raises(NotImplementedError):
            run(GtBaseline(eta=0.1), obj, Unimplemented(), RunBudgets(max_iterations=5), seed=0)

    @pytest.mark.parametrize(
        "method, field", [("adom_vr", "x"), ("adom_vr", "y"), ("adom_vr", "z"), ("gt_page", "x"), ("gt_page", "v"),
                          ("gt_baseline", "x")],
    )
    @pytest.mark.parametrize(
        "value, message",
        [(np.nan, "non-finite values in {} at iteration 1"), (-np.inf, "non-finite values in {} at iteration 1"),
         (np.inf, "non-finite values in {} at iteration 1"),
         (2e12, "{} exceeded divergence limit at iteration 1: max |entry| = 2.000e+12"),
         (-2e12, "{} exceeded divergence limit at iteration 1: max |entry| = 2.000e+12")],
    )
    def test_divergence_check_names_field_and_value(self, monkeypatch, method, field, value, message):
        """A step whose new state holds one bad entry in a checked field aborts with that field's message."""
        obj, seq, _ = self.make_setup()
        method, state_cls = {
            "adom_vr": (AdomVr(adom_vr_params(obj.info.mu, obj.info.L, obj.info.Lbar, seq.chi, obj.n, b=obj.n)),
                        optimizers.AdomVrState),
            "gt_page": (GtPage(gt_page_params(obj.info.L, obj.info.Lhat, seq.chi, obj.n)), optimizers.GtPageState),
            "gt_baseline": (GtBaseline(eta=0.1), optimizers.GtBaselineState),
        }[method]

        poison_first_step(monkeypatch, state_cls, field, value)
        with pytest.raises(RunAbort, match=f"^{re.escape(message.format(field))}$") as exc_info:
            run(method, obj, seq, RunBudgets(max_iterations=5), seed=0)
        assert [r.iteration for r in exc_info.value.trace.records] == [0]  # iteration 0 is recorded once

    @pytest.mark.parametrize("value", [np.nan, 2e12])
    def test_adom_vr_checks_only_x_y_z(self, monkeypatch, value):
        """The step's one check covers the x, y, z slab: a bad x_f entry passes it."""
        obj, seq, _ = self.make_setup()
        method = AdomVr(adom_vr_params(obj.info.mu, obj.info.L, obj.info.Lbar, seq.chi, obj.n, b=obj.n))
        poison_first_step(monkeypatch, optimizers.AdomVrState, "x_f", value)
        state = method.step(method.init(obj), obj, seq, 0)
        assert state.k == 1
        np.testing.assert_equal(state.x_f[1, 2], value)

    def test_trace_counters_monotone(self):
        obj, seq, w_star = self.make_setup()
        params = gt_page_params(obj.info.L, obj.info.Lhat, seq.chi, obj.n)
        trace = run(GtPage(params), obj, seq, RunBudgets(max_iterations=40), metric_every=3, seed=8, x_star=w_star)
        assert np.all(np.diff(trace.column("comms")) >= 0)
        assert np.all(np.diff(trace.column("oracle_calls")) >= 0)

    def test_adom_vr_on_chain_over_two_star(self):
        # Hard strongly convex instance over its intended hard topology.
        from gossipvr.hardinstances import ChainObjective
        from gossipvr.harness import reference_solution

        obj = ChainObjective(4, 2, big_l=4.0, mu=1.0, dim=8)
        seq = TwoStarHopSequence(4)
        info = obj.info
        b = corollary_batch_size(info.mu, info.L, info.Lbar, obj.n)
        params = adom_vr_params(info.mu, info.L, info.Lbar, seq.chi, obj.n, b)
        ref = reference_solution(obj, tolerance=1e-13)
        trace = run(AdomVr(params), obj, seq, RunBudgets(max_iterations=1600),
                    metric_every=100, seed=0, x_star=ref.x_star)
        assert trace.final().dist_sq / trace.records[0].dist_sq < 1e-6

    def test_budget_limits_respected(self):
        obj, seq, _ = self.make_setup()
        params = gt_page_params(obj.info.L, obj.info.Lhat, seq.chi, obj.n, stages=3)
        # A 30-round budget is 10 iterations of 3 stages.
        trace = run(GtPage(params), obj, seq, RunBudgets(max_iterations=10), seed=0)
        assert params.stages == 3 and trace.final().comms == 30
        trace = run(
            GtPage(params), obj, seq,
            RunBudgets(max_iterations=10**6, max_oracle_calls_per_node=50), seed=0,
        )
        assert trace.final().oracle_calls >= 50
        assert trace.records[-2].oracle_calls < 50

    def test_budgets_have_no_comm_field(self):
        """Every method spends a fixed number of rounds per iteration, so a comm budget is an
        iteration budget, which the caller converts."""
        assert [f.name for f in dataclasses.fields(RunBudgets)] == ["max_iterations", "max_oracle_calls_per_node"]
        removed = "max_" + "communications"  # the old comm budget's keyword, named nowhere else
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{removed}'"):
            RunBudgets(max_iterations=10, **{removed: 30})


def _fit_line(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(coef[0]), 1.0 - ss_res / max(ss_tot, 1e-300)


@pytest.mark.parametrize(
    "family,method",
    [("logistic", "adom_vr"), ("logistic", "gt_page"), ("nlls", "gt_page")],
)
def test_shard_runs_through_a_per_node_proxy_record_the_same_bits(objective_families, family, method):
    """A proxy that forwards only the per-node queries, as a delegating profiler does, answers each
    node-batched query row by row through one-node calls: the records must not move by a bit."""
    obj = objective_families[family]  # 7 x 9 blocks of unequal sizes
    seq, info = StaticSequence(ring_graph(obj.m)), obj.info
    make = {
        "adom_vr": lambda: AdomVr(adom_vr_params(info.mu, info.L, info.Lbar, seq.chi, obj.n, b=obj.n)),
        "gt_page": lambda: GtPage(gt_page_params(info.L, info.Lhat, seq.chi, obj.n, b=3)),
    }[method]
    budgets, proxy = RunBudgets(max_iterations=60), PerNodeProxy(obj)
    plain, proxied = (run(make(), o, seq, budgets, metric_every=3, seed=5) for o in (obj, proxy))
    assert proxy.forwarded > 60 and len(plain.records) == 21
    assert plain.metadata == proxied.metadata  # oracle calls per node and the state counters
    assert method == "adom_vr" or plain.metadata["counters"]["full_restarts"] > 0  # both gt_page queries ran
    rows = lambda trace: np.array([dataclasses.astuple(r) for r in trace.records]).tobytes()
    assert rows(proxied) == rows(plain)
