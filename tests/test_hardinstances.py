import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gossipvr.hardinstances import (
    GRADIENT_CONST,
    ChainObjective,
    ProgressTracker,
    _ChainScan,
    chain_q,
    lower_bound_components,
    lower_bound_value,
    nonconvex_hard_objective,
    phi,
    phi_prime,
    prog,
    progress_audit,
    psi,
    psi_prime,
    zero_chain_l,
)
from gossipvr.network import RotatingStarSequence
from gossipvr.objectives import FiniteSumObjective, finite_difference_check
from gossipvr.optimizers import GtBaseline, RunBudgets, run

from test_objectives import assert_stacked_averages, chain_slot_reference

# Scaled chain coordinates at the bump threshold (the bump of nextafter(0.5, 1)
# underflows to 0.0, that of 0.52 is tiny but nonzero) and where erf saturates.
_THRESHOLD_POINTS = (0.5, -0.5, np.nextafter(0.5, 1.0), -np.nextafter(0.5, 1.0), 0.52, -0.52, 40.0, -40.0, 1e3, -0.0)


def _per_term_chain(x, terms, coef):
    """Reference: value and gradient of ``coef * sum`` over the selected chain terms, term by term."""
    val, grad = 0.0, np.zeros(x.shape[0])
    if terms.size and terms[0] == 1:
        val -= psi(1.0) * phi(x[0])
        grad[0] -= psi(1.0) * phi_prime(x[0])
        terms = terms[1:]
    if terms.size:
        a, b = x[terms - 2], x[terms - 1]
        phi_m, phi_p = phi(-b), phi(b)
        val += float(np.sum(psi(-a) * phi_m - psi(a) * phi_p))
        grad[terms - 1] += -psi(-a) * phi_prime(-b) - psi(a) * phi_prime(b)
        grad[terms - 2] += -psi_prime(-a) * phi_m - psi_prime(a) * phi_p
    return coef * val, coef * grad


def _per_term_query(obj, i, w, j=None):
    """Reference node (``j`` None) or block query of the zero-chain instance, through :func:`_per_term_chain`."""
    camp = 1 if i in obj.s1 else 2 if i in obj.s2 else 3
    if camp == 3:
        return 0.0, np.zeros(obj.d)
    if j is None:
        terms, coef = np.arange(camp, obj.d + 1, 2), obj.camp_coef
    else:
        every = np.arange(1, obj.d + 1)
        terms, coef = every[every % (2 * obj.n) == (2 * j + camp) % (2 * obj.n)], obj.n * obj.camp_coef
    val, grad = _per_term_chain(w / obj.scale_c, terms, coef)
    return obj.value_coef * val, (obj.value_coef / obj.scale_c) * grad


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _partly_activated(rng, shape, scale):
    """Uniform points in [-2, 2] * scale, zero from a random coordinate on, with threshold points mixed in."""
    x = rng.uniform(-2, 2, size=shape) * scale
    x[..., rng.integers(0, shape[-1] + 1) :] = 0.0
    mask = rng.random(shape) < 0.2
    x[mask] = rng.choice(_THRESHOLD_POINTS, size=int(mask.sum())) * scale
    return x


class TestPsiPhi:
    def test_psi_flat_below_half(self):
        assert psi(0.5) == 0.0
        assert psi(-3.0) == 0.0
        assert psi_prime(0.5) == 0.0

    def test_psi_at_one(self):
        assert psi(1.0) == pytest.approx(1.0)

    def test_phi_at_zero(self):
        # sqrt(e) * integral of exp(-t^2/2) over the left half line.
        assert phi(0.0) == pytest.approx(math.sqrt(math.e) * math.sqrt(math.pi / 2.0))
        assert phi(0.0) == pytest.approx(2.0664, abs=5e-5)

    def test_phi_against_quadrature(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(200)
        for z in (-1.0, 0.0, 0.7, 2.5):
            lo = -30.0
            t = 0.5 * (nodes + 1) * (z - lo) + lo
            integral = 0.5 * (z - lo) * np.sum(weights * np.exp(-0.5 * t * t))
            assert phi(z) == pytest.approx(math.sqrt(math.e) * integral, abs=1e-10)

    def test_derivatives_by_finite_differences(self):
        h = 1e-7
        for z in (-1.2, 0.3, 0.6, 0.9, 1.7):
            fd_psi = (psi(z + h) - psi(z - h)) / (2 * h)
            fd_phi = (phi(z + h) - phi(z - h)) / (2 * h)
            assert fd_psi == pytest.approx(psi_prime(z), abs=1e-5)
            assert fd_phi == pytest.approx(phi_prime(z), abs=1e-5)


class TestProg:
    def test_zero_vector(self):
        assert prog(np.zeros(5)) == 0

    def test_leading_entry(self):
        assert prog(np.array([1.0, 0.0, 0.0])) == 1

    def test_last_nonzero(self):
        assert prog(np.array([0.0, 2.0, 0.0, 3.0, 0.0])) == 4


class TestZeroChain:
    def test_origin_activates_only_first_coordinate(self):
        val, grad = zero_chain_l(np.zeros(8))
        assert prog(grad) <= 1
        assert grad[0] != 0.0

    def test_gradient_floor_when_last_coordinate_inactive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=10)
            x[-1] = 0.0
            _, grad = zero_chain_l(x)
            assert np.max(np.abs(grad)) >= 1.0

    def test_gradient_sup_norm_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.uniform(-5, 5, size=12)
            _, grad = zero_chain_l(x)
            assert np.max(np.abs(grad)) <= GRADIENT_CONST

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 20:
            x = rng.uniform(-2, 2, size=7)
            if np.any(np.abs(np.abs(x) - 0.5) < 0.02):
                continue  # stay away from the bump threshold for clean differences
            checked += 1
            _, grad = zero_chain_l(x)
            h = 1e-6
            for c in range(7):
                e = np.zeros(7)
                e[c] = h
                fd = (zero_chain_l(x + e)[0] - zero_chain_l(x - e)[0]) / (2 * h)
                assert abs(fd - grad[c]) / max(1.0, np.linalg.norm(grad)) < 1e-4

    def test_zero_chain_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=9)
            cut = rng.integers(0, 9)
            x[cut:] = 0.0
            _, grad = zero_chain_l(x)
            assert prog(grad) <= prog(x) + 1

    def test_matches_per_term_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(1, 30))
            x = _partly_activated(rng, (d,), 1.0)
            val, grad = zero_chain_l(x)
            ref_val, ref_grad = _per_term_chain(x, np.arange(1, d + 1), 1.0)
            assert _same_bits(val, ref_val) and _same_bits(grad, ref_grad)

    def test_phi_skip_exact_at_threshold(self):
        # Every ordered pair of threshold points as a coupling term (a, b), after a leading 0.
        a, b = np.meshgrid(_THRESHOLD_POINTS, _THRESHOLD_POINTS)
        for x_a, x_b in zip(a.ravel(), b.ravel()):
            x = np.array([0.0, x_a, x_b])
            val, grad = zero_chain_l(x)
            ref_val, ref_grad = _per_term_chain(x, np.arange(1, 4), 1.0)
            assert _same_bits(val, ref_val) and _same_bits(grad, ref_grad), (x_a, x_b)


class TestChainInstance:
    @pytest.mark.parametrize(
        "args, match",
        [
            ((2, 1, 4.0, 1.0, 8), "integer m >= 3"),
            ((4, 2, 4.0, 1.0, 2.5), "integer dim"),  # would make d = 5.0
            ((4, 2, math.inf, 1.0, 6), "finite"),  # would make q NaN
            ((4, 0, 4.0, 1.0, 6), "integer n"),  # would fail only in the constants' empty mean
            ((4.0, 2, 4.0, 1.0, 6), "integer m"),
            ((4, 2, 4.0, 1.0, 1), "integer dim"),
            ((4, 2, 4.0, 4.0, 6), "mu < L"),
            ((4, 2, 4.0, math.nan, 6), "mu < L"),
        ],
    )
    def test_rejects_invalid_arguments(self, args, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                ChainObjective(*args)

    def test_bystander_gradient_is_weak_quadratic(self):
        obj = ChainObjective(5, 2, 4.0, 1.0, 6)
        rng = np.random.default_rng(4)
        w = rng.normal(size=obj.d)
        expected = (1.0 / (5 - 2)) * w / obj.n
        assert obj.local_gradient(3, w) == pytest.approx(expected)

    def test_q_for_condition_number_four(self):
        q = chain_q(4.0)
        assert q == pytest.approx((math.sqrt(3) - 1) / (math.sqrt(3) + 1))
        assert q == pytest.approx(0.2679, abs=5e-5)

    def test_aggregate_minimizer_is_geometric(self):
        # Exact solve of the aggregate quadratic must match the geometric series.
        obj = ChainObjective(4, 3, 4.0, 1.0, 12)
        dim = obj.dim
        a = np.zeros((dim, dim))
        rhs = np.zeros(dim)
        mu, big_l = 1.0, 4.0
        c = (big_l - mu) / 2.0
        np.fill_diagonal(a, 3 * mu)
        a[0, 0] += c
        rhs[0] += c
        for j in range(dim - 1):
            a[j, j] += c
            a[j + 1, j + 1] += c
            a[j, j + 1] -= c
            a[j + 1, j] -= c
        slot = np.linalg.solve(a, rhs)
        assert np.abs(slot - obj.x_star_slot).max() < 1e-6

    def test_stationarity_at_x_star(self):
        obj = ChainObjective(4, 2, 4.0, 1.0, 14)
        x = obj.x_star()
        g = obj.average_gradient(x)
        assert np.linalg.norm(g) < 1e-5

    def test_averages_of_a_stack_equal_each_point_alone(self):
        obj = ChainObjective(5, 3, 4.0, 1.0, 6)
        assert_stacked_averages(obj, np.random.default_rng(6).normal(size=(12, obj.d)))

    def test_finite_differences(self):
        obj = ChainObjective(4, 2, 4.0, 1.0, 6)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(obj.m, obj.d))
        report = finite_difference_check(obj, x, h=1e-6, tolerance=1e-4)
        assert report.passed, report

    @pytest.mark.parametrize("dim", [2, 3, 6, 7])
    def test_pair_slices_match_pair_loop(self, dim):
        obj = ChainObjective(4, 2, 4.0, 1.0, dim)
        c = (4.0 - 1.0) / 4.0
        rng = np.random.default_rng(dim)
        for _ in range(20):
            w = rng.normal(size=obj.d)
            for i, first in ((0, 1), (1, 0)):  # left pairs (2k, 2k+1), right (2k-1, 2k), 1-based
                for j in range(obj.n):
                    y = w[j * dim : (j + 1) * dim]
                    val, grad = 0.5 * y @ y, y.copy()
                    if i == 0:
                        val += c * (y[0] - 1.0) ** 2
                        grad[0] += 2.0 * c * (y[0] - 1.0)
                    for lo in range(first, dim - 1, 2):
                        diff = y[lo] - y[lo + 1]
                        val += c * diff * diff
                        grad[lo] += 2.0 * c * diff
                        grad[lo + 1] -= 2.0 * c * diff
                    full = np.zeros(obj.d)
                    full[j * dim : (j + 1) * dim] = grad
                    assert _same_bits(obj.component_gradient(i, j, w), full)
                    # The slices sum the pair terms in another order.
                    assert obj.component_value(i, j, w) == pytest.approx(val, rel=1e-12)
            mu_other = 1.0 / (4 - 2)
            for i in (2, 3):  # the bystanders: a weak quadratic of the slot, bitwise
                for j in range(obj.n):
                    y = w[j * dim : (j + 1) * dim]
                    full = np.zeros(obj.d)
                    full[j * dim : (j + 1) * dim] = mu_other * y
                    assert _same_bits(obj.component_gradient(i, j, w), full)
                    assert _same_bits(obj.component_value(i, j, w), 0.5 * mu_other * y @ y)

    @pytest.mark.parametrize("m, n, dim", [(5, 4, 7), (4, 3, 2), (16, 2, 3)])
    def test_batched_queries_equal_the_slot_formula(self, m, n, dim):
        # The reference: each sampled slot's gradient by the one-slot formula, in a zeroed length-d gradient.
        obj = ChainObjective(m, n, 4.0, 1.0, dim)
        rng = np.random.default_rng(9)
        nodes = np.array([0, 1, m - 1, 1, 2, 0])  # both chain nodes and the bystanders
        X, X_old = rng.normal(size=(2, len(nodes), obj.d))
        X[2, ::2] = -0.0  # a bystander's -0.0 gradient entries, which a node gradient's mean makes 0.0
        idx = rng.integers(0, obj.n, size=(len(nodes), n + 2))  # repeated slots in every row

        def reference(idx, X):
            out = np.zeros(idx.shape + (obj.d,))
            for row, i, ix, x in zip(out, nodes, idx, X):
                for grad, j in zip(row, ix):
                    grad[j * dim : (j + 1) * dim] = chain_slot_reference(obj, i, x[j * dim : (j + 1) * dim])[1]
            return out

        sampled, got = reference(idx, X), obj.batch_sampled_gradients(nodes, idx, X)
        assert got.shape == sampled.shape and _same_bits(got, sampled)
        g_new, g_old = obj.batch_sampled_gradient_pairs(nodes, idx, X, X_old)
        assert _same_bits(g_new, sampled) and _same_bits(g_old, reference(idx, X_old))
        full = reference(np.tile(np.arange(obj.n), (len(nodes), 1)), X)
        assert _same_bits(obj.batch_component_gradients(nodes, X), full)
        assert _same_bits(obj.batch_local_gradients(nodes, X), full.mean(axis=1))
        values = [[chain_slot_reference(obj, i, y)[0] for y in x.reshape(n, dim)] for i, x in zip(nodes, X)]
        assert _same_bits(obj.batch_component_values(nodes, X), values)

    def test_left_square_is_the_scalar_square(self):
        # The left node's (y_1 - 1)^2 rounds as a scalar's ** 2, through pow, which differs from the
        # product x * x on about 0.1% of points: the test keeps the points where it does.
        obj = ChainObjective(4, 1, 4.0, 1.0, 2)
        X = np.random.default_rng(12).normal(size=(100_000, 2))
        square = np.array([(y - 1.0) ** 2 for y in X[:, 0]])
        X = X[square != (X[:, 0] - 1.0) * (X[:, 0] - 1.0)]
        assert len(X) > 20
        want = [[chain_slot_reference(obj, 0, x)[0]] for x in X]
        assert _same_bits(obj.batch_component_values(np.zeros(len(X), dtype=int), X), want)

    def test_tail_error_reported(self):
        obj = ChainObjective(4, 1, 4.0, 1.0, 12)
        assert obj.tail_error == pytest.approx(obj.q ** 24 / (1 - obj.q**2))
        assert obj.tail_error < 1e-10


class TestLowerBoundValue:
    def test_kappa_one_gives_zero_t1(self):
        t1, _ = lower_bound_components(1.0, 100.0, 100.0, 4, 10, 10)
        assert t1 == 0.0
        # With the oracle floor inapplicable the max itself is the zero T1.
        assert lower_bound_value(1.0, 1.0, 100.0, 4, 10, 10) == 0.0

    def test_direct_formula_example(self):
        t1, _ = lower_bound_components(4.0, 0.0, 100.0, 4, 0, 0)
        assert t1 == pytest.approx(0.0718, abs=5e-5)

    def test_monotone_in_budgets(self):
        prev = None
        for n_oracle in range(0, 100, 10):
            val = lower_bound_value(10.0, 40.0, 30.0, 4, 5, n_oracle)
            if prev is not None:
                assert val <= prev + 1e-15
            prev = val
        grid = [
            [lower_bound_value(10.0, 40.0, 30.0, 4, nc, ns) for ns in range(0, 100, 10)]
            for nc in range(0, 100, 10)
        ]
        grid = np.array(grid)
        assert np.all(np.diff(grid, axis=0) <= 1e-15)
        assert np.all(np.diff(grid, axis=1) <= 1e-15)

    def test_inapplicable_regime_errors(self):
        with pytest.raises(ValueError):
            lower_bound_value(2.0, 1.0, 10.0, 4, 1, 1)


class TestZeroChainInstance:
    def test_dimension_and_scale(self):
        obj, seq = nonconvex_hard_objective(9, 4, 1.0, 1.0, budget_comms=36, budget_oracle=40)
        assert obj.d == 2 + min((4 * 36) // 9, 40 // 4)
        assert isinstance(seq, RotatingStarSequence)
        assert seq.s1 == obj.s1 and seq.s2 == obj.s2

    def test_budget_preconditions(self):
        with pytest.raises(ValueError):
            nonconvex_hard_objective(9, 4, 1.0, 1.0, budget_comms=1, budget_oracle=40)
        with pytest.raises(ValueError):
            nonconvex_hard_objective(9, 4, 1.0, 1.0, budget_comms=36, budget_oracle=3)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((9, 4, math.inf, 1.0, 100, 100), "finite positive L"),  # would state info.L = inf
            ((9, 4, math.nan, 1.0, 100, 100), "finite positive L"),
            ((9, 4, 1.0, math.inf, 100, 100), "finite positive L"),  # would make scale_c inf
            ((9, 4, 1.0, 0.0, 100, 100), "finite positive L"),
            ((9, 0, 1.0, 1.0, 100, 100), "integer n >= 1"),  # would divide by zero
            ((9, 2.5, 1.0, 1.0, 100, 100), "integer n >= 1"),  # would fail in np.full
        ],
    )
    def test_rejects_invalid_arguments(self, args, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                nonconvex_hard_objective(*args)

    def test_bystander_nodes_are_flat(self):
        obj, _ = nonconvex_hard_objective(3, 2, 1.0, 1.0, budget_comms=8, budget_oracle=8)
        rng = np.random.default_rng(6)
        w = rng.normal(size=obj.d)
        assert obj.local_value(2, w) == 0.0
        assert np.all(obj.local_gradient(2, w) == 0.0)

    def test_block_splitting_identity(self):
        obj, _ = nonconvex_hard_objective(9, 4, 2.0, 1.5, budget_comms=45, budget_oracle=60)
        rng = np.random.default_rng(7)
        for i in (obj.s1[0], obj.s2[0]):
            w = rng.normal(size=obj.d)
            mean_grad = sum(obj.component_gradient(i, j, w) for j in range(obj.n)) / obj.n
            assert mean_grad == pytest.approx(obj.local_gradient(i, w), abs=1e-12)
            mean_val = sum(obj.component_value(i, j, w) for j in range(obj.n)) / obj.n
            assert mean_val == pytest.approx(obj.local_value(i, w), abs=1e-12)

    def test_node_functions_are_l_smooth(self):
        obj, _ = nonconvex_hard_objective(9, 4, 2.0, 1.0, budget_comms=36, budget_oracle=40)
        rng = np.random.default_rng(8)
        for _ in range(200):
            u = rng.normal(scale=obj.scale_c, size=obj.d)
            v = u + rng.normal(scale=0.1 * obj.scale_c, size=obj.d)
            for i in (0, obj.s2[0]):
                lhs = np.linalg.norm(obj.local_gradient(i, u) - obj.local_gradient(i, v))
                assert lhs <= 1.01 * obj.info.L * np.linalg.norm(u - v) + 1e-12

    def test_split_average_smoothness(self):
        obj, _ = nonconvex_hard_objective(9, 4, 2.0, 1.0, budget_comms=36, budget_oracle=40)
        rng = np.random.default_rng(9)
        n = obj.n
        for _ in range(100):
            u = rng.normal(scale=obj.scale_c, size=obj.d)
            v = u + rng.normal(scale=0.1 * obj.scale_c, size=obj.d)
            gap_sq = np.sum((u - v) ** 2)
            for i in (0, obj.s2[0]):
                mean_sq = np.mean(
                    [np.sum((obj.component_gradient(i, j, u) - obj.component_gradient(i, j, v)) ** 2) for j in range(n)]
                )
                assert mean_sq <= 1.01 * obj.info.Lhat**2 * gap_sq + 1e-15

    def test_value_gap_within_budget(self):
        obj, _ = nonconvex_hard_objective(9, 4, 1.0, 0.5, budget_comms=36, budget_oracle=40)
        # Range property: F(0) - inf F <= value_coef * range-const * d < Delta.
        assert obj.value_coef * 12.0 * obj.d <= 0.5 + 1e-12

    def test_camp_parity_progress(self):
        obj, _ = nonconvex_hard_objective(9, 4, 1.0, 1.0, budget_comms=90, budget_oracle=80)
        rng = np.random.default_rng(10)
        for _ in range(200):
            x = rng.uniform(-2, 2, size=obj.d) * obj.scale_c
            cut = rng.integers(0, obj.d + 1)
            x[cut:] = 0.0
            p = prog(x)
            for i in range(obj.m):
                g = obj.local_gradient(i, x)
                pg = prog(g)
                assert pg <= p + 1
                if pg == p + 1:
                    camp = 1 if i in obj.s1 else 2
                    assert (p % 2 == 0) == (camp == 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_node_queries_are_block_means(self, n):
        obj, _ = nonconvex_hard_objective(9, n, 1.0, 1.0, budget_comms=90, budget_oracle=40 * n)
        rng = np.random.default_rng(12 + n)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=obj.d) * obj.scale_c
            x[rng.integers(0, obj.d + 1):] = 0.0  # partly activated
            for i in range(obj.m):
                block_mean = obj.local_component_gradients(i, x).mean(axis=0)
                grad = obj.local_gradient(i, x)
                assert prog(grad) == prog(block_mean)
                np.testing.assert_allclose(grad, block_mean, rtol=1e-12, atol=1e-300)
                block_value = np.mean([obj.component_value(i, j, x) for j in range(n)])
                assert obj.local_value(i, x) == pytest.approx(block_value, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n", [3, 4])
    def test_queries_match_per_term_reference(self, n):
        obj, _ = nonconvex_hard_objective(9, n, 1.0, 1.0, budget_comms=90, budget_oracle=40 * n)
        rng = np.random.default_rng(20 + n)
        for _ in range(40):
            w = _partly_activated(rng, (obj.d,), obj.scale_c)
            for i in range(obj.m):
                val, grad = _per_term_query(obj, i, w)
                assert _same_bits(obj.local_value(i, w), val) and _same_bits(obj.local_gradient(i, w), grad)
                for j in range(n):
                    val, grad = _per_term_query(obj, i, w, j)
                    assert _same_bits(obj.component_value(i, j, w), val)
                    assert _same_bits(obj.component_gradient(i, j, w), grad)

    @pytest.mark.parametrize("m, n", [(3, 2), (4, 2), (9, 4), (10, 3), (12, 5)])
    def test_averages_equal_the_node_reduction(self, m, n):
        # One row per camp, scattered to the camp's nodes, against all m rows (m = 4 has no camp 3).
        obj, _ = nonconvex_hard_objective(m, n, 1.0, 1.0, budget_comms=90, budget_oracle=40 * n)
        rng = np.random.default_rng(40 + m)
        for _ in range(50):
            w = _partly_activated(rng, (obj.d,), obj.scale_c)
            assert _same_bits(obj.average_gradient(w), FiniteSumObjective.average_gradient(obj, w))
            assert _same_bits(obj.average_value(w), FiniteSumObjective.average_value(obj, w))

    @pytest.mark.parametrize("m, n", [(4, 2), (9, 4), (12, 5)])
    def test_averages_of_a_stack_equal_each_point_alone(self, m, n):
        # The rows of a camp share one scan, which reads the columns up to the frontier of the
        # whole stack, past each row's own; one row is all zeros, one holds a NaN.
        obj, _ = nonconvex_hard_objective(m, n, 1.0, 1.0, budget_comms=90, budget_oracle=40 * n)
        rng = np.random.default_rng(50 + m)
        W = np.stack([_partly_activated(rng, (obj.d,), obj.scale_c) for _ in range(30)])
        W[3] = 0.0
        W[7, : obj.d // 2] = 1.5 * obj.scale_c
        W[11, 2] = np.nan
        assert len({prog(w) for w in W}) > 5
        assert np.isnan(obj.average_value(W)[11]) and not np.isnan(np.delete(obj.average_value(W), 11)).any()
        assert_stacked_averages(obj, W)

    @pytest.mark.parametrize("n", [3, 4])
    def test_batched_queries_equal_per_node(self, n):
        obj, _ = nonconvex_hard_objective(9, n, 1.0, 1.0, budget_comms=90, budget_oracle=40 * n)
        rng = np.random.default_rng(30 + n)
        for nodes in ([7, 4, 0, 5, 2, 8], [3, 6, 1], [8, 0, 3, 1, 4, 2, 6, 5, 7], [2, 2, 6, 5]):
            X = np.stack([_partly_activated(rng, (obj.d,), obj.scale_c) for _ in nodes])
            per_node = np.stack([obj.local_gradient(i, x) for i, x in zip(nodes, X)])
            assert _same_bits(obj.batch_local_gradients(np.array(nodes), X), per_node)
            per_node = np.stack([obj.local_component_gradients(i, x) for i, x in zip(nodes, X)])
            assert _same_bits(obj.batch_component_gradients(np.array(nodes), X), per_node)
            idx = rng.integers(0, n, size=(len(nodes), 2))  # repeats, and blocks no row drew
            per_node = np.stack([[obj.component_gradient(i, j, x) for j in ix] for i, ix, x in zip(nodes, idx, X)])
            assert _same_bits(obj.batch_sampled_gradients(np.array(nodes), idx, X), per_node)

    @pytest.mark.parametrize("n", [3, 4])
    def test_batched_values_match_per_term_reference(self, n):
        obj, _ = nonconvex_hard_objective(9, n, 1.0, 1.0, budget_comms=90, budget_oracle=40 * n)
        rng = np.random.default_rng(40 + n)
        for nodes in ([7, 4, 0, 5, 2, 8], [3, 6, 1], [8, 0, 3, 1, 4, 2, 6, 5, 7], [2, 2, 6, 5]):
            assert len({obj._node_camp[i] for i in nodes}) == 3
            for _ in range(10):
                X = np.stack([_partly_activated(rng, (obj.d,), obj.scale_c) for _ in nodes])
                local, blocks = obj.batch_local_values(np.array(nodes), X), obj.batch_component_values(np.array(nodes), X)
                for r, (i, x) in enumerate(zip(nodes, X)):
                    assert _same_bits(local[r], _per_term_query(obj, i, x)[0])
                    assert _same_bits(blocks[r], [_per_term_query(obj, i, x, j)[0] for j in range(n)])

    def test_finite_differences(self):
        obj, _ = nonconvex_hard_objective(6, 3, 1.5, 1.0, budget_comms=24, budget_oracle=30)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            x = rng.uniform(-2, 2, size=(obj.m, obj.d)) * obj.scale_c
            scaled = x / obj.scale_c
            if np.any(np.abs(np.abs(scaled) - 0.5) < 0.02):
                continue
            checked += 1
            report = finite_difference_check(obj, x, h=1e-6, tolerance=1e-4)
            assert report.passed, report


# Non-finite and signed-zero coordinates, on top of the threshold points.
_SPECIAL_POINTS = (np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0)


def _special_rows(rng, k, d, scale):
    """``k`` rows of ``d`` coordinates times ``scale``: an all-cold row (every ``|x_j| <= 1/2``, so only
    term 1 is hot), an all-hot row (every ``|x_j| > 1/2``), and partly activated rows, each with NaN,
    +-inf, -0.0 and the threshold points mixed in."""
    rows = []
    for r in range(k):
        if r % 3 == 0:
            x = rng.uniform(-0.5, 0.5, size=d)
            points = (0.5, -0.5, np.nan, -np.nan, -0.0)
        elif r % 3 == 1:
            x = rng.choice([-1.0, 1.0], size=d) * rng.uniform(0.51, 3.0, size=d)
            points = (np.inf, -np.inf, np.nextafter(0.5, 1.0), -0.52, 40.0, -1e3, np.nan)
        else:
            x = _partly_activated(rng, (d,), 1.0)
            points = _SPECIAL_POINTS + _THRESHOLD_POINTS
        mask = rng.random(d) < 0.15
        x[mask] = rng.choice(points, size=int(mask.sum()))
        rows.append(x * scale)
    return np.array(rows)


def _nan_blind(v):
    """``v`` with every NaN made the same NaN: the per-term formula takes a NaN gradient entry's sign
    from ``phi_prime(-x_j)``, the kernel from ``phi_prime(x_j)``."""
    v = np.array(v, dtype=float)
    v[np.isnan(v)] = np.nan
    return v


def _zero_bump_reference(reference, w, scale, terms):
    """The kernel's answer at ``w``, from ``reference``, the per-term formula's (value, gradient).

    The value is the formula's.  The gradient kernel takes a product by a zero bump or slope as 0.0,
    where the formula's ``0 * phi(NaN)`` is NaN.  So in the gradient a NaN ``x_j`` whose term has
    ``psi(|x_{j-1}|) = 0`` counts as 0.0, except at ``x_j`` itself when term ``j`` is in ``terms``: that
    entry keeps the dense ``0.0 - 0.0 * phi_prime(NaN)``."""
    prev = np.concatenate([[1.0], (w / scale)[:-1]])
    dead = np.isnan(w) & (psi(np.abs(prev)) == 0.0)
    _, grad = reference(np.where(dead, 0.0, w))
    grad[dead & np.isin(np.arange(1, len(w) + 1), terms)] = np.nan
    return reference(w)[0], grad


def _query_terms(obj, i, j=None):
    """The terms of node ``i``'s block ``j`` (its node function if None), as :func:`_per_term_query` picks them."""
    camp, every = 1 if i in obj.s1 else 2 if i in obj.s2 else 3, np.arange(1, obj.d + 1)
    if camp == 3:
        return every[:0]
    return every[camp - 1 :: 2] if j is None else every[every % (2 * obj.n) == (2 * j + camp) % (2 * obj.n)]


class TestActiveSupportKernel:
    """The chain kernel evaluates only the hot terms, ``|x_{j-1}| > 1/2``, and answers as the per-term
    formula does, bit for bit but for a NaN's sign, on inputs with NaN, +-inf, -0.0 and the threshold
    points, with a product by a zero bump taken as 0.0 in the gradient (see :func:`_zero_bump_reference`)."""

    def test_consecutive_terms_match_per_term_reference(self):
        rng = np.random.default_rng(50)
        for d in list(range(1, 30)) + [64, 129, 446]:
            terms = np.arange(1, d + 1)
            for x in _special_rows(rng, 6, d, 1.0):
                val, grad = zero_chain_l(x)
                ref_val, ref_grad = _zero_bump_reference(lambda w: _per_term_chain(w, terms, 1.0), x, 1.0, terms)
                assert _same_bits(_nan_blind([val, *grad]), _nan_blind([ref_val, *ref_grad])), x

    @pytest.mark.parametrize("n, budget_comms", [(3, 90), (4, 90), (4, 1000)])
    def test_camp_and_block_queries_match_per_term_reference(self, n, budget_comms):
        obj, _ = nonconvex_hard_objective(9, n, 1.0, 1.0, budget_comms=budget_comms, budget_oracle=40 * n)
        rng = np.random.default_rng(60 + n)
        nodes = np.array([7, 4, 0, 5, 2, 8, 3, 6, 1])
        for _ in range(4):
            X = _special_rows(rng, len(nodes), obj.d, obj.scale_c)
            local_values, local_grads = obj.batch_local_values(nodes, X), obj.batch_local_gradients(nodes, X)
            block_values, block_grads = obj.batch_component_values(nodes, X), obj.batch_component_gradients(nodes, X)
            for r, (i, w) in enumerate(zip(nodes, X)):
                for j, value, grad in [(None, local_values[r], local_grads[r])] + [
                    (j, block_values[r, j], block_grads[r, j]) for j in range(n)
                ]:
                    reference = lambda v: _per_term_query(obj, i, v, j)  # noqa: E731
                    ref_val, ref_grad = _zero_bump_reference(reference, w, obj.scale_c, _query_terms(obj, i, j))
                    assert _same_bits(_nan_blind([value, *grad]), _nan_blind([ref_val, *ref_grad])), (i, j)

    def test_cold_term_at_nan_keeps_the_dense_gradient_entry(self):
        x = np.zeros(6)
        x[3] = np.nan  # x_4 = NaN after x_3 = 0: term 4 is cold, term 5 reads a NaN x_4 and is cold too
        val, grad = zero_chain_l(x)
        expected = 0.0 - 0.0 * phi_prime(np.array([np.nan]))
        assert _same_bits(grad[3], expected[0])
        assert _same_bits(grad[[1, 2, 4, 5]], np.zeros(4))
        assert math.isnan(val)
        x[3] = 0.0
        assert _same_bits(grad[0], zero_chain_l(x)[1][0])

    @pytest.mark.parametrize("base", [0.0, 1.0], ids=["cold", "hot"])
    @pytest.mark.parametrize("pos", range(6))
    def test_value_is_nan_wherever_the_nan_sits(self, base, pos):
        x = np.full(6, base)
        x[pos] = np.nan
        assert math.isnan(zero_chain_l(x)[0]) and math.isnan(_per_term_chain(x, np.arange(1, 7), 1.0)[0])

    def test_value_at_nan_in_a_cold_term_is_nan(self):
        x = np.zeros(6)
        x[4] = np.nan  # x_5: term 5 is cold (x_4 = 0), and its 0 * phi(NaN) is NaN
        assert math.isnan(zero_chain_l(x)[0]) and math.isnan(_per_term_chain(x, np.arange(1, 7), 1.0)[0])
        obj, _ = nonconvex_hard_objective(9, 4, 1.0, 1.0, budget_comms=90, budget_oracle=160)
        w = np.zeros(obj.d)
        w[3] = np.nan  # x_4: a cold term of camp 2; camp 1 reads it only as the x_{j-1} of term 5
        values = obj.batch_local_values(np.array([obj.s1[0], obj.s2[0]]), np.tile(w, (2, 1)))
        assert np.isfinite(values[0]) and np.isnan(values[1])
        assert np.isnan(obj.average_value(w))

    def test_cold_term_at_nan_in_camp_queries(self):
        obj, _ = nonconvex_hard_objective(9, 4, 1.0, 1.0, budget_comms=90, budget_oracle=160)
        w = np.zeros(obj.d)
        w[3] = np.nan  # term 4 is camp 2's, cold; camp 1's term 5 reads the NaN as its x_{j-1}
        grads = obj.batch_local_gradients(np.array([obj.s1[0], obj.s2[0]]), np.tile(w, (2, 1)))
        assert np.flatnonzero(grads[0]).tolist() == [0] and np.isnan(grads[1]).tolist() == [j == 3 for j in range(obj.d)]
        assert _same_bits(np.delete(grads[1], 3), np.zeros(obj.d - 1))

    def test_one_scan_per_gradient_query(self, monkeypatch):
        from gossipvr import hardinstances

        built = []  # the rows of each scan
        scan = lambda X, mask, scale: built.append(len(X)) or _ChainScan(X, mask, scale)  # noqa: E731
        monkeypatch.setattr(hardinstances, "_ChainScan", scan)
        obj, _ = nonconvex_hard_objective(9, 4, 1.0, 1.0, budget_comms=90, budget_oracle=160)
        rng = np.random.default_rng(70)
        X, nodes = _partly_activated(rng, (9, obj.d), obj.scale_c), np.arange(9)
        obj.batch_local_gradients(nodes, X)
        assert built == [9]  # camps 1, 2 and 3 in one scan
        for idx in (rng.integers(0, 4, size=(9, 3)), np.full((9, 2), 2), np.array([[0, 3]] * 9)):
            built.clear()
            obj.batch_sampled_gradients(nodes, idx, X)
            assert sorted(built) == sorted(np.count_nonzero(idx == j) for j in np.unique(idx))
        built.clear()
        obj.average_gradient(X[0])
        assert built == [3]

    def test_scan_width_is_the_frontier(self):
        d = 12
        assert _ChainScan(np.zeros((3, d)), np.ones(d, dtype=bool), 1.0).width == 1
        assert _ChainScan(np.full((3, d), -0.0), np.ones(d, dtype=bool), 1.0).width == 1  # -0.0 counts as zero
        for last in range(d):
            for value in (0.3, -1e-300, np.nan, np.inf, -np.inf):
                X = np.zeros((3, d))
                X[0, : last // 2] = 1.0  # a row of less progress
                X[1, last], X[2, last + 1 :] = value, -0.0
                scan = _ChainScan(X, np.ones(d, dtype=bool), 1.0)
                assert scan.width == min(last + 2, d), (last, value)
                assert scan.gradients().shape == (3, scan.width)

    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_past_each_others_frontier(self, n):
        """Rows of different progress and camps in one scan, each with NaN, +-inf or -0.0 beyond the
        others' frontiers, answer as one-row calls do, and as the per-term formula does."""
        obj, _ = nonconvex_hard_objective(9, n, 1.0, 1.0, budget_comms=1000, budget_oracle=40 * n)
        rng = np.random.default_rng(80 + n)
        for _ in range(6):
            nodes = rng.permutation(9)
            X = np.zeros((9, obj.d))
            for r, progress in enumerate(rng.choice([0, 1, 2, 3, 7, 40, obj.d // 2, obj.d - 1, obj.d], 9, replace=False)):
                X[r, :progress] = rng.uniform(-2, 2, size=progress)
                if progress < obj.d and rng.random() < 0.8:  # one special point past this row's frontier
                    X[r, rng.integers(progress, obj.d)] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.75, -40.0])
            X *= obj.scale_c
            idx = rng.integers(0, n, size=(9, 2))
            local, sampled = obj.batch_local_gradients(nodes, X), obj.batch_sampled_gradients(nodes, idx, X)
            for r, (i, w) in enumerate(zip(nodes, X)):
                assert _same_bits(local[r], obj.batch_local_gradients(nodes[r : r + 1], X[r : r + 1])[0])
                assert _same_bits(sampled[r], obj.batch_sampled_gradients(nodes[r : r + 1], idx[r : r + 1], X[r : r + 1])[0])
                for j, grad in [(None, local[r])] + [(int(j), g) for j, g in zip(idx[r], sampled[r])]:
                    reference = lambda v: _per_term_query(obj, i, v, j)  # noqa: E731
                    _, ref_grad = _zero_bump_reference(reference, w, obj.scale_c, _query_terms(obj, i, j))
                    assert _same_bits(_nan_blind(grad), _nan_blind(ref_grad)), (i, j)

    def test_work_scales_with_the_hot_terms(self, monkeypatch):
        from gossipvr import hardinstances

        sizes = {"phi": [], "phi_prime": []}
        for name, fn in (("phi", phi), ("phi_prime", phi_prime)):
            monkeypatch.setattr(hardinstances, name, lambda z, name=name, fn=fn: sizes[name].append(np.size(z)) or fn(z))
        x = np.zeros(446)
        x[:10] = 0.75  # terms 1-11 are hot, 12-446 cold
        zero_chain_l(x)
        assert sizes == {"phi": [11], "phi_prime": [11]}


class _PerNodeTracker:
    """Reference: the tracker that raised a count per node to :func:`prog` of its row at every update."""

    def __init__(self, m):
        self.node_prog, self.audit_points = np.zeros(m, dtype=int), []

    def update(self, x, comms, oracle_calls):
        nonzero = np.asarray(x) != 0
        last = np.where(nonzero.any(axis=1), nonzero.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 0)
        np.maximum(self.node_prog, last, out=self.node_prog)
        self.audit_points.append((int(comms), int(oracle_calls), int(self.node_prog.max())))

    @property
    def global_prog(self):
        return int(self.node_prog.max()) if self.audit_points else 0


class TestProgressAudit:
    def test_zero_iterations(self):
        tracker = ProgressTracker(m=4)
        tracker.update(np.zeros((4, 6)), comms=0, oracle_calls=0)
        report = progress_audit(tracker, m=4, n=2)
        assert report.passed
        assert report.final_prog == 0

    def test_violation_detected(self):
        tracker = ProgressTracker(m=4)
        x = np.zeros((4, 6))
        x[0, :3] = 1.0  # progress 3 with no budget spent
        tracker.update(x, comms=0, oracle_calls=0)
        report = progress_audit(tracker, m=4, n=2)
        assert not report.passed
        assert report.violations[0][2] == 3

    def test_prog_nondecreasing(self):
        tracker = ProgressTracker(m=2)
        x = np.zeros((2, 5))
        x[0, 0] = 1.0
        tracker.update(x, 1, 1)
        x2 = np.zeros((2, 5))  # later zero iterate must not lower the counter
        tracker.update(x2, 2, 2)
        assert tracker.global_prog == 1

    def test_update_matches_the_per_node_reference(self):
        rng = np.random.default_rng(14)
        tracker, reference = ProgressTracker(m=6), _PerNodeTracker(m=6)
        for call in range(200):
            x = rng.normal(size=(6, 7)) * (rng.random((6, 7)) < 0.3)
            x[rng.random((6, 7)) < 0.2] = -0.0
            x[rng.random((6, 7)) < 0.03] = np.nan
            x[rng.random((6, 7)) < 0.03] = rng.choice([np.inf, -np.inf])
            x[rng.integers(6)] = 0.0  # an all-zero row
            x[:, 1 + call // 30 :] = rng.choice([0.0, -0.0])  # the frontier can move one column per 30 calls
            if rng.random() < 0.3:
                x[:] = rng.choice([0.0, -0.0])  # a later zero iterate must not lower the frontier
            if call == 35:
                x[:] = -0.0
                x[2, 1] = np.nan  # a lone NaN counts
            tracker.update(x, call, 2 * call)
            reference.update(x, call, 2 * call)
            assert (tracker.global_prog, tracker.audit_points) == (reference.global_prog, reference.audit_points)
        assert {p for _, _, p in tracker.audit_points} == set(range(8))

    def test_run_audit_points_match_the_per_node_reference(self):
        """A 1,000-round gt_baseline run at eta 5, whose frontier moves, records the reference's points."""
        obj, seq = nonconvex_hard_objective(9, 4, 1.0, 1.0, budget_comms=1000, budget_oracle=4000)
        tracker, reference = ProgressTracker(m=9), _PerNodeTracker(m=9)
        both = SimpleNamespace(update=lambda *args: (tracker.update(*args), reference.update(*args)))
        run(GtBaseline(eta=5.0), obj, seq, RunBudgets(max_iterations=1000),
            progress_tracker=both)
        assert tracker.audit_points == reference.audit_points and len(tracker.audit_points) == 1001
        assert tracker.global_prog == reference.global_prog == 41

    def test_single_node_descent_gains_at_most_one_per_call(self):
        # Full-gradient descent on the raw chain: one oracle call per step.
        d = 10
        w = np.zeros(d)
        for step in range(1, 30):
            _, grad = zero_chain_l(w)
            w = w - 0.9 * grad
            assert prog(w) <= step + 1
