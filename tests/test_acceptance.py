"""End-to-end acceptance checks with their stated tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import math
import time

import numpy as np
import pytest

from gossipvr.hardinstances import (
    ChainObjective,
    ProgressTracker,
    ZeroChainObjective,
    lower_bound_components,
    lower_bound_value,
    nonconvex_hard_objective,
    progress_audit,
)
from gossipvr.harness import (
    ExperimentConfig,
    parse_libsvm,
    partition_dataset,
    reference_solution,
    run_experiment,
)
from gossipvr.network import (
    RandomGeometricSequence,
    RotatingStarSequence,
    StaticSequence,
    TwoStarHopSequence,
    complete_graph,
    consensus_residual,
    measure_chi,
    node_mean,
    star_graph,
)
from gossipvr.objectives import finite_difference_check, logistic_objective, nlls_objective
from gossipvr.optimizers import (
    AdomVr,
    GtBaseline,
    GtPage,
    RunBudgets,
    _batch_estimator,
    adom_vr_iteration_budget,
    adom_vr_params,
    corollary_batch_size,
    gt_page_params,
    importance_probabilities,
    run,
)

from test_objectives import make_shards, random_quadratic


def _zero_mean(x):
    return x - node_mean(x)


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}  {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _fit_line(x, y):
    a = np.vstack([np.asarray(x, dtype=float), np.ones(len(x))]).T
    coef, *_ = np.linalg.lstsq(a, np.asarray(y, dtype=float), rcond=None)
    pred = a @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(coef[0]), 1.0 - ss_res / max(ss_tot, 1e-300)


@pytest.fixture(scope="module")
def logistic_data(fixture_path):
    shards = partition_dataset(parse_libsvm(fixture_path), 10, 10, seed=4)
    return shards, logistic_objective(shards, 0.1)


@pytest.fixture
def logistic_setup(logistic_data):
    """A fresh graph sequence per test, closed after it, so its builder child ends with the test."""
    seq = RandomGeometricSequence(10, 0.7, seed=123)
    chi = measure_chi(seq, trials=20)
    yield (*logistic_data, seq, chi)
    seq.close()


def test_01_gossip_contraction():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_violation = 0.0
    for seq in (StaticSequence(star_graph(4)), StaticSequence(complete_graph(8))):
        w = seq.gossip(0)
        bound = 1.0 - 1.0 / w.chi
        for _ in range(100):
            x = _zero_mean(rng.standard_normal((seq.m, 3)))
            lhs = float(np.sum((w.matrix @ x - x) ** 2))
            worst_violation = max(worst_violation, lhs - bound * float(np.sum(x * x)))
    elapsed = time.time() - start
    _report(1, "gossip contraction", worst_violation <= 1e-10 and elapsed < 1.0,
            f"worst violation {worst_violation:.2e}, {elapsed:.2f}s")


def test_02_multi_stage_consensus():
    start = time.time()
    m = 9
    seq = RotatingStarSequence(m)
    stages = math.ceil(seq.chi)
    assert stages == 9
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        x = _zero_mean(rng.standard_normal((m, 4)))
        residual = consensus_residual(seq, start_step=trial, stages=stages, x=x, contraction=math.exp(-1))
        worst = max(worst, float(np.sum(residual**2) / np.sum(x * x)))
    elapsed = time.time() - start
    _report(2, "multi-stage consensus", worst <= math.exp(-1) and elapsed < 1.0,
            f"worst factor {worst:.4f} vs 1/e = {math.exp(-1):.4f}, {elapsed:.2f}s")


def test_03_estimator_unbiasedness():
    start = time.time()
    rng = np.random.default_rng(2)
    obj = random_quadratic(rng, m=2, n=3, d=4)
    probs = importance_probabilities(obj.info.L_ij)
    weights = AdomVr.init(obj).weights
    x_g = rng.normal(size=obj.d)
    omega = rng.normal(size=obj.d)
    worst = 0.0
    for i in range(obj.m):
        cache = obj.local_component_gradients(i, omega)
        grad_omega = cache.mean(axis=0)
        mean = np.zeros(obj.d)
        for j in range(obj.n):  # enumerate all b=1 batches
            (est,) = _batch_estimator(
                obj, np.array([i]), x_g[None], np.array([[j]]), weights[i][None], cache[None], grad_omega[None]
            )
            mean += probs[i, j] * est
        worst = max(worst, float(np.max(np.abs(mean - obj.local_gradient(i, x_g)))))

    # Conditional mean of the recursive estimator: enumerate batch and coin.
    x_old = rng.normal(size=(2, obj.d))
    x_new = rng.normal(size=(2, obj.d))
    y_old = rng.normal(size=(2, obj.d))
    p = 0.37
    for i in range(obj.m):
        enum = np.zeros(obj.d)
        for j in range(obj.n):
            g_new = obj.component_gradient(i, j, x_new[i])
            g_old = obj.component_gradient(i, j, x_old[i])
            enum += (y_old[i] + g_new - g_old) / obj.n
        mean = p * obj.local_gradient(i, x_new[i]) + (1 - p) * enum
        recursion = p * obj.local_gradient(i, x_new[i]) + (1 - p) * (
            y_old[i] + obj.local_gradient(i, x_new[i]) - obj.local_gradient(i, x_old[i])
        )
        worst = max(worst, float(np.max(np.abs(mean - recursion))))
    elapsed = time.time() - start
    _report(3, "estimator unbiasedness", worst < 1e-12 and elapsed < 1.0,
            f"worst deviation {worst:.2e}, {elapsed:.2f}s")


def _adom_vr_within_budget(logistic_setup, chi_scale):
    """adom_vr scheduled for ``chi_scale`` times the measured ``chi``, run for at most the
    iteration budget that guarantees ``eps_rel = 1e-8`` at the measured ``chi``, stopping
    once ``dist_sq`` reaches 1e-8 of its start: ``(trace, budget)``."""
    _, obj, seq, chi = logistic_setup
    info = obj.info
    b = corollary_batch_size(info.mu, info.L, info.Lbar, obj.n)
    params = adom_vr_params(info.mu, info.L, info.Lbar, chi_scale * chi, obj.n, b)
    budget = adom_vr_iteration_budget(info.mu, info.L, info.Lbar, chi, obj.n, b, eps_rel=1e-8)
    ref = reference_solution(obj, tolerance=1e-12)
    trace = run(
        AdomVr(params), obj, seq, RunBudgets(max_iterations=budget),
        metric_every=20, seed=4, x_star=ref.x_star,
        stop_dist_sq=1e-8 * float(np.dot(ref.x_star, ref.x_star)),
    )
    return trace, budget


def test_04_adom_vr_linear_rate(logistic_setup):
    start = time.time()
    trace, budget = _adom_vr_within_budget(logistic_setup, chi_scale=1)
    d0 = trace.records[0].dist_sq
    ratio = trace.final().dist_sq / d0
    reached = ratio <= 1e-8  # within 1x the budget: the run stops there
    dists = trace.column("dist_sq")
    iters = trace.column("iteration")
    top = int(np.argmax(dists))  # fit over the converging segment
    mask = dists[top:] > 0
    slope, r2 = _fit_line(iters[top:][mask], np.log(dists[top:][mask]))
    elapsed = time.time() - start
    _report(4, "adom_vr linear rate", reached and slope < 0 and r2 > 0.9 and elapsed < 60,
            f"ratio {ratio:.2e} at iter {trace.final().iteration} (budget {budget}), "
            f"slope {slope:.2e}, R2 {r2:.3f}, {elapsed:.1f}s")


def test_04_budget_fails_a_schedule_for_ten_times_chi(logistic_setup):
    # The bound of criterion 4 can fail: stepping as if chi were 10x the measured one,
    # adom_vr is still at about 2e-7 of its start when the budget runs out.
    start = time.time()
    trace, budget = _adom_vr_within_budget(logistic_setup, chi_scale=10)
    ratio = trace.final().dist_sq / trace.records[0].dist_sq
    elapsed = time.time() - start
    _report(4, "adom_vr budget fails a 10x chi schedule", ratio > 1e-8 and trace.final().iteration == budget,
            f"ratio {ratio:.2e} at iter {trace.final().iteration} (budget {budget}), {elapsed:.1f}s")


def test_05_gt_page_sublinear_decay(logistic_setup):
    start = time.time()
    shards, _, seq, chi = logistic_setup
    obj = nlls_objective(shards)
    info = obj.info
    params = gt_page_params(info.L, info.Lhat, chi, obj.n)
    trace = run(GtPage(params), obj, seq, RunBudgets(max_iterations=800), metric_every=1, seed=4)
    grads = trace.column("grad_norm_sq")
    vals = trace.column("avg_value")
    iters = trace.column("iteration")
    details = []
    ok = True
    for milestone in (200, 400, 800):
        upto = iters <= milestone
        min_grad = float(grads[upto].min())
        delta_obs = float(vals[0] - vals[upto].min())
        bound = 10.0 * info.L * delta_obs / milestone
        ok = ok and (min_grad <= bound)
        details.append(f"N={milestone}: {min_grad:.2e} <= {bound:.2e}")
    elapsed = time.time() - start
    _report(5, "gt_page sublinear decay", ok and elapsed < 60, "; ".join(details) + f", {elapsed:.1f}s")


class LeakyZeroChain(ZeroChainObjective):
    """A broken zero-chain oracle: each node gradient also activates the coordinate after its
    row's last nonzero one, so one query reveals two coordinates."""

    def batch_local_gradients(self, nodes, X):
        grads = super().batch_local_gradients(nodes, X)
        nonzero = grads != 0
        after = np.where(nonzero.any(axis=1), grads.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 0)
        rows = np.flatnonzero(after < grads.shape[1])
        grads[rows, after[rows]] = -self.scale_c
        return grads


def test_06_zero_chain_progress_bound():
    start = time.time()
    m, n = 9, 4
    ok = True
    worst_detail = ""
    for seed in (0, 1, 2):
        obj, seq = nonconvex_hard_objective(m, n, big_l=1.0, delta=1.0, budget_comms=160, budget_oracle=200)
        info = obj.info
        params = gt_page_params(info.L, info.Lhat, seq.chi, n)
        tracker = ProgressTracker(m)
        run(GtPage(params), obj, seq, RunBudgets(max_iterations=8),
            seed=seed, progress_tracker=tracker)
        report = progress_audit(tracker, m, n)
        ok = ok and report.passed

        tracker_b = ProgressTracker(m)
        run(GtBaseline(eta=0.05 / info.L), obj, seq, RunBudgets(max_iterations=72),
            seed=seed, progress_tracker=tracker_b)
        report_b = progress_audit(tracker_b, m, n)
        ok = ok and report_b.passed

        # Oversized steps drive progress deep into the chain; the budget bound
        # is information-theoretic and must survive any step size.
        tracker_w = ProgressTracker(m)
        run(GtBaseline(eta=20.0 / info.L), obj, seq, RunBudgets(max_iterations=120),
            seed=seed, progress_tracker=tracker_w)
        report_w = progress_audit(tracker_w, m, n)
        ok = ok and report_w.passed and report_w.final_prog > 1  # the frontier moves: the audit is not vacuous
        worst_detail = (
            f"gt_page prog {report.final_prog}, baseline prog {report_b.final_prog}, "
            f"wild-step prog {report_w.final_prog}"
        )
    # The bound can fail: an oracle that reveals two coordinates per query breaks it at the first
    # step, progress 2 against a bound of 1.
    leaky = LeakyZeroChain(seq, n, big_l=1.0, delta=1.0, budget_comms=160, budget_oracle=200)
    for eta in (5.0, 0.05):
        tracker_l = ProgressTracker(m)
        run(GtBaseline(eta=eta / leaky.info.L), leaky, seq, RunBudgets(max_iterations=72),
            seed=0, progress_tracker=tracker_l)
        report_l = progress_audit(tracker_l, m, n)
        ok = ok and not report_l.passed and report_l.violations[0] == (1, 8, 2, 1)
        worst_detail += f", leaky eta {eta} violations {len(report_l.violations)}"
    elapsed = time.time() - start
    _report(6, "zero-chain progress bound", ok and elapsed < 30, f"{worst_detail}, {elapsed:.1f}s")


def test_07_chain_optimum():
    start = time.time()
    obj = ChainObjective(4, 2, big_l=4.0, mu=1.0, dim=12)
    assert obj.tail_error < 1e-10
    ref = reference_solution(obj, tolerance=1e-13)
    target = obj.x_star()
    worst = float(np.max(np.abs(ref.x_star - target)))
    elapsed = time.time() - start
    _report(7, "chain instance optimum", worst < 1e-6 and elapsed < 10,
            f"max slot deviation {worst:.2e} (q = {obj.q:.4f}), {elapsed:.1f}s")


def test_08_lower_bound_sanity():
    start = time.time()
    t1, _ = lower_bound_components(1.0, 0.0, 100.0, 4, 5, 5)
    exact_zero = t1 == 0.0
    grid = np.array(
        [
            [lower_bound_value(8.0, 50.0, 40.0, 5, nc, ns) for ns in range(0, 100, 10)]
            for nc in range(0, 100, 10)
        ]
    )
    monotone = bool(np.all(np.diff(grid, axis=0) <= 1e-15) and np.all(np.diff(grid, axis=1) <= 1e-15))
    elapsed = time.time() - start
    _report(8, "lower bound evaluator", exact_zero and monotone and elapsed < 1.0,
            f"T1(kappa=1) = {t1}, grid monotone = {monotone}, {elapsed:.2f}s")


def test_09_gradient_checks(fixture_path):
    start = time.time()
    rng = np.random.default_rng(3)
    rows = parse_libsvm(fixture_path)
    shards = partition_dataset(rows, 5, 5, seed=9)
    log_obj = logistic_objective(shards, 0.1)
    nl_obj = nlls_objective(shards, probe_pairs=200)
    chain = ChainObjective(4, 2, 4.0, 1.0, dim=6)
    zc, _ = nonconvex_hard_objective(6, 3, 1.5, 1.0, budget_comms=24, budget_oracle=30)
    ok = True
    details = []
    for name, obj, tol in (
        ("logistic", log_obj, 1e-5),
        ("nlls", nl_obj, 1e-5),
        ("chain", chain, 1e-4),
        ("zero_chain", zc, 1e-4),
    ):
        worst = 0.0
        checked = 0
        while checked < 20:
            x = rng.uniform(-1.5, 1.5, size=(obj.m, obj.d))
            if name == "zero_chain":
                x = x * zc.scale_c
                if np.any(np.abs(np.abs(x / zc.scale_c) - 0.5) < 0.02):
                    continue  # keep clear of the bump threshold
            checked += 1
            report = finite_difference_check(obj, x, h=1e-6, tolerance=tol)
            worst = max(worst, report.max_rel_error)
        ok = ok and worst < tol
        details.append(f"{name} {worst:.1e}")
    elapsed = time.time() - start
    _report(9, "gradient checks", ok and elapsed < 5, ", ".join(details) + f", {elapsed:.1f}s")


def test_10_determinism(tmp_path, fixture_path):
    start = time.time()
    cfg = ExperimentConfig().replace(
        method="adom_vr", objective="logistic", topology="static-ring",
        dataset=str(fixture_path), m=5, n=5, budget_iters=40, metric_every=5,
        seed=11, out=str(tmp_path / "runs"),
    )
    _, csv1, _ = run_experiment(cfg)
    first = csv1.read_bytes()
    _, csv2, _ = run_experiment(cfg)
    identical = csv2.read_bytes() == first
    elapsed = time.time() - start
    _report(10, "determinism", identical, f"byte-identical CSV = {identical}, {elapsed:.1f}s")


def test_11_adom_vr_rate_exponents():
    # The paper's adom_vr rate is chi * sqrt(kappa) comms.  On the two-star hop, where an
    # iteration is one comm, the iterations to 1e-3 of the start fit chi^1.03 and kappa^0.47
    # over m in {4, 6} (chi 5.83, 12.97) and kappa in {10, 40}.  A schedule for chi^2 fits chi^2.06.
    start = time.time()
    rows, within = [], True
    for m in (4, 6):
        for kappa in (10.0, 40.0):
            obj, seq = ChainObjective(m, 4, kappa, 1.0, 12), TwoStarHopSequence(m)
            info, chi = obj.info, seq.chi
            b = corollary_batch_size(info.mu, info.L, info.Lbar, obj.n)
            params = adom_vr_params(info.mu, info.L, info.Lbar, chi, obj.n, b)
            budget = adom_vr_iteration_budget(info.mu, info.L, info.Lbar, chi, obj.n, b, eps_rel=1e-3)
            x_star = reference_solution(obj).x_star
            trace = run(
                AdomVr(params), obj, seq, RunBudgets(max_iterations=budget), metric_every=10, seed=0,
                x_star=x_star, stop_dist_sq=1e-3 * float(x_star @ x_star),
            )
            iters = trace.final().iteration
            within = within and trace.final().dist_sq <= 1e-3 * trace.records[0].dist_sq and iters <= budget
            rows.append((chi, kappa, iters))
    logs = np.log(np.array(rows))
    design = np.column_stack([logs[:, :2], np.ones(len(rows))])
    (chi_slope, kappa_slope, _), *_ = np.linalg.lstsq(design, logs[:, 2], rcond=None)
    elapsed = time.time() - start
    _report(11, "adom_vr rate exponents",
            within and 0.75 < chi_slope < 1.5 and 0.3 < kappa_slope < 0.75 and elapsed < 30,
            f"chi^{chi_slope:.2f}, kappa^{kappa_slope:.2f}, iterations {[iters for *_, iters in rows]}, {elapsed:.1f}s")
