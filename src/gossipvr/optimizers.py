"""Decentralized variance-reduced optimizers over gossip networks.

Each method is a frozen class driven by :func:`run` through ``init(obj, x0)``
and ``step(state, obj, seq, seed)``, which reads graphs from ``state.comms`` on:

* ``AdomVr`` ("adom_vr"), an accelerated primal method for strongly convex
  finite sums: saddle-point consensus, a loopless negative-momentum estimator
  and importance-sampled minibatches;
* ``GtPage`` ("gt_page"), gradient tracking for nonconvex finite sums with a
  probabilistic full-gradient restart estimator and multi-stage consensus;
* ``GtBaseline`` ("gt_baseline"), plain full-gradient gradient tracking.

Schedules are computed from problem constants.  Iteration ``k`` draws from
``np.random.default_rng((seed, k))``, so traces do not depend on node
evaluation order; ``adom_vr`` and ``gt_page`` draw ``DRAW_BLOCK`` iterations
at once (:func:`_draw_row`) and carry the block in their state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .network import (
    GraphSequence, _block_streams, _integers_then_double, _next_doubles, consensus_error, consensus_residual, node_mean,
)
from .objectives import CountingObjective, FiniteSumObjective

__all__ = [
    "AdomVrParams",
    "AdomVrState",
    "adom_vr_params",
    "importance_probabilities",
    "adom_vr_iteration_budget",
    "corollary_batch_size",
    "GtPageParams",
    "GtPageState",
    "gt_page_params",
    "GtBaselineState",
    "AdomVr",
    "GtPage",
    "GtBaseline",
    "RunBudgets",
    "TraceRecord",
    "RunTrace",
    "RunAbort",
    "DivergenceError",
    "run",
]

DIVERGENCE_LIMIT = 1e12


class DivergenceError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Parameter schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdomVrParams:
    tau0: float
    tau1: float
    tau2: float
    eta: float
    alpha: float
    nu: float
    beta: float
    sigma1: float
    sigma2: float
    theta: float
    gamma: float
    delta: float
    zeta: float
    lam: float
    p1: float
    p2: float
    b: int
    chi: float
    mu: float
    L: float
    Lbar: float
    n: int

    def validate(self) -> None:
        if not (0 < self.p1 <= 1 and 0 < self.p2 <= 1):
            raise ValueError(f"reset probabilities out of range: p1={self.p1}, p2={self.p2}")
        if self.p1 + self.p2 > 1 + 1e-12:
            raise ValueError(f"inconsistent constants: p1 + p2 = {self.p1 + self.p2} > 1")
        if self.tau0 + self.tau1 > 1 + 1e-12:
            raise ValueError(f"tau0 + tau1 = {self.tau0 + self.tau1} > 1")
        if self.nu >= self.mu:
            raise ValueError("need nu < mu for the saddle reformulation to stay strongly convex")
        for name in ("tau0", "tau1", "tau2", "eta", "alpha", "beta", "sigma1", "sigma2", "theta", "gamma", "delta", "zeta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"parameter {name} must be positive")


def adom_vr_params(mu: float, L: float, Lbar: float, chi: float, n: int, b: int) -> AdomVrParams:
    """Full parameter schedule; ``b >= Lbar / L`` is the variance bound's precondition."""
    if not (0 < mu <= L * (1 + 1e-12)):
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if not (L <= Lbar * (1 + 1e-9) <= n * L * (1 + 1e-9)):
        raise ValueError(f"need L <= Lbar <= n L, got L={L}, Lbar={Lbar}, n={n}")
    if not (1 <= chi < math.inf):
        raise ValueError(f"chi must be finite and >= 1, got {chi}")
    if b < Lbar / L * (1 - 1e-12):
        raise ValueError(f"batch size {b} violates the precondition b >= Lbar/L = {Lbar / L:.6g}")
    if not 1 <= b <= n:
        raise ValueError(f"batch size must lie in [1, n], got b={b}, n={n}")
    tau2 = min(0.5, max(1.0, math.sqrt(n) / b) * math.sqrt(mu / L))
    tau0 = Lbar / (2.0 * L * b)
    tau1 = (1.0 - tau0) / (1.0 / tau2 + 0.5)
    eta = 1.0 / (L * (tau2 + 2.0 * tau1 / (1.0 - tau1)))
    alpha = mu / 2.0
    nu = mu / 2.0
    beta = 1.0 / (2.0 * L)
    sigma2 = math.sqrt(mu) / (16.0 * chi * math.sqrt(L))
    sigma1 = 1.0 / (1.0 / sigma2 + 0.5)
    theta = nu / (4.0 * sigma2)
    gamma = nu / (14.0 * sigma2 * chi * chi)
    delta = 1.0 / (17.0 * L)
    zeta = 0.5
    lam = (n / b) * (0.5 + Lbar / (L * b * tau1))
    p1 = 1.0 / (2.0 * lam)
    p2 = Lbar / (lam * L * b * tau1)
    params = AdomVrParams(
        tau0=tau0, tau1=tau1, tau2=tau2, eta=eta, alpha=alpha, nu=nu, beta=beta,
        sigma1=sigma1, sigma2=sigma2, theta=theta, gamma=gamma, delta=delta, zeta=zeta,
        lam=lam, p1=p1, p2=p2, b=b, chi=chi, mu=mu, L=L, Lbar=Lbar, n=n,
    )
    params.validate()
    return params


def adom_vr_iteration_budget(mu: float, L: float, Lbar: float, chi: float, n: int, b: int, eps_rel: float) -> int:
    """Iterations certified to shrink the squared distance by ``eps_rel``:
    ``32 max{n/b, (sqrt(n)/b) k, (n Lbar / b^2 L) k, chi k} log(1/eps)`` with ``k = sqrt(L/mu)``."""
    if not (0 < eps_rel < 1):
        raise ValueError("eps_rel must lie in (0, 1)")
    k = math.sqrt(L / mu)
    factor = max(n / b, math.sqrt(n) / b * k, n * Lbar / (b * b * L) * k, chi * k)
    return int(math.ceil(32.0 * factor * math.log(1.0 / eps_rel)))


def corollary_batch_size(mu: float, L: float, Lbar: float, n: int) -> int:
    """Batch size balancing oracle and iteration cost for the strongly convex method."""
    b = max(math.sqrt(n * Lbar / L), n * math.sqrt(mu / L))
    b = int(min(max(math.ceil(b), 1), n))
    return max(b, int(math.ceil(Lbar / L)))


def importance_probabilities(l_ij: np.ndarray) -> np.ndarray:
    """Per-node sampling distribution proportional to component smoothness."""
    lbar_i = l_ij.mean(axis=1, keepdims=True)
    return l_ij / (l_ij.shape[1] * lbar_i)


@dataclass(frozen=True)
class GtPageParams:
    eta: float
    p: float
    b: int
    stages: int
    chi: float
    L: float
    Lhat: float
    rho: float
    eta_strict: float

    def validate(self) -> None:
        if not (0 < self.p <= 1):
            raise ValueError(f"restart probability must be in (0, 1], got {self.p}")
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if not (0 < self.eta <= self.rho / self.L * (1 + 1e-12)):
            raise ValueError(f"step {self.eta} outside (0, rho/L = {self.rho / self.L:.6g}]")


def _gt_page_step_bounds(L: float, Lhat: float, b: int, p: float, rho: float):
    """The three admissible-step bounds plus the coarse ``rho / L`` cap."""
    ct = 4.0  # the analysis' squared contraction constant
    s2 = (1.0 - p) * Lhat * Lhat / (b * p * L * L)
    bound2 = 2.0 / (L * ((1.0 + 2.0 / ct) + math.sqrt(2.0 + 8.0 / (ct * ct) + 16.0 * s2)))
    bound3 = (2.0 * rho * rho + 2.0 * ct * (rho * rho + rho) * math.sqrt(s2)) / (L * (1.0 + 2.0 * ct * s2))
    bound4 = rho**3 / (
        18.0 * ct * L * (
            12.0 + 1.0 / ct + 12.0 * ct * math.sqrt(s2)
            + math.sqrt(288.0 + 2.0 / (ct * ct) + 288.0 * ct * ct * s2 + 2.0 * s2 / (9.0 * ct))
        )
    )
    return bound2, bound3, bound4, rho / L


def gt_page_params(
    L: float,
    Lhat: float,
    chi: float,
    n: int,
    b: int | None = None,
    p: float | None = None,
    stages: int | None = None,
) -> GtPageParams:
    """Step schedule with multi-stage consensus.

    ``stages = ceil(chi)`` rounds contract the disagreement by ``1 - rho``, ``rho = 1 - 1/e``,
    when each step's exact ``chi`` is at most the scheduled one (:func:`consensus_residual`
    certifies it).  ``eta`` is the least admissible-step bound but the third, whose ~1e-5
    worst-case constant makes runs inert; ``eta_strict`` includes it.
    """
    if not (0 < L <= Lhat * (1 + 1e-9) <= math.sqrt(n) * L * (1 + 1e-9)):
        raise ValueError(f"need L <= Lhat <= sqrt(n) L, got L={L}, Lhat={Lhat}, n={n}")
    if not (1 <= chi < math.inf):
        raise ValueError(f"chi must be finite and >= 1, got {chi}")
    if b is None:
        b = int(min(max(math.ceil(math.sqrt(n) * Lhat / L), 1), n))
    if not 1 <= b <= n:
        raise ValueError(f"batch size must lie in [1, n], got b={b}")
    if p is None:
        p = b / (n + b)
    default_stages = int(math.ceil(chi))
    if stages is None:
        stages = default_stages
    rho = 1.0 - math.exp(-1.0) if stages >= default_stages else 1.0 - (1.0 - 1.0 / chi) ** stages
    bound2, bound3, bound4, cap = _gt_page_step_bounds(L, Lhat, b, p, rho)
    eta = min(bound2, bound3, cap)
    eta_strict = min(eta, bound4)
    params = GtPageParams(eta=eta, p=p, b=b, stages=stages, chi=chi, L=L, Lhat=Lhat, rho=rho, eta_strict=eta_strict)
    params.validate()
    return params


# ---------------------------------------------------------------------------
# ADOM+VR state machine
# ---------------------------------------------------------------------------


DRAW_BLOCK = 64  # iterations whose adom_vr or gt_page draws are built together
RECORD_BLOCK = 16  # trace records whose objective metrics run() evaluates together


@dataclass(frozen=True, eq=False)
class _Draws:
    """The draws of iterations ``start .. start + len(rows) - 1``: ``rows[r]`` is what iteration
    ``start + r`` drew from ``default_rng((seed, start + r))``, ``seed`` the first entry of ``key``,
    for a method's ``key`` and ``basis``."""

    key: tuple
    basis: object
    start: int
    rows: list[tuple]


def _draw_row(carried: _Draws | None, k: int, key: tuple, basis, make_rows) -> tuple[_Draws, tuple]:
    """Iteration ``k``'s block and row: ``carried`` when it was built for an equal ``key`` and this
    very ``basis`` and holds ``k``, else the aligned block of ``DRAW_BLOCK`` iterations holding
    ``k``, whose rows ``make_rows(key, basis, streams)`` draws from the PCG64 streams the replica
    seeds for it (``network._block_streams``), one per iteration, in order."""
    holds = carried is not None and carried.start <= k < carried.start + len(carried.rows)
    if not (holds and carried.key == key and carried.basis is basis):
        steps, streams = _block_streams(key[0], k, DRAW_BLOCK)
        carried = _Draws(key=key, basis=basis, start=steps.start, rows=make_rows(key, basis, streams))
    return carried, carried.rows[k - carried.start]


def _adom_rows(key: tuple, cum_probs: np.ndarray, streams) -> list[tuple]:
    """Per iteration, ``(idx, to_f, to_g, moved, moves)``: the ``(m, b)`` batch indices, the ``(m, 1)``
    omega moves to x_f and to x_g, the nodes whose omega moves and the counts of both moves.

    Iteration ``k`` reads ``random((m, b))`` for the batch, then ``random(m)`` for the omega coins,
    i.e. its first ``m b + m`` doubles; the inverse-CDF and coin passes run on the whole block.
    """
    (_, params), (m, n) = key, cum_probs.shape
    b = params.b
    u, _ = _next_doubles(streams, m * b + m)
    batch_u, omega_u = u[:, : m * b].reshape(-1, m, b), u[:, m * b :, None]
    # Inverse-CDF sampling: the index is the count of running sums <= u.
    idx = np.empty(batch_u.shape, dtype=np.intp)
    for i in range(m):
        idx[:, i] = np.searchsorted(cum_probs[i], batch_u[:, i], side="right")
    np.minimum(idx, n - 1, out=idx)
    to_f = omega_u < params.p1
    to_g = ~to_f & (omega_u < params.p1 + params.p2)
    moved = [np.flatnonzero(row) for row in (to_f | to_g)[..., 0]]
    moves = zip(to_f.sum(axis=(1, 2)).tolist(), to_g.sum(axis=(1, 2)).tolist())
    return list(zip(idx, to_f, to_g, moved, moves))


# The rows of AdomVrState.blocks: x, y and z, the checked ones, first; omega, the one row
# the step's linear map does not make, last.
ADOM_BLOCKS = ("x", "y", "z", "x_f", "y_f", "z_f", "momentum", "omega")


class _Block:
    """A named ``(m, d)`` row of ``AdomVrState.blocks``: reading it gives the view, assigning
    to it writes into the shared array."""

    def __set_name__(self, owner, name):
        self.index = ADOM_BLOCKS.index(name)

    def __get__(self, state, owner=None):
        return self if state is None else state.blocks[self.index]

    def __set__(self, state, value):
        state.blocks[self.index] = value


@dataclass
class AdomVrState:
    blocks: np.ndarray  # (8, m, d), its rows named by ADOM_BLOCKS
    omega_grads: np.ndarray  # (m, n, d) component gradients at omega
    grad_omega: np.ndarray  # (m, d) node gradients at omega
    weights: np.ndarray  # (m, n) importance weights 1/(n p_ij) of the sampling distribution p
    cum_probs: np.ndarray  # (m, n) running sums of p, for inverse-CDF sampling
    k: int = 0
    comms: int = 0
    omega_to_x_f: int = 0  # node omega moves so far, by the p1 coin
    omega_to_x_g: int = 0  # and by the p2 coin
    # The last block of draws built: a pure function of the seed, the block start,
    # the method's params and cum_probs, all checked before it is read, so a state
    # resumes exactly with or without it, under any method.
    draws: _Draws | None = None

    x, y, z, x_f, y_f, z_f, momentum, omega = (_Block() for _ in ADOM_BLOCKS)

    @property
    def counters(self) -> dict:
        return {"omega_to_x_f": self.omega_to_x_f, "omega_to_x_g": self.omega_to_x_g}


def _start_point(obj: FiniteSumObjective, x0: np.ndarray | None) -> np.ndarray:
    """Node array (m, d) from ``x0``: None is the origin, a (d,) point starts every node."""
    m, d = obj.m, obj.d
    x = np.zeros((m, d)) if x0 is None else np.array(x0, dtype=float)
    if x.shape == (d,):
        x = np.tile(x, (m, 1))
    if x.shape != (m, d):
        raise ValueError(f"x0 must have shape {(m, d)} or ({d},), got {x.shape}")
    return x


def _batch_estimator(obj, nodes, x_g, idx, weights, omega_grads, grad_omega):
    """Importance-weighted difference estimator of several nodes at once.

    Row r, for node ``i = nodes[r]`` and its batch ``idx[r]``, is
    ``(1/b) sum_j [grad f_ij(x_g) - grad f_ij(omega)] / (n p_ij)`` plus the
    cached node gradient at omega; unbiased for the node gradient at ``x_g``.
    ``x_g`` (k, d), ``idx`` (k, b), ``weights`` (k, n) (the ``1/(n p_ij)``),
    ``omega_grads`` (k, n, d) and ``grad_omega`` (k, d) hold the rows of those nodes.
    """
    rows = np.arange(len(nodes))[:, None]
    fresh = obj.batch_sampled_gradients(nodes, idx, x_g)
    diff = (fresh - omega_grads[rows, idx]) * weights[rows, idx][..., None]
    return diff.sum(axis=1) / diff.shape[1] + grad_omega


@dataclass(frozen=True)
class AdomVr:
    params: AdomVrParams

    name = "adom_vr"

    @staticmethod
    def init(obj: FiniteSumObjective, x0: np.ndarray | None = None) -> AdomVrState:
        """State with the dual variables in the zero-sum subspace and a fresh
        reference-point gradient cache (n oracle calls per node)."""
        m, d = obj.m, obj.d
        x = _start_point(obj, x0)
        blocks = np.zeros((len(ADOM_BLOCKS), m, d))
        blocks[[ADOM_BLOCKS.index(name) for name in ("x", "x_f", "omega")]] = x
        omega_grads = obj.batch_component_gradients(np.arange(m), x)
        probs = importance_probabilities(obj.info.L_ij)
        return AdomVrState(
            blocks=blocks, omega_grads=omega_grads, grad_omega=omega_grads.mean(axis=1),
            weights=1.0 / (obj.n * probs), cum_probs=np.cumsum(probs, axis=1),
        )

    @cached_property
    def _maps(self) -> tuple[np.ndarray, np.ndarray]:
        """The step's formulas applied to unit vectors: the ``(2, 8)`` map from the blocks to
        ``x_g`` and ``y_g + z_g``, and the ``(7, 11)`` map from the blocks, the estimate and the
        mixed ``y_g + z_g`` and momentum to the new blocks other than omega.  The mutually
        implicit primal and dual updates are resolved by the closed-form 2x2 solve (the
        determinant ``(1+eta a)(1+theta b) + eta theta`` is always positive)."""
        p = self.params
        x, y, z, x_f, y_f, z_f, momentum, omega, est, w_yz, w_momentum = np.eye(len(ADOM_BLOCKS) + 3)
        x_g = p.tau1 * x + p.tau0 * omega + (1.0 - p.tau1 - p.tau0) * x_f
        y_g = p.sigma1 * y + (1.0 - p.sigma1) * y_f
        z_g = p.sigma1 * z + (1.0 - p.sigma1) * z_f
        yz = y_g + z_g
        drive = est - p.nu * x_g
        r_x = x + p.eta * p.alpha * x_g - p.eta * drive
        r_y = y + p.theta * p.beta * drive - (p.theta / p.nu) * yz
        det = (1.0 + p.eta * p.alpha) * (1.0 + p.theta * p.beta) + p.eta * p.theta
        x_new = ((1.0 + p.theta * p.beta) * r_x + p.eta * r_y) / det
        y_new = ((1.0 + p.eta * p.alpha) * r_y - p.theta * r_x) / det
        w_mix = (p.gamma / p.nu) * w_yz + w_momentum
        z_new = z + p.gamma * p.delta * (z_g - z) - w_mix
        x_f_new, y_f_new = x_g + p.tau2 * (x_new - x), y_g + p.sigma2 * (y_new - y)
        momentum_new = (p.gamma / p.nu) * yz + momentum - w_mix
        new = (x_new, y_new, z_new, x_f_new, y_f_new, z_g - p.zeta * w_yz, momentum_new)
        return np.stack([x_g, yz])[:, : len(ADOM_BLOCKS)], np.stack(new)

    def step(self, state: AdomVrState, obj: FiniteSumObjective, seq: GraphSequence, seed: int) -> AdomVrState:
        """One iteration, one round on graph ``state.comms``, in three products (:attr:`_maps`): the
        blocks to ``x_g`` and ``y_g + z_g``, the gossip product of ``[y_g + z_g | momentum]``, and the
        blocks, the estimate and the mixed pair to the new blocks."""
        p, (to_mid, to_new) = self.params, self._maps
        k, blocks = state.k, state.blocks
        draws, (idx, to_f, to_g, moved, (f_moves, g_moves)) = _draw_row(state.draws, k, (seed, p), state.cum_probs, _adom_rows)
        size, m, d = blocks.shape

        x_g, yz = to_mid.dot(blocks.reshape(size, -1)).reshape(2, m, d)
        est = _batch_estimator(obj, np.arange(m), x_g, idx, state.weights, state.omega_grads, state.grad_omega)
        mixed = seq.gossip(state.comms).matrix.dot(np.concatenate((yz, state.momentum), axis=1))
        terms = np.concatenate((blocks, est[None], mixed.reshape(m, 2, d).swapaxes(0, 1)))
        new = np.empty_like(blocks)
        to_new.dot(terms.reshape(len(terms), -1), out=new[:-1].reshape(size - 1, -1))

        # Omega moves to x_f or x_g on the nodes whose coin says so; their cache
        # rows are recomputed there (n oracle calls per moved node).
        new[-1] = np.where(to_f, state.x_f, np.where(to_g, x_g, state.omega))
        omega_grads, grad_omega = state.omega_grads, state.grad_omega
        if moved.size:
            fresh = obj.batch_component_gradients(moved, new[-1][moved])
            omega_grads, grad_omega = omega_grads.copy(), grad_omega.copy()
            omega_grads[moved] = fresh
            grad_omega[moved] = fresh.sum(axis=1) / fresh.shape[1]

        new_state = AdomVrState(
            blocks=new, omega_grads=omega_grads, grad_omega=grad_omega,
            weights=state.weights, cum_probs=state.cum_probs, k=k + 1, comms=state.comms + 1,
            omega_to_x_f=state.omega_to_x_f + f_moves, omega_to_x_g=state.omega_to_x_g + g_moves, draws=draws,
        )
        # One comparison over the x, y, z slab on the happy path; a failure is worded per field.
        if not np.abs(new[:3]).max() <= DIVERGENCE_LIMIT:
            _check_finite(new_state, "x", "y", "z")
        return new_state


# ---------------------------------------------------------------------------
# GT-PAGE state machine
# ---------------------------------------------------------------------------


def _page_rows(key: tuple, basis: None, streams) -> list[tuple]:
    """Per iteration, for ``key = (seed, n, (m, b))``, ``(idx, coin)``: numpy's own
    ``integers(0, n, (m, b))`` for the batch, then ``random()`` for the shared restart coin."""
    _, n, (m, b) = key
    idx, coins = _integers_then_double(streams, n, m * b)
    return list(zip(idx.reshape(-1, m, b), coins.tolist()))


@dataclass
class GtPageState:
    xv: np.ndarray  # (m, 2d): the iterate x and the tracker v side by side, mixed as one stack
    y: np.ndarray  # (m, d) gradient estimates
    k: int = 0
    comms: int = 0
    full_restarts: int = 0  # iterations whose restart coin fell below p so far
    # The last block of draws built, checked before it is read, as AdomVrState.draws.
    draws: _Draws | None = None

    @property
    def x(self) -> np.ndarray:
        return self.xv[:, : self.y.shape[1]]

    @property
    def v(self) -> np.ndarray:
        return self.xv[:, self.y.shape[1] :]

    @property
    def counters(self) -> dict:
        return {"full_restarts": self.full_restarts}


@dataclass(frozen=True)
class GtPage:
    params: GtPageParams

    name = "gt_page"

    @staticmethod
    def init(obj: FiniteSumObjective, x0: np.ndarray | None = None) -> GtPageState:
        """Consensus start with tracker seeded by the full gradient (n calls per node)."""
        x = _start_point(obj, x0)
        y = obj.batch_local_gradients(np.arange(obj.m), x)
        return GtPageState(xv=np.concatenate((x, np.tile(y.mean(axis=0), (obj.m, 1))), axis=1), y=y)

    def step(self, state: GtPageState, obj: FiniteSumObjective, seq: GraphSequence, seed: int) -> GtPageState:
        """One iteration, ``stages`` rounds from graph ``state.comms`` that mix the iterate and the
        tracker as one certified ``[x | v]`` window (:func:`consensus_residual`), updated in place
        in the mixed block.  One coin, shared by every node, switches all of them to a full gradient."""
        params = self.params
        (m, d), k = state.y.shape, state.k
        draws, (idx, coin) = _draw_row(state.draws, k, (seed, obj.n, (m, params.b)), None, _page_rows)

        xv = consensus_residual(seq, state.comms, params.stages, state.xv, 1.0 - params.rho)
        x_new, v_new = xv[:, :d], xv[:, d:]
        x_new -= params.eta * state.v

        restart = coin < params.p
        if restart:  # every node's gradient at x_new
            y_new = obj.batch_local_gradients(np.arange(m), x_new)
        else:  # y plus each node's mean paired-batch gradient difference between x_new and x
            g_new, g_old = obj.batch_sampled_gradient_pairs(np.arange(m), idx, x_new, state.x)
            diff = g_new - g_old
            y_new = state.y + diff.sum(axis=1) / diff.shape[1]

        v_new += y_new
        v_new -= state.y
        new_state = GtPageState(
            xv=xv, y=y_new, k=k + 1, comms=state.comms + params.stages,
            full_restarts=state.full_restarts + restart, draws=draws,
        )
        # One comparison over the [x | v] block on the happy path; a failure is worded per field.
        if not np.abs(xv).max() <= DIVERGENCE_LIMIT:
            _check_finite(new_state, "x", "v")
        return new_state


# ---------------------------------------------------------------------------
# Gradient-tracking baseline
# ---------------------------------------------------------------------------


@dataclass
class GtBaselineState:
    x: np.ndarray
    y: np.ndarray
    grad: np.ndarray  # node gradients at the current x
    k: int = 0
    comms: int = 0


@dataclass(frozen=True)
class GtBaseline:
    eta: float

    name = "gt_baseline"

    @staticmethod
    def init(obj: FiniteSumObjective, x0: np.ndarray | None = None) -> GtBaselineState:
        x = _start_point(obj, x0)
        grad = obj.batch_local_gradients(np.arange(obj.m), x)
        return GtBaselineState(x=x, y=grad.copy(), grad=grad)

    def step(self, state: GtBaselineState, obj: FiniteSumObjective, seq: GraphSequence, seed: int) -> GtBaselineState:
        """Plain gradient tracking with full node gradients every step (graph ``state.comms``)."""
        w = seq.gossip(state.comms).matrix
        x_new = (state.x - w.dot(state.x)) - self.eta * state.y
        grad_new = obj.batch_local_gradients(np.arange(obj.m), x_new)
        y_new = (state.y - w.dot(state.y)) + grad_new - state.grad
        new_state = GtBaselineState(x=x_new, y=y_new, grad=grad_new, k=state.k + 1, comms=state.comms + 1)
        _check_finite(new_state, "x")
        return new_state


def _check_finite(state, *fields: str) -> None:
    """Raise :class:`DivergenceError` on the first of ``state``'s ``fields`` that holds a
    non-finite entry or one beyond ``DIVERGENCE_LIMIT``."""
    for name in fields:
        arr = getattr(state, name)
        # One comparison per field on the happy path: NaN fails it too.
        if not np.abs(arr).max() <= DIVERGENCE_LIMIT:
            if not np.all(np.isfinite(arr)):
                raise DivergenceError(f"non-finite values in {name} at iteration {state.k}")
            peak = float(np.max(np.abs(arr)))
            raise DivergenceError(f"{name} exceeded divergence limit at iteration {state.k}: max |entry| = {peak:.3e}")


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunBudgets:
    max_iterations: int
    max_oracle_calls_per_node: int | None = None

    def validate(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.max_oracle_calls_per_node is not None and self.max_oracle_calls_per_node <= 0:
            raise ValueError("max_oracle_calls_per_node must be positive")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    comms: int
    oracle_calls: int
    dist_sq: float
    grad_norm_sq: float
    consensus_err: float
    avg_value: float


@dataclass
class RunTrace:
    records: list[TraceRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def final(self) -> TraceRecord:
        return self.records[-1]


class RunAbort(RuntimeError):
    """A step failed; carries the trace collected up to the failure."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


def run(
    method,
    obj: FiniteSumObjective,
    seq: GraphSequence,
    budgets: RunBudgets,
    metric_every: int = 1,
    seed: int = 0,
    x_star: np.ndarray | None = None,
    progress_tracker=None,
    stop_dist_sq: float | None = None,
) -> RunTrace:
    """Drive a method from the origin, recording every ``metric_every`` iterations and the last state.

    The run stops at the first state whose iteration reaches ``max_iterations``, whose largest
    per-node oracle count reaches ``max_oracle_calls_per_node`` (a step's calls are drawn, so one
    step can pass it), or whose last record's ``dist_sq`` is at most ``stop_dist_sq``.

    A record takes its iteration, comms, oracle count, ``dist_sq`` and ``consensus_err`` when it
    is made.  Its ``grad_norm_sq`` and ``avg_value`` at the node mean are evaluated through the
    raw objective, uncounted, for ``RECORD_BLOCK`` records at once: when the block fills, when
    the run ends and before a :class:`RunAbort` is raised, each bitwise as if evaluated alone.
    A step that raises a ``RuntimeError`` (a :class:`DivergenceError`, or a graph the sequence
    cannot serve) ends the run with :class:`RunAbort`, carrying every record up to the state
    the step started from; a ``NotImplementedError`` propagates.  The metadata holds the
    oracle calls per node and the method state's ``counters`` (none for ``gt_baseline``).
    """
    budgets.validate()
    if metric_every < 1:
        raise ValueError("metric_every must be >= 1")
    counting = CountingObjective(obj)
    trace = RunTrace(metadata={"method": method.name, "seed": seed, "m": obj.m, "n": obj.n, "d": obj.d})
    pending: list[tuple[TraceRecord, np.ndarray]] = []  # records awaiting their objective metrics, and node means

    state = method.init(counting)

    def record(st):
        """Make the record of ``st``, its objective metrics NaN until its block is evaluated."""
        if x_star is not None:
            diff = st.x - x_star[None, :]
            dist = float(np.mean(np.sum(diff * diff, axis=1)))
        else:
            dist = float("nan")
        rec = TraceRecord(
            iteration=st.k,
            comms=st.comms,
            oracle_calls=counting.max_calls(),
            dist_sq=dist,
            grad_norm_sq=math.nan,
            consensus_err=consensus_error(st.x),
            avg_value=math.nan,
        )
        pending.append((rec, node_mean(st.x)))
        if len(pending) == RECORD_BLOCK:
            flush()
        return rec

    def flush():
        """Evaluate the pending records' objective metrics in one stacked call each, and append them."""
        if not pending:
            return
        points = np.stack([xbar for _, xbar in pending])
        grads, values = obj.average_gradient(points), obj.average_value(points)
        for (rec, _), grad, value in zip(pending, grads, values):
            trace.records.append(
                TraceRecord(rec.iteration, rec.comms, rec.oracle_calls, rec.dist_sq,
                            float(grad.dot(grad)), rec.consensus_err, float(value))
            )
        pending.clear()

    def finish():
        flush()
        trace.metadata["oracle_calls_per_node"] = counting.calls.tolist()
        trace.metadata["counters"] = getattr(state, "counters", {})

    if progress_tracker is not None:
        progress_tracker.update(state.x, state.comms, counting.max_calls())
    last = record(state)

    while True:
        if state.k >= budgets.max_iterations:
            break
        if budgets.max_oracle_calls_per_node is not None and counting.max_calls() >= budgets.max_oracle_calls_per_node:
            break
        if stop_dist_sq is not None and not math.isnan(last.dist_sq) and last.dist_sq <= stop_dist_sq:
            break
        try:
            state = method.step(state, counting, seq, seed)
        except NotImplementedError:
            raise
        except RuntimeError as exc:  # a divergence, or a graph sequence that cannot serve the step
            if last.iteration != state.k:  # the state the failing step started from
                record(state)
            finish()
            raise RunAbort(str(exc), trace) from exc
        if progress_tracker is not None:
            progress_tracker.update(state.x, state.comms, counting.max_calls())
        if state.k % metric_every == 0:
            last = record(state)

    if last.iteration != state.k:
        record(state)
    finish()
    return trace
