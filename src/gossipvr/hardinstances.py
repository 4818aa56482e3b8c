"""Worst-case problem instances for decentralized finite-sum optimization.

Two constructions:

* a strongly convex coupled-chain family on the two-star hop topology, whose
  minimizer is a geometric series per component slot — used to exercise the
  communication/oracle lower-bound evaluator for the strongly convex regime;
* a nonconvex zero-chain family on the rotating-star topology, built from a
  smooth bump (``psi``) and a Gaussian integral (``phi``).  A zero-chain
  function activates at most one new coordinate per gradient evaluation, so
  the largest activated coordinate index ("progress") of any run is bounded
  by the communication and oracle budgets; ``progress_audit`` checks that
  bound on recorded traces.

The chain coordinates are kept exactly zero in floating point until activated
(bump values and slopes are exact zeros below the threshold), so progress
accounting is exact, not approximate.

Every zero-chain gradient query makes one node-batched scan per block drawn
(one for node gradients) over the rows of both chain camps, each row with its
own term list; a value query makes one scan per camp (and block), whose dense
sum rounds as the per-term formula's.  A scan reads only the columns up to one
past the last nonzero one and evaluates only the hot terms, ``|x_{j-1}| >
1/2``, so its cost follows the activated coordinates, not the chain length.
Each row is bitwise the answer of a one-row call, so the per-node queries,
which ``FiniteSumObjective`` defines as one-node views, agree with the batched
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .network import GraphSequence, RotatingStarSequence
from .objectives import CallableFiniteSum, FiniteSumObjective, SmoothnessInfo, _at_nodes

__all__ = [
    "psi",
    "psi_prime",
    "phi",
    "phi_prime",
    "zero_chain_l",
    "prog",
    "ChainObjective",
    "chain_q",
    "ZeroChainObjective",
    "nonconvex_hard_objective",
    "lower_bound_value",
    "lower_bound_components",
    "ProgressTracker",
    "progress_audit",
    "progress_bound",
    "ProgressAuditReport",
    "SMOOTHNESS_CONST",
    "RANGE_CONST",
    "GRADIENT_CONST",
]

# Constants of the base zero-chain function.
SMOOTHNESS_CONST = 152.0  # smoothness of l
RANGE_CONST = 12.0  # per-dimension bound on l(0) - inf l
GRADIENT_CONST = 23.0  # sup-norm bound on grad l

_SQRT_E = math.sqrt(math.e)


def psi(z):
    """Smooth bump: 0 below 1/2, exp(1 - 1/(2z-1)^2) above."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    hot = z > 0.5
    t = 2.0 * z[hot] - 1.0
    out[hot] = np.exp(1.0 - 1.0 / (t * t))
    return out if out.ndim else float(out)


def psi_prime(z):
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    hot = z > 0.5
    t = 2.0 * z[hot] - 1.0
    out[hot] = np.exp(1.0 - 1.0 / (t * t)) * 4.0 / (t * t * t)
    return out if out.ndim else float(out)


def phi(z):
    """Scaled Gaussian integral, in closed form through ``math.erf`` at each entry."""
    z = np.asarray(z, dtype=float)
    erf = np.fromiter(map(math.erf, (z / math.sqrt(2.0)).ravel().tolist()), float, z.size).reshape(z.shape)
    out = _SQRT_E * math.sqrt(math.pi / 2.0) * (1.0 + erf)
    return out if out.ndim else float(out)


def phi_prime(z):
    z = np.asarray(z, dtype=float)
    out = _SQRT_E * np.exp(-0.5 * z * z)
    return out if out.ndim else float(out)


def prog(x) -> int:
    """Largest 1-based index of a nonzero coordinate; 0 for the zero vector."""
    x = np.asarray(x)
    nz = np.flatnonzero(x)
    return int(nz[-1] + 1) if nz.size else 0


class _ChainScan:
    """One pass that finds the hot terms of ``sum over terms`` at each row of ``X / scale`` (k, d).

    Term 1 is ``-psi(1) phi(x_1)``; term ``j >= 2`` is ``psi(-a) phi(-b) - psi(a) phi(b)`` with ``a, b =
    x_{j-1}, x_j``; a leading column of ones makes term 1 a coupling term too (``psi(1) = 1``).  ``mask``,
    (d,) for every row or (k, d) per row, holds the terms: entry ``j - 1``, under term ``j``'s ``a``
    column, is term ``j``.  A term is hot where it is in the mask and ``|a| > 1/2``.  A cold term's bumps,
    value and gradient share are exact zeros and nothing is evaluated for it, so :meth:`values` and
    :meth:`gradients` cost the hot terms, and neither computes what only the other needs.

    The scan reads and scales the first ``width`` columns only: one past the last column where a row of
    ``X`` is nonzero (NaN and +-inf count, ``-0.0`` does not, as in :func:`prog`), or 1 for an all-zero
    ``X``, at most d.  Every ``a`` beyond it is 0, so those terms are cold, and so its cost follows the
    activated coordinates, not the chain length.

    Answers are bitwise the per-term formula's, and a one-row call's, with a product by a zero bump taken
    as 0.0 (``phi`` is evaluated only where the bump is nonzero).  The dense answers kept at a zero bump:
    a term at a NaN ``x_j`` makes its row's value NaN, and a cold one puts ``0.0 - 0.0 * phi_prime(NaN)``
    at ``x_j`` and touches nothing at ``x_{j-1}``.
    """

    def __init__(self, X: np.ndarray, mask: np.ndarray, scale: float):
        self.width = w = min(prog(X.any(axis=0)) + 1, X.shape[1])
        self.mask, self.mask_w = mask, mask[..., :w]
        self.y = np.empty((len(X), w + 1))
        self.y[:, 0] = 1.0
        np.divide(X[:, :w], scale, out=self.y[:, 1:])
        self.rows, self.cols = ((np.abs(self.y[:, :w]) > 0.5) & self.mask_w).nonzero()
        if self.rows.size:  # with no hot term, every term value and gradient entry is an exact zero
            self.j = self.cols + 1
            a, self.b = self.y[self.rows, self.cols], self.y[self.rows, self.j]
            self.t = 2.0 * np.abs(a) - 1.0
            self.bump = np.exp(1.0 - 1.0 / (self.t * self.t))  # psi(|a|)
            self.neg, live = a < 0.0, self.bump != 0.0
            self.phi_ab = np.zeros(len(a))
            self.phi_ab[live] = phi(np.where(self.neg, -self.b, self.b)[live])

    def values(self) -> np.ndarray:
        """Row sums of the term values as the per-term formula adds them, for a (d,) mask: term 1,
        then one 1-D sum over all the other terms of the mask, so the rows round as a dense sum does.
        A row with a NaN ``x_j`` in any term is NaN, as the formula's ``0 * phi(NaN)`` is."""
        out = np.zeros(len(self.y))
        if self.rows.size:
            head = int(self.mask[0])
            term_values = np.zeros((len(self.y), np.count_nonzero(self.mask)))
            value = self.bump * self.phi_ab
            position = np.cumsum(self.mask) - 1
            term_values[self.rows, position[self.cols]] = np.where(self.neg, value, 0.0 - value)  # never -0.0
            rest = np.sum(term_values[:, head:], axis=1)
            out = term_values[:, 0] + rest if head else rest
        if np.isnan(self.y.min()):
            out[(np.isnan(self.y[:, 1:]) & self.mask_w).any(axis=1)] = np.nan
        return out

    def gradients(self) -> np.ndarray:
        """The first ``width`` columns of the gradients (k, d); the others are zeros.  Each row's terms
        are distinct, so each scatter target is unique."""
        grad = np.zeros(self.y.shape)
        if np.isnan(self.y.min()):  # the dense answer at a NaN x_j of a cold term
            rows, cols = (np.isnan(self.y[:, 1:]) & self.mask_w).nonzero()
            grad[rows, cols + 1] = 0.0 - 0.0 * phi_prime(self.y[rows, cols + 1])
        if not self.rows.size:
            return grad[:, 1:]
        grad[self.rows, self.j] = 0.0 - self.bump * phi_prime(self.b)  # phi_prime(-b) is the same bits
        slope = self.bump * 4.0 / (self.t * self.t * self.t)  # psi_prime(|a|)
        grad[self.rows, self.cols] -= slope * self.phi_ab
        return grad[:, 1:]


def zero_chain_l(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient of the base zero-chain function on R^d, ``d = len(x)``."""
    x = np.asarray(x, dtype=float)
    scan, grad = _ChainScan(x[None], np.ones(len(x), dtype=bool), 1.0), np.zeros(len(x))
    grad[: scan.width] = scan.gradients()[0]
    return float(scan.values()[0]), grad


# ---------------------------------------------------------------------------
# Strongly convex chain instance
# ---------------------------------------------------------------------------


def chain_q(kappa: float) -> float:
    """Decay ratio of the chain minimizer for condition number kappa."""
    s = math.sqrt(2.0 * kappa / 3.0 + 1.0 / 3.0)
    return (s - 1.0) / (s + 1.0)


# The two chain nodes: the centers of the left and right stars of the two-star hop topology.
_V_LEFT, _V_RIGHT = 0, 1


class ChainObjective(CallableFiniteSum):
    """Coupled quadratic chains split across two designated nodes.

    The variable holds ``n`` slots of ``dim`` coordinates; component
    ``(i, j)`` applies node i's chain function to slot j alone.  The left
    node couples even coordinates to odd, the right node odd to even, and all
    other nodes carry a weak quadratic, so per-slot progress toward the
    geometric-series minimizer requires alternating communication between the
    two chain nodes.

    Per-node strong convexity differs (the bystander nodes have
    ``mu/(m-2)``); ``info.mu`` records the uniform lower bound.
    """

    def __init__(self, m: int, n: int, big_l: float, mu: float, dim: int):
        if m < 3:
            raise ValueError("chain instance needs m >= 3")
        if not (0 < mu < big_l):
            raise ValueError("need 0 < mu < L")
        if dim < 2:
            raise ValueError("need dim >= 2")
        self.dim = dim
        self.big_l, self.mu_chain = float(big_l), float(mu)
        self.q = chain_q(big_l / mu)
        self.x_star_slot = self.q ** np.arange(1, dim + 1)
        self.tail_error = self.q ** (2 * dim) / (1.0 - self.q * self.q)
        mu_other = mu / (m - 2)
        l_ij = np.full((m, n), mu_other)
        l_ij[[_V_LEFT, _V_RIGHT]] = big_l
        info = SmoothnessInfo(L=float(big_l), mu=float(mu_other), L_ij=l_ij, Lhat=float(big_l))
        components = [[partial(self._component, i, j) for j in range(n)] for i in range(m)]
        super().__init__(components, n * dim, info)

    def x_star(self) -> np.ndarray:
        """Minimizer of the aggregate objective: the slot-wise geometric series."""
        return np.tile(self.x_star_slot, self.n)

    def batch_component_values(self, nodes, X):
        """Each slot's value alone: the component callables' values, without their gradients."""
        return np.array([[self._slot_value(i, y) for y in x.reshape(self.n, self.dim)] for i, x in zip(nodes, X)])

    def batch_sampled_gradients(self, nodes, idx, X):
        """Each sampled slot's gradient written into its slot of one zeroed ``(k, b, d)`` array,
        not into a length-d gradient of its own; the full and node gradients inherit it."""
        dim = self.dim
        out = np.zeros((len(nodes), np.shape(idx)[1], self.d))
        for row, i, ix, x in zip(out, nodes, idx, X):
            for grad, j in zip(row, ix):
                slot = slice(j * dim, (j + 1) * dim)
                grad[slot] = self._slot_gradient(i, x[slot])
        return out

    def _component(self, i: int, j: int, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Component (i, j): node i's chain function of slot j, with its gradient on R^d."""
        slot, grad = slice(j * self.dim, (j + 1) * self.dim), np.zeros(self.d)
        grad[slot] = self._slot_gradient(i, x[slot])
        return self._slot_value(i, x[slot]), grad

    def _coupling(self, i: int, y: np.ndarray) -> tuple[float, slice, slice, np.ndarray]:
        """Chain node i's coupling weight, the slices of the two coordinates of its coupled
        pairs and their differences at slot ``y``."""
        # The left node couples the 1-based pairs (2k, 2k+1), the right node (2k-1, 2k).
        first = 1 if i == _V_LEFT else 0
        end = first + 2 * ((self.dim - first) // 2)
        lead, trail = slice(first, end, 2), slice(first + 1, end, 2)
        return (self.big_l - self.mu_chain) / 4.0, lead, trail, y[lead] - y[trail]

    def _slot_value(self, i: int, y: np.ndarray) -> float:
        mu = self.mu_chain
        if i not in (_V_LEFT, _V_RIGHT):
            return 0.5 * (mu / (self.m - 2)) * y @ y
        c, _, _, diff = self._coupling(i, y)
        val = 0.5 * mu * y @ y
        if i == _V_LEFT:
            val += c * (y[0] - 1.0) ** 2
        return val + float(np.sum(c * diff * diff))

    def _slot_gradient(self, i: int, y: np.ndarray) -> np.ndarray:
        mu = self.mu_chain
        if i not in (_V_LEFT, _V_RIGHT):
            return (mu / (self.m - 2)) * y
        c, lead, trail, diff = self._coupling(i, y)
        grad = mu * y
        if i == _V_LEFT:
            grad[0] += 2.0 * c * (y[0] - 1.0)
        grad[lead] += 2.0 * c * diff
        grad[trail] -= 2.0 * c * diff
        return grad


# ---------------------------------------------------------------------------
# Nonconvex zero-chain instance
# ---------------------------------------------------------------------------


class ZeroChainObjective(FiniteSumObjective):
    """Scaled zero-chain functions split over three node camps and n blocks.

    The camps are the rotating star's ``s1``, ``s2`` and ``s3``.  Camp 1
    owns the odd coupling terms, camp 2 the even ones, the rest are
    identically zero.  Each camp function splits into n blocks by residue of
    the term index, scaled by n, so the block average reproduces the camp
    function exactly while the blocks' mean-square smoothness grows by
    sqrt(n).
    """

    def __init__(
        self, star: RotatingStarSequence, n: int, big_l: float, delta: float, budget_comms: int, budget_oracle: int
    ):
        m = star.m
        if budget_comms < m / 4:
            raise ValueError("communication budget must be at least m/4")
        if budget_oracle < n:
            raise ValueError("oracle budget must be at least n")
        if big_l <= 0 or delta <= 0:
            raise ValueError("L and Delta must be positive")
        self.m, self.n = m, n
        self.s1, self.s2, self.s3 = star.s1, star.s2, star.s3
        third = len(self.s1)
        self.big_l, self.delta = float(big_l), float(delta)
        depth = min((4 * budget_comms) // m, budget_oracle // n)
        self.d = int(2 + depth)
        self.scale_c = math.sqrt(
            3.0 * SMOOTHNESS_CONST * delta / (big_l * RANGE_CONST * min(16.0 * budget_comms / m, 4.0 * budget_oracle / n))
        )
        self.camp_coef = m / third  # multiplier on the camp chain functions
        self.value_coef = big_l * self.scale_c**2 / (3.0 * SMOOTHNESS_CONST)
        self._masks: dict[int | None, np.ndarray] = {}  # term masks per block, built on first use
        self._node_camp = np.full(m, 3)
        self._node_camp[list(self.s1)], self._node_camp[list(self.s2)] = 1, 2
        # One node per camp 1, 2, 3, and each node's camp as an index into them.  With
        # camp 3 empty, the last node stands in for it and its row is never read.
        self._camp_nodes, self._camp_of = np.array([self.s1[0], self.s2[0], m - 1]), self._node_camp - 1
        # Tight node smoothness: camp_coef <= 3 so this never exceeds big_l.
        l_eff = big_l * self.camp_coef / 3.0
        l_ij = np.full((m, n), 1e-12 * l_eff)
        l_ij[: 2 * third] = n * l_eff
        self.info = SmoothnessInfo(L=float(l_eff), mu=0.0, L_ij=l_ij, Lhat=float(math.sqrt(n) * l_eff))
        self.info.validate(n)

    def _terms(self, j: int | None) -> tuple[np.ndarray, float]:
        """Term masks (3, d) of block ``j`` (the node function if None), one per camp, as
        :class:`_ChainScan` takes them, and the block's coefficient.  Block ``j`` of camp ``c`` holds the
        terms ``= 2j + c (mod 2n)``, scaled by n.  A camp's blocks touch disjoint coordinates, so their
        mean, the node function, is one chain over the camp's parity terms.  Camp 3 holds no term."""
        masks = self._masks.get(j)
        if masks is None:
            masks = self._masks[j] = np.zeros((3, self.d), dtype=bool)
            for c in (1, 2):
                start, step = (c, 2) if j is None else ((2 * j + c - 1) % (2 * self.n) + 1, 2 * self.n)
                masks[c - 1, start - 1 :: step] = True
        return masks, self.camp_coef if j is None else self.n * self.camp_coef

    def _gradients(self, nodes, X, j: int | None = None) -> np.ndarray:
        """Block ``j`` gradients of each node at its row of ``X``: one scan over every camp's rows."""
        masks, coef = self._terms(j)
        scan = _ChainScan(np.asarray(X, dtype=float), masks[self._camp_of[np.asarray(nodes)]], self.scale_c)
        out = np.zeros(np.shape(X))
        out[:, : scan.width] = (self.value_coef / self.scale_c) * (coef * scan.gradients())
        return out

    def _values(self, nodes, X, j: int | None = None) -> np.ndarray:
        """Block ``j`` values: one scan per chain camp, whose dense sum rounds as the per-term formula's."""
        X, camps = np.asarray(X, dtype=float), self._camp_of[np.asarray(nodes)]
        (masks, coef), out = self._terms(j), np.zeros(len(X))
        for camp in (0, 1):
            (rows,) = (camps == camp).nonzero()
            if rows.size:
                out[rows] = self.value_coef * (coef * _ChainScan(X[rows], masks[camp], self.scale_c).values())
        return out

    def batch_component_values(self, nodes, X):
        return np.stack([self._values(nodes, X, j) for j in range(self.n)], axis=1)

    def batch_local_values(self, nodes, X):
        return self._values(nodes, X)

    def batch_sampled_gradients(self, nodes, idx, X):  # only the drawn blocks, on the rows that drew them
        out = np.zeros(np.shape(idx) + (self.d,))
        for j in np.unique(idx):
            rows, cols = np.nonzero(np.asarray(idx) == j)
            out[rows, cols] = self._gradients(np.asarray(nodes)[rows], np.asarray(X)[rows], int(j))
        return out

    def batch_sampled_gradient_pairs(self, nodes, idx, X_new, X_old):
        return self.batch_sampled_gradients(nodes, idx, X_new), self.batch_sampled_gradients(nodes, idx, X_old)

    def batch_component_gradients(self, nodes, X):
        return np.stack([self._gradients(nodes, X, j) for j in range(self.n)], axis=1)

    def batch_local_gradients(self, nodes, X):
        return self._gradients(nodes, X)

    # The nodes of a camp share one function, so the averages evaluate one row per camp and
    # point, one query for a stack of points, and reduce each point's camp rows over the nodes
    # in node order, bitwise as the base class's node reduction: the values through ``np.take``,
    # which keeps the scattered rows C-ordered (``[:, nodes]`` would not), the gradients by
    # adding one node's row at a time, without a (K, m, d) scatter.
    def average_value(self, w):
        values = self._values(*_at_nodes(w, self._camp_nodes, self.d)).reshape(-1, 3)
        means = np.take(values, self._camp_of, axis=1).mean(axis=1)
        return float(means[0]) if np.ndim(w) == 1 else means

    def average_gradient(self, w):
        grads = self._gradients(*_at_nodes(w, self._camp_nodes, self.d)).reshape(-1, 3, self.d)
        total = grads[:, self._camp_of[0]].copy()
        for camp in self._camp_of[1:]:
            total += grads[:, camp]
        return (total / self.m).reshape(np.shape(w))


def nonconvex_hard_objective(
    m: int, n: int, big_l: float, delta: float, budget_comms: int, budget_oracle: int
) -> tuple[ZeroChainObjective, GraphSequence]:
    """Zero-chain hard instance paired with its rotating-star graph sequence."""
    seq = RotatingStarSequence(m)
    return ZeroChainObjective(seq, n, big_l, delta, budget_comms, budget_oracle), seq


# ---------------------------------------------------------------------------
# Lower-bound evaluator (strongly convex regime)
# ---------------------------------------------------------------------------


def lower_bound_components(kappa_b: float, kappa_s: float, chi: float, n: int, n_comms: float, n_oracle: float):
    """The two residual-error floors; None where a floor does not apply."""
    t1 = t2 = None
    if chi > 24 and kappa_b >= 1:
        base = 1.0 - 2.0 / (math.sqrt(2.0 * kappa_b / 3.0 + 1.0 / 3.0) + 1.0)
        t1 = base ** (2.0 + 16.0 * n_comms / (chi - 24.0))
    if kappa_s >= n:
        base = 1.0 - 2.0 * n / (math.sqrt(n) * math.sqrt(2.0 * kappa_s / 3.0 + n / 3.0) + n)
        t2 = base ** (4.0 * n_oracle / n)
    return t1, t2


def lower_bound_value(kappa_b: float, kappa_s: float, chi: float, n: int, n_comms: float, n_oracle: float) -> float:
    """Residual-error floor after the given communication and oracle budgets."""
    t1, t2 = lower_bound_components(kappa_b, kappa_s, chi, n, n_comms, n_oracle)
    if t1 is None and t2 is None:
        raise ValueError(f"no floor applies: need chi > 24 (got {chi}) or kappa_s >= n (got {kappa_s} vs {n})")
    return max(v for v in (t1, t2) if v is not None)


# ---------------------------------------------------------------------------
# Progress audit
# ---------------------------------------------------------------------------


@dataclass
class ProgressTracker:
    """Running global frontier, the largest :func:`prog` of any node's row, sampled every step.
    ``m`` is not read; it stays for the callers that pass it."""

    m: int
    global_prog: int = field(init=False, default=0)
    audit_points: list[tuple[int, int, int]] = field(init=False, default_factory=list)  # (comms, oracle, global prog)

    def update(self, x: np.ndarray, comms: int, oracle_calls: int) -> None:
        """Raise the frontier to the :func:`prog` of ``x``'s nonzero columns (NaN counts, ``-0.0`` does not)."""
        self.global_prog = max(self.global_prog, prog(np.asarray(x).any(axis=0)))
        self.audit_points.append((int(comms), int(oracle_calls), self.global_prog))


@dataclass(frozen=True)
class ProgressAuditReport:
    passed: bool
    violations: tuple[tuple[int, int, int, int], ...]  # (comms, oracle, prog, bound)
    final_prog: int


def progress_bound(comms: int, oracle_calls: int, m: int, n: int) -> int:
    """The most coordinates a run can have activated after ``comms`` rounds and ``oracle_calls`` queries per node."""
    return min((4 * comms) // m + 1, oracle_calls // n + 1)


def progress_audit(tracker: ProgressTracker, m: int, n: int) -> ProgressAuditReport:
    """Check every audit point against :func:`progress_bound`."""
    violations = []
    for comms, oracle, p in tracker.audit_points:
        bound = progress_bound(comms, oracle, m, n)
        if p > bound:
            violations.append((comms, oracle, p, bound))
    return ProgressAuditReport(passed=not violations, violations=tuple(violations), final_prog=tracker.global_prog)
