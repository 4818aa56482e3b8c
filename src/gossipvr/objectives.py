"""Finite-sum objectives distributed over network nodes.

Each of the ``m`` nodes owns ``n`` component functions; the node objective is
their mean, and the global objective is the average over nodes.  Objectives
expose component-level gradient access (the oracle unit used for cost
accounting) plus smoothness metadata needed by step-size schedules:

* ``L``      -- uniform smoothness of every node objective,
* ``L_ij``   -- per-component smoothness (drives importance sampling),
* ``Lbar``   -- worst node-average of ``L_ij``,
* ``Lhat``   -- mean-square ("average") smoothness of the components,
* ``mu``     -- strong convexity (0 for nonconvex losses).

Objectives are immutable after construction and their evaluations are pure,
so they can be shared across threads and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SmoothnessInfo",
    "DatasetShard",
    "FiniteSumObjective",
    "CallableFiniteSum",
    "CountingObjective",
    "ShardObjective",
    "logistic_objective",
    "nlls_objective",
    "finite_difference_check",
    "FiniteDifferenceReport",
]


@dataclass(frozen=True)
class SmoothnessInfo:
    """Smoothness and convexity constants attached to a finite-sum objective."""

    L: float
    mu: float
    L_ij: np.ndarray  # (m, n)
    Lhat: float

    @property
    def Lbar(self) -> float:
        return float(self.L_ij.mean(axis=1).max())

    def validate(self, n: int) -> None:
        tol = 1 + 1e-12
        if not (0 <= self.mu <= self.L * tol):
            raise ValueError(f"need 0 <= mu <= L, got mu={self.mu}, L={self.L}")
        if not (self.L <= self.Lbar * tol and self.Lbar <= n * self.L * tol):
            raise ValueError(f"need L <= Lbar <= n*L, got L={self.L}, Lbar={self.Lbar}, n={n}")
        if not (self.L <= self.Lhat * tol and self.Lhat <= np.sqrt(n) * self.L * tol):
            raise ValueError(f"need L <= Lhat <= sqrt(n)*L, got L={self.L}, Lhat={self.Lhat}")


def _finalize_constants(l_ij: np.ndarray, node_caps: np.ndarray, mu: float, n: int) -> SmoothnessInfo:
    """Reconcile per-component bounds with node-level caps.

    Clipping component bounds to ``n * L`` is lossless for convex components
    (each is at most n times as curved as its node mean) and restores the
    ``L <= Lbar <= n L`` ordering that over-conservative per-row bounds can
    break; for empirically estimated nonconvex components the clipped values
    are metadata used only through that ordering.
    """
    l_ij = np.asarray(l_ij, dtype=float)
    node_bound = np.minimum(l_ij.mean(axis=1), node_caps)
    L = float(node_bound.max())
    l_ij = np.clip(l_ij, 1e-12 * L, n * L)
    L = min(L, float(l_ij.mean(axis=1).max()))
    lhat = float(np.sqrt((l_ij**2).mean(axis=1)).max())
    lhat = min(max(lhat, L), math.sqrt(n) * L)
    return SmoothnessInfo(L=L, mu=min(mu, L), L_ij=l_ij, Lhat=lhat)


@dataclass(frozen=True)
class DatasetShard:
    """Rows owned by one node, already grouped into its n component blocks."""

    node: int
    features: np.ndarray  # (rows, d)
    labels: np.ndarray  # (rows,)
    block_rows: tuple[np.ndarray, ...]  # row indices per component

    @property
    def n(self) -> int:
        return len(self.block_rows)

    @property
    def d(self) -> int:
        return self.features.shape[1]


class FiniteSumObjective:
    """Abstract m-node, n-component objective with gradient access.

    Concrete objectives override the node-batched queries (``batch_*``), and
    the per-node queries are one-node views of them.  Proxies override the
    per-node queries, and the batched gradient queries loop over those.  A
    subclass must override one of the two sets, or each calls the other.
    """

    m: int
    n: int
    d: int
    info: SmoothnessInfo

    # -- node-batched queries: row r is node nodes[r]'s answer ------------------
    def batch_component_values(self, nodes: np.ndarray, X: np.ndarray) -> np.ndarray:
        """All n component values of each node: nodes (k,), X (k, d) -> (k, n)."""
        raise NotImplementedError

    def batch_local_values(self, nodes: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Node values: nodes (k,), X (k, d) -> (k,)."""
        return self.batch_component_values(nodes, X).mean(axis=1)

    # The gradient loops are the proxies' fallback.  An override must keep each row
    # bit-identical to a one-row call, so that a proxy's loop gives the same answer.
    def batch_sampled_gradients(self, nodes: np.ndarray, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Sampled component gradients: nodes (k,), idx (k, b), X (k, d) -> (k, b, d)."""
        return np.stack([self.sampled_gradients(int(i), ix, x) for i, ix, x in zip(nodes, idx, X)])

    def batch_sampled_gradient_pairs(self, nodes: np.ndarray, idx: np.ndarray, X_new: np.ndarray, X_old: np.ndarray):
        """Paired form of :meth:`batch_sampled_gradients`: two (k, b, d) arrays."""
        pairs = [self.sampled_gradient_pairs(int(i), ix, xn, xo) for i, ix, xn, xo in zip(nodes, idx, X_new, X_old)]
        return np.stack([g for g, _ in pairs]), np.stack([g for _, g in pairs])

    def batch_component_gradients(self, nodes: np.ndarray, X: np.ndarray) -> np.ndarray:
        """All n component gradients of each node: nodes (k,), X (k, d) -> (k, n, d)."""
        return np.stack([self.local_component_gradients(int(i), x) for i, x in zip(nodes, X)])

    def batch_local_gradients(self, nodes: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Node gradients: nodes (k,), X (k, d) -> (k, d)."""
        return np.stack([self.local_gradient(int(i), x) for i, x in zip(nodes, X)])

    # -- per-node queries: one-node views of the batched ones -------------------
    def component_value(self, i: int, j: int, w: np.ndarray) -> float:
        return float(self.batch_component_values(*_one_node(i, w))[0, j])

    def local_value(self, i: int, w: np.ndarray) -> float:
        return float(self.batch_local_values(*_one_node(i, w))[0])

    def component_gradient(self, i: int, j: int, w: np.ndarray) -> np.ndarray:
        return self.sampled_gradients(i, [j], w)[0]

    def component_gradient_pair(self, i: int, j: int, w_new: np.ndarray, w_old: np.ndarray):
        """Gradients of one component at two points (one oracle unit: one data
        slice touched, as charged by :class:`CountingObjective`)."""
        g_new, g_old = self.sampled_gradient_pairs(i, [j], w_new, w_old)
        return g_new[0], g_old[0]

    def sampled_gradients(self, i: int, indices: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Component gradients for a batch of indices, shape (len(indices), d)."""
        nodes, x = _one_node(i, w)
        return self.batch_sampled_gradients(nodes, np.asarray(indices)[None], x)[0]

    def sampled_gradient_pairs(self, i: int, indices: np.ndarray, w_new: np.ndarray, w_old: np.ndarray):
        """Batched difference-estimator queries: one oracle unit per index."""
        nodes, x_new = _one_node(i, w_new)
        g_new, g_old = self.batch_sampled_gradient_pairs(nodes, np.asarray(indices)[None], x_new, _one_node(i, w_old)[1])
        return g_new[0], g_old[0]

    def local_gradient(self, i: int, w: np.ndarray) -> np.ndarray:
        return self.batch_local_gradients(*_one_node(i, w))[0]

    def local_component_gradients(self, i: int, w: np.ndarray) -> np.ndarray:
        """All n component gradients of node i at one point, shape (n, d)."""
        return self.batch_component_gradients(*_one_node(i, w))[0]

    # -- stacked and averaged views -------------------------------------------
    def stacked_gradient(self, x: np.ndarray) -> np.ndarray:
        if x.shape != (self.m, self.d):
            raise ValueError(f"expected node vector of shape {(self.m, self.d)}, got {x.shape}")
        return self.batch_local_gradients(np.arange(self.m), x)

    # The averages take one point (d,) or a stack of K points (K, d), one point being K = 1:
    # one batched query over K * m rows, each point's node means reduced as a lone point's.
    def average_value(self, w: np.ndarray):
        """Mean node value: a float at a point (d,), a (K,) array at a stack (K, d)."""
        values = self.batch_local_values(*_at_nodes(w, np.arange(self.m), self.d)).reshape(-1, self.m).mean(axis=1)
        return float(values[0]) if np.ndim(w) == 1 else values

    def average_gradient(self, w: np.ndarray) -> np.ndarray:
        """Mean node gradient, in the shape of ``w``: (d,) or (K, d)."""
        grads = self.batch_local_gradients(*_at_nodes(w, np.arange(self.m), self.d)).reshape(-1, self.m, self.d)
        return grads.mean(axis=1).reshape(np.shape(w))


def _at_nodes(w, nodes, d):
    """Arguments of a node-batched query at the point ``w`` (d,), or each point of a stack
    (K, d), for each of ``nodes``: the rows run point by point, the nodes tiled."""
    points = np.reshape(w, (-1, d))
    return np.tile(nodes, len(points)), np.repeat(points, len(nodes), axis=0)


def _one_node(i, w):
    """Arguments of a node-batched query for node ``i`` alone at point ``w``."""
    return np.array([i]), np.asarray(w, dtype=float)[None]


class CountingObjective(FiniteSumObjective):
    """Wrapper that charges one unit per component-gradient oracle query.

    Only the node-batched gradient queries charge; the per-node queries are
    views of them and so charge in the same units: one per sampled index (a
    paired query, the same component at two points as difference estimators
    use, counts once) and n per node-level full gradient.  Values are free.
    """

    def __init__(self, base: FiniteSumObjective):
        self.base = base
        self.m, self.n, self.d = base.m, base.n, base.d
        self.info = base.info
        self.calls = np.zeros(base.m, dtype=np.int64)

    def batch_component_values(self, nodes, X):
        return self.base.batch_component_values(nodes, X)

    def batch_local_values(self, nodes, X):
        return self.base.batch_local_values(nodes, X)

    def batch_sampled_gradients(self, nodes, idx, X):
        np.add.at(self.calls, nodes, np.shape(idx)[1])
        return self.base.batch_sampled_gradients(nodes, idx, X)

    def batch_sampled_gradient_pairs(self, nodes, idx, X_new, X_old):
        np.add.at(self.calls, nodes, np.shape(idx)[1])
        return self.base.batch_sampled_gradient_pairs(nodes, idx, X_new, X_old)

    def batch_component_gradients(self, nodes, X):
        np.add.at(self.calls, nodes, self.n)
        return self.base.batch_component_gradients(nodes, X)

    def batch_local_gradients(self, nodes, X):
        np.add.at(self.calls, nodes, self.n)
        return self.base.batch_local_gradients(nodes, X)

    def max_calls(self) -> int:
        return int(self.calls.max())


class CallableFiniteSum(FiniteSumObjective):
    """Finite sum assembled from per-component (value, gradient) callables.

    Intended for synthetic instances and tests; ``components[i][j]`` maps a
    point to ``(value, gradient)``.
    """

    def __init__(self, components: Sequence[Sequence[Callable[[np.ndarray], tuple[float, np.ndarray]]]], d: int, info: SmoothnessInfo):
        self.m = len(components)
        self.n = len(components[0])
        if any(len(row) != self.n for row in components):
            raise ValueError("all nodes must own the same number of components")
        self.d = d
        self._components = components
        self.info = info
        info.validate(self.n)

    def _call(self, i, j, x):
        return self._components[int(i)][int(j)](np.asarray(x, dtype=float))

    def batch_component_values(self, nodes, X):
        return np.array([[float(self._call(i, j, x)[0]) for j in range(self.n)] for i, x in zip(nodes, X)])

    def batch_sampled_gradients(self, nodes, idx, X):
        grads = [[np.asarray(self._call(i, j, x)[1], dtype=float) for j in ix] for i, ix, x in zip(nodes, idx, X)]
        return np.array(grads).reshape(len(nodes), np.shape(idx)[1], self.d)

    def batch_sampled_gradient_pairs(self, nodes, idx, X_new, X_old):
        return self.batch_sampled_gradients(nodes, idx, X_new), self.batch_sampled_gradients(nodes, idx, X_old)

    def batch_component_gradients(self, nodes, X):
        return self.batch_sampled_gradients(nodes, np.tile(np.arange(self.n), (len(nodes), 1)), X)

    def batch_local_gradients(self, nodes, X):
        return self.batch_component_gradients(nodes, X).mean(axis=1)


class ShardObjective(FiniteSumObjective):
    """Mean per-row loss of the margin ``t = <a, w>`` over per-node data shards.

    Component (i, j) averages ``loss(t, y)`` over its block rows and adds
    ``(reg/2)||w||^2``; ``dloss`` is the derivative of ``loss`` in ``t``.
    ``smoothness`` maps the validated objective to its constants.  Built by
    :func:`logistic_objective` and :func:`nlls_objective`.

    The blocks are stored zero-padded to the largest block, as ``(m, n, R, d)``
    features, ``(m, n, R)`` labels and ``(m, n, R)`` row weights ``1/|block|``
    (0 on padding).  Gradient queries multiply node by node, one margin product
    over all of a node's rows and points and then one product per block or one
    contraction over the node's n R rows, so each row of a node-batched answer
    is bitwise its one-node call; value queries take their margins the same
    way.  The averages run on the stored rows in place.
    """

    def __init__(
        self,
        shards: Sequence[DatasetShard],
        loss: Callable[[np.ndarray, np.ndarray], np.ndarray],
        dloss: Callable[[np.ndarray, np.ndarray], np.ndarray],
        reg: float,
        smoothness: Callable[["ShardObjective"], SmoothnessInfo],
    ):
        if reg < 0:
            raise ValueError("regularization must be nonnegative")
        self.m = len(shards)
        self.n = shards[0].n
        self.d = shards[0].d
        self.loss, self.dloss = loss, dloss
        self.reg = float(reg)
        self._shards = list(shards)
        for s in self._shards:
            if s.n != self.n or s.d != self.d:
                raise ValueError("all shards must agree on n and d")
            for j, rows in enumerate(s.block_rows):
                if rows.size == 0:
                    raise ValueError(f"empty component block (node {s.node}, component {j})")
        # Block (i, j) is slot i * n + j; each of its rows goes to (slot, position in the block).
        blocks = [rows for s in self._shards for rows in s.block_rows]
        sizes = np.array([rows.size for rows in blocks])
        R = int(sizes.max())
        starts = np.cumsum([0] + [len(s.features) for s in self._shards[:-1]])
        source = np.concatenate(blocks) + np.repeat(np.repeat(starts, self.n), sizes)
        slot = np.repeat(np.arange(self.m * self.n), sizes)
        pos = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self._features = np.zeros((self.m, self.n, R, self.d))
        self._labels = np.ones((self.m, self.n, R))  # padding rows get a valid label and weight 0
        self._weights = np.zeros((self.m, self.n, R))
        self._features.reshape(-1, R, self.d)[slot, pos] = np.concatenate([s.features for s in self._shards])[source]
        self._labels.reshape(-1, R)[slot, pos] = np.concatenate([s.labels for s in self._shards])[source]
        self._weights.reshape(-1, R)[slot, pos] = np.repeat(1.0 / sizes, sizes)
        # Row groups for the gradients: by block slot, weighted 1 / |block|, and by node, weighted 1 / (n |block|).
        features, labels, weights = self._features, self._labels, self._weights
        self._block_rows = features.reshape(-1, R, self.d), labels.reshape(-1, R), weights.reshape(-1, R)
        self._node_rows = features.reshape(self.m, -1, self.d), labels.reshape(self.m, -1), weights.reshape(self.m, -1) / self.n
        self.info = smoothness(self)
        self.info.validate(self.n)

    # The reg terms are skipped at zero: adding 0.0 * w would turn -0.0 entries into +0.0.
    def _gradients(self, rows, at, X):
        """Gradients of groups of r stored rows at each node's P points X (k, P, d): (k, G, P, d).
        ``rows`` holds the features (N, r, d), labels and weights (N, r) of N groups; each node's G
        groups ``at`` (k, G) are gathered by one flat ``take`` per array, or if ``at`` is None the N
        stored groups are N nodes' rows, with points X (..., P, d) broadcast to them.  The margins
        are one product per node, X @ a transposed, and the weighted sums one (k, G, P, r) @
        (k, G, r, d) product."""
        a, y, wt = rows
        if at is not None:
            k, at = len(at), at.ravel()
            a, y, wt = a.take(at, axis=0).reshape(k, -1, self.d), y.take(at, axis=0).reshape(k, -1), wt.take(at, axis=0).reshape(k, -1)
        c = self.dloss(X @ a.swapaxes(-1, -2), y[..., None, :])
        c *= wt[..., None, :]
        r = rows[1].shape[1]
        g = c.reshape(*c.shape[:-1], -1, r).swapaxes(-2, -3) @ a.reshape(*a.shape[:-2], -1, r, self.d)
        if self.reg:
            g += self.reg * X[..., None, :, :]
        return g

    def _values(self, X, at):
        """Component values (..., n) at points X (..., d), one per node: the nodes ``at`` (k,) for X
        (k, d), or if ``at`` is None all m nodes, X (..., m or 1, d) broadcast to them.  The margins are
        one product per node and point over its n R stored rows, as the gradients' are."""
        a, y, wt = self._node_rows[0], self._labels, self._weights
        if at is not None:
            a, y, wt = a.take(at, axis=0), y.take(at, axis=0), wt.take(at, axis=0)
        t = X[..., None, :] @ a.swapaxes(-1, -2)
        v = np.sum(self.loss(t.reshape(*t.shape[:-2], self.n, -1), y) * wt, axis=-1)
        return v + 0.5 * self.reg * np.sum(X * X, axis=-1)[..., None] if self.reg else v

    def batch_component_values(self, nodes, X):
        return self._values(X, nodes)

    def batch_sampled_gradients(self, nodes, idx, X):
        return self._gradients(self._block_rows, nodes[:, None] * self.n + idx, X[:, None])[:, :, 0]

    def batch_sampled_gradient_pairs(self, nodes, idx, X_new, X_old):
        points = np.concatenate((X_new, X_old), axis=1).reshape(len(nodes), 2, self.d)  # np.stack's bytes, faster
        g = self._gradients(self._block_rows, nodes[:, None] * self.n + idx, points)
        return g[:, :, 0], g[:, :, 1]

    def batch_component_gradients(self, nodes, X):
        return self._gradients(self._block_rows, nodes[:, None] * self.n + np.arange(self.n), X[:, None])[:, :, 0]

    def batch_local_gradients(self, nodes, X):
        return self._gradients(self._node_rows, nodes[:, None], X[:, None])[:, 0, 0]

    # The points are broadcast by the products over every stored row, (K, m, ...) answers for a
    # stack, (m, ...) for one point: no node gather, and bitwise the base class's answers.
    def average_value(self, w):
        values = self._values(np.asarray(w, dtype=float)[..., None, :], None).mean(axis=-1).mean(axis=-1)
        return float(values) if values.ndim == 0 else values

    def average_gradient(self, w):
        points = np.asarray(w, dtype=float)[..., None, None, :]
        return self._gradients(self._node_rows, None, points)[..., 0, 0, :].mean(axis=-2)


def _logistic_loss(t, y):
    return np.logaddexp(0.0, -y * t)


def _logistic_dloss(t, y):
    """``-y / (1 + exp(min(y t, 700)))`` in six passes, a numpy scalar for scalar arguments.  The cap
    keeps ``exp`` finite; past it the derivative is below 1e-304 in magnitude, where the two-branch
    ``-y sigmoid(-y t)`` rounds to 0."""
    d = np.asarray(y * t)  # 0-d for scalars, so that the passes run in place
    np.minimum(d, 700.0, out=d)
    np.exp(d, out=d)
    d += 1.0
    np.divide(np.negative(y), d, out=d)
    return d[()]


def _logistic_smoothness(obj: ShardObjective) -> SmoothnessInfo:
    """Closed-form bounds from the logistic curvature cap of 1/4 per row."""
    l_ij = np.sum(obj._features**2, axis=-1).max(axis=-1) / 4.0 + obj.reg
    # Node Hessian bounds: the top eigenvalue of (1/4) sum_r weight_r a_r a_r^T / n, one stacked eigvalsh.
    a = obj._node_rows[0] * np.sqrt(obj._node_rows[2])[..., None]
    caps = np.linalg.eigvalsh(a.transpose(0, 2, 1) @ a)[:, -1] / 4.0 + obj.reg
    return _finalize_constants(l_ij, caps, obj.reg, obj.n)


def _nlls_sigmoid(t) -> tuple[np.ndarray, np.ndarray]:
    """``z = exp(min(-t, 700))`` and ``sig = 1 / (1 + z)`` as new arrays, 0-d for a scalar ``t``, that the
    caller may overwrite.  The cap keeps ``z`` finite; past it ``sig`` is below 1e-304."""
    z = np.negative(t, out=np.empty(np.shape(t)))
    np.minimum(z, 700.0, out=z)
    np.exp(z, out=z)
    sig = np.add(z, 1.0, out=np.empty_like(z))
    np.divide(1.0, sig, out=sig)
    return z, sig


def _nlls_loss(t, y):
    return (y - _nlls_sigmoid(t)[1]) ** 2


def _nlls_dloss(t, y):
    """``2 (sig - y) z sig^2``, where ``z sig^2 = sig (1 - sig)`` without the cancellation of ``1 - sig``
    above t of about 37: ten in-place passes, a numpy scalar for scalar arguments."""
    z, sig = _nlls_sigmoid(t)
    d = sig - y  # times 2, z, sig and sig, in place: bit for bit the left-to-right product
    d *= 2.0
    d *= z
    d *= sig
    d *= sig
    return d


_NLLS_SAFETY = 1.2  # padding on the estimated sigmoid-least-squares smoothness constants


def _nlls_smoothness(obj: ShardObjective, pairs: int) -> SmoothnessInfo:
    """Constants estimated from gradient-difference ratios at ``pairs`` random point pairs within radius 10
    (generator seed 1234), padded by ``_NLLS_SAFETY``: m x 2 margin products of shape (rows, pairs), one
    per node and point set, and m * n block products of shape (d, pairs), whose elementwise passes run in
    place.  The constants are bitwise stable: ``tests/data/nlls_constants.json`` pins them."""
    rng, radius = np.random.default_rng(1234), 10.0
    u = rng.uniform(-1, 1, size=(pairs, obj.d))
    u *= (radius * rng.uniform(0, 1, size=(pairs, 1)) ** (1.0 / obj.d)) / np.maximum(
        np.linalg.norm(u, axis=1, keepdims=True), 1e-12
    )
    # Mixed gap scales: tiny gaps probe local curvature, large ones the secant.
    direction = rng.normal(size=(pairs, obj.d))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-12)
    step = radius * 10.0 ** rng.uniform(-4, -0.5, size=(pairs, 1))
    v = u + step * direction
    gap = np.maximum(np.linalg.norm(u - v, axis=1), 1e-12)

    sq_norms = np.empty((obj.m, obj.n, pairs))  # |grad f_ij(u) - grad f_ij(v)|^2 per pair
    node_sq = np.empty((obj.m, pairs))  # the same for the node means
    for i, s in enumerate(obj._shards):
        dc = _nlls_dloss(s.features @ u.T, s.labels[:, None])  # (rows, pairs)
        dc -= _nlls_dloss(s.features @ v.T, s.labels[:, None])
        node_diff = np.zeros((obj.d, pairs))
        for j, rows in enumerate(s.block_rows):
            diff = s.features[rows].T @ dc[rows]  # (d, pairs)
            diff /= rows.size
            node_diff += diff
            np.add.reduce(np.square(diff, out=diff), axis=0, out=sq_norms[i, j])
        node_diff /= obj.n
        np.add.reduce(np.square(node_diff, out=node_diff), axis=0, out=node_sq[i])
    l_ij = np.max(np.sqrt(sq_norms) / gap, axis=-1)
    lhat_nodes = np.max(np.sqrt(sq_norms.mean(axis=1)) / gap, axis=-1)
    l_nodes = np.max(np.sqrt(node_sq) / gap, axis=-1)
    info = _finalize_constants(l_ij * _NLLS_SAFETY, l_nodes * _NLLS_SAFETY, 0.0, obj.n)
    lhat = min(max(float(lhat_nodes.max()) * _NLLS_SAFETY, info.L), np.sqrt(obj.n) * info.L)
    return SmoothnessInfo(L=info.L, mu=0.0, L_ij=info.L_ij, Lhat=lhat)


def logistic_objective(shards: Sequence[DatasetShard], lambda_reg: float) -> ShardObjective:
    """l2-regularized logistic loss ``log(1 + exp(-y <a, w>))``; labels must be +-1."""
    labels = np.concatenate([s.labels for s in shards])
    bad = labels[(labels != -1.0) & (labels != 1.0)]
    if bad.size:
        raise ValueError(f"logistic labels must be +-1, got {bad[0]}")
    return ShardObjective(shards, _logistic_loss, _logistic_dloss, lambda_reg, _logistic_smoothness)


def nlls_objective(shards: Sequence[DatasetShard], probe_pairs: int = 1000) -> ShardObjective:
    """Nonconvex sigmoid least squares ``(y - sigmoid(<a, w>))^2``.  No closed-form smoothness constants
    exist; they are estimated from ``probe_pairs`` (at least 1) seeded random point pairs within radius 10."""
    if probe_pairs < 1:
        raise ValueError(f"probe_pairs must be at least 1, got {probe_pairs}")
    return ShardObjective(shards, _nlls_loss, _nlls_dloss, 0.0, lambda obj: _nlls_smoothness(obj, probe_pairs))


@dataclass(frozen=True)
class FiniteDifferenceReport:
    max_rel_error: float
    passed: bool
    worst_node: int
    worst_coordinate: int


def finite_difference_check(obj: FiniteSumObjective, x: np.ndarray, h: float, tolerance: float) -> FiniteDifferenceReport:
    """Central-difference check of every node gradient at the given node vector: one node-batched
    gradient query at ``x`` and one value query at its ``2 m d`` displaced points."""
    if h <= 0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    m, d = obj.m, obj.d
    analytic = obj.batch_local_gradients(np.arange(m), x)
    step = h * np.eye(d)
    shifted = np.concatenate([x[:, None, :] + step, x[:, None, :] - step]).reshape(-1, d)  # row (+-, i, c): x[i] +- h e_c
    plus, minus = obj.batch_local_values(np.tile(np.repeat(np.arange(m), d), 2), shifted).reshape(2, m, d)
    scale = np.array([max(1.0, float(np.linalg.norm(row))) for row in analytic])  # row by row: norm(axis=1) rounds apart
    rel = (np.abs((plus - minus) / (2 * h) - analytic) / scale[:, None]).ravel()
    worst = int(np.argmax(rel))  # the first maximum, node-major
    error = float(rel[worst])
    return FiniteDifferenceReport(max_rel_error=error, passed=error < tolerance, worst_node=worst // d, worst_coordinate=worst % d)
