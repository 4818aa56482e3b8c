"""Time-varying communication graphs and their gossip machinery.

A gossip matrix here is the normalized Laplacian ``W = L(G) / lambda_max(L(G))``
of a connected weighted graph: symmetric, zero row sums (the consensus vector
spans its kernel), and every nonzero off-diagonal entry sits on an edge.  On
the zero-sum subspace it contracts disagreement by a factor governed by the
condition-like parameter ``chi``; for a fixed graph ``chi`` equals the ratio
of the largest to the smallest positive Laplacian eigenvalue.

Node states are stacked as ``(m, d)`` arrays, one row per node ("node
vectors").  Mixing a node vector means multiplying by the gossip matrix on the
left; the averaging operator actually applied by optimizers is ``I - W``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import select
import signal
import sys
import threading
import weakref
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

__all__ = [
    "WeightedGraph",
    "GossipMatrix",
    "GraphSequence",
    "StaticSequence",
    "RandomGeometricSequence",
    "TwoStarHopSequence",
    "RotatingStarSequence",
    "complete_graph",
    "star_graph",
    "ring_graph",
    "path_graph",
    "gossip_from_laplacian",
    "measure_chi",
    "consensus_residual",
    "node_mean",
    "consensus_error",
    "dump_sequence",
    "DUMP_STEPS",
]

# Eigenvalues below this fraction of lambda_max count as the Laplacian kernel.
_KERNEL_CUTOFF = 1e-8

# A run's ``.graphs`` dump covers at most its first DUMP_STEPS steps.
DUMP_STEPS = 1000

MAX_RETRIES = 1000  # disconnected random-geometric draws per step before a run gives up
BLOCK = 64  # random-geometric steps built per stacked pass
SEED_BLOCKS = 16  # blocks whose streams one replica pass seeds
PIPE_BLOCKS = 4  # blocks the builder child builds per pass and its pipe holds ahead of the walk; divides SEED_BLOCKS


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on nodes ``0..m-1`` without self-loops."""

    m: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"node count must be positive, got {self.m}")
        seen = set()
        canonical = []
        for i, j, w in self.edges:
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise ValueError(f"edge ({i},{j}) outside node range [0,{self.m})")
            if not 0 < w < math.inf:
                raise ValueError(f"edge ({i},{j}) has weight {w}; weights must be positive and finite")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canonical.append((key[0], key[1], float(w)))
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

    def laplacian(self) -> np.ndarray:
        lap = np.zeros((self.m, self.m))
        for i, j, w in self.edges:
            lap[i, i] += w
            lap[j, j] += w
            lap[i, j] -= w
            lap[j, i] -= w
        return lap


@dataclass(frozen=True, slots=True)
class GossipMatrix:
    """Normalized-Laplacian gossip matrix with its contraction certificate.

    ``chi`` is exact: the graph condition number.  The stored matrix is
    normalized so that its largest eigenvalue is 1; ``1/chi`` is its smallest
    positive one.
    """

    matrix: np.ndarray
    chi: float


# Unit weights: a uniform weight cancels in W = L / lambda_max.
def complete_graph(m: int) -> WeightedGraph:
    return WeightedGraph(m, tuple((i, j, 1.0) for i in range(m) for j in range(i + 1, m)))


def star_graph(m: int, center: int = 0) -> WeightedGraph:
    return WeightedGraph(m, tuple((center, v, 1.0) for v in range(m) if v != center))


def ring_graph(m: int) -> WeightedGraph:
    if m == 2:
        return WeightedGraph(2, ((0, 1, 1.0),))
    return WeightedGraph(m, tuple((i, (i + 1) % m, 1.0) for i in range(m)))


def path_graph(m: int) -> WeightedGraph:
    return WeightedGraph(m, tuple((i, i + 1, 1.0) for i in range(m - 1)))


def _spectral(lap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which of a stack of exactly symmetric Laplacians ``(B, m, m)``, ``m >= 2``, are connected, and
    their ``W = L / lambda_max`` and exact ``chi = lambda_max / eigs[1]``.  One ``eigvalsh`` decides
    both: a graph is connected iff ``eigs[1] > _KERNEL_CUTOFF * lambda_max`` (an edgeless graph has
    ``lambda_max == 0``), so a graph with ``chi > 1/_KERNEL_CUTOFF`` counts as disconnected."""
    eigs = np.linalg.eigvalsh(lap)
    fiedler, top = eigs[:, 1], eigs[:, -1]
    connected = fiedler > _KERNEL_CUTOFF * top
    w = lap[connected]
    w /= top[connected, None, None]
    return connected, w, top[connected] / fiedler[connected]


def gossip_from_laplacian(g: WeightedGraph) -> GossipMatrix:
    """``W = L(g) / lambda_max(L(g))`` and its exact ``chi``: the one-graph view of :func:`_gossip_stack`,
    which requires a connected graph on at least two nodes, or ``chi`` is undefined."""
    w, chi = _gossip_stack([g])
    return GossipMatrix(w[0], chi.item(0))


def _gossip_stack(graphs: Sequence[WeightedGraph]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(len(graphs), m, m)`` gossip matrices and exact ``chi`` of connected graphs on one node
    count, from one stacked :func:`_spectral`."""
    if graphs[0].m < 2:
        raise ValueError("gossip matrix needs at least 2 nodes")
    connected, w, chi = _spectral(np.stack([g.laplacian() for g in graphs]))
    if not connected.all():
        raise ValueError("graph is disconnected: chi would be infinite")
    return w, chi


def node_mean(x: np.ndarray) -> np.ndarray:
    return np.mean(x, axis=0)


def consensus_error(x: np.ndarray) -> float:
    """Total squared deviation of node blocks from their mean."""
    dev = x - node_mean(x)
    return float(np.sum(dev * dev))


class GraphSequence:
    """Base for per-step graph generators: step ``k`` is one communication round, on ``graph(k)``.

    A sequence serves through ``window(start, stages)``: the ``(stages, m, m)`` gossip matrices
    and ``(stages,)`` exact ``chi`` of steps ``start .. start + stages - 1``.  ``gossip(k)`` is
    its one-step view.  ``chi`` is an analytic or construction-time certificate when available,
    otherwise ``None`` (use :func:`measure_chi`).

    ``chi_max`` is the largest exact per-step ``chi`` served (over the period, for a cyclic
    sequence); ``steps_over_certificate`` counts the served steps above ``certificate``, the
    ``chi`` a run's schedule assumes, which the harness sets, each step against the
    ``certificate`` in force when it is charged (a cyclic sequence counts none: its ``chi``
    covers its period, up to rounding).  The ``window_*`` counters are
    :func:`consensus_residual`'s, ``None`` until it certifies a window.  ``close()`` releases
    what the sequence runs beside the caller.
    """

    kind: str = "static"
    m: int
    chi: float | None = None
    period: int | None = None
    chi_max: float
    certificate: float = math.inf
    steps_over_certificate: int = 0
    window_bound_max: float | None = None
    windows_checked_exactly: int | None = None
    window_norm_max: float | None = None

    def graph(self, k: int) -> WeightedGraph:
        raise NotImplementedError

    def gossip(self, k: int) -> GossipMatrix:
        matrices, chi = self.window(k, 1)
        return GossipMatrix(matrices[0], chi.item(0))

    def window(self, start: int, stages: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _dump_blocks(self, steps: int) -> Iterator[str]:
        """The ``step``/``edge`` records of steps ``0 .. steps - 1``, one string per ``BLOCK`` steps."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the sequence runs beside the caller; only a random-geometric one runs anything."""


class _CyclicSequence(GraphSequence):
    """A fixed list of graphs repeated with period ``len(graphs)``, its gossip matrices built once as
    one stack; a window is a slice of it, or its steps modulo the period where it wraps.  ``chi`` is
    the worst exact per-step ``chi`` over the period."""

    def __init__(self, graphs: Sequence[WeightedGraph]):
        self._graphs = list(graphs)
        self._matrices, self._chi = _gossip_stack(self._graphs)
        self.chi = self.chi_max = float(self._chi.max())
        self.m = self._graphs[0].m
        self.period = len(self._graphs)

    def graph(self, k: int) -> WeightedGraph:
        return self._graphs[k % self.period]

    def window(self, start: int, stages: int) -> tuple[np.ndarray, np.ndarray]:
        lo = start % self.period
        if lo + stages <= self.period:
            return self._matrices[lo : lo + stages], self._chi[lo : lo + stages]
        steps = np.arange(start, start + stages) % self.period
        return self._matrices[steps], self._chi[steps]

    def _dump_blocks(self, steps: int) -> Iterator[str]:
        edges = ["".join(f"edge {i} {j} {w!r}\n" for i, j, w in g.edges) for g in self._graphs]
        for start in range(0, steps, BLOCK):
            yield "".join(f"step {k}\n{edges[k % self.period]}" for k in range(start, min(start + BLOCK, steps)))


class StaticSequence(_CyclicSequence):
    """The same graph (and gossip matrix) at every step."""

    kind = "static"

    def __init__(self, graph: WeightedGraph):
        super().__init__([graph])


# The streams of ``default_rng((seed, k))`` for a block of steps ``k`` at once: the
# random-geometric draws here, seeded SEED_BLOCKS blocks per pass because each pass costs
# about 100 numpy calls whatever its width, and the optimizers' batch and coin draws,
# seeded one block per pass, both drawn from the raw outputs of _next_outputs.
# A seed is a non-negative integer and a step lies in [0, 2**32); _stream_seed and
# _block_streams are the only places that check it.  numpy keeps the algorithms it
# runs stable (NEP 19): SeedSequence hashing of the entropy words ``(seed, k)``,
# PCG64 (a 128-bit LCG with XSL-RR output), ``next_double`` and bounded integers.
# 128-bit values are held as uint64 ``(hi, lo)`` pairs; numpy wraps on overflow.
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STEP_LIMIT = 1 << 32  # steps below this are one entropy word


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The multipliers a SeedSequence hash runs through over ``calls`` calls, as a column."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``values``, row ``i`` taking call ``i`` of ``consts``."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * 0xCA01F9DD - y * 0x4973F715
    return r ^ r >> 16


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``a * b mod 2**128``: the low words' full product from 32-bit halves, plus the cross terms."""
    a1, a0, b1, b0 = a_lo >> 32, a_lo & _MASK32, b_lo >> 32, b_lo & _MASK32
    p01, p10 = a0 * b1, a1 * b0
    carry = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (carry >> 32) + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


@functools.lru_cache(maxsize=None)
def _lcg_jumps(n: int) -> tuple[np.ndarray, ...]:
    """``(M^j, sum_{i<j} M^i) mod 2**128`` for ``j = 1..n`` as hi/lo rows, ``n >= 1``: PCG64's
    state ``j`` outputs after ``s`` is ``M^j s + (sum_{i<j} M^i) inc``."""
    power, total, rows = 1, 0, []
    for _ in range(n):
        power, total = power * _PCG_MULT & (1 << 128) - 1, (total * _PCG_MULT + 1) & (1 << 128) - 1
        rows.append((power >> 64, power & _MASK64, total >> 64, total & _MASK64))
    cols = tuple(np.array(col, dtype=np.uint64) for col in zip(*rows))
    for col in cols:  # cached and shared by every caller
        col.flags.writeable = False
    return cols


def _stream_seed(seed: int) -> int:
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _block_streams(seed: int, k: int, size: int) -> tuple[range, tuple[np.ndarray, ...]]:
    """The aligned block of ``size`` steps holding step ``k``, cut at ``2**32``, and
    the PCG64 streams of its steps."""
    if not 0 <= k < _STEP_LIMIT:
        raise ValueError(f"step {k} outside [0, 2**32)")
    start = k - k % size
    steps = range(start, min(start + size, _STEP_LIMIT))
    return steps, _pcg64_streams(_stream_seed(seed), np.arange(steps.start, steps.stop))


def _pcg64_streams(seed: int, steps: np.ndarray) -> tuple[np.ndarray, ...]:
    """PCG64 ``(state hi, state lo, inc hi, inc lo)`` as ``default_rng((seed, k))`` seeds it, per ``k``."""
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((len(words) + 1, len(steps)), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = steps
    # SeedSequence.mix_entropy into a 4-word pool, its hash calls vectorized where they
    # do not depend on each other, then generate_state(4, uint64).
    consts = _hash_consts(0x43B0D7E5, 0x931E8875, 16 + 4 * max(len(entropy) - 4, 0))
    pool = np.zeros((4, len(steps)), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool, call = _hashmix(pool, consts[:5]), 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[call : call + 4]))
        call += 3
    for word in entropy[4:]:
        pool, call = _mix(pool, _hashmix(word, consts[call : call + 5])), call + 4
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(0x8B51F9DD, 0x58F38DED, 8)).astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = state[0::2] | state[1::2] << 32
    # pcg_setseq_128_srandom_r: inc = 2 i + 1, then the state steps, takes s, steps again.
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    hi, lo = _mul128(*_add128(*inc, s_hi, s_lo), _PCG_MULT >> 64, _PCG_MULT & _MASK64)
    return (*_add128(hi, lo, *inc), *inc)


def _next_outputs(streams: tuple[np.ndarray, ...], count: int):
    """The next ``count`` 64-bit outputs of each stream (XSL-RR), as ``(len(streams[0]), count)``
    uint64, and the streams advanced past them."""
    hi, lo, inc_hi, inc_lo = (s[:, None] for s in streams)
    p_hi, p_lo, t_hi, t_lo = _lcg_jumps(count)
    s_hi, s_lo = _add128(*_mul128(hi, lo, p_hi, p_lo), *_mul128(inc_hi, inc_lo, t_hi, t_lo))
    x, rot = s_hi ^ s_lo, s_hi >> 58
    return x >> rot | x << (64 - rot & 63), (s_hi[:, -1], s_lo[:, -1], *streams[2:])


def _doubles(outputs: np.ndarray) -> np.ndarray:
    """``Generator.random``'s double of each 64-bit output: its top 53 bits."""
    return (outputs >> 11) * (1.0 / (1 << 53))


def _next_doubles(streams: tuple[np.ndarray, ...], count: int):
    """The next ``count`` doubles of each stream, as ``Generator.random`` gives them, and
    the streams advanced past them."""
    outputs, streams = _next_outputs(streams, count)
    return _doubles(outputs), streams


def _integers_then_double(streams: tuple[np.ndarray, ...], n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """What ``integers(0, n, count)`` and then ``random()`` draw from each stream, as numpy draws
    them: ``(len(streams[0]), count)`` int64 and ``(len(streams[0]),)`` doubles.

    numpy draws a bound ``n <= 2**32`` by Lemire's method on 32-bit words, the low then the high
    half of each output: a word ``w`` gives ``w n >> 32`` unless ``w n mod 2**32`` falls below
    ``2**32 mod n``, when it is rejected and the next word drawn.  The double is the next whole
    output after the last word used; ``n = 1`` uses no word."""
    if not 1 <= n <= 1 << 32:
        raise ValueError(f"integers are drawn from n in [1, 2**32], got n={n}")
    if n == 1:
        outputs, _ = _next_outputs(streams, 1)
        return np.zeros((len(outputs), count), dtype=np.int64), _doubles(outputs[:, 0])
    threshold = ((1 << 32) - n) % n
    chunk = -(-count // 2) + 1  # without rejections: the words' outputs and the double's
    outputs, streams = _next_outputs(streams, chunk)
    while True:
        lemire = outputs.astype("<u8", copy=False).view("<u4") * np.uint64(n)
        accept = (lemire & _MASK32) >= threshold
        if accept[:, :count].all():  # nothing rejected, the common case unless n nears 2**32
            values, last = lemire[:, :count] >> 32, outputs[:, chunk - 1]
            break
        taken = np.cumsum(accept, axis=1)
        used = np.argmax(taken >= count, axis=1) + 1  # the words each stream's integers read
        if taken[:, -1].min() >= count and (used.max() + 1) // 2 < outputs.shape[1]:
            # Each stream's first `count` accepted words, gathered from all streams' accepted words in order.
            firsts = taken[:, -1].cumsum() - taken[:, -1]
            values = (lemire[accept] >> 32)[firsts[:, None] + np.arange(count)]
            last = outputs[np.arange(len(outputs)), (used + 1) // 2]
            break
        more, streams = _next_outputs(streams, chunk)
        outputs = np.concatenate((outputs, more), axis=1)
    return values.astype(np.int64), _doubles(last)


def _builder_can_run() -> bool:
    """Whether a random-geometric walk may fork its builder child: ``os.fork`` exists, this
    process may run on at least two CPUs, one for the walk and one for the child, it runs no
    other Python thread, which a fork could copy in the middle of holding a lock, and it is
    not a process that ``multiprocessing`` started.  Such a process is a pool worker, as in
    a ``--seeds`` sweep with ``--jobs``, whose sibling runs already share the CPUs: a
    builder beside each would compete with them rather than overlap with its own walk."""
    mp = sys.modules.get("multiprocessing")
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
        and (mp is None or mp.parent_process() is None)
    )


def _block_bytes(size: int, m: int) -> int:
    return size * (8 * m * m + 17)


def _block_fields(buf: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """The one form of a built block: views of its uint8 buffer ``buf``, which the build fills, the
    builder's pipe carries and the cache keeps.  Per offset in the block of ``size`` steps: the ``(size,
    m, m)`` gossip matrices, exact ``chi`` values, resample counts and connected flags; a step still
    disconnected after ``MAX_RETRIES`` draws has a zero matrix and ``chi`` and ``MAX_RETRIES`` resamples.
    A ``(count, bytes)`` stack of such buffers gives the same views with a leading ``count`` axis."""
    size = buf.shape[-1] // _block_bytes(1, m)
    a, b = size * m * m * 8, size * 8
    return (
        buf[..., :a].view(np.float64).reshape(*buf.shape[:-1], size, m, m),
        buf[..., a : a + b].view(np.float64),
        buf[..., a + b : a + 2 * b].view(np.int64),
        buf[..., a + 2 * b :].view(bool),
    )


def _write_blocks(seq: RandomGeometricSequence, start: int, fd: int) -> None:
    """The builder child's loop: build the blocks from ``start`` on, in order, ``PIPE_BLOCKS`` aligned
    blocks per pass after those up to the first such span, which lies in one seeding chunk as
    ``PIPE_BLOCKS`` divides ``SEED_BLOCKS``, and write each block to ``fd``.  Returns when the steps
    run out at ``2**32``; raises when the pipe breaks."""
    while start < _STEP_LIMIT:
        count = PIPE_BLOCKS - start // BLOCK % PIPE_BLOCKS
        for buf in seq._build_block(start, count):
            view = memoryview(buf)
            while view:
                view = view[os.write(fd, view) :]
        start += count * BLOCK


def _stop_child(pid: int, fd: int) -> None:
    """Kill and reap a builder child and close its pipe."""
    with contextlib.suppress(OSError):
        os.kill(pid, signal.SIGKILL)
    with contextlib.suppress(OSError):
        os.waitpid(pid, 0)
    os.close(fd)


class RandomGeometricSequence(GraphSequence):
    """Fresh random geometric graph each step, resampled until connected.

    Points are uniform in the unit square; pairs within ``radius`` (positive, ``inf`` for
    complete graphs) are joined with unit weight.  Step ``k`` is a pure function of
    ``(seed, k)``: draw ``d`` of it is, bitwise, the ``d``-th
    ``default_rng((seed, k)).uniform(size=(m, 2))``, and it draws until the graph connects,
    so the steps do not depend on the reading order, the block size or who built them.
    ``seed`` must be non-negative and steps below ``2**32``.

    ``graph`` reads through ``gossip``.  A step still disconnected after ``MAX_RETRIES`` draws
    raises every time it is served; a window raises at its first such step, after serving the
    steps before it.  The cache keeps the blocks of the dump's steps and the block just built
    (:meth:`_load`).

    Each served step counts once per build of its block (:meth:`_charge`): ``built`` the
    matrices served, ``resamples`` the disconnected draws rejected for them, ``chi_max`` the
    largest exact ``chi`` served and ``steps_over_certificate`` the served steps above
    ``certificate``.  ``builder_blocks`` counts the blocks a builder child served
    (:meth:`_fetch_block`) and ``builder_pinned`` says whether it runs off the walk's CPU.
    ``close()`` kills and reaps the child, and so does collecting the sequence.
    """

    kind = "random-geometric"

    PIPE_TIMEOUT = 10.0  # seconds; a block takes the child milliseconds

    def __init__(self, m: int, radius: float, seed: int):
        if m < 2:
            raise ValueError("random geometric sequence needs m >= 2")
        if not radius > 0:  # NaN fails it too; inf joins every pair
            raise ValueError(f"radius must be positive, got {radius}")
        self.m = m
        self.radius = float(radius)
        self.seed = _stream_seed(seed)
        # The steps and PCG64 streams of the last chunk of SEED_BLOCKS blocks seeded; a block never
        # straddles two chunks, since a chunk is SEED_BLOCKS * BLOCK aligned steps cut at 2**32.
        self._chunk: tuple[range, tuple[np.ndarray, ...]] = (range(0), ())
        # block start -> (its _block_fields, its served mask, its offsets that never connected)
        self._blocks: dict[int, tuple[tuple[np.ndarray, ...], np.ndarray, list[int]]] = {}
        # (built, resamples, chi_max, steps_over_certificate) charged from the evicted blocks
        self._settled: tuple[int, int, float, int] = (0, 0, 0.0, 0)
        # The builder child's pid and pipe, the start of the block it writes next (None when no
        # child runs) and the finalizer that stops it; a sequence forks at most once, and never once closed.
        self._may_fork = True
        self._child: tuple[int, int] | None = None
        self._piped: int | None = None
        self._stop: weakref.finalize | None = None
        self.builder_blocks = 0
        self.builder_pinned = False

    # Each counter is charged, when read, from the settled counts and the cached blocks' served masks.
    built, resamples, chi_max, steps_over_certificate = (
        property(lambda self, i=i: self._charge(list(self._blocks.values()), self._settled)[i]) for i in range(4)
    )

    def _charge(self, blocks: list, counters: tuple[int, int, float, int]) -> tuple[int, int, float, int]:
        """``counters`` plus the served steps of ``blocks``, values of ``_blocks``, from their stacked fields.

        Serving a window writes its block's boolean ``served`` mask; the counters are charged
        from the masks when they are read and when a block is evicted, so a step counts once per
        build, against the ``certificate`` in force when it is charged: a cached step against the
        current one, an evicted step against the one in force at its eviction."""
        if not blocks:
            return counters
        served = np.concatenate([mask for _, mask, _ in blocks])
        chi, resamples, connected = (np.concatenate([fields[i] for fields, _, _ in blocks])[served] for i in (1, 2, 3))
        built, draws, chi_max, over = counters
        return (
            built + int(np.count_nonzero(connected)),
            draws + int(resamples.sum()),
            max(chi_max, float(chi.max(initial=0.0))),
            over + int(np.count_nonzero(chi > self.certificate)),
        )

    def graph(self, k: int) -> WeightedGraph:
        # Off the diagonal, W is nonzero exactly on the edges; row-major order is sorted.
        ii, jj = np.nonzero(np.triu(self.gossip(k).matrix, k=1))
        return WeightedGraph(self.m, tuple((i, j, 1.0) for i, j in zip(ii.tolist(), jj.tolist())))

    def _dump_blocks(self, steps: int) -> Iterator[str]:
        # One nonzero over a block's (B, m * m) matrix stack, masked to i < j, finds its edges in
        # step, i, j order.
        m = self.m
        upper = np.triu(np.ones((m, m), dtype=bool), k=1).ravel()
        table = [f"edge {i} {j} 1.0\n" for i in range(m) for j in range(m)]
        for start in range(0, steps, BLOCK):
            block = range(start, min(start + BLOCK, steps))
            stack = self.window(start, len(block))[0].reshape(len(block), -1)
            step, flat = np.nonzero((stack != 0) & upper)
            lines = [table[f] for f in flat.tolist()]
            ends = np.cumsum(np.bincount(step, minlength=len(block))).tolist()
            yield "".join(f"step {k}\n" + "".join(lines[lo:hi]) for k, lo, hi in zip(block, [0, *ends], ends))

    def window(self, start: int, stages: int) -> tuple[np.ndarray, np.ndarray]:
        lo = start % BLOCK
        if lo + stages <= BLOCK:
            return self._serve(start - lo, lo, lo + stages)
        stop = start + stages
        parts = [self._serve(s, max(start - s, 0), min(stop - s, BLOCK)) for s in range(start - lo, stop, BLOCK)]
        return np.concatenate([w for w, _ in parts]), np.concatenate([chi for _, chi in parts])

    def _serve(self, start: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The matrices and ``chi`` of offsets ``lo .. hi - 1`` of the block at ``start``, marked
        served; at an offset that never connected, the offsets up to it are marked and it raises."""
        block = self._blocks.get(start)
        if block is None:
            block = self._load(start)
        (matrices, chi, _, _), served, failed = block
        for i in failed:
            if lo <= i < hi:
                served[lo : i + 1] = True
                raise RuntimeError(
                    f"no connected geometric graph after {MAX_RETRIES} resamples "
                    f"(m={self.m}, radius={self.radius}, step={start + i}); increase the radius"
                )
        served[lo:hi] = True
        return matrices[lo:hi], chi[lo:hi]

    def _load(self, start: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, list[int]]:
        """Cache the block at ``start``; evict, and charge, every other block starting at or past ``DUMP_STEPS``.
        The dump finds its steps cached, and a walk never reads a block it has left: a window straddling
        two blocks takes its views before the next load, and the fork check in the fetch runs before eviction."""
        fields = _block_fields(self._fetch_block(start), self.m)
        past = [s for s in self._blocks if s >= DUMP_STEPS]
        self._settled = self._charge([self._blocks.pop(s) for s in past], self._settled)
        block = self._blocks[start] = (fields, np.zeros(len(fields[1]), dtype=bool), np.flatnonzero(~fields[3]).tolist())
        return block

    def close(self) -> None:
        """Kill and reap the builder child, if one runs; later misses build in-process."""
        if self._stop is not None:
            self._stop()
        self._may_fork, self._piped = False, None

    def _fetch_block(self, k: int) -> np.ndarray:
        """The buffer of the block holding step ``k``: read from the builder child when it is the
        one the child writes next, else built in-process.

        A miss right after a cached block, a forward walk, forks the child first, once per
        sequence, when :func:`_builder_can_run` allows it: the child builds the blocks after this
        one, in order and ``PIPE_BLOCKS`` per pass (:func:`_write_blocks`), and writes each buffer to
        a pipe deepened to hold ``PIPE_BLOCKS`` blocks (:meth:`_fork_builder`), which bounds how far
        ahead it runs.  Every other miss builds its one block in-process, and so does every miss once
        the child has died or fallen silent (:meth:`_read_piped`)."""
        start = k - k % BLOCK
        if start == self._piped:
            block = self._read_piped(start)
            if block is not None:
                return block
        elif self._may_fork and start - BLOCK in self._blocks and _builder_can_run():
            self._fork_builder(start + BLOCK)
        return self._build_block(k)[0]

    def _fork_builder(self, start: int) -> None:
        """Fork the builder child on the blocks from ``start`` on, and pin it to the CPUs this walk
        may use other than the one it runs on: a fresh child left to the scheduler can share the
        walk's CPU for the whole run, and then the two take turns instead of overlapping.  Its pipe
        is deepened to ``PIPE_BLOCKS`` blocks, so a walk that catches up with the child finds
        built blocks waiting; where the host refuses, the default pipe, about one block, stays."""
        try:  # the walk's CPU: field 39 of /proc/self/stat, the 37th after the command name's ")"
            with open("/proc/self/stat", "rb") as stat:
                others = os.sched_getaffinity(0) - {int(stat.read().rpartition(b")")[2].split()[36])}
        except OSError:
            others = None
        read, write = os.pipe()
        import fcntl  # a builder runs only where os.fork and sched_getaffinity exist, so fcntl does too

        with contextlib.suppress(OSError):  # refused, say past the host's pipe size limit
            fcntl.fcntl(read, fcntl.F_SETPIPE_SZ, PIPE_BLOCKS * _block_bytes(BLOCK, self.m))
        pid = os.fork()
        if pid == 0:  # the child leaves by os._exit: it never runs the parent's exit handlers or flushes its buffers
            try:
                os.close(read)
                _write_blocks(self, start, write)
            finally:
                os._exit(0)
        os.close(write)
        self._may_fork, self._child, self._piped = False, (pid, read), start
        self._stop = weakref.finalize(self, _stop_child, pid, read)
        if others is not None:
            with contextlib.suppress(OSError):  # unpinned, the child runs where the scheduler puts it
                os.sched_setaffinity(pid, others)
                self.builder_pinned = True

    def _read_piped(self, start: int) -> np.ndarray | None:
        """The buffer of the block the child wrote at ``start``, or None (and the child stopped)
        if it died or fell silent for ``PIPE_TIMEOUT`` seconds first, say deadlocked on a BLAS
        lock the fork copied."""
        size = min(BLOCK, _STEP_LIMIT - start)
        buf = np.empty(_block_bytes(size, self.m), dtype=np.uint8)
        view = memoryview(buf)
        poll = select.poll()
        poll.register(self._child[1], select.POLLIN)
        while view:
            try:
                got = os.readv(self._child[1], [view]) if poll.poll(1000 * self.PIPE_TIMEOUT) else 0
            except OSError:
                got = 0
            if not got:
                self.close()
                return None
            view = view[got:]
        self._piped = start + BLOCK
        self.builder_blocks += 1
        return buf

    def _build_block(self, k: int, count: int = 1) -> np.ndarray:
        """The buffers (:func:`_block_fields`) of the ``count`` aligned blocks of ``BLOCK`` steps from
        the one holding ``k``, in one seeding chunk, as the rows of a ``(count, bytes)`` uint8 stack.
        Each stacked pass over their steps fills the steps it connects and redraws the rest, so each
        row is bitwise its block built alone.  A vectorized replica of ``default_rng``, pinned to it
        bitwise by a test, seeds the streams of ``SEED_BLOCKS`` aligned blocks per pass."""
        m, r2 = self.m, self.radius * self.radius
        if k not in self._chunk[0]:
            self._chunk = _block_streams(self.seed, k, SEED_BLOCKS * BLOCK)
        chunk, streams = self._chunk
        lo = k - k % BLOCK - chunk.start
        streams = tuple(s[lo : lo + count * BLOCK] for s in streams)
        size = len(streams[0]) // count  # BLOCK, or less for a lone block cut at 2**32
        diag = np.arange(m)
        buf = np.zeros((count, _block_bytes(size, m)), dtype=np.uint8)
        w_out, chi_out, resamples, connected_out = _block_fields(buf, m)
        resamples[:] = MAX_RETRIES
        pending = np.arange(count * size)  # the steps not yet connected, counted from the first block's start
        for draw in range(MAX_RETRIES):
            # Draw d of step k reads outputs [2m d, 2m (d + 1)) of its stream.
            u, streams = _next_doubles(streams, 2 * m)
            dx, dy = (c[:, :, None] - c[:, None, :] for c in u.reshape(-1, m, 2).transpose(2, 0, 1))
            dx *= dx  # squared distances in place: a pass over 4 blocks makes (256, m, m) temporaries
            dy *= dy
            dx += dy
            adj = dx <= r2
            adj[:, diag, diag] = False
            deg = adj.sum(axis=2)
            # A draw with an isolated node is disconnected: skip its eigensolve.
            no_isolated = deg.all(axis=1)
            # diag(deg) - adj as 0.0 - adj with the degrees on the diagonal: a negated adjacency would
            # put -0.0 off the edges and move eigvalsh in the last ulp.
            lap = np.subtract(0.0, adj[no_isolated], dtype=float)
            lap[:, diag, diag] = deg[no_isolated]
            spectral, w, chi = _spectral(lap)
            connected = no_isolated.copy()
            connected[no_isolated] = spectral
            done = np.divmod(pending[connected], size)  # (block, offset)
            w_out[done], chi_out[done], resamples[done], connected_out[done] = w, chi, draw, True
            pending = pending[~connected]
            if not pending.size:
                break
            streams = tuple(s[~connected] for s in streams)
        return buf


class TwoStarHopSequence(_CyclicSequence):
    """Cycle of two star trees whose bridge vertex migrates one hop per step.

    The cycle starts with an empty left star and a full right star, hops the
    middle vertex left until the right star is empty, then hops back.  Vertex 0
    is the left center and vertex 1 the right center for the whole cycle; every
    graph is a tree on ``m`` nodes, and consecutive graphs differ by exactly
    one removed and one added edge.

    Unit weights are used.  ``chi`` is the exact worst per-step condition
    number over the cycle; it grows as about ``0.31 m**2`` (0.30 to 0.38 for
    ``m`` from 4 to 80).
    """

    kind = "two-star-hop"

    def __init__(self, m: int):
        if m < 4:
            raise ValueError("two-star hop topology needs m >= 4")
        super().__init__(self._build_cycle(m))

    @staticmethod
    def _build_cycle(m: int) -> list[WeightedGraph]:
        v_left, v_right = 0, 1
        middle = 2
        left_leaves: list[int] = []
        right_leaves = list(range(3, m))

        def snapshot() -> WeightedGraph:
            edges = [(v_left, middle, 1.0), (middle, v_right, 1.0)]
            edges += [(v_left, u, 1.0) for u in left_leaves]
            edges += [(v_right, u, 1.0) for u in right_leaves]
            return WeightedGraph(m, tuple(edges))

        graphs = [snapshot()]
        for _ in range(m - 3):  # hops to the left
            v = right_leaves.pop()
            left_leaves.append(middle)
            middle = v
            graphs.append(snapshot())
        for _ in range(m - 4):  # hops back to the right; the last hop closes the cycle
            v = left_leaves.pop()
            right_leaves.append(middle)
            middle = v
            graphs.append(snapshot())
        return graphs


class RotatingStarSequence(_CyclicSequence):
    """Star graph whose center rotates to throttle exchange between two camps.

    The node set splits into the camps ``s1`` (the first ``ceil(m/3)`` nodes),
    ``s2`` (the next ``ceil(m/3)``) and the remainder ``s3``.  Centers cycle
    through all of ``s3`` and then one designated vertex that lets ``s1`` and
    ``s2`` trade information; that vertex alternates between the first node
    of each camp on successive cycles.  Every step is a star, so the per-step condition number is ``m``
    and the mixing spectral gap is ``1/m``.
    """

    kind = "rotating-star"

    def __init__(self, m: int):
        if m < 3:
            raise ValueError("rotating star needs m >= 3")
        third = math.ceil(m / 3)
        self.s1 = tuple(range(third))
        self.s2 = tuple(range(third, 2 * third))
        self.s3 = tuple(range(2 * third, m))
        self.centers = [*self.s3, self.s1[0], *self.s3, self.s2[0]]
        super().__init__([star_graph(m, center=c) for c in self.centers])
        self.chi = float(m)  # analytic: the measured star chi can differ from m in the last ulp


def measure_chi(seq: GraphSequence, trials: int) -> float:
    """Contraction certificate of a graph sequence: the largest exact per-step
    ``chi`` over its first ``trials`` steps (one period, if shorter), read as one window."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    steps = trials if seq.period is None else min(trials, seq.period)
    return float(seq.window(0, steps)[1].max())


# A window's bound or norm may exceed the scheduled contraction by this relative rounding.
_WINDOW_SLACK = 1e-9


@functools.lru_cache(maxsize=None)
def _identity(m: int) -> np.ndarray:
    """``np.eye(m)``, cached read-only for the windows: half the cost of ``eye(10) - W`` is the ``eye``."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def consensus_residual(seq: GraphSequence, start_step: int, stages: int, x: np.ndarray, contraction: float) -> np.ndarray:
    """``prod_q (I - W(q)) x`` over the window of ``stages`` consecutive graphs, ``q``
    running chronologically from ``start_step``: what multi-stage consensus leaves of ``x``.
    The window is read with one ``seq.window`` call and turned into one ``I - W(q)`` stack,
    which the certificate and the ``stages`` products ``x = (I - W(q)) x`` both read.

    The window is certified to contract the zero-mean subspace by at most ``contraction``
    (``1 - rho`` of a ``gt_page`` schedule; ``math.inf`` certifies nothing).  The bound
    ``prod_q (1 - 1/chi_q)`` of its exact per-step ``chi`` certifies almost every window.
    Where the bound is larger, one eigensolve gives the exact norm of the window's product
    on the zero-mean subspace, and a norm above ``contraction`` raises ``RuntimeError``.
    Both comparisons allow ``_WINDOW_SLACK`` of rounding.  The sequence's
    ``window_bound_max``, ``windows_checked_exactly`` and ``window_norm_max`` record the
    checks; the first window certified sets them from ``None`` to ``0.0, 0, 0.0``.

    ``x`` may be any ``(m, k)`` stack: its columns mix independently, so one call on
    ``[x | v]`` mixes both with one product per stage.  Each column block of the result is
    bitwise that block mixed on its own when the BLAS sums a product's ``m`` terms in the
    same order at both widths: OpenBLAS 0.3.31 on AVX-512 does for ``m < 16`` (the tests
    pin ``m = 10``), not from ``m = 16`` on, where the blocks can differ in the last bit."""
    matrices, chi = seq.window(start_step, stages)
    steps = _identity(matrices.shape[1]) - matrices
    _certify_window(seq, start_step, steps, chi, contraction)
    for step in steps:
        x = step.dot(x)
    return x


def _certify_window(seq: GraphSequence, start: int, steps: np.ndarray, chi: np.ndarray, contraction: float) -> None:
    """Certify the window whose ``I - W(q)`` stack is ``steps`` (see :func:`consensus_residual`)."""
    limit = contraction * (1.0 + _WINDOW_SLACK)
    bound = math.prod([1.0 - 1.0 / c for c in chi.tolist()])  # in Python: a third of numpy's cost at 11 steps
    if seq.window_bound_max is None:  # the first window certified
        seq.window_bound_max, seq.windows_checked_exactly, seq.window_norm_max = 0.0, 0, 0.0
    seq.window_bound_max = max(seq.window_bound_max, bound)
    if bound <= limit:
        return
    m = steps.shape[1]
    product = _identity(m) - 1.0 / m  # the zero-mean projector, which every I - W(q) keeps zero-mean
    for step in steps:
        product = step.dot(product)
    norm = math.sqrt(max(float(np.linalg.eigvalsh(product.T.dot(product))[-1]), 0.0))
    seq.windows_checked_exactly += 1
    seq.window_norm_max = max(seq.window_norm_max, norm)
    if norm > limit:
        raise RuntimeError(
            f"the window of steps {start}..{start + len(chi) - 1} contracts the zero-mean subspace by "
            f"{norm:.6g}, above the {contraction:.6g} its schedule assumes"
        )


def dump_sequence(seq: GraphSequence, steps: int, sink: IO[str]) -> None:
    """Write ``steps`` graphs in the line format ``m``/``step``/``edge``: ``m <nodes>``,
    then per step ``step <k>`` and one ``edge <i> <j> <weight>`` line per edge, ``i < j``
    in sorted order, the weight as ``repr`` prints it.  One ``write`` per block of
    ``BLOCK`` steps."""
    sink.write(f"m {seq.m}\n")
    for text in seq._dump_blocks(steps):
        sink.write(text)
