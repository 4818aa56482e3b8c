import io
import math
import os
import signal

import numpy as np
import pytest

import gossipvr.harness as harness
import gossipvr.network as network
from gossipvr.network import (
    GossipMatrix,
    RandomGeometricSequence,
    RotatingStarSequence,
    StaticSequence,
    TwoStarHopSequence,
    WeightedGraph,
    complete_graph,
    consensus_error,
    consensus_residual,
    dump_sequence,
    gossip_from_laplacian,
    measure_chi,
    node_mean,
    path_graph,
    ring_graph,
    star_graph,
)
from gossipvr.optimizers import DivergenceError, GtBaseline, RunAbort

from conftest import child_left


def random_zero_mean(rng, m, d=3):
    x = rng.standard_normal((m, d))
    return x - node_mean(x)


# (m, radius, seed, resample total over steps 0..299), frozen from the WeightedGraph/BFS build.
RANDOM_GEOMETRIC_CASES = [(10, 0.7, 3, 0), (10, 0.45, 1, 189), (10, 0.35, 2, 1619), (50, 0.3, 7, 11), (2, 2.0, 0, 0)]


def in_process(monkeypatch):
    """Keep every random-geometric build in this process: no builder child is forked."""
    monkeypatch.setattr(network, "_builder_can_run", lambda: False)


def count_builds(monkeypatch):
    """Wrap ``RandomGeometricSequence._build_block``, with every build in-process; the
    returned list collects the start of every block built."""
    in_process(monkeypatch)
    builds, build = [], RandomGeometricSequence._build_block

    def counted(seq, k):
        builds.append(k - k % network.BLOCK)
        return build(seq, k)

    monkeypatch.setattr(RandomGeometricSequence, "_build_block", counted)
    return builds


def count_seedings(monkeypatch):
    """Wrap ``network._block_streams``, the replica's seeding pass, with every build
    in-process; the returned list collects the first step of every range it seeds."""
    in_process(monkeypatch)
    seedings, seed_streams = [], network._block_streams

    def counted(seed, k, size):
        steps, streams = seed_streams(seed, k, size)
        seedings.append(steps.start)
        return steps, streams

    monkeypatch.setattr(network, "_block_streams", counted)
    return seedings


def per_step_reference(m, radius, seed, k):
    """Step ``k`` of a random geometric sequence by its definition, one draw at a
    time from ``default_rng((seed, k))``: (gossip matrix, rejected draws)."""
    rng = np.random.default_rng((seed, k))
    for resamples in range(network.MAX_RETRIES):
        pts = rng.uniform(size=(m, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        ii, jj = np.nonzero(np.triu(np.sum(diff * diff, axis=2) <= radius * radius, k=1))
        try:
            graph = WeightedGraph(m, tuple((int(i), int(j), 1.0) for i, j in zip(ii, jj)))
            return gossip_from_laplacian(graph), resamples
        except ValueError:
            continue
    raise AssertionError(f"step {k} never connected")


def replica_draws(seed, steps, m, draws):
    """The first ``draws`` point sets of each step as the block builder computes them: (steps, draws, m, 2)."""
    streams, jumps = network._pcg64_streams(seed, np.asarray(steps)), network._lcg_jumps(2 * m)
    out = []
    for _ in range(draws):
        u, streams = network._next_doubles(streams, jumps)
        out.append(u.reshape(-1, m, 2))
    return np.stack(out, axis=1)


def dump_through_graph(seq, steps):
    """The ``.graphs`` text written edge by edge from validated ``seq.graph(k)`` objects."""
    lines = [f"m {seq.m}\n"]
    for k in range(steps):
        lines.append(f"step {k}\n")
        lines += [f"edge {i} {j} {w!r}\n" for i, j, w in seq.graph(k).edges]
    return "".join(lines)


class TestWeightedGraph:
    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_rejects_nonfinite_weights(self, weight):
        with pytest.raises(ValueError, match="finite"):
            WeightedGraph(3, ((0, 1, 1.0), (1, 2, weight)))

    @pytest.mark.parametrize(
        "m, edges, match",
        [
            (3, ((0, 0, 1.0),), r"self-loop \(0,0\)"),
            (3, ((0, 1, 1.0), (0, 5, 1.0)), r"edge \(0,5\) outside node range \[0,3\)"),
            (3, ((-1, 1, 1.0),), r"edge \(-1,1\) outside node range"),
            (3, ((0, 1, 0.0),), "weight 0.0; weights must be positive"),
            (3, ((0, 1, -2.0),), "weight -2.0; weights must be positive"),
            (4, ((0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0)), r"duplicate edge \(0, 1\)"),
            (4, ((0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)), r"duplicate edge \(0, 1\)"),
            (0, (), "node count must be positive, got 0"),
            (-2, (), "node count must be positive, got -2"),
        ],
        ids=["self-loop", "node-out-of-range", "negative-node", "zero-weight", "negative-weight", "duplicate-edge",
             "duplicate-edge-same-order", "m-zero", "m-negative"],
    )
    def test_malformed_rejected(self, m, edges, match):
        with pytest.raises(ValueError, match=match):
            WeightedGraph(m, edges)

    def test_connectivity(self):
        assert gossip_from_laplacian(complete_graph(4)).matrix.shape == (4, 4)
        with pytest.raises(ValueError, match="disconnected"):
            gossip_from_laplacian(WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))))


class TestGossipFromLaplacian:
    def test_two_node_complete(self):
        w = gossip_from_laplacian(complete_graph(2))
        assert np.allclose(w.matrix, [[0.5, -0.5], [-0.5, 0.5]])
        assert w.chi == pytest.approx(1.0)

    def test_star_m4_chi(self):
        # Star Laplacian spectrum {0, 1, 1, 4}: chi = 4 / 1.
        w = gossip_from_laplacian(star_graph(4))
        assert w.chi == pytest.approx(4.0, abs=1e-9)

    def test_disconnected_errors(self):
        with pytest.raises(ValueError, match="disconnected"):
            gossip_from_laplacian(WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))))
        with pytest.raises(ValueError):
            gossip_from_laplacian(WeightedGraph(1, ()))

    @staticmethod
    def two_triangles(bridge):
        return WeightedGraph(6, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
                                 (2, 3, bridge)))

    def test_weak_bridge_is_disconnected(self):
        # chi ~ 4.5/bridge: above 1e8 the graph is as good as disconnected, and the
        # certificate must not skip its near-zero Fiedler eigenvalue.
        with pytest.raises(ValueError, match="disconnected"):
            gossip_from_laplacian(self.two_triangles(1e-9))
        w = gossip_from_laplacian(self.two_triangles(1e-6))
        assert w.chi == pytest.approx(4.5e6, rel=1e-5)
        assert np.linalg.eigvalsh(w.matrix)[1] == pytest.approx(1.0 / w.chi, rel=1e-6)

    def test_cyclic_sequences_match_one_graph_at_a_time(self):
        for seq in [StaticSequence(star_graph(5)), TwoStarHopSequence(7), RotatingStarSequence(6)]:
            for k in range(seq.period):
                one = gossip_from_laplacian(seq.graph(k))
                assert np.array_equal(seq.gossip(k).matrix, one.matrix) and seq.gossip(k).chi == one.chi

    def test_symmetry_and_zero_row_sums(self):
        rng = np.random.default_rng(0)
        for seq in [StaticSequence(star_graph(5)), TwoStarHopSequence(7), RotatingStarSequence(6)]:
            for k in range(seq.period or 1):
                w = seq.gossip(k).matrix
                assert np.max(np.abs(w - w.T)) < 1e-12
                assert np.max(np.abs(w.sum(axis=1))) < 1e-12


class TestApplyMixing:
    def test_consensus_maps_to_zero(self):
        w = gossip_from_laplacian(complete_graph(3))
        x = np.tile([1.5, -2.0], (3, 1))
        assert np.allclose(w.matrix @ x, 0.0)

    def test_two_node_eigenvector(self):
        # (u, -u) is the eigenvector of the 2-node gossip matrix at eigenvalue 1.
        w = gossip_from_laplacian(complete_graph(2))
        u = np.array([2.0, -1.0, 3.0])
        x = np.stack([u, -u])
        assert np.allclose(w.matrix @ x, x, atol=1e-12)

    def test_zero_in_zero_out(self):
        w = gossip_from_laplacian(star_graph(4))
        assert np.allclose(w.matrix @ np.zeros((4, 2)), 0.0)

    def test_output_mean_is_zero(self):
        rng = np.random.default_rng(3)
        for seq in [StaticSequence(star_graph(6)), TwoStarHopSequence(6)]:
            for k in range(seq.period):
                out = seq.gossip(k).matrix @ rng.standard_normal((6, 4))
                assert np.max(np.abs(out.mean(axis=0))) < 1e-10


class TestContraction:
    @pytest.mark.parametrize(
        "seq",
        [
            StaticSequence(star_graph(4)),
            StaticSequence(complete_graph(8)),
            TwoStarHopSequence(8),
            RotatingStarSequence(9),
            RandomGeometricSequence(10, 0.7, seed=5),
        ],
        ids=["star4", "complete8", "twostar8", "rotstar9", "geo10"],
    )
    def test_zero_mean_contraction(self, seq):
        rng = np.random.default_rng(11)
        chi = seq.chi if seq.chi is not None else measure_chi(seq, trials=6)
        for k in range(min(seq.period or 6, 6)):
            w = seq.gossip(k)
            bound = 1.0 - 1.0 / chi
            for _ in range(100):
                x = random_zero_mean(rng, seq.m)
                lhs = np.sum((w.matrix @ x - x) ** 2)
                assert lhs <= bound * np.sum(x * x) + 1e-10


class TestMeasureChi:
    def test_complete_two_nodes(self):
        assert measure_chi(StaticSequence(complete_graph(2)), trials=1) == pytest.approx(1.0, abs=1e-9)

    def test_star_four_nodes(self):
        chi = measure_chi(StaticSequence(star_graph(4)), trials=1)
        assert chi == pytest.approx(4.0, abs=1e-9)

    def test_two_star_hop_is_exact_worst_step(self):
        seq = TwoStarHopSequence(12)
        assert measure_chi(seq, trials=10 * seq.period) == seq.chi  # one period covers every step

    @pytest.mark.parametrize("m", [4, 8, 16, 25, 26, 40, 80])
    def test_two_star_hop_chi_grows_as_m_squared(self, m):
        # Measured over m = 4..80: 0.3030 (m = 80) to 0.3789 (m = 5).
        assert 0.30 <= TwoStarHopSequence(m).chi / m**2 <= 0.38

    def test_random_geometric_is_exact_worst_step(self):
        # Config seed 97's graphs, on which a power-iteration estimate over
        # sampled vectors fell 0.16% short of the worst step's exact chi.
        seq = RandomGeometricSequence(10, 0.7, seed=104826)
        exact = max(seq.gossip(k).chi for k in range(20))
        assert measure_chi(seq, trials=20) == pytest.approx(exact, rel=1e-12)

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            measure_chi(StaticSequence(star_graph(4)), trials=0)


class TestRandomGeometric:
    def test_small_m_large_radius_is_complete(self):
        seq = RandomGeometricSequence(2, 2.0, seed=0)
        for k in range(5):
            assert {(i, j) for i, j, _ in seq.graph(k).edges} == {(0, 1)}

    def test_connected_over_horizon(self):
        seq = RandomGeometricSequence(50, 0.3, seed=7)
        for k in range(1000):
            gossip_from_laplacian(seq.graph(k))  # raises if disconnected

    @pytest.mark.parametrize("m, radius, seed, resamples", RANDOM_GEOMETRIC_CASES)
    def test_gossip_bit_exact_with_graph_laplacian(self, m, radius, seed, resamples):
        seq = RandomGeometricSequence(m, radius, seed=seed)
        chis = []
        for k in range(300):
            w = seq.gossip(k)
            ref = gossip_from_laplacian(seq.graph(k))
            assert np.array_equal(w.matrix, ref.matrix)
            assert w.chi == ref.chi
            chis.append(w.chi)
        assert seq.built == 300
        assert seq.resamples == resamples
        assert seq.chi_max == max(chis)

    @pytest.mark.parametrize(
        "m, radius, seed, k, edges",
        # Steps that needed 14, 9, 2 and 2 resamples; edge lists frozen from the
        # WeightedGraph/BFS build, so the RNG stream and rejections cannot drift.
        [
            (10, 0.35, 2, 1, [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 8), (1, 9), (2, 3), (2, 5), (3, 5),
                              (4, 7), (4, 8), (6, 7), (6, 8), (6, 9), (7, 8)]),
            (10, 0.35, 2, 3, [(0, 6), (0, 9), (1, 3), (1, 7), (2, 4), (2, 9), (3, 4), (3, 5), (3, 6), (3, 8),
                              (4, 6), (4, 8), (4, 9), (5, 6), (6, 8), (6, 9), (8, 9)]),
            (10, 0.45, 1, 0, [(0, 2), (0, 3), (0, 5), (0, 8), (0, 9), (1, 2), (1, 7), (1, 9), (2, 3), (2, 5),
                              (2, 8), (2, 9), (3, 4), (3, 5), (3, 6), (3, 8), (4, 6), (5, 8), (5, 9), (8, 9)]),
            (10, 0.45, 1, 8, [(0, 1), (0, 4), (0, 7), (0, 8), (0, 9), (1, 4), (1, 7), (2, 3), (2, 5), (2, 6),
                              (2, 8), (2, 9), (3, 6), (3, 8), (3, 9), (5, 6), (5, 8), (5, 9), (6, 8), (6, 9),
                              (8, 9)]),
        ],
    )
    def test_resampled_steps_pinned(self, m, radius, seed, k, edges):
        seq = RandomGeometricSequence(m, radius, seed=seed)
        assert [(i, j) for i, j, _ in seq.graph(k).edges] == edges
        assert all(w == 1.0 for _, _, w in seq.graph(k).edges)

    def test_evicted_steps_rebuild_identically(self, monkeypatch):
        monkeypatch.setattr(RandomGeometricSequence, "CACHE_BLOCKS", 2)
        b = network.BLOCK
        served = (0, 8, b, 2 * b)  # the third block evicts the oldest, step 0's
        r0, r8, *_ = resamples = [per_step_reference(10, 0.45, 1, k)[1] for k in served]
        seq = RandomGeometricSequence(10, 0.45, seed=1)
        first, first_graph = seq.gossip(0), seq.graph(0)
        for k in served[1:]:
            seq.gossip(k)
        assert (seq.built, seq.resamples) == (4, sum(resamples)) and r8 > 0
        assert seq.graph(0) == first_graph
        rebuilt = seq.gossip(0)
        assert rebuilt is not first and np.array_equal(rebuilt.matrix, first.matrix) and rebuilt.chi == first.chi
        assert seq.built == 5  # step 0's block was evicted and rebuilt once, by graph(0)
        seq.gossip(8)
        assert (seq.built, seq.resamples) == (6, sum(resamples) + r0 + r8)  # rebuilt steps are charged again

    def test_graph_then_gossip_builds_the_step_once(self, monkeypatch):
        builds = count_builds(monkeypatch)
        seq = RandomGeometricSequence(10, 0.45, seed=1)
        edges = seq.graph(0).edges
        w = seq.gossip(0)
        assert seq.built == 1
        assert seq.graph(0).edges == edges and seq.gossip(0).matrix.tobytes() == w.matrix.tobytes()
        assert builds == [0] and seq.built == 1

    def test_dumped_steps_outlive_later_steps(self, monkeypatch):
        b = network.BLOCK
        monkeypatch.setattr(RandomGeometricSequence, "CACHE_BLOCKS", 2)
        monkeypatch.setattr(network, "DUMP_STEPS", 2)
        seq = RandomGeometricSequence(10, 0.45, seed=1)
        for k in range(4 * b):
            seq.gossip(k)
        built = seq.built
        dump_sequence(seq, 2, io.StringIO())
        assert seq.built == built  # steps 0 and 1 were still cached
        seq.gossip(2 * b)
        assert seq.built == built + 1  # step 2b's block was evicted before theirs

    def test_block_just_built_is_kept(self, monkeypatch):
        b = network.BLOCK
        monkeypatch.setattr(RandomGeometricSequence, "CACHE_BLOCKS", 2)
        monkeypatch.setattr(network, "DUMP_STEPS", 2 * b)
        builds = count_builds(monkeypatch)
        seq = RandomGeometricSequence(10, 0.45, seed=1)
        for k in (0, b, 2 * b, 2 * b + 1, b + 1, 1):  # the third block is the only one past DUMP_STEPS
            seq.gossip(k)
        assert builds == [0, b, 2 * b, 0]  # the oldest dumped block went instead

    @pytest.mark.parametrize("m, radius, seed", [case[:3] for case in RANDOM_GEOMETRIC_CASES])
    def test_reading_order_does_not_change_steps(self, m, radius, seed):
        """Forwards, backwards and block boundaries first: every step is bitwise the same."""
        steps = [*range(300), *range(network.DUMP_STEPS - 2, network.DUMP_STEPS + 2)]
        b, dump = network.BLOCK, network.DUMP_STEPS
        boundaries = [b, b - 1, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, dump, dump - 1, dump + 1]
        orders = [steps, steps[::-1], boundaries + [k for k in steps if k not in boundaries]]
        reads = []
        for order in orders:
            seq = RandomGeometricSequence(m, radius, seed=seed)
            read = {k: seq.gossip(k) for k in order}
            reads.append({k: (read[k], seq.graph(k).edges) for k in steps})
        for k in steps:
            (w, edges), *others = (read[k] for read in reads)
            for other, other_edges in others:
                assert np.array_equal(other.matrix, w.matrix)
                assert other.chi == w.chi
                assert other_edges == edges
        for k in boundaries:
            ref, _ = per_step_reference(m, radius, seed, k)
            assert np.array_equal(reads[0][k][0].matrix, ref.matrix)
            assert reads[0][k][0].chi == ref.chi

    def test_steps_over_certificate_counts_served_steps(self):
        """Set from measure_chi, as the harness does: the count is the served steps above it."""
        seq = RandomGeometricSequence(10, 0.45, seed=1)
        seq.certificate = measure_chi(seq, trials=20)
        order = [*range(300, 100, -1), *range(500)]  # revisits are charged once
        for k in order:
            seq.gossip(k)
        replay = RandomGeometricSequence(10, 0.45, seed=1)
        over = sum(replay.gossip(k).chi > seq.certificate for k in range(500))
        assert over > 0 and seq.steps_over_certificate == over
        assert StaticSequence(ring_graph(5)).steps_over_certificate == 0

    def test_dump_serves_through_gossip(self, monkeypatch):
        """The dump reads the cached block stacks: same bytes as edge by edge, with the
        counters charged for the dumped steps only, and a never-connected step still raises."""
        in_process(monkeypatch)
        seq = RandomGeometricSequence(10, 0.45, seed=1)
        steps = network.BLOCK + 5
        out = io.StringIO()
        dump_sequence(seq, steps, out)
        counters = (seq.built, seq.resamples, seq.chi_max)
        replay = RandomGeometricSequence(10, 0.45, seed=1)
        assert out.getvalue() == dump_through_graph(replay, steps)
        assert counters == (replay.built, replay.resamples, replay.chi_max) and seq.built == steps
        with pytest.raises(RuntimeError, match="step=0"):
            dump_sequence(RandomGeometricSequence(50, 1e-6, seed=0), 2, io.StringIO())

    def test_counters_charge_served_steps_only(self, monkeypatch):
        (w0, r0), (w5, r5) = (per_step_reference(10, 0.35, 2, k) for k in (0, 5))
        builds = count_builds(monkeypatch)
        seq = RandomGeometricSequence(10, 0.35, seed=2)
        seq.gossip(0)
        assert builds == [0]  # the whole block is built; only step 0 is charged
        assert (seq.built, seq.resamples, seq.chi_max) == (1, r0, w0.chi)
        seq.gossip(5)
        seq.gossip(5)
        assert builds == [0] and r5 > 0 and w5.chi > w0.chi
        assert (seq.built, seq.resamples, seq.chi_max) == (2, r0 + r5, w5.chi)

    def test_gt_page_traffic_builds_each_block_once(self, monkeypatch):
        """gt_page's reads (measure_chi, an 11-step window twice per iteration, then
        the dump) past a small bound: no block is built twice."""
        b, stages, iterations = network.BLOCK, 11, 60
        monkeypatch.setattr(RandomGeometricSequence, "CACHE_BLOCKS", 4)
        monkeypatch.setattr(network, "DUMP_STEPS", b + 10)  # two dumped blocks
        builds = count_builds(monkeypatch)
        seq = RandomGeometricSequence(10, 0.45, seed=1)
        measure_chi(seq, trials=20)
        x = np.ones((10, 1))
        for t in range(iterations):
            for _ in range(2):
                consensus_residual(seq, stages * t, stages, x, math.inf)
        dump_sequence(seq, network.DUMP_STEPS, io.StringIO())
        walked = stages * iterations
        assert builds == list(range(0, walked, b)) and len(builds) > 4
        assert seq.built == walked

    def test_gt_page_walk_seeds_one_chunk_per_sixteen_blocks(self, monkeypatch):
        """A README gt_page run's reads (measure_chi, then 800 windows of 11 steps) seed
        the replica once per chunk of SEED_BLOCKS blocks: 9 times for 8,800 steps."""
        seedings = count_seedings(monkeypatch)
        seq = RandomGeometricSequence(10, 0.45, seed=0)
        measure_chi(seq, trials=20)
        x = np.ones((10, 1))
        for t in range(800):
            consensus_residual(seq, 11 * t, 11, x, math.inf)
        chunk = network.SEED_BLOCKS * network.BLOCK
        assert seedings == list(range(0, 8800, chunk)) and len(seedings) == 9
        assert seq.built == 8800

    @pytest.mark.parametrize("block", [None, 7])
    def test_chunk_boundary_read_backwards(self, monkeypatch, block):
        """Steps 16 B, 16 B - 1 and 0 (B = BLOCK) sit in two chunks: each is seeded once,
        and the block of step 0 is sliced from the chunk that step 16 B - 1 seeded."""
        if block is not None:
            monkeypatch.setattr(network, "BLOCK", block)
        seedings = count_seedings(monkeypatch)
        edge = network.SEED_BLOCKS * network.BLOCK
        seq = RandomGeometricSequence(10, 0.35, seed=2)
        for k in (edge, edge - 1, 0):
            ref, _ = per_step_reference(10, 0.35, 2, k)
            w = seq.gossip(k)
            assert np.array_equal(w.matrix, ref.matrix) and w.chi == ref.chi
        assert seedings == [edge, 0]

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match=f"radius must be positive, got {radius}"):
            RandomGeometricSequence(10, radius, seed=0)

    def test_infinite_radius_is_complete(self):
        seq = RandomGeometricSequence(5, math.inf, seed=0)
        assert len(seq.graph(0).edges) == 10 and seq.gossip(70).chi == pytest.approx(1.0)

    def test_tiny_radius_errors(self):
        seq = RandomGeometricSequence(50, 1e-6, seed=0)
        with pytest.raises(RuntimeError, match="resamples"):
            seq.graph(0)
        # Every step of the block failed; the error names the step served, not its block.
        with pytest.raises(RuntimeError, match=r"\(m=50, radius=1e-06, step=5\)"):
            seq.gossip(5)
        assert (seq.built, seq.resamples) == (0, 2 * network.MAX_RETRIES)
        with pytest.raises(RuntimeError, match="step=5"):  # a failed step raises on every serve, charged once
            seq.gossip(5)
        assert (seq.built, seq.resamples) == (0, 2 * network.MAX_RETRIES)

    # 2**32 and 2**64 + 3 give SeedSequence three and four entropy words with the step;
    # 2**96 + 1 gives five, which takes its extra mixing loop.
    @pytest.mark.parametrize("seed", [0, 7, 9_000_027, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 1])
    @pytest.mark.parametrize("m", [10, 3])
    def test_replica_matches_default_rng(self, seed, m):
        steps = [0, 1, 31, 32, 127, 128, 129, *range(8800, 8832), 10**6, 2**32 - 1]
        draws = replica_draws(seed, steps, m, 3)
        for k, got in zip(steps, draws):
            rng = np.random.default_rng((seed, k))
            for d in range(3):
                assert np.array_equal(got[d], rng.uniform(size=(m, 2))), (k, d)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("k, size, count", [(0, 64, 110), (100, 7, 1), (2**32 - 1, 7, 2000)])
    def test_stream_generators_match_default_rng(self, seed, k, size, count):
        start, gens = network.stream_generators(seed, k, size)
        rows = [gen.random(count) for gen in gens]
        # The aligned block holding k, cut at 2**32.
        assert start == k - k % size and start + len(rows) == min(start + size, 2**32)
        for j, row in enumerate(rows, start):
            assert np.array_equal(row, np.random.default_rng((seed, j)).random(count)), j

    def test_redrawn_steps_match_reference(self):
        seq = RandomGeometricSequence(10, 0.35, seed=2)
        redraws = []
        for k in range(2 * network.BLOCK + 3):
            ref, resamples = per_step_reference(10, 0.35, 2, k)
            assert np.array_equal(seq.gossip(k).matrix, ref.matrix) and seq.gossip(k).chi == ref.chi
            redraws.append(resamples)
        assert seq.resamples == sum(redraws)
        assert sum(r >= 2 for r in redraws) > 50 and max(redraws) >= 10

    @pytest.mark.parametrize("m, radius, seed", [(10, 0.35, 2), (50, 0.3, 7)])
    def test_block_size_does_not_change_steps(self, monkeypatch, m, radius, seed):
        steps = [*range(300), 8800, 10**6]
        reads = []
        for block in (1, 7, 128):
            monkeypatch.setattr(network, "BLOCK", block)
            seq = RandomGeometricSequence(m, radius, seed=seed)
            matrices = [seq.gossip(k) for k in steps]
            reads.append((matrices, (seq.built, seq.resamples, seq.chi_max)))
        (first, counters), *others = reads
        for other, other_counters in others:
            assert other_counters == counters
            for w, v in zip(first, other):
                assert np.array_equal(w.matrix, v.matrix) and w.chi == v.chi

    def test_last_step_below_two_to_the_32(self):
        k = 2**32 - 1
        ref, _ = per_step_reference(10, 0.7, 5, k)
        assert np.array_equal(RandomGeometricSequence(10, 0.7, seed=5).gossip(k).matrix, ref.matrix)

    @pytest.mark.parametrize("k", [-1, 2**32])
    def test_step_out_of_range_rejected(self, k):
        with pytest.raises(ValueError, match="outside"):
            RandomGeometricSequence(10, 0.7, seed=5).gossip(k)

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            RandomGeometricSequence(10, 0.7, seed=-1)

    def test_deterministic_given_seed(self):
        a = RandomGeometricSequence(12, 0.5, seed=3)
        b = RandomGeometricSequence(12, 0.5, seed=3)
        for k in (0, 4, 9):
            assert a.graph(k).edges == b.graph(k).edges


class TestTwoStarHop:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            TwoStarHopSequence(3)

    def test_m4_period_two(self):
        seq = TwoStarHopSequence(4)
        assert seq.period == 2
        assert seq.graph(0).edges == seq.graph(2).edges
        assert seq.graph(0).edges != seq.graph(1).edges

    def test_m7_period_and_star_sizes(self):
        seq = TwoStarHopSequence(7)
        assert seq.period == 2 * (7 - 3)
        # First graph: left star of size 1 (center alone), right star of size 5.
        degrees = np.zeros(7, dtype=int)
        for i, j, _ in seq.graph(0).edges:
            degrees[i] += 1
            degrees[j] += 1
        assert degrees[0] == 1  # left center only touches the middle vertex
        assert degrees[1] == 5  # right center: 4 leaves + middle vertex

    def test_every_graph_is_a_tree(self):
        for m in (4, 7, 10):
            seq = TwoStarHopSequence(m)
            for k in range(seq.period):
                g = seq.graph(k)
                assert len(g.edges) == m - 1
                gossip_from_laplacian(g)  # raises if disconnected

    def test_consecutive_graphs_differ_by_one_hop(self):
        seq = TwoStarHopSequence(9)
        for k in range(2 * seq.period):
            prev, cur = ({(i, j) for i, j, _ in seq.graph(q).edges} for q in (k, k + 1))
            assert len(prev - cur) == 1
            assert len(cur - prev) == 1


class TestRotatingStar:
    def test_partition_sizes_enforced(self):
        with pytest.raises(ValueError):
            RotatingStarSequence(2)
        seq = RotatingStarSequence(10)
        assert (seq.s1, seq.s2, seq.s3) == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9))

    def test_m3_centers_rotate(self):
        seq = RotatingStarSequence(3)
        assert seq.centers == [2, 0, 2, 1]
        for k in range(2 * seq.period):
            assert seq.graph(k) == star_graph(3, center=seq.centers[k % seq.period])

    def test_spectral_gap_is_one_over_m(self):
        m = 9
        seq = RotatingStarSequence(m)
        for k in range(seq.period):
            mix = np.eye(m) - seq.gossip(k).matrix
            eigs = np.sort(np.linalg.eigvalsh(mix))
            assert 1.0 - eigs[-2] == pytest.approx(1.0 / m, abs=1e-9)


class TestMultiStageMix:
    def test_single_stage_equals_plain_mixing(self):
        seq = TwoStarHopSequence(6)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 3))
        assert np.allclose(x - consensus_residual(seq, 4, 1, x, math.inf), seq.gossip(4).matrix @ x)

    def test_matches_bruteforce_matrix_products(self):
        for m, stages in [(5, 3), (8, 5)]:
            seq = TwoStarHopSequence(m)
            rng = np.random.default_rng(m)
            x = rng.standard_normal((m, 2))
            prod = np.eye(m)
            for q in range(stages):
                prod = (np.eye(m) - seq.gossip(q).matrix) @ prod
            assert np.allclose(consensus_residual(seq, 0, stages, x, math.inf), prod @ x, atol=1e-12)

    def test_static_star_contracts_below_e_inverse(self):
        seq = StaticSequence(star_graph(4))
        stages = math.ceil(seq.chi)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = random_zero_mean(rng, 4)
            residual = consensus_residual(seq, 0, stages, x, math.inf)
            assert np.sum(residual**2) <= math.exp(-1) * np.sum(x * x)

    def test_consensus_maps_to_zero(self):
        seq = RotatingStarSequence(6)
        x = np.tile([3.0, -1.0], (6, 1))
        assert np.allclose(x - consensus_residual(seq, 0, 4, x, math.inf), 0.0, atol=1e-12)


def matmul_residual(seq, start_step, stages, x):
    """Multi-stage consensus written with ``@``: the reference consensus_residual is bitwise equal to."""
    for q in range(start_step, start_step + stages):
        x = x - seq.gossip(q).matrix @ x
    return x


def residual_inputs(rng, m, d=20):
    """A C-contiguous, a column-strided and a Fortran-ordered node vector."""
    return [rng.standard_normal((m, d)), rng.standard_normal((m, 2 * d))[:, ::2],
            np.asfortranarray(rng.standard_normal((m, d)))]


class TestResidualBitwise:
    """consensus_residual multiplies by ``ndarray.dot``; every product is bitwise the ``@`` one."""

    @pytest.mark.parametrize("piped", [False, True], ids=["in-process", "piped"])
    def test_random_geometric(self, monkeypatch, piped):
        if not piped:
            in_process(monkeypatch)
        elif not network._builder_can_run():
            pytest.skip("this host builds every block in-process")
        stages, iterations = 11, 40  # a forward walk over 7 blocks, like gt_page's
        seq = RandomGeometricSequence(10, 0.45, seed=1)
        measure_chi(seq, trials=20)
        inputs = residual_inputs(np.random.default_rng(3), 10)
        for t in range(iterations):
            for x in inputs:
                got = consensus_residual(seq, stages * t, stages, x, math.inf)
                assert got.tobytes() == matmul_residual(seq, stages * t, stages, x).tobytes()
        assert (seq.builder_blocks > 0) == piped
        seq.close()

    @pytest.mark.parametrize("make", [lambda: RotatingStarSequence(10), lambda: StaticSequence(ring_graph(10))],
                             ids=["rotating-star", "static-ring"])
    def test_cyclic(self, make):
        seq = make()
        stages = math.ceil(seq.chi)
        for x in residual_inputs(np.random.default_rng(4), 10):
            for start in range(0, 3 * stages, stages):
                got = consensus_residual(seq, start, stages, x, math.inf)
                assert got.tobytes() == matmul_residual(seq, start, stages, x).tobytes()

    # gt_page mixes [x | v] in one call: each half must be bitwise its own mix (m = 10 < 16).
    @pytest.mark.parametrize("make, start, stages", [
        (lambda: RandomGeometricSequence(10, 0.7, seed=0), network.BLOCK - 4, 11),  # straddles a block
        (lambda: TwoStarHopSequence(10), 5, 34),  # ceil(chi) steps: 2.4 periods of 14
    ], ids=["random-geometric", "two-star-hop"])
    def test_stacked_halves_mix_alone(self, monkeypatch, make, start, stages):
        in_process(monkeypatch)
        seq = make()
        rng = np.random.default_rng(5)
        for _ in range(5):
            x, v = rng.standard_normal((2, 10, 20))
            both = consensus_residual(seq, start, stages, np.concatenate((x, v), axis=1), math.inf)
            assert both[:, :20].tobytes() == consensus_residual(seq, start, stages, x, math.inf).tobytes()
            assert both[:, 20:].tobytes() == consensus_residual(seq, start, stages, v, math.inf).tobytes()
        seq.close()


class TestWindow:
    """``window(start, stages)`` serves the per-step ``gossip`` matrices and ``chi`` bitwise, and
    a window walk charges the random-geometric counters as a per-step walk does."""

    @pytest.mark.parametrize("make, start, stages", [
        (lambda: RandomGeometricSequence(10, 0.45, seed=1), 3, 11),
        (lambda: RandomGeometricSequence(10, 0.45, seed=1), 60, 11),
        (lambda: RandomGeometricSequence(10, 0.45, seed=1), 30, 2 * network.BLOCK + 5),
        (lambda: TwoStarHopSequence(10), 9, 20),  # the period is 14
    ], ids=["one-block", "block-boundary", "three-blocks", "cyclic-across-period"])
    def test_window_is_the_per_step_gossip(self, monkeypatch, make, start, stages):
        in_process(monkeypatch)
        seq, reference, steps = make(), make(), range(start, start + stages)
        matrices, chi = seq.window(start, stages)
        assert matrices.shape == (stages, 10, 10) and chi.shape == (stages,)
        assert matrices.tobytes() == b"".join(reference.gossip(k).matrix.tobytes() for k in steps)
        assert chi.tolist() == [reference.gossip(k).chi for k in steps]

    @pytest.mark.parametrize("certificate", [math.inf, 12.0], ids=["uncertified", "certified"])
    @pytest.mark.parametrize("m, radius, seed, retries", [
        (10, 0.45, 1, None), (10, 0.35, 2, 3), (50, 1e-6, 0, 3),
    ], ids=["connected", "some-never-connect", "tiny-radius"])
    def test_window_walk_charges_as_a_per_step_walk(self, monkeypatch, m, radius, seed, retries, certificate):
        """11-step windows past five blocks and back to block 0, evicted by then and charged again on
        its rebuild; a window stops at a step that never connects, as the per-step walk does."""
        in_process(monkeypatch)
        monkeypatch.setattr(RandomGeometricSequence, "CACHE_BLOCKS", 3)
        monkeypatch.setattr(network, "DUMP_STEPS", 0)
        if retries is not None:
            monkeypatch.setattr(network, "MAX_RETRIES", retries)
        stages = 11
        starts = [*range(0, 5 * network.BLOCK, stages), *range(0, 3 * stages, stages)]
        windowed, per_step = (RandomGeometricSequence(m, radius, seed=seed) for _ in range(2))
        windowed.certificate = per_step.certificate = certificate
        failures = ([], [])
        for start in starts:
            try:
                windowed.window(start, stages)
            except RuntimeError as err:
                failures[0].append(str(err))
            for k in range(start, start + stages):
                try:
                    per_step.gossip(k)
                except RuntimeError as err:
                    failures[1].append(str(err))
                    break
        counters = [(s.built, s.resamples, s.chi_max, s.steps_over_certificate) for s in (windowed, per_step)]
        assert counters[0] == counters[1] and failures[0] == failures[1]
        if retries is None:
            assert windowed.built == 330 + 33  # steps 0..329, then steps 0..32 rebuilt
            assert (windowed.steps_over_certificate > 0) == (certificate < math.inf)
        else:
            assert failures[0] and windowed.resamples >= len(failures[0]) * retries

    def test_certificate_is_read_when_the_served_steps_are_charged(self, monkeypatch):
        """A served step counts against the ``certificate`` in force when its block is charged: a cached
        step against the current one, each time the counters are read, an evicted step against the one
        in force at its eviction, which it keeps."""
        in_process(monkeypatch)
        monkeypatch.setattr(RandomGeometricSequence, "CACHE_BLOCKS", 3)
        monkeypatch.setattr(network, "DUMP_STEPS", 0)
        b = network.BLOCK
        replay = RandomGeometricSequence(10, 0.45, seed=1)
        chis = np.array([replay.gossip(k).chi for k in range(5 * b)])
        low, high = np.quantile(chis, [0.3, 0.9]).tolist()

        def over(steps, certificate):
            return int(np.count_nonzero(chis[steps] > certificate))

        evicted, cached = slice(0, 2 * b), slice(2 * b, 5 * b)
        seq = RandomGeometricSequence(10, 0.45, seed=1)
        seq.certificate = low  # set before the walk, as the harness sets it
        for k in range(5 * b):  # blocks 0 and 1 are evicted, and charged, on the way
            seq.gossip(k)
        assert seq.built == 5 * b and seq.steps_over_certificate == over(slice(None), low) > 0
        seq.certificate = high  # mid-walk: the cached steps count against it, the evicted ones keep theirs
        charged = over(evicted, low) + over(cached, high)
        assert seq.steps_over_certificate == charged
        assert over(slice(None), high) < charged < over(slice(None), low)
        for k in range(20):  # block 0 rebuilt: block 2, the oldest, is evicted and charged against high
            seq.gossip(k)
        seq.certificate = low
        block2, rest = slice(2 * b, 3 * b), slice(3 * b, 5 * b)
        assert seq.built == 5 * b + 20
        charged = over(evicted, low) + over(block2, high) + over(rest, low) + over(slice(0, 20), low)
        assert seq.steps_over_certificate == charged
        assert over(block2, high) < over(block2, low)

    @pytest.mark.parametrize("make", [
        lambda: StaticSequence(ring_graph(5)), lambda: StaticSequence(complete_graph(5)), lambda: TwoStarHopSequence(6),
        lambda: RotatingStarSequence(6), lambda: RandomGeometricSequence(10, 0.45, seed=1),
    ], ids=["static", "complete", "two-star-hop", "rotating-star", "random-geometric"])
    def test_window_fields_are_none_until_a_window_is_certified(self, monkeypatch, make):
        """Serving windows and steps certifies nothing; the first window that ``consensus_residual``
        certifies, with its bound below its contraction, sets the fields to ``bound, 0, 0.0``.  A complete
        graph's ``chi`` is 1, so its bound is exactly 0.0 and the fields read ``0.0, 0, 0.0``."""
        in_process(monkeypatch)
        seq = make()
        seq.window(0, 3)
        seq.gossip(5)
        measure_chi(seq, trials=4)
        fields = ("window_bound_max", "windows_checked_exactly", "window_norm_max")
        assert [getattr(seq, name) for name in fields] == [None, None, None]
        bound = math.prod(1.0 - 1.0 / c for c in seq.window(0, 3)[1].tolist())
        consensus_residual(seq, 0, 3, random_zero_mean(np.random.default_rng(7), seq.m), contraction=1.0)
        assert [getattr(seq, name) for name in fields] == [bound, 0, 0.0] and type(seq.windows_checked_exactly) is int
        assert (bound == 0.0) == (seq.chi == 1.0) and bound < 1.0
        seq.close()

    @pytest.mark.parametrize("graph, stages", [(star_graph(5), 4), (path_graph(9), 8)], ids=["star-5", "path-9"])
    def test_certificate_allows_rounding_at_the_exact_contraction(self, graph, stages):
        """A static graph's window contracts by exactly ``(1 - 1/chi)^stages``, what a schedule of fewer
        than ``ceil(chi)`` stages assumes; the computed bound lands an ulp above it, and so would the norm."""
        seq = StaticSequence(graph)
        contraction = (1.0 - 1.0 / seq.chi) ** stages
        consensus_residual(seq, 0, stages, random_zero_mean(np.random.default_rng(6), graph.m), contraction)
        assert 0 < seq.window_bound_max - contraction < 1e-15 and seq.windows_checked_exactly == 0


class TestSerialization:
    def test_round_trip(self):
        seq = TwoStarHopSequence(7)
        buf = io.StringIO()
        dump_sequence(seq, 5, buf)
        assert buf.getvalue() == dump_through_graph(seq, 5)

    # Random-geometric dumps end inside, and just past, a block; the cyclic ones (periods 74
    # and 66, both longer than a block) end inside, at the end of, and past their period.
    @pytest.mark.parametrize(
        "make, steps",
        [
            *((lambda: RandomGeometricSequence(10, 0.45, seed=1), steps)
              for steps in (1, network.BLOCK - 1, network.BLOCK + 1, network.DUMP_STEPS)),
            *((lambda: TwoStarHopSequence(40), steps) for steps in (37, 74, 185)),
            *((lambda: RotatingStarSequence(100), steps) for steps in (33, 66, 165)),
            (lambda: StaticSequence(WeightedGraph(4, ((0, 1, 0.1), (1, 2, 2.5), (2, 3, 1 / 3), (3, 0, 1e-3)))), 300),
        ],
        ids=["random-geometric-1", "random-geometric-block-1", "random-geometric-block+1", "random-geometric-dump",
             "two-star-hop-half-period", "two-star-hop-period", "two-star-hop-2.5-periods",
             "rotating-star-half-period", "rotating-star-period", "rotating-star-2.5-periods", "weighted-static"],
    )
    def test_dump_matches_graph_round_trip(self, make, steps):
        seq = make()
        out = io.StringIO()
        dump_sequence(seq, steps, out)
        assert out.getvalue() == dump_through_graph(seq, steps)


def walk(seq, steps):
    """Serve ``steps`` in order: each step's (matrix bytes, chi) or its error message, then the counters."""
    served = []
    for k in steps:
        try:
            w = seq.gossip(k)
            served.append((w.matrix.tobytes(), w.chi))
        except RuntimeError as err:
            served.append(str(err))
    return served, (seq.built, seq.resamples, seq.chi_max)


def cached_blocks(seq):
    """Each cached random-geometric block's buffer bytes, by block start: its fields tile the buffer."""
    return {start: b"".join(f.tobytes() for f in fields) for start, (fields, *_) in seq._blocks.items()}


class TestBuilderChild:
    """A forward walk forks a builder child that builds the blocks ahead; it serves the same bits."""

    @pytest.fixture(autouse=True)
    def child_on_any_host(self, monkeypatch):
        monkeypatch.setattr(network, "_builder_can_run", lambda: True)

    def walk_both_ways(self, monkeypatch, m, radius, seed, steps, kill_after=None, sig=signal.SIGKILL):
        """The walk served with the child (sent ``sig`` after step ``kill_after``, if given) and in-process,
        the sequence that served it with the child, closed, and both walks' cached block buffers."""
        seq = RandomGeometricSequence(m, radius, seed=seed)
        first, _ = walk(seq, steps[: kill_after or 0])
        if kill_after is not None:
            os.kill(seq._child[0], sig)
        rest, counters = walk(seq, steps[kill_after or 0 :])
        seq.close()
        in_process(monkeypatch)
        reference = RandomGeometricSequence(m, radius, seed=seed)
        served = walk(reference, steps)
        assert reference.builder_blocks == 0
        return (first + rest, counters), served, seq, (cached_blocks(seq), cached_blocks(reference))

    @pytest.mark.parametrize("m, radius, seed", [(10, 0.7, 0), (10, 0.35, 2), (50, 0.3, 7)])
    def test_piped_walk_matches_in_process(self, monkeypatch, m, radius, seed):
        steps = range(5 * network.BLOCK + 3)
        piped_walk, reference, seq, (blocks, reference_blocks) = self.walk_both_ways(
            monkeypatch, m, radius, seed, steps
        )
        assert piped_walk == reference
        assert blocks == reference_blocks and len(blocks) == 6  # also the steps of block 5 that no walk served
        assert seq.builder_blocks == 4  # blocks 2..5: block 1 is built in-process while the child starts on block 2

    def test_step_that_never_connects_fails_alike(self, monkeypatch):
        monkeypatch.setattr(network, "MAX_RETRIES", 3)  # before the fork: the child draws at most 3 times too
        steps = range(4 * network.BLOCK)
        (served, counters), reference, seq, (blocks, reference_blocks) = self.walk_both_ways(
            monkeypatch, 10, 0.35, 2, steps
        )
        assert (served, counters) == reference and seq.builder_blocks == 2
        assert blocks == reference_blocks and len(blocks) == 4  # per-step resample counts and connected flags
        failed = [k for k, step in zip(steps, served) if isinstance(step, str)]
        assert any(k >= 2 * network.BLOCK for k in failed)  # some in a block the child built
        k = failed[-1]
        assert served[k] == f"no connected geometric graph after 3 resamples (m=10, radius=0.35, step={k}); increase the radius"

    def test_killed_child_leaves_the_walk_in_process(self, monkeypatch):
        b = network.BLOCK
        steps = range(6 * b)
        walked, reference, seq, _ = self.walk_both_ways(monkeypatch, 10, 0.35, 2, steps, kill_after=3 * b + 5)
        assert walked == reference
        assert 2 <= seq.builder_blocks <= 3  # blocks 2 and 3, and block 4 if the pipe held it whole; block 5 in-process

    def test_stopped_child_leaves_the_walk_in_process(self, monkeypatch):
        monkeypatch.setattr(RandomGeometricSequence, "PIPE_TIMEOUT", 0.2)
        b = network.BLOCK
        steps = range(6 * b)
        walked, reference, seq, _ = self.walk_both_ways(
            monkeypatch, 10, 0.35, 2, steps, kill_after=3 * b + 5, sig=signal.SIGSTOP
        )
        assert walked == reference
        assert 2 <= seq.builder_blocks <= 3  # what the pipe held whole when the child stopped; the rest in-process

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the walk may use one CPU: no other to pin the child to")
    def test_child_is_pinned_off_the_walks_cpu(self):
        seq = RandomGeometricSequence(10, 0.7, seed=0)
        for k in range(3 * network.BLOCK):
            seq.gossip(k)
        pinned, walker = os.sched_getaffinity(seq._child[0]), os.sched_getaffinity(0)
        seq.close()
        assert seq.builder_pinned and seq.builder_blocks == 1
        assert pinned and pinned < walker

    def test_unpinned_child_serves_the_same_walk(self, monkeypatch):
        def refuse(pid, cpus):
            raise PermissionError("sched_setaffinity refused")

        monkeypatch.setattr(network.os, "sched_setaffinity", refuse)
        steps = range(5 * network.BLOCK + 3)
        walked, reference, seq, (blocks, reference_blocks) = self.walk_both_ways(monkeypatch, 10, 0.7, 0, steps)
        assert walked == reference and blocks == reference_blocks
        assert seq.builder_blocks == 4 and not seq.builder_pinned

    def test_close_reaps_the_child_and_stops_forking(self):
        seq = RandomGeometricSequence(10, 0.7, seed=0)
        for k in range(3 * network.BLOCK):
            seq.gossip(k)
        pid = seq._child[0]
        seq.close()
        assert not child_left()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        for k in range(3 * network.BLOCK, 6 * network.BLOCK):
            seq.gossip(k)
        assert seq.builder_blocks == 1 and not child_left()  # no second child

    def test_collected_sequence_reaps_its_child(self):
        seq = RandomGeometricSequence(10, 0.7, seed=0)
        for k in range(3 * network.BLOCK):
            seq.gossip(k)
        assert seq.builder_blocks == 1 and child_left()
        del seq
        assert not child_left()

    def test_run_experiment_leaves_no_child(self, monkeypatch, tmp_path):
        seqs, real_build = [], harness._build_sequence

        def build_sequence(cfg):
            seqs.append(real_build(cfg))
            return seqs[-1]

        monkeypatch.setattr(harness, "_build_sequence", build_sequence)
        cfg = harness.ExperimentConfig().replace(
            method="gt_baseline", objective="chain", topology="random-geometric", m=6, n=2,
            budget_iters=300, out=str(tmp_path),
        )
        harness.run_experiment(cfg)
        assert seqs[-1].builder_blocks == 3 and not child_left()  # steps 0..299: blocks 2, 3 and 4

        real_step = GtBaseline.step

        def step(self, state, obj, seq, seed):
            if state.k == 250:
                raise DivergenceError("diverged")
            return real_step(self, state, obj, seq, seed)

        monkeypatch.setattr(GtBaseline, "step", step)
        with pytest.raises(RunAbort, match="^diverged$"):
            harness.run_experiment(cfg)
        assert seqs[-1].builder_blocks == 2 and not child_left()  # steps 0..249: blocks 2 and 3


def test_consensus_error_zero_at_consensus():
    x = np.tile([1.0, -2.0], (5, 1))
    assert consensus_error(x) == 0.0
