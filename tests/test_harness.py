import dataclasses
import json
import math
import os

import numpy as np
import pytest

import gossipvr.harness as harness
import gossipvr.network as network
from gossipvr.harness import (
    ExperimentConfig,
    _build_sequence,
    parse_libsvm,
    partition_dataset,
    reference_solution,
    run_experiment,
    main,
)
from gossipvr.hardinstances import ChainObjective
from gossipvr.objectives import SmoothnessInfo, CallableFiniteSum, FiniteSumObjective, logistic_objective
from gossipvr.optimizers import AdomVrParams, RunAbort

from test_network import dump_through_graph
from test_objectives import make_shards


class TestParseLibsvm:
    def test_basic_line(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text("+1 1:0.5 3:2\n")
        features, labels = parse_libsvm(f)
        assert labels.tolist() == [1.0]
        assert features[0] == pytest.approx([0.5, 0.0, 2.0])

    def test_label_only_line(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text("+1 2:1\n-1\n")
        features, labels = parse_libsvm(f)
        assert labels[1] == -1.0
        assert features[1].tolist() == [0.0, 0.0]

    def test_zero_index_rejected(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text("1 0:3\n")
        with pytest.raises(ValueError, match=">= 1"):
            parse_libsvm(f)

    def test_malformed_pair_reports_line(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text("1 1:1\n1 2;3\n")
        with pytest.raises(ValueError, match=":2"):
            parse_libsvm(f)

    @pytest.mark.parametrize("line", ["nan 1:0.5", "-inf 1:0.5", "1 1:0.5 2:nan", "1 1:inf", "1 2:-inf"])
    def test_non_finite_rejected_with_line(self, tmp_path, line):
        f = tmp_path / "toy.libsvm"
        f.write_text(f"1 1:1\n{line}\n")
        with pytest.raises(ValueError, match=r"toy\.libsvm:2: non-finite"):
            parse_libsvm(f)

    def test_repeated_feature_index_rejected_with_line(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text("1 1:1\n1 1:0.5 1:0.7 2:1\n")
        with pytest.raises(ValueError, match=r"toy\.libsvm:2: feature index 1 repeated"):
            parse_libsvm(f)

    def test_binary_01_labels_remapped(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text("0 1:1\n1 1:2\n")
        _, labels = parse_libsvm(f)
        assert labels.tolist() == [-1.0, 1.0]

    def test_feature_cap(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text("1 900000:1\n")
        with pytest.raises(ValueError, match="cap"):
            parse_libsvm(f)
        assert parse_libsvm(f, max_features=10**6)[0].shape == (1, 900000)

    def test_first_failure_in_file_order_wins(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text("1 1:1\n1 2;3\nx 1:1\n")
        with pytest.raises(ValueError, match=r"toy\.libsvm:2: malformed pair '2;3'"):
            parse_libsvm(f)
        f.write_text("1 1:1\n1 1:nan 2;3\n")
        with pytest.raises(ValueError, match=r"toy\.libsvm:2: non-finite value '1:nan'"):
            parse_libsvm(f)

    def test_colon_count_is_checked_per_token(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text("1 4 1:2:3\n")  # two pair tokens and two colons, but not one colon each
        with pytest.raises(ValueError, match=r"toy\.libsvm:1: malformed pair '4'"):
            parse_libsvm(f)
        f.write_text("1 1:2:3\n")
        with pytest.raises(ValueError, match=r"toy\.libsvm:1: non-numeric pair '1:2:3'"):
            parse_libsvm(f)

    def test_index_beyond_int64_reports_the_cap(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_text(f"1 1:1 {2**64}:1\n")
        with pytest.raises(ValueError, match=f"feature index {2**64} exceeds the cap 100000"):
            parse_libsvm(f)
        with pytest.raises(ValueError, match="too large to densify"):
            parse_libsvm(f, max_features=2**70)

    def test_layout_variants_parse_as_the_reference(self, tmp_path):
        f = tmp_path / "toy.libsvm"
        f.write_bytes(b"0 1:1 3:-0.0\r\n  # indented comment\r\n1\r\n\t1 2:2.5e-3\r\n0\r\n")
        features, labels = parse_libsvm(f)
        assert_same_data((features, labels), reference_parse(f))
        assert labels.tolist() == [-1.0, 1.0, 1.0, -1.0]
        assert features[1].tolist() == [0.0, 0.0, 0.0]

    def test_round_trip(self, tmp_path, fixture_path):
        features, labels = parse_libsvm(fixture_path)
        out = tmp_path / "echo.libsvm"
        with open(out, "w") as handle:
            for vec, label in zip(features, labels):
                feats = " ".join(f"{i + 1}:{float(v)!r}" for i, v in enumerate(vec) if v != 0.0)
                handle.write(f"{float(label)!r} {feats}".rstrip() + "\n")
        again_features, again_labels = parse_libsvm(out)
        assert np.array_equal(again_labels, labels)
        assert np.array_equal(again_features, features)

    def test_fixture_shape(self, fixture_path):
        features, labels = parse_libsvm(fixture_path)
        assert features.shape == (500, 20) and labels.shape == (500,)


def reference_parse(path):
    """Token-by-token reader: the reference that ``parse_libsvm``'s bulk passes must match bit for bit."""
    raw, max_idx = [], 0
    with open(path) as handle:
        for line in handle:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            pairs = {}
            for token in parts[1:]:
                idx_s, val_s = token.split(":", 1)
                pairs[int(idx_s)] = float(val_s)
                max_idx = max(max_idx, int(idx_s))
            raw.append((float(parts[0]), pairs))
    remap = {label for label, _ in raw} == {0.0, 1.0}
    vecs, labels = [], []
    for label, pairs in raw:
        vec = np.zeros(max_idx)
        for idx, val in pairs.items():
            vec[idx - 1] = val
        vecs.append(vec)
        labels.append(-1.0 if remap and label == 0.0 else label)
    return np.stack(vecs), np.array(labels)


def reference_partition(data, m, n, seed):
    """Row-by-row partition: the reference for ``partition_dataset``."""
    features, labels = data
    order = np.random.default_rng(seed).permutation(len(labels))
    base, extra = divmod(len(labels), m)
    shards, cursor = [], 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        picked = order[cursor : cursor + size]
        cursor += size
        feats = np.stack([features[r] for r in picked])
        own = np.array([float(labels[r]) for r in picked])
        shards.append((feats, own, tuple(np.arange(j, size, n) for j in range(n))))
    return shards


def assert_same_data(got, want):
    """The ``(features, labels)`` pairs agree in dtype, shape and bytes."""
    for arr, ref in zip(got, want, strict=True):
        assert arr.dtype == ref.dtype == np.float64 and arr.shape == ref.shape and arr.tobytes() == ref.tobytes()


def synthetic_libsvm(path, rows=2000, d=37, seed=19):
    """Seeded sparse file with label-only rows, unsorted indices, -0.0, exponents and comment lines."""
    rng = np.random.default_rng(seed)
    lines = ["# synthetic"]
    for r in range(rows):
        cols = rng.permutation(d)[: rng.integers(0, 9)] + 1
        vals = rng.normal(scale=10.0 ** rng.integers(-5, 5), size=cols.size)
        vals[rng.random(cols.size) < 0.05] = -0.0
        pairs = " ".join(f"{c}:{float(v)!r}" for c, v in zip(cols, vals))
        lines.append(f"{rng.choice(['+1', '-1', '1.0', '-1e0'])} {pairs}")
        if r % 500 == 7:
            lines.append("   # indented comment")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestIngestionPin:
    """``parse_libsvm`` and ``partition_dataset`` equal the token-by-token reference byte for byte."""

    @pytest.fixture(params=["fixture", "synthetic"])
    def dataset(self, request, tmp_path, fixture_path):
        return fixture_path if request.param == "fixture" else synthetic_libsvm(tmp_path / "synthetic.libsvm")

    def test_rows(self, dataset):
        assert_same_data(parse_libsvm(dataset), reference_parse(dataset))

    def test_shards(self, dataset):
        data = parse_libsvm(dataset)
        for m, n, seed in ((10, 10, 4), (7, 9, 3)):
            shards = partition_dataset(data, m, n, seed)
            want = reference_partition(reference_parse(dataset), m, n, seed)
            assert [s.node for s in shards] == list(range(m))
            for shard, (feats, labels, blocks) in zip(shards, want):
                assert shard.features.shape == feats.shape and shard.features.tobytes() == feats.tobytes()
                assert shard.labels.dtype == labels.dtype and shard.labels.tobytes() == labels.tobytes()
                assert all(np.array_equal(a, b) for a, b in zip(shard.block_rows, blocks, strict=True))

    def test_synthetic_blocks_are_unequal(self, tmp_path):
        shards = partition_dataset(parse_libsvm(synthetic_libsvm(tmp_path / "s.libsvm")), 7, 9, 3)
        assert len({rows.size for s in shards for rows in s.block_rows}) > 1


class TestPartition:
    def make_rows(self, count, d=3):
        return np.repeat(np.arange(count, dtype=float)[:, None], d, axis=1), np.ones(count)

    def test_even_split(self):
        shards = partition_dataset(self.make_rows(6), m=2, n=3, seed=0)
        assert [s.features.shape[0] for s in shards] == [3, 3]
        for s in shards:
            assert [rows.size for rows in s.block_rows] == [1, 1, 1]

    def test_remainder_spread_from_node_zero(self):
        shards = partition_dataset(self.make_rows(7), m=2, n=3, seed=0)
        assert [s.features.shape[0] for s in shards] == [4, 3]

    def test_deterministic(self):
        a = partition_dataset(self.make_rows(10), m=2, n=2, seed=5)
        b = partition_dataset(self.make_rows(10), m=2, n=2, seed=5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.features, sb.features)

    def test_too_few_rows_errors(self):
        with pytest.raises(ValueError, match="components"):
            partition_dataset(self.make_rows(5), m=2, n=3, seed=0)

    def test_label_count_must_match_rows(self):
        features, labels = self.make_rows(7)
        with pytest.raises(ValueError, match="7 feature rows for 6 labels"):
            partition_dataset((features, labels[:6]), m=2, n=3, seed=0)

    def test_every_row_lands_in_one_block(self):
        shards = partition_dataset(self.make_rows(11), m=3, n=2, seed=1)
        for s in shards:
            seen = np.concatenate(s.block_rows)
            assert sorted(seen.tolist()) == list(range(s.features.shape[0]))


class TestReferenceSolution:
    def test_one_dimensional_quadratic(self):
        info = SmoothnessInfo(L=1.0, mu=1.0, L_ij=np.ones((1, 1)), Lhat=1.0)
        obj = CallableFiniteSum([[lambda w: (0.5 * (w[0] - 3.0) ** 2, np.array([w[0] - 3.0]))]], 1, info)
        ref = reference_solution(obj)
        assert ref.x_star[0] == pytest.approx(3.0, abs=1e-12)

    def test_chain_matches_geometric_series(self):
        obj = ChainObjective(4, 2, 4.0, 1.0, dim=12)
        ref = reference_solution(obj, tolerance=1e-13)
        target = obj.x_star()
        assert np.max(np.abs(ref.x_star - target)) < 1e-6

    def test_logistic_self_certifies(self):
        rng = np.random.default_rng(0)
        obj = logistic_objective(make_shards(rng, m=2, n=2, d=4), 0.1)
        ref = reference_solution(obj, tolerance=1e-11)
        assert np.linalg.norm(obj.average_gradient(ref.x_star)) < 1e-10

    def test_node_gradients_average_to_zero_at_solution(self):
        rng = np.random.default_rng(2)
        obj = logistic_objective(make_shards(rng, m=3, n=2, d=4), 0.2)
        ref = reference_solution(obj, tolerance=1e-12)
        stacked = obj.stacked_gradient(np.tile(ref.x_star, (obj.m, 1)))
        assert np.linalg.norm(stacked.mean(axis=0)) < 1e-10

    def test_nonconvex_rejected(self):
        rng = np.random.default_rng(1)
        from gossipvr.objectives import nlls_objective

        obj = nlls_objective(make_shards(rng, labels="real"), probe_pairs=50)
        with pytest.raises(ValueError, match="strongly convex"):
            reference_solution(obj)


class TestExperimentConfig:
    def test_unknown_method_names_valid_values(self):
        cfg = ExperimentConfig(method="sgd")
        with pytest.raises(ValueError, match="adom_vr, gt_page, gt_baseline"):
            cfg.validate()

    def test_config_file_round_trip(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("method=gt_page\nm=4\nradius=0.5\n# comment\n\nseed=3\n")
        cfg = ExperimentConfig.from_file(f)
        assert cfg.method == "gt_page"
        assert cfg.m == 4
        assert cfg.radius == 0.5
        assert cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("m=4\n# comment\nmomentum=0.9\n")
        with pytest.raises(ValueError, match=r"exp\.cfg:3: unknown config key 'momentum'"):
            ExperimentConfig.from_file(f)

    @pytest.mark.parametrize(
        "text, match",
        [("m=4\nseed=1\n m = 7\n", r"exp\.cfg:3: config key 'm' repeated"), ("m=4\nradius=wide\n", r"exp\.cfg:2: could not convert")],
        ids=["repeated-key", "bad-value"],
    )
    def test_bad_line_named(self, tmp_path, text, match):
        f = tmp_path / "exp.cfg"
        f.write_text(text)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_file(f)


class TestRunExperiment:
    def small_cfg(self, tmp_path, fixture_path, **kw):
        base = dict(
            method="adom_vr",
            objective="chain",
            topology="static-ring",
            m=4,
            n=2,
            budget_iters=5,
            metric_every=1,
            out=str(tmp_path / "runs"),
            seed=1,
        )
        base.update(kw)
        if base["objective"] in ("logistic", "nlls"):
            base["dataset"] = str(fixture_path)
        return ExperimentConfig().replace(**base)

    def test_chain_run_writes_csv_and_meta(self, tmp_path, fixture_path):
        cfg = self.small_cfg(tmp_path, fixture_path)
        trace, csv_path, meta_path = run_experiment(cfg)
        text = csv_path.read_text().splitlines()
        assert text[0] == "iter,comms,oracle_calls,dist_sq,grad_norm_sq,consensus_err"
        assert len(text) >= 2
        meta = json.loads(meta_path.read_text())
        assert meta["config"]["method"] == "adom_vr"
        assert meta["chi"] >= 1.0
        assert "tau2" in meta["parameters"]

    def test_adom_sidecar_parameters_are_the_params_fields(self, tmp_path, fixture_path):
        # The README adom_vr run, cut to 5 iterations: the sidecar's table is the schedule alone.
        cfg = self.small_cfg(
            tmp_path, fixture_path, objective="logistic", topology="random-geometric", m=10, n=10, reg=0.1, seed=4,
        )
        _, _, meta_path = run_experiment(cfg)
        params = json.loads(meta_path.read_text())["parameters"]
        assert sorted(params) == sorted(f.name for f in dataclasses.fields(AdomVrParams))

    @pytest.mark.parametrize(
        "method, objective, keys",
        [("adom_vr", "logistic", ["omega_to_x_f", "omega_to_x_g"]), ("gt_page", "nlls", ["full_restarts"]),
         ("gt_baseline", "chain", [])],
    )
    def test_sidecar_counters_are_the_run_counters(self, tmp_path, fixture_path, method, objective, keys):
        cfg = self.small_cfg(tmp_path, fixture_path, method=method, objective=objective, n=4, budget_iters=60)
        trace, _, meta_path = run_experiment(cfg)
        counters = json.loads(meta_path.read_text())["counters"]
        assert sorted(counters) == keys and counters == trace.metadata["counters"]
        assert all(count > 0 for count in counters.values())

    def test_graph_dump_written(self, tmp_path, fixture_path):
        cfg = self.small_cfg(tmp_path, fixture_path)
        trace, csv_path, _ = run_experiment(cfg)
        lines = csv_path.with_suffix(".graphs").read_text().splitlines()
        assert lines[0] == f"m {cfg.m}"
        assert sum(line.startswith("step ") for line in lines) == trace.final().comms

    def test_missing_dataset_rejected_at_validate(self, tmp_path):
        cfg = ExperimentConfig().replace(objective="logistic", dataset=str(tmp_path / "nope.libsvm"))
        with pytest.raises(ValueError, match="not found"):
            cfg.validate()

    def test_rerun_is_byte_identical(self, tmp_path, fixture_path):
        cfg = self.small_cfg(tmp_path, fixture_path, objective="logistic", m=3, n=3, budget_iters=20)
        _, csv1, _ = run_experiment(cfg)
        first = csv1.read_bytes()
        _, csv2, _ = run_experiment(cfg)
        assert csv2.read_bytes() == first

    def test_counters_monotone_in_csv(self, tmp_path, fixture_path):
        cfg = self.small_cfg(tmp_path, fixture_path, method="gt_page", objective="nlls", m=3, n=3, budget_iters=30)
        _, csv_path, _ = run_experiment(cfg)
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        comms = [int(r[1]) for r in rows]
        oracle = [int(r[2]) for r in rows]
        assert comms == sorted(comms)
        assert oracle == sorted(oracle)

    def test_nan_dist_for_nonconvex(self, tmp_path, fixture_path):
        cfg = self.small_cfg(tmp_path, fixture_path, method="gt_page", objective="nlls", m=3, n=3, budget_iters=5)
        _, csv_path, _ = run_experiment(cfg)
        first_row = csv_path.read_text().splitlines()[1].split(",")
        assert first_row[3] == "NaN"

    def test_zero_chain_run_respects_topology_override(self, tmp_path, fixture_path):
        cfg = self.small_cfg(
            tmp_path, fixture_path, method="gt_baseline", objective="zero_chain", topology="random-geometric",
            m=6, n=2, budget_iters=8, budget_comms=24, budget_oracle=64,
        )  # the config's topology is the default: any other is rejected as unread
        trace, csv_path, meta_path = run_experiment(cfg)
        assert csv_path.exists()
        meta = json.loads(meta_path.read_text())
        assert meta["topology"] == "rotating-star"
        assert meta["graphs"] is None
        # a cyclic sequence's chi covers its period; the star's measured chi may differ from m in the last ulp
        certificate = meta["certificate"]
        assert certificate["chi_schedule"] == 6.0 and certificate["steps_over_certificate"] == 0
        assert certificate["chi_consumed_max"] == pytest.approx(6.0, rel=1e-12)

    def test_random_geometric_graph_counters_in_sidecar(self, tmp_path, fixture_path, monkeypatch):
        monkeypatch.setattr(network, "_builder_can_run", lambda: True)  # a builder child on any host
        cfg = self.small_cfg(
            tmp_path, fixture_path, method="gt_page", objective="chain", topology="random-geometric",
            radius=0.45, budget_iters=40, chi_trials=3,
        )
        _, _, meta_path = run_experiment(cfg)
        meta = json.loads(meta_path.read_text())
        assert meta["topology"] == "random-geometric"
        steps = 40 * meta["parameters"]["stages"]  # the chi_trials steps are the run's first steps
        replay = _build_sequence(cfg)
        chi_max = max(replay.gossip(k).chi for k in range(steps))
        replay.close()
        assert replay.resamples > 0
        # measure_chi builds block 0 and the walk block 1 while the child starts on block 2
        piped = math.ceil(steps / network.BLOCK) - 2
        assert piped > 0 and replay.builder_blocks == piped
        assert meta["graphs"] == {"built": steps, "resamples": replay.resamples, "chi_max": chi_max, "builder_blocks": piped}
        over = sum(replay.gossip(k).chi > meta["chi"] for k in range(steps))
        # every window's bound prod_q (1 - 1/chi_q) is below 1 - rho: none is checked exactly
        stages, contraction = meta["parameters"]["stages"], 1.0 - meta["parameters"]["rho"]
        bound = max(math.prod(1.0 - 1.0 / c for c in replay.window(s, stages)[1].tolist()) for s in range(0, steps, stages))
        assert over > 0 and meta["certificate"] == {
            "chi_schedule": meta["chi"], "chi_consumed_max": chi_max, "steps_over_certificate": over, "resamples_over_cap": 0,
            "window_bound_max": bound, "windows_checked_exactly": 0, "window_norm_max": 0.0,
        }
        assert 0.0 < bound < contraction
        # fewer than DUMP_STEPS steps served: the dump is every served step, edge by edge
        assert steps < network.DUMP_STEPS
        assert meta_path.with_suffix(".graphs").read_text() == dump_through_graph(replay, steps)

    def test_gt_baseline_on_chain(self, tmp_path, fixture_path):
        cfg = self.small_cfg(tmp_path, fixture_path, method="gt_baseline", budget_iters=10)
        trace, _, _ = run_experiment(cfg)
        assert trace.final().iteration == 10


class PerNodeProxy(FiniteSumObjective):
    """Forwards only the per-node queries of ``base``, so its node-batched queries
    fall back to the base-class loops, as a delegating profiler's proxy would."""

    PER_NODE = (
        "component_value", "component_gradient", "component_gradient_pair", "sampled_gradients",
        "sampled_gradient_pairs", "local_value", "local_gradient", "local_component_gradients",
        "stacked_gradient", "average_value", "average_gradient",
    )

    def __init__(self, base):
        self.m, self.n, self.d, self.info = base.m, base.n, base.d, base.info
        self.forwarded = 0
        for name in self.PER_NODE:
            setattr(self, name, self._forward(getattr(base, name)))

    def _forward(self, query):
        def call(*args):
            self.forwarded += 1
            return query(*args)

        return call


@pytest.mark.parametrize(
    "config",
    [
        dict(method="adom_vr", objective="logistic", seed=4, budget_iters=200, metric_every=5),
        dict(method="gt_page", objective="nlls", seed=0, budget_iters=60, metric_every=3),
        dict(method="gt_page", objective="nlls", seed=0, budget_iters=60, metric_every=3, per_node_coins=1),
        dict(method="gt_baseline", objective="zero_chain", m=9, n=4, budget_iters=200, budget_comms=200, metric_every=5),
        dict(method="adom_vr", objective="chain", topology="two-star-hop", m=6, n=4, budget_iters=200, metric_every=5),
    ],
    ids=["adom_vr_logistic", "gt_page_nlls", "gt_page_nlls_per_node_coins", "gt_baseline_zero_chain", "adom_vr_chain_two_star_hop"],
)
def test_per_node_proxy_writes_identical_csv(config, tmp_path, fixture_path, monkeypatch):
    import gossipvr.harness as harness

    cfg = {"topology": "random-geometric", "m": 10, "n": 10, **config}
    if cfg["objective"] in ("logistic", "nlls"):  # a dataset is rejected where the objective never reads it
        cfg["dataset"] = str(fixture_path)
    _, direct, _ = run_experiment(ExperimentConfig().replace(**cfg, out=str(tmp_path / "direct")))
    proxies = []
    real_run = harness.run

    def proxied_run(method, obj, *args, **kwargs):
        proxies.append(PerNodeProxy(obj))
        return real_run(method, proxies[-1], *args, **kwargs)

    monkeypatch.setattr(harness, "run", proxied_run)
    _, via_proxy, _ = run_experiment(ExperimentConfig().replace(**cfg, out=str(tmp_path / "proxy")))
    assert proxies[0].forwarded > config["budget_iters"]
    assert via_proxy.read_bytes() == direct.read_bytes()


class TestCli:
    def test_unknown_method_rejected_naming_choices(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--method", "adam"])
        assert exc_info.value.code != 0
        assert "adom_vr" in capsys.readouterr().err

    def test_unknown_method_via_config_file(self, tmp_path, capsys):
        f = tmp_path / "exp.cfg"
        f.write_text("method=adam\nobjective=chain\n")
        code = main(["--config", str(f)])
        assert code == 1
        assert "adom_vr" in capsys.readouterr().err

    def test_cli_end_to_end(self, tmp_path, fixture_path, capsys):
        code = main(
            [
                "--method", "adom_vr",
                "--objective", "chain",
                "--topology", "static-ring",
                "--m", "4",
                "--n", "2",
                "--budget-iters", "5",
                "--out", str(tmp_path / "cli_runs"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "iters=5" in out
        assert (tmp_path / "cli_runs").exists()

    def test_cli_error_is_structured(self, tmp_path, capsys):
        code = main(["--objective", "logistic", "--dataset", str(tmp_path / "missing.libsvm")])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert "error" in payload

    def test_aborted_run_keeps_its_artifacts(self, tmp_path, fixture_path, capsys):
        # gt_baseline at step 100 diverges at iteration 12; the run exits 1 with the
        # artifacts of its records, and a rerun writes the same bytes.
        argv = [
            "--method", "gt_baseline", "--objective", "logistic", "--dataset", str(fixture_path),
            "--topology", "static-ring", "--m", "10", "--n", "10", "--budget-iters", "300", "--gt-eta", "100",
            "--out", str(tmp_path / "runs"),
        ]
        written = []
        for _ in range(2):
            assert main(argv) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "RunAbort"
            written.append({p.name: p.read_bytes() for p in sorted((tmp_path / "runs").iterdir())})
        assert written[0] == written[1]
        tag = "gt_baseline_logistic_static-ring_m10_n10_seed0"
        assert sorted(written[0]) == [f"{tag}.{ext}" for ext in ("csv", "graphs", "json")]
        meta = json.loads(written[0][f"{tag}.json"])
        assert meta["abort"] == {
            "iteration": 11, "comms": 11, "type": "DivergenceError",
            "message": "x exceeded divergence limit at iteration 12: max |entry| = 1.370e+12",
        }
        rows = written[0][f"{tag}.csv"].decode().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "10", "11"]

    def test_aborted_run_records_each_iteration_once(self, tmp_path, fixture_path, capsys):
        # The same divergence recorded every iteration: one CSV row per iteration reached.
        argv = [
            "--method", "gt_baseline", "--objective", "logistic", "--dataset", str(fixture_path),
            "--topology", "static-ring", "--m", "10", "--n", "10", "--budget-iters", "300", "--gt-eta", "100",
            "--metric-every", "1", "--out", str(tmp_path / "runs"),
        ]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RunAbort"
        rows = (tmp_path / "runs" / "gt_baseline_logistic_static-ring_m10_n10_seed0.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(k) for k in range(12)]

    def test_abort_without_records_writes_nothing(self, tmp_path, fixture_path, monkeypatch):
        def abort(*args, **kwargs):
            raise RunAbort("diverged", trace=None)

        monkeypatch.setattr(harness, "run", abort)
        cfg = ExperimentConfig().replace(method="gt_baseline", objective="chain", m=4, n=2, out=str(tmp_path / "runs"))
        with pytest.raises(RunAbort, match="^diverged$"):
            run_experiment(cfg)
        assert not (tmp_path / "runs").exists()

    def test_seed_sweep(self, tmp_path, fixture_path, capsys):
        code = main(
            [
                "--method", "gt_baseline",
                "--objective", "chain",
                "--topology", "static-ring",
                "--m", "4",
                "--n", "2",
                "--budget-iters", "3",
                "--seeds", "1,2",
                "--out", str(tmp_path / "sweep"),
            ]
        )
        assert code == 0
        assert len(list((tmp_path / "sweep").glob("*.csv"))) == 2

    def test_seed_sweep_parallel_jobs(self, tmp_path, fixture_path):
        args = [
            "--method", "gt_baseline",
            "--objective", "chain",
            "--topology", "static-ring",
            "--m", "4",
            "--n", "2",
            "--budget-iters", "3",
            "--seeds", "5,6",
        ]
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        assert main(args + ["--jobs", "2", "--out", str(tmp_path / "par")]) == 0
        for name in ("gt_baseline_chain_static-ring_m4_n2_seed5.csv", "gt_baseline_chain_static-ring_m4_n2_seed6.csv"):
            assert (tmp_path / "par" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_pool_workers_build_graphs_in_process(self, tmp_path, monkeypatch):
        # A --jobs sweep's runs already share the CPUs: only a serial sweep forks builder children.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two CPUs on any host
        args = ["--method", "gt_baseline", "--objective", "chain", "--topology", "random-geometric",
                "--m", "6", "--n", "2", "--budget-iters", "300", "--seeds", "5,6"]
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        assert main(args + ["--jobs", "2", "--out", str(tmp_path / "par")]) == 0
        for seed in (5, 6):
            tag = f"gt_baseline_chain_random-geometric_m6_n2_seed{seed}"
            serial, par = (json.loads((tmp_path / out / f"{tag}.json").read_text())["graphs"] for out in ("serial", "par"))
            assert serial["builder_blocks"] == 3 and par == {**serial, "builder_blocks": 0}  # blocks 2, 3 and 4
            for ext in ("csv", "graphs"):
                assert (tmp_path / "par" / f"{tag}.{ext}").read_bytes() == (tmp_path / "serial" / f"{tag}.{ext}").read_bytes()

    @pytest.mark.parametrize("seeds", ["1,1", "1,01", "0,2,0"])
    def test_repeated_seed_rejected_before_any_run(self, tmp_path, capsys, seeds):
        args = ["--method", "gt_baseline", "--objective", "chain", "--topology", "static-ring", "--m", "4", "--n", "2"]
        args += ["--budget-iters", "3", "--seeds", seeds, "--jobs", "2", "--out", str(tmp_path / "runs")]
        assert main(args) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError" and "repeats a seed" in payload["message"]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_rejected_before_any_run(self, tmp_path, capsys, jobs):
        args = ["--method", "gt_baseline", "--objective", "chain", "--topology", "static-ring", "--m", "4", "--n", "2"]
        args += ["--budget-iters", "3", "--seeds", "0,1", "--jobs", jobs, "--out", str(tmp_path / "runs")]
        assert main(args) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ValueError", "message": f"--jobs must be at least 1, got {jobs}"}
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("how", ["flag", "config-line", "seeds"])
    def test_negative_seed_rejected_before_any_file(self, tmp_path, capsys, how):
        args = ["--method", "gt_baseline", "--objective", "zero_chain", "--m", "9", "--n", "4", "--budget-iters", "3"]
        if how == "flag":
            args += ["--seed", "-1"]
        elif how == "config-line":
            (tmp_path / "exp.cfg").write_text("objective=zero_chain\nseed=-1\n")
            args += ["--config", str(tmp_path / "exp.cfg")]
        else:
            args += ["--seeds", "0,-1"]
        assert main(args + ["--out", str(tmp_path / "runs")]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ValueError", "message": "seed must be non-negative, got -1"}
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("line, message", [
        ("reg=nan", "reg must be finite, got nan"),
        ("reg=inf", "reg must be finite, got inf"),
        ("radius=nan", "radius must be finite, got nan"),
        ("gt_eta=nan", "gt_eta must be finite, got nan"),
        ("gt_eta=-inf", "gt_eta must be finite, got -inf"),
        ("gt_eta=-0.5", "gt_eta must be non-negative, got -0.5"),
        ("chain_L=inf", "chain_L must be finite, got inf"),
        ("chain_mu=nan", "chain_mu must be finite, got nan"),
        ("zc_L=inf", "zc_L must be finite, got inf"),
        ("zc_delta=nan", "zc_delta must be finite, got nan"),
        ("stop_dist_sq=inf", "stop_dist_sq must be finite, got inf"),
        ("stop_dist_sq=-1", "stop_dist_sq must be non-negative, got -1.0"),
        ("per_node_coins=7", "per_node_coins must be 0 or 1, got 7"),
        ("strict_step=3", "strict_step must be 0 or 1, got 3"),
        ("strict_step=-1", "strict_step must be 0 or 1, got -1"),
    ])
    def test_bad_value_rejected_before_any_file(self, tmp_path, capsys, line, message):
        (tmp_path / "exp.cfg").write_text(f"method=gt_baseline\nobjective=zero_chain\nm=9\nn=4\nbudget_iters=3\n{line}\n")
        assert main(["--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "runs")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert not (tmp_path / "runs").exists()

    # Each row: the run's method and objective, an option it never reads, and what ignores it.
    @pytest.mark.parametrize("run, line, message", [
        ("gt_page/chain", "gt_eta=0.5", "gt_eta=0.5 is never read: method 'gt_page' ignores it"),
        ("adom_vr/chain", "gt_eta=0.5", "gt_eta=0.5 is never read: method 'adom_vr' ignores it"),
        ("adom_vr/chain", "strict_step=1", "strict_step=1 is never read: method 'adom_vr' ignores it"),
        ("gt_baseline/chain", "per_node_coins=1", "per_node_coins=1 is never read: method 'gt_baseline' ignores it"),
        ("gt_baseline/chain", "b=2", "b=2 is never read: method 'gt_baseline' ignores it"),
        ("adom_vr/chain", "topology=static-ring\nradius=0.5", "radius=0.5 is never read: topology 'static-ring' ignores it"),
        ("adom_vr/chain", "topology=two-star-hop\nchi_trials=5", "chi_trials=5 is never read: topology 'two-star-hop' ignores it"),
        ("gt_baseline/zero_chain", "radius=0.5", "radius=0.5 is never read: objective 'zero_chain' ignores it"),
        ("gt_baseline/zero_chain", "chi_trials=5", "chi_trials=5 is never read: objective 'zero_chain' ignores it"),
        ("gt_baseline/zero_chain", "topology=static-star",
         "topology='static-star' is never read: objective 'zero_chain' ignores it"),
        ("adom_vr/chain", "reg=0.2", "reg=0.2 is never read: objective 'chain' ignores it"),
        ("gt_page/nlls", "reg=0.2", "reg=0.2 is never read: objective 'nlls' ignores it"),
        ("gt_baseline/zero_chain", "chain_L=3", "chain_L=3.0 is never read: objective 'zero_chain' ignores it"),
        ("gt_page/logistic", "chain_dim=5", "chain_dim=5 is never read: objective 'logistic' ignores it"),
        ("adom_vr/chain", "zc_L=2", "zc_L=2.0 is never read: objective 'chain' ignores it"),
        ("adom_vr/chain", "zc_delta=2", "zc_delta=2.0 is never read: objective 'chain' ignores it"),
        ("adom_vr/chain", "dataset={dataset}", "dataset={dataset!r} is never read: objective 'chain' ignores it"),
        ("gt_baseline/zero_chain", "stop_dist_sq=0.001",
         "stop_dist_sq=0.001 is never read: objective 'zero_chain' ignores it"),
        ("gt_page/nlls", "stop_dist_sq=0.001", "stop_dist_sq=0.001 is never read: objective 'nlls' ignores it"),
    ])
    def test_unread_option_rejected_before_any_file(self, tmp_path, capsys, fixture_path, run, line, message):
        method, objective = run.split("/")
        dataset = str(fixture_path)
        lines = [f"method={method}", f"objective={objective}", "m=4", "n=2", "budget_iters=3", line.format(dataset=dataset)]
        if objective in ("logistic", "nlls"):
            lines.append(f"dataset={dataset}")
        (tmp_path / "exp.cfg").write_text("\n".join(lines) + "\n")
        assert main(["--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "runs")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message.format(dataset=dataset)}
        assert not (tmp_path / "runs").exists()

    def test_jobs_capped_at_run_count(self, tmp_path, monkeypatch):
        import concurrent.futures

        workers = []

        class InlinePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)  # main imports it at the --jobs branch
        args = ["--method", "gt_baseline", "--objective", "chain", "--topology", "static-ring", "--m", "4", "--n", "2"]
        args += ["--budget-iters", "3", "--seeds", "0,1,2", "--jobs", "64", "--out", str(tmp_path)]
        assert main(args) == 0
        assert workers == [3]
        assert len(list(tmp_path.glob("*.csv"))) == 3

    def test_fresh_process_determinism(self, tmp_path, fixture_path):
        import subprocess
        import sys

        args = [
            sys.executable, "-m", "gossipvr",
            "--method", "gt_page", "--objective", "nlls",
            "--dataset", str(fixture_path),
            "--topology", "static-star", "--m", "3", "--n", "3",
            "--budget-iters", "15", "--seed", "2",
        ]
        outs = []
        for run_dir in ("proc_a", "proc_b"):
            proc = subprocess.run(args + ["--out", str(tmp_path / run_dir)], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            (csv_file,) = (tmp_path / run_dir).glob("*.csv")
            outs.append(csv_file.read_bytes())
        assert outs[0] == outs[1]
