import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import sys
from pathlib import Path

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
from gossipvr.hardinstances import ChainObjective, ProgressTracker
from gossipvr.objectives import SmoothnessInfo, CallableFiniteSum, FiniteSumObjective, logistic_objective
from gossipvr.optimizers import AdomVr, AdomVrParams, GtBaseline, GtPage, RunAbort, RunTrace, TraceRecord, gt_page_params

from conftest import child_left
from test_network import dump_through_graph
from test_objectives import make_shards

DATA = Path(__file__).resolve().parent / "data" / "logreg500.libsvm"


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
    @pytest.mark.parametrize("kind, valid", [
        ("method", "adom_vr, gt_page, gt_baseline"),
        ("objective", "logistic, nlls, chain, zero_chain"),
        ("topology", "random-geometric, two-star-hop, rotating-star, static-complete, static-star, static-ring, static-path"),
    ])
    def test_unknown_choice_names_valid_values(self, kind, valid):
        cfg = ExperimentConfig(**{kind: "sgd"})
        with pytest.raises(ValueError, match=f"^unknown {kind} 'sgd'; valid: {valid}$"):
            cfg.validate()

    def test_config_file_round_trip(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("method=gt_page\nm=4\nradius=0.5\n# comment\n\nseed=3\n")
        cfg = ExperimentConfig.from_file(f)
        assert cfg.method == "gt_page"
        assert cfg.m == 4
        assert cfg.radius == 0.5
        assert cfg.seed == 3

    def test_replace_converts_to_each_default_type(self):
        """Every value becomes the type of its field's default; ``None`` keeps the field."""
        cfg = ExperimentConfig().replace(m="7", reg="0.5", radius=1, out=3, seed=None, chain_dim=5.0)
        assert (cfg.m, cfg.reg, cfg.radius, cfg.out, cfg.seed, cfg.chain_dim) == (7, 0.5, 1.0, "3", 0, 5)
        for field in dataclasses.fields(cfg):
            assert type(getattr(cfg, field.name)) is type(field.default), field.name
        with pytest.raises(ValueError, match="invalid literal for int"):
            cfg.replace(m="7.5")

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("m=4\n# comment\nmomentum=0.9\n")
        with pytest.raises(ValueError, match=r"exp\.cfg:3: unknown config key 'momentum'"):
            ExperimentConfig.from_file(f)

    @pytest.mark.parametrize("key", ["per_node_coins", "strict_step"])
    def test_gt_page_has_no_variant_keys(self, tmp_path, capsys, key):
        """gt_page runs one schedule, one shared restart coin and the default step: neither
        variant switch is a key, a config line or a flag."""
        with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
            ExperimentConfig().replace(**{key: 1})
        f = tmp_path / "exp.cfg"
        f.write_text(f"method=gt_page\n{key}=1\n")
        with pytest.raises(ValueError, match=rf"exp\.cfg:2: unknown config key '{key}'"):
            ExperimentConfig.from_file(f)
        flag = f"--{key.replace('_', '-')}"
        with pytest.raises(SystemExit) as exc_info:
            main(["--method", "gt_page", flag, "1"])
        assert exc_info.value.code == 2 and f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

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


def check_choice_tables():
    """Every config field is read by every run or declared by exactly one kind's table, and every
    name a table declares is a field."""
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    declared = [{name for reads, _ in table.values() for name in reads}
                for table in (harness._METHODS, harness._OBJECTIVES, harness._TOPOLOGIES)]
    optional = set.union(*declared)
    assert optional <= names, optional - names
    assert sum(map(len, declared)) == len(optional), "a field declared by two kinds"
    assert names - optional == {
        "method", "objective", "topology", "m", "n", "seed", "budget_iters", "budget_comms", "budget_oracle",
        "metric_every", "out",
    }


class TestRunChoices:
    def test_tables_declare_each_optional_field_once(self, monkeypatch):
        check_choice_tables()
        monkeypatch.setitem(harness._METHODS, "sgd", (("momentum",), None))
        with pytest.raises(AssertionError, match="momentum"):
            check_choice_tables()

    def test_every_field_is_a_flag_equal_to_its_config_line(self, tmp_path, monkeypatch, capsys):
        # A value off each default: a table's last choice, one more for a number, a word for a string.
        tables = {"method": harness.METHODS, "objective": harness.OBJECTIVES, "topology": harness.TOPOLOGIES}
        values = {
            f.name: tables[f.name][-1] if f.name in tables else "elsewhere" if isinstance(f.default, str) else f.default + 1
            for f in dataclasses.fields(ExperimentConfig)
        }
        seen = []
        monkeypatch.setattr(ExperimentConfig, "validate", lambda self: None)
        monkeypatch.setattr(harness, "_run_one", lambda cfg: seen.append(cfg) or "")
        assert main([arg for name, v in values.items() for arg in (f"--{name.replace('_', '-')}", str(v))]) == 0
        (tmp_path / "exp.cfg").write_text("".join(f"{name}={v}\n" for name, v in values.items()))
        assert main(["--config", str(tmp_path / "exp.cfg")]) == 0
        assert seen[0] == seen[1] == ExperimentConfig(**values)
        with pytest.raises(SystemExit):
            main(["--help"])
        flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert {f"--{name.replace('_', '-')}" for name in values} <= flags

    def test_first_unread_field_in_field_order(self):
        # Four unread fields: the first in field order, the topology's radius, is named, not the method's gt_eta.
        cfg = ExperimentConfig(objective="chain", topology="static-ring", zc_delta=2.0, zc_L=2.0, gt_eta=0.5, radius=0.5)
        with pytest.raises(ValueError, match=r"^radius=0\.5 is never read: topology 'static-ring' ignores it$"):
            cfg.validate()

    def test_builders_call_the_harness_globals(self, tmp_path, fixture_path, monkeypatch):
        """The data and objective builders look their functions up in the module when they run,
        so a patched module attribute is the one called."""
        calls = []
        for name in ("parse_libsvm", "partition_dataset", "logistic_objective", "nlls_objective"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
        for objective in ("logistic", "nlls"):
            run_experiment(ExperimentConfig(
                method="gt_page", objective=objective, dataset=str(fixture_path), topology="static-ring", m=4, n=2,
                budget_iters=2, out=str(tmp_path),
            ))
        assert calls == ["parse_libsvm", "partition_dataset", "logistic_objective", "parse_libsvm", "partition_dataset",
                         "nlls_objective"]


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
        meta = json.loads(meta_path.read_text())
        counters = meta["counters"]
        assert sorted(counters) == keys and counters == trace.metadata["counters"]
        assert all(count > 0 for count in counters.values())
        assert meta["progress"] is None  # only a zero-chain run audits its progress
        # only gt_page certifies a window of rounds: the other methods' sidecars read null
        window = [meta["certificate"][name] for name in ("window_bound_max", "windows_checked_exactly", "window_norm_max")]
        assert (window == [None, None, None]) == (method != "gt_page")

    @pytest.mark.parametrize("method, objective", [("adom_vr", "logistic"), ("gt_page", "nlls"), ("gt_baseline", "chain")])
    def test_sidecar_ledger_balances_the_oracle_calls(self, tmp_path, fixture_path, monkeypatch, method, objective):
        # n = 10 against a batch of 9 (adom_vr) or 8 (gt_page): a restart or an omega move costs more than a batch
        cfg = self.small_cfg(tmp_path, fixture_path, method=method, objective=objective, n=10, budget_iters=60)
        trace, _, meta_path = run_experiment(cfg)
        meta = json.loads(meta_path.read_text())
        measured = sum(trace.metadata["oracle_calls_per_node"])
        comms = 60 * meta["parameters"].get("stages", 1)  # the rounds the schedule spends on 60 iterations
        assert trace.final().comms == meta["final"]["comms"] == comms
        comms = {"comms_expected": comms, "comms_measured": comms, "comms_exact": True}
        assert meta["ledger"] == {"expected": measured, "measured": measured, "exact": True, **comms}
        assert all(count > 0 for count in meta["counters"].values())

        cls = {"adom_vr": AdomVr, "gt_page": GtPage, "gt_baseline": GtBaseline}[method]
        real_step = cls.step

        def leaky_step(self, state, obj, seq, seed):  # one stray sampled query per step, in no cost model
            obj.batch_sampled_gradients(np.array([0]), np.array([[0]]), state.x[:1])
            return real_step(self, state, obj, seq, seed)

        monkeypatch.setattr(cls, "step", leaky_step)
        run_experiment(cfg)
        assert json.loads(meta_path.read_text())["ledger"] == {
            "expected": measured, "measured": measured + 60, "exact": False, **comms,
        }

    @pytest.mark.parametrize(
        "method, comms, expected",
        [(GtPage(gt_page_params(1.0, 1.0, 3.0, 4)), 14, 15), (GtBaseline(eta=0.1), 6, 5)],
        ids=["gt_page_3_stages", "gt_baseline"],
    )
    def test_ledger_flags_comms_off_the_schedule(self, method, comms, expected):
        # 5 iterations at m = 2, n = 4: gt_page's batch of 2 and no restarts, or gt_baseline's full gradients
        record = TraceRecord(5, comms, 14, math.nan, 0.0, 0.0, 0.0)
        counters = {"full_restarts": 0} if method.name == "gt_page" else {}
        calls = [14, 14] if method.name == "gt_page" else [24, 24]
        trace = RunTrace([record], {"m": 2, "n": 4, "counters": counters, "oracle_calls_per_node": calls})
        ledger = harness._oracle_ledger(method, trace)
        assert ledger["exact"]  # the oracle calls balance; only the comms are off
        assert (ledger["comms_expected"], ledger["comms_measured"], ledger["comms_exact"]) == (expected, comms, False)

    def test_sidecar_environment_names_the_build(self, tmp_path, fixture_path):
        _, _, meta_path = run_experiment(self.small_cfg(tmp_path, fixture_path, budget_iters=3))
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        sources = hashlib.sha256()
        for path in sorted(Path(harness.__file__).parent.glob("*.py")):
            sources.update(path.name.encode() + b"\0" + path.read_bytes())
        assert json.loads(meta_path.read_text())["environment"] == {
            "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
            "dont_write_bytecode": sys.dont_write_bytecode,
            "source_sha256": sources.hexdigest(),
        }
        assert harness._source_sha256.cache_info().misses == 1  # hashed once per process

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
        assert meta["graphs"] == {
            "built": steps, "resamples": replay.resamples, "chi_max": chi_max,
            "builder_blocks": piped, "builder_pinned": replay.builder_pinned,
        }
        over = sum(replay.gossip(k).chi > meta["chi"] for k in range(steps))
        # every window's bound prod_q (1 - 1/chi_q) is below 1 - rho: none is checked exactly
        stages, contraction = meta["parameters"]["stages"], 1.0 - meta["parameters"]["rho"]
        bound = max(math.prod(1.0 - 1.0 / c for c in replay.window(s, stages)[1].tolist()) for s in range(0, steps, stages))
        assert over > 0 and meta["certificate"] == {
            "chi_schedule": meta["chi"], "chi_consumed_max": chi_max, "steps_over_certificate": over,
            "window_bound_max": bound, "windows_checked_exactly": 0, "window_norm_max": 0.0,
        }
        assert 0.0 < bound < contraction
        # fewer than DUMP_STEPS steps served: the dump is every served step, edge by edge
        assert steps < network.DUMP_STEPS
        assert meta_path.with_suffix(".graphs").read_text() == dump_through_graph(replay, steps)

    def test_readme_gt_page_run_pins_its_graph_audit(self, tmp_path, fixture_path):
        """The README ``gt_page`` command at its full 800 iterations: its sidecar's ``graphs`` and
        ``certificate`` entries are the numbers README.md quotes (``builder_blocks`` depends on the host)."""
        argv = [
            "--method", "gt_page", "--objective", "nlls", "--dataset", str(fixture_path),
            "--topology", "random-geometric", "--m", "10", "--n", "10", "--budget-iters", "800",
            "--out", str(tmp_path / "runs"),
        ]
        assert main(argv) == 0
        meta = json.loads((tmp_path / "runs" / "gt_page_nlls_random-geometric_m10_n10_seed0.json").read_text())
        graphs, certificate = meta["graphs"], meta["certificate"]
        assert meta["final"]["comms"] == 8800
        assert sorted(graphs) == ["builder_blocks", "builder_pinned", "built", "chi_max", "resamples"]
        assert graphs["built"] == 8800 and graphs["resamples"] == 33
        assert graphs["chi_max"] == certificate["chi_consumed_max"] == pytest.approx(31.967162497351325, rel=1e-12)
        assert certificate["chi_schedule"] == meta["chi"] == pytest.approx(10.403882032022073, rel=1e-12)
        assert certificate["steps_over_certificate"] == 151
        assert certificate["window_bound_max"] == pytest.approx(0.050075081873784975, rel=1e-12)
        assert certificate["windows_checked_exactly"] == 0 and certificate["window_norm_max"] == 0.0
        assert sorted(certificate) == [
            "chi_consumed_max", "chi_schedule", "steps_over_certificate",
            "window_bound_max", "window_norm_max", "windows_checked_exactly",
        ]
        assert (meta["parameters"]["b"], meta["parameters"]["stages"], meta["ledger"]["exact"]) == (9, 11, True)

    @pytest.mark.parametrize("iters", [30, 1100])
    def test_chi_trials_at_the_dump_builds_each_served_step_once(self, tmp_path, fixture_path, iters):
        """With ``chi_trials`` at the limit, ``DUMP_STEPS``, no block ``measure_chi`` built is evicted
        before the walk reads it: the run builds the distinct steps served, ``max(chi_trials, comms)``."""
        cfg = self.small_cfg(tmp_path, fixture_path, method="gt_baseline", topology="random-geometric", m=6,
                             budget_iters=iters, chi_trials=network.DUMP_STEPS, metric_every=100)
        _, _, meta_path = run_experiment(cfg)
        meta = json.loads(meta_path.read_text())
        assert meta["final"]["comms"] == iters
        assert meta["graphs"]["built"] == max(network.DUMP_STEPS, iters)

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
        dict(method="gt_baseline", objective="zero_chain", m=9, n=4, budget_iters=200, budget_comms=200, metric_every=5),
        dict(method="adom_vr", objective="chain", topology="two-star-hop", m=6, n=4, budget_iters=200, metric_every=5),
    ],
    ids=["adom_vr_logistic", "gt_page_nlls", "gt_baseline_zero_chain", "adom_vr_chain_two_star_hop"],
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

    @staticmethod
    def readme_argv(method, fixture_path, out):
        """The README ``gt_page`` or ``adom_vr`` command, writing to ``out``."""
        common = ["--objective", "logistic" if method == "adom_vr" else "nlls", "--dataset", str(fixture_path),
                  "--topology", "random-geometric", "--m", "10", "--n", "10", "--out", str(out)]
        if method == "adom_vr":
            return ["--method", method, *common, "--reg", "0.1", "--budget-iters", "2000", "--metric-every", "20", "--seed", "4"]
        return ["--method", method, *common, "--budget-iters", "800"]

    def test_readme_gt_page_comm_budget_buys_whole_iterations(self, tmp_path, fixture_path, capsys):
        """``--budget-comms 100`` buys 9 iterations of 11 rounds, not a tenth that would end at 110."""
        assert main(self.readme_argv("gt_page", fixture_path, tmp_path / "runs") + ["--budget-comms", "100"]) == 0
        assert " iters=9 comms=99 " in capsys.readouterr().out
        meta = json.loads((tmp_path / "runs" / "gt_page_nlls_random-geometric_m10_n10_seed0.json").read_text())
        assert meta["parameters"]["stages"] == 11 and meta["final"]["comms"] == 99
        ledger = meta["ledger"]
        assert (ledger["comms_expected"], ledger["comms_measured"], ledger["comms_exact"]) == (99, 99, True)

    def test_comm_budget_below_one_iteration_rejected_before_any_file(self, tmp_path, fixture_path, capsys):
        assert main(self.readme_argv("gt_page", fixture_path, tmp_path / "runs") + ["--budget-comms", "5"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "budget_comms=5 is below one gt_page iteration's 11 rounds",
        }
        assert not (tmp_path / "runs").exists() and not child_left()

    def test_chi_trials_past_the_dump_rejected_before_any_file(self, tmp_path, fixture_path, capsys):
        assert main(self.readme_argv("adom_vr", fixture_path, tmp_path / "runs") + ["--chi-trials", "1001"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "chi_trials must be at most 1000, the steps a .graphs dump keeps, got 1001",
        }
        assert not (tmp_path / "runs").exists()

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

    def test_readme_zero_chain_run_reports_its_progress_audit(self, tmp_path, capsys):
        """The README zero-chain command: frontier 1 against a bound of 33 after 72 rounds and 292 queries
        per node.  A caller's tracker is the one the run fills and audits."""
        argv = ["--method", "gt_baseline", "--objective", "zero_chain", "--m", "9", "--n", "4",
                "--budget-iters", "72", "--budget-comms", "72", "--out", str(tmp_path / "cli")]
        assert main(argv) == 0
        tag = "gt_baseline_zero_chain_random-geometric_m9_n4_seed0"
        entry = json.loads((tmp_path / "cli" / f"{tag}.json").read_text())["progress"]
        assert entry == {"final": 1, "bound": 33, "passed": True, "violations": 0}
        tracker = ProgressTracker(9)
        cfg = ExperimentConfig().replace(method="gt_baseline", objective="zero_chain", m=9, n=4, budget_iters=72,
                                         budget_comms=72, out=str(tmp_path / "lib"))
        _, _, meta_path = run_experiment(cfg, progress_tracker=tracker)
        assert len(tracker.audit_points) == 73 and tracker.audit_points[-1] == (72, 292, 1)
        assert json.loads(meta_path.read_text())["progress"] == entry

    def test_aborted_zero_chain_run_reports_its_progress_audit(self, tmp_path, capsys):
        # A wild step diverges at iteration 5: the entry audits the points up to the last state reached.
        argv = ["--method", "gt_baseline", "--objective", "zero_chain", "--m", "9", "--n", "4",
                "--budget-iters", "72", "--gt-eta", "1e14", "--out", str(tmp_path / "runs")]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RunAbort"
        meta = json.loads((tmp_path / "runs" / "gt_baseline_zero_chain_random-geometric_m9_n4_seed0.json").read_text())
        assert (meta["abort"]["comms"], meta["final"]["oracle_calls"]) == (4, 24)
        assert meta["progress"] == {"final": 1, "bound": 2, "passed": True, "violations": 0}
        # the failing step's node gradients were charged, past the last state reached; its round was not
        assert meta["ledger"] == {
            "expected": 9 * 4 * 5, "measured": 9 * 24, "exact": False, "comms_expected": 4, "comms_measured": 4, "comms_exact": True,
        }

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
            assert serial["builder_blocks"] == 3  # blocks 2, 3 and 4
            assert par == {**serial, "builder_blocks": 0, "builder_pinned": False}
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
        ("chi_trials=1001", "chi_trials must be at most 1000, the steps a .graphs dump keeps, got 1001"),
    ])
    def test_bad_value_rejected_before_any_file(self, tmp_path, capsys, line, message):
        (tmp_path / "exp.cfg").write_text(f"method=gt_baseline\nobjective=zero_chain\nm=9\nn=4\nbudget_iters=3\n{line}\n")
        assert main(["--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "runs")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
        assert not (tmp_path / "runs").exists()

    # The README gt_page command with one bad count or budget: validate names the config field
    # before the dataset is parsed.
    @pytest.mark.parametrize("field, value, message", [
        ("budget_iters", 0, "budget_iters must be >= 1, got 0"),
        ("metric_every", 0, "metric_every must be >= 1, got 0"),
        ("chi_trials", 0, "chi_trials must be >= 1, got 0"),
        ("budget_comms", -1, "budget_comms must be >= 0, got -1"),
        ("budget_oracle", -5, "budget_oracle must be >= 0, got -5"),
        ("b", -2, "b must be >= 0, got -2"),
        ("b", 11, "b must be at most n=10, got 11"),
    ])
    def test_bad_count_rejected_at_validate(self, monkeypatch, field, value, message):
        monkeypatch.setattr(harness, "parse_libsvm", lambda path: pytest.fail("parsed the dataset"))
        cfg = ExperimentConfig(method="gt_page", objective="nlls", dataset=str(DATA), budget_iters=800)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            harness.run_experiment(cfg.replace(**{field: value}))

    # Each row: a run, the fewest nodes it serves and what needs them; the zero chain's own star counts,
    # not the topology it ignores.
    @pytest.mark.parametrize("run, least, needs", [
        (dict(method="gt_page", objective="nlls", dataset=str(DATA)), 2, "topology 'random-geometric'"),
        (dict(method="adom_vr", objective="logistic", dataset=str(DATA), topology="static-ring"), 2, "topology 'static-ring'"),
        (dict(method="adom_vr", objective="logistic", dataset=str(DATA), topology="two-star-hop"), 4, "topology 'two-star-hop'"),
        (dict(method="gt_baseline", objective="chain", topology="rotating-star"), 3, "topology 'rotating-star'"),
        (dict(method="adom_vr", objective="chain"), 3, "objective 'chain'"),
        (dict(method="gt_baseline", objective="zero_chain", n=4), 3, "objective 'zero_chain'"),
    ])
    def test_too_few_nodes_rejected_at_validate(self, monkeypatch, run, least, needs):
        monkeypatch.setattr(harness, "parse_libsvm", lambda path: pytest.fail("parsed the dataset"))
        monkeypatch.setattr(harness, "_build_sequence", lambda cfg: pytest.fail("built the topology"))
        cfg = ExperimentConfig(**run)
        for m in (least - 1, 1, 0, -3):
            with pytest.raises(ValueError, match=f"^{re.escape(f'm must be >= {least} for {needs}, got {m}')}$"):
                harness.run_experiment(cfg.replace(m=m))
        cfg.replace(m=least).validate()

    def test_batch_above_n_rejected_only_where_read(self):
        ExperimentConfig(method="adom_vr", objective="chain", topology="two-star-hop", b=4, n=4).validate()
        with pytest.raises(ValueError, match="^b must be at most n=4, got 5$"):
            ExperimentConfig(method="adom_vr", objective="chain", topology="two-star-hop", b=5, n=4).validate()
        with pytest.raises(ValueError, match="^b=5 is never read: method 'gt_baseline' ignores it$"):
            ExperimentConfig(method="gt_baseline", objective="chain", topology="two-star-hop", b=5, n=4).validate()

    def test_readme_gt_page_with_a_bad_batch_writes_nothing(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(harness, "parse_libsvm", lambda path: pytest.fail("parsed the dataset"))
        args = ["--method", "gt_page", "--objective", "nlls", "--dataset", str(DATA), "--topology", "random-geometric",
                "--m", "10", "--n", "10", "--budget-iters", "800", "--b", "-2", "--out", str(tmp_path / "runs")]
        assert main(args) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": "b must be >= 0, got -2"}
        assert not (tmp_path / "runs").exists()

    # Each row: the run's method and objective, an option it never reads, and what ignores it.
    @pytest.mark.parametrize("run, line, message", [
        ("gt_page/chain", "gt_eta=0.5", "gt_eta=0.5 is never read: method 'gt_page' ignores it"),
        ("adom_vr/chain", "gt_eta=0.5", "gt_eta=0.5 is never read: method 'adom_vr' ignores it"),
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
