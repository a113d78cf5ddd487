"""Tests for experiment orchestration, results files, and report emission."""

import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from fedcalib import federation, runner
from fedcalib.calibration import ProbBatch, calibration_report
from fedcalib.config import load_config, parse_config
from fedcalib.federation import init_server, personalized_evaluate, run_round
from fedcalib.model import DualEncoderModel
from fedcalib.runner import (
    build_data,
    build_plan,
    load_results,
    point_plans,
    results_json,
    run_experiment,
    run_single,
    render_outputs,
    summary_csv,
    write_outputs,
)
from fedcalib.numerics import RngStream, softmax_rows

from fixtures import (
    count_forwards, dataset_rows, results_canonical_bytes, scalars, split_probs, write_embedding_csv,
    write_embeddings, write_prototypes,
)
from oracles import naive_generate_synthetic


def tiny_payload(**overrides):
    payload = {
        "seed": 11,
        "model": {"head_kind": "lora_both"},
        "federation": {"rounds": 2, "participation_rate": 1.0, "batch_size": 16},
        "partition": {"num_clients": 3, "alpha": 0.5},
        "data": {"synthetic": {"class_count": 5, "dim": 16, "samples_per_class": 20}},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in payload:
            payload[key] = {**payload[key], **value}
        else:
            payload[key] = value
    return payload


def tiny_config(**overrides):
    return parse_config(tiny_payload(**overrides))


class TestRunSingle:
    def test_results_structure(self):
        res = run_single(tiny_config())
        assert res["method"] == "lora_both"
        assert len(res["rounds"]) == 2
        assert set(res["final"]["mean"]) == {"accuracy", "ece", "mce", "ace", "brier", "nll"}
        assert len(res["final"]["per_client"]) == 3
        assert "drift_series" not in res
        for row in res["rounds"]:
            assert len(row["update_norms"]) == len(row["participants"])
        assert "wall_clock_seconds" in res["meta"]

    def test_rerun_reproduces_numeric_fields(self):
        a = run_single(tiny_config())
        b = run_single(tiny_config())
        assert results_canonical_bytes(a) == results_canonical_bytes(b)

    def test_config_echo_reports_built_model(self):
        # the model adopts the data's dimension and class count, not the section's 64/20
        model = run_single(tiny_config())["config"]["model"]
        assert (model["embed_dim"], model["class_count"], model["encoder_widths"]) == (16, 5, [32])

    def test_seed_changes_results(self):
        a = run_single(tiny_config())
        b = run_single(tiny_config(seed=12))
        assert results_canonical_bytes(a) != results_canonical_bytes(b)

    def test_single_client_full_rounds_matches_offline_training(self):
        # N = 1, rate = 1: federation is exactly serial local training
        cfg = tiny_config(partition={"num_clients": 1}, federation={"rounds": 1})
        res = run_single(cfg)

        from fedcalib.federation import init_server, train_participants
        from fedcalib.losses import LossSpec
        from fedcalib.model import zero_shot_init
        from fedcalib.runner import _reconcile_model, client_views

        rng = RngStream(cfg.seed)
        data, protos = build_data(cfg, rng.child("data"))
        plan = build_plan(cfg, data, rng.child("partition"))
        model = zero_shot_init(_reconcile_model(cfg, data), protos, rng.child("init"))
        train, _ = client_views(data, plan)
        server = init_server(model.initial, 1)
        expected, _ = train_participants(
            model, train, [0], server.duals, server.global_vector, cfg.federation, cfg.aggregator,
            LossSpec(), [rng.child("rounds").child("local", 0, 0)], round_index=0,
        )[0]
        assert res["final_global_vector"] == expected.tolist()

    def test_base_to_new_reports_harmonic_mean(self):
        cfg = tiny_config(
            setting="base_to_new",
            partition={"kind": "base_to_new", "num_clients": 2},
            data={"synthetic": {"class_count": 6, "dim": 16, "samples_per_class": 20}},
        )
        res = run_single(cfg)
        assert res["final"]["base"] is not None
        assert res["final"]["new"] is not None
        hm = res["final"]["harmonic_mean"]["accuracy"]
        b = res["final"]["base"]["accuracy"]
        n = res["final"]["new"]["accuracy"]
        expected = 0.0 if b == n == 0 else 2 * b * n / (b + n)
        assert hm == pytest.approx(expected)

    @pytest.mark.parametrize("overrides", [
        {"model": {"head_kind": "lora_both", "lora_dropout": 0.25}, "loss": {"aux_kind": "mdca"},
         "metrics": {"temperatures": [0.5, 2.0]}},
        {"setting": "base_to_new", "partition": {"kind": "base_to_new"}},
    ], ids=["lora_both_dropout_mdca_temperatures", "base_to_new"])
    def test_a_run_validates_no_probability_batch(self, monkeypatch, overrides):
        # the run's probabilities are its own softmax rows: training steps,
        # losses and reports take them as plain arrays, validated nowhere
        calls = []
        post_init = ProbBatch.__post_init__

        def counting(batch):
            calls.append(1)
            post_init(batch)

        monkeypatch.setattr(ProbBatch, "__post_init__", counting)
        res = run_single(tiny_config(**overrides))
        assert res["rounds"] and res["final"]["pooled_bins"]["counts"]
        assert calls == []

    def test_domain_setting_runs(self):
        cfg = parse_config(
            {
                "seed": 3,
                "setting": "domain_generalization",
                "federation": {"rounds": 1, "batch_size": 16},
                "partition": {"kind": "domain", "clients_per_domain": 2},
                "data": {"synthetic": {"class_count": 4, "dim": 16, "samples_per_class": 12, "domain_count": 2}},
            }
        )
        res = run_single(cfg)
        assert len(res["final"]["per_client"]) == 4

    def test_temperature_sweep_rows(self):
        cfg = tiny_config(metrics={"temperatures": [0.5, 1.0, 2.0]})
        res = run_single(cfg)
        rows = res["temperature_sweep"]
        assert [r["temperature"] for r in rows] == [0.5, 1.0, 2.0]
        accs = {round(r["mean"]["accuracy"], 12) for r in rows}
        assert len(accs) == 1  # temperature preserves accuracy


class TestFinalIsLastRound:
    """``final`` is the evaluation of the last round, not a second one."""

    # (config overrides, clients without test data); alpha 0.1 leaves client 1 without any
    CASES = {
        "in_distribution": ({"partition": {"num_clients": 6, "alpha": 0.1}}, [1]),
        "base_to_new": (
            {
                "setting": "base_to_new",
                "partition": {"kind": "base_to_new", "num_clients": 2},
                "data": {"synthetic": {"class_count": 6, "dim": 16, "samples_per_class": 20}},
            },
            [],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_final_equals_last_round(self, case, monkeypatch):
        records = []
        original = runner.personalized_evaluate

        def recording(*args, **kwargs):
            records.append(original(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(runner, "personalized_evaluate", recording)
        overrides, excluded = self.CASES[case]
        res = run_single(tiny_config(**overrides))
        final, last = res["final"], res["rounds"][-1]
        assert final["excluded"] == excluded
        for key in ("per_client", "mean", "excluded"):
            assert json.dumps(final[key], sort_keys=True) == json.dumps(last[key], sort_keys=True)
        assert len(records) == len(res["rounds"])
        assert final["pooled_bins"] == records[-1]["pooled_bins"]


class TestAggregatorsEndToEnd:
    @pytest.mark.parametrize("kind", ["fedavg", "fedprox", "feddyn", "fednova"])
    def test_each_strategy_runs_and_is_deterministic(self, kind):
        cfg = tiny_config(aggregator={"kind": kind}, federation={"rounds": 3})
        a = run_single(cfg)
        b = run_single(cfg)
        assert results_canonical_bytes(a) == results_canonical_bytes(b)
        for row in a["rounds"]:
            for value in row["mean"].values():
                assert value == value and abs(value) < 1e6  # finite

    def test_strategies_diverge_from_fedavg(self):
        # with heterogeneous clients the four rules produce different models
        vectors = {}
        for kind in ("fedavg", "fedprox", "feddyn", "fednova"):
            cfg = tiny_config(
                aggregator={"kind": kind, "mu_prox": 0.5, "alpha_dyn": 0.5},
                federation={"rounds": 3, "local_epochs": 2},
                partition={"alpha": 0.1},
            )
            vectors[kind] = run_single(cfg)["final_global_vector"]
        assert vectors["fedprox"] != vectors["fedavg"]
        assert vectors["feddyn"] != vectors["fedavg"]
        # fednova differs only if step counts differ across clients; with
        # alpha = 0.1 the client sizes (hence batch counts) are skewed
        assert vectors["fednova"] != vectors["fedavg"]


class TestHeadsEndToEnd:
    @pytest.mark.parametrize("head", ["zero_shot", "prompt", "lora_text", "lora_vision", "bitfit"])
    def test_each_head_trains_through_the_runner(self, head):
        cfg = tiny_config(model={"head_kind": head}, federation={"rounds": 2})
        res = run_single(cfg)
        assert len(res["rounds"]) == 2
        vec = res["final_global_vector"]
        if head == "zero_shot":
            assert vec == []
        else:
            assert any(v != 0.0 for v in vec)  # training moved the head


class TestResultsSerialization:
    def test_json_roundtrip_byte_stable(self):
        res = run_single(tiny_config())
        text = results_json(res)
        again = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert again == text

    def test_summary_csv_percent_convention(self):
        res = run_single(tiny_config())
        res["final"]["mean"]["accuracy"] = 0.9704
        csv_text = summary_csv([res])
        lines = csv_text.strip().split("\n")
        assert lines[0] == "method,setting,acc,ece,mce,ace,brier,nll"
        assert lines[1].startswith("lora_both,in_distribution,97.04,")

    def test_empty_results_header_only(self):
        assert summary_csv([]) == "method,setting,acc,ece,mce,ace,brier,nll\n"


# tiny configs whose canonical results bytes are pinned: one per aggregator, feddyn with 3 of 10
# clients per round for 3 rounds (so some clients never hold a dual), base-to-new with a
# temperature sweep, and domain generalization
DIGEST_CONFIGS = {
    "fedavg": {"aggregator": {"kind": "fedavg"}},
    "fedprox": {"aggregator": {"kind": "fedprox"}},
    "fednova": {"aggregator": {"kind": "fednova"}},
    "feddyn": {"aggregator": {"kind": "feddyn"}, "partition": {"num_clients": 10},
               "federation": {"rounds": 3, "participation_rate": 0.3}},
    "base_to_new": {"setting": "base_to_new", "partition": {"kind": "base_to_new"},
                    "data": {"synthetic": {"class_count": 6, "dim": 16, "samples_per_class": 20}},
                    "metrics": {"temperatures": [0.5, 2.0]}},
    "domain": {"setting": "domain_generalization", "partition": {"kind": "domain", "clients_per_domain": 2},
               "data": {"synthetic": {"class_count": 4, "dim": 16, "samples_per_class": 12, "domain_count": 2}}},
}

# tiny configs read from embedding files that ``write_file_set`` writes: FEMB samples under
# domain generalization, CSV samples under base-to-new
FILE_DIGEST_CONFIGS = {
    "femb": {"setting": "domain_generalization", "partition": {"kind": "domain", "clients_per_domain": 2}},
    "csv": {"setting": "base_to_new", "partition": {"kind": "base_to_new"}},
}


def write_file_set(directory, fmt) -> dict:
    """Train, test and prototype files of 6 classes in 16 dimensions over 2 domains,
    the samples as FEMB or CSV; returns the config's ``embedding_files``."""
    rng = RngStream(23)
    protos = rng.child("protos").normal(6 * 16).reshape(6, 16)
    paths = {"prototypes": str(directory / "protos.fpro")}
    write_prototypes(paths["prototypes"], protos)
    write = write_embeddings if fmt == "femb" else write_embedding_csv
    for name, per_class in (("train", 10), ("test", 4)):
        labels, domains = np.tile(np.arange(6), 2 * per_class), np.repeat([0, 1], 6 * per_class)
        x = protos[labels] + 2.0 * rng.child(name).normal(len(labels) * 16).reshape(-1, 16) + 0.3 * domains[:, None]
        paths[name] = str(directory / f"{name}.{fmt}")
        write(paths[name], x, labels, domains)
    return paths


# sha256 of each config's ``results_json`` with ``meta`` stripped; the same with OPENBLAS_NUM_THREADS=1
# and unset. Recorded once every minibatch was padded to batch_size; base_to_new and csv, which have
# no ragged minibatch, keep the bytes recorded while each client was still an object holding its
# training rows and FedDyn dual. A change that moves these bytes on purpose re-records them and says
# so in CHANGES.md.
RESULTS_SHA256 = {
    "fedavg": "c16f388e6f9d03dea91e0d322695bdc1a770a3ae5fba860b1cbd29483fffc278",
    "fedprox": "346d4f916ad73a0b9d14f3f32ce612c92f1b60e07937beef204ce658bb1f4589",
    "fednova": "98dc6ad923a5025a5eaa3bbf16c3f1335d8c0f2590220600db47cf641a0bf9f9",
    "feddyn": "58cdfbad273529eb32e899b398136fa0a78cc18d449e885901a074e891d9fc1a",
    "base_to_new": "b0a0ded0fdbb7fff35bcc6081efbf0f2434e5a40feaa142b679d9b3188380ae4",
    "domain": "9144dd6f8b44d1e13199c1b3a5b4e701a92f01ecf187ebec3a4a10d6bf81da5a",
    "femb": "c5394f59a2ae1fa22d56c8f9564851945158f05cc9ecbe9b122b9f7396520e9d",
    "csv": "a2024c33a63181a318c54d81d32e4a8f41a5d52b9593af6066be1c31d3e64a49",
}


class TestPinnedResults:
    @pytest.mark.parametrize("name", sorted(DIGEST_CONFIGS))
    def test_results_bytes_are_pinned(self, name):
        res = run_single(tiny_config(**DIGEST_CONFIGS[name]))
        del res["meta"]
        if name == "feddyn":
            assert len({cid for row in res["rounds"] for cid in row["participants"]}) < 10
        assert hashlib.sha256(results_json(res).encode()).hexdigest() == RESULTS_SHA256[name]

    @pytest.mark.parametrize("name", sorted(DIGEST_CONFIGS))
    def test_regrouping_clients_moves_no_byte(self, name, monkeypatch):
        # ragged minibatches of 7 rows, trained in shared stacks and then one client per stack
        overrides = DIGEST_CONFIGS[name]
        config = tiny_config(**{**overrides, "federation": {**overrides.get("federation", {}), "batch_size": 7}})
        size = config.federation.batch_size
        assert any(len(rows) % size for rows in point_plans(config)[""].train_indices)
        shared = run_single(config)
        monkeypatch.setattr(federation, "STACK_ROWS", size)
        alone = run_single(config)
        del shared["meta"], alone["meta"]
        assert results_json(alone) == results_json(shared)

    @pytest.mark.parametrize("name", sorted(FILE_DIGEST_CONFIGS))
    def test_embedding_file_results_bytes_are_pinned(self, name, tmp_path, monkeypatch):
        # relative paths, so the config echo names no temporary directory
        monkeypatch.chdir(tmp_path)
        paths = write_file_set(Path("."), name)
        res = run_single(parse_config({**tiny_payload(**FILE_DIGEST_CONFIGS[name]), "data": {"embedding_files": paths}}))
        del res["meta"]
        assert hashlib.sha256(results_json(res).encode()).hexdigest() == RESULTS_SHA256[name]


class TestOneCopyOfTheData:
    """Memory mechanism of a run, asserted without timings."""

    @staticmethod
    def big_results():
        # about 200k encoder chunks, many times the join batch
        return {"rows": [{"id": i, "value": i / 7, "tag": f"t{i}", "bins": [i, -i]} for i in range(20000)]}

    def test_results_json_is_json_dumps(self):
        res = self.big_results()
        assert results_json(res) == json.dumps(res, sort_keys=True, indent=2) + "\n"

    def test_results_json_peak_is_under_three_times_its_output(self):
        res = self.big_results()
        tracemalloc.start()
        try:
            text = results_json(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)

    @staticmethod
    def traced_peak(call):
        """``call()``'s result and its tracemalloc peak, after one warm-up call."""
        call()
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_set_up_holds_one_copy_of_the_rows(self):
        # configs/domain_generalization.json: 8,000 rows of 64 floats (4.1 MB); when the
        # splits were gathered from a dataset matrix, set-up peaked at about 2.1x the splits
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "domain_generalization.json")
        (*_, train, split), peak = self.traced_peak(lambda: runner._set_up(config, RngStream(config.seed)))
        split_bytes = sum(part.nbytes for rows in (train, split) for part in (rows.x, rows.y))
        assert len(train.y) + len(split.y) == 8000 and train.x.shape[1] == 64
        assert peak < 1.25 * split_bytes

    def test_partition_audit_makes_no_rows(self):
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "domain_generalization.json")
        plans, peak = self.traced_peak(lambda: runner.point_plans(config))
        assert sum(plans[""].histograms.ravel()) + sum(map(len, plans[""].test_indices)) == 8000
        assert peak < 8000 * 64 * 8  # one n x d float64 matrix

    def run_capturing_splits(self, monkeypatch, config):
        """Training and test splits as built, and whether the dataset was alive at round 0."""
        splits, data_refs, alive_at_round_0 = [], [], []
        build_data, client_views, run_round = runner.build_data, runner.client_views, runner.run_round

        def capture_data(*args):
            data, protos = build_data(*args)
            data_refs.append(weakref.ref(data))
            return data, protos

        def capture_splits(*args):
            splits.append(client_views(*args))
            return splits[-1]

        def check_round(*args, **kwargs):
            alive_at_round_0.append(data_refs[0]() is not None)
            return run_round(*args, **kwargs)

        monkeypatch.setattr(runner, "build_data", capture_data)
        monkeypatch.setattr(runner, "client_views", capture_splits)
        monkeypatch.setattr(runner, "run_round", check_round)
        run_single(config)
        return *splits[0], alive_at_round_0[0]

    @pytest.mark.parametrize("kind", ["fedavg", "feddyn"])
    def test_server_starts_with_no_duals(self, kind, monkeypatch):
        # a FedDyn dual is made when its client first takes part, whatever the aggregator
        held, run_round = [], runner.run_round

        def count_duals(model, server, *args, **kwargs):
            held.append(len(server.duals))
            return run_round(model, server, *args, **kwargs)

        monkeypatch.setattr(runner, "run_round", count_duals)
        run_single(tiny_config(aggregator={"kind": kind}))
        assert held[0] == 0
        assert held[1] == (3 if kind == "feddyn" else 0)

    def test_client_views_share_one_gathered_copy_per_split(self, monkeypatch):
        train, split, data_alive = self.run_capturing_splits(monkeypatch, tiny_config())
        assert not data_alive
        # each split is one gathered copy, with one run of rows per client; a client's rows are slices of it
        for rows in (train, split):
            assert rows.x.base is None and rows.y.base is None
            assert len(rows.sizes) == 3 and rows.sizes.sum() == len(rows.y) == len(rows.x)
            assert rows.shared == 0
            for k in range(3):
                x, y = rows.own(k)
                assert x.base is rows.x and y.base is rows.y and len(y) == rows.sizes[k]

    def test_base_to_new_split_holds_the_new_class_rows_once(self, monkeypatch):
        # 5 classes: 3 base classes dealt to 3 clients, 2 new classes every view ends with
        config = tiny_config(setting="base_to_new", partition={"kind": "base_to_new"})
        _, split, data_alive = self.run_capturing_splits(monkeypatch, config)
        assert not data_alive
        own = split.sizes.sum()
        assert split.shared > 0 and len(split.y) == len(split.x) == own + split.shared
        bounds = np.cumsum(split.sizes)[:-1]
        base = [set(labels.tolist()) for labels in np.split(split.y[:own], bounds)]
        new = set(split.y[own:].tolist())
        assert [len(labels) for labels in base] == [1, 1, 1] and len(new) == 2
        assert not new & set.union(*base)


# a tiny config per partitioner, each split's rows drawn block by block
ORACLE_CONFIGS = {
    "dirichlet": {},
    "sort_partition": {"partition": {"kind": "sort_partition", "num_clients": 5, "classes_per_client": 2}},
    "domain": DIGEST_CONFIGS["domain"],
    "base_to_new": DIGEST_CONFIGS["base_to_new"],
}


class TestRowsWrittenIntoTheSplits:
    @pytest.mark.parametrize("kind", sorted(ORACLE_CONFIGS))
    def test_split_rows_are_the_dataset_order_rows_gathered_by_the_plan(self, kind):
        config = tiny_config(**ORACLE_CONFIGS[kind])
        plan, _, _, train, split = runner._set_up(config, RngStream(config.seed))
        assert plan.metadata["kind"] == kind
        want, _ = naive_generate_synthetic(config.data.synthetic, RngStream(config.seed).child("data"))
        x = dataset_rows(want)
        for rows, parts in ((train, plan.train_indices), (split, [*plan.test_indices, plan.shared_test])):
            ix = np.concatenate([np.asarray(part, dtype=np.int64) for part in parts])
            assert rows.x.dtype == x.dtype and rows.x.shape == (len(ix), x.shape[1])
            assert rows.x.tobytes() == x[ix].tobytes()
            assert rows.y.tobytes() == want.labels[ix].tobytes()


class TestBaseToNewConfig:
    def test_each_test_row_is_held_and_forwarded_once(self):
        # configs/base_to_new.json: 10 clients, 200 base rows in all and 200 shared new-class rows
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "base_to_new.json")
        _, _, model, _, split = runner._set_up(config, RngStream(config.seed))
        assert len(split.y) == 400 and split.sizes.sum() == split.shared == 200 and len(split.sizes) == 10
        assert not hasattr(split, "base_sizes")
        forwarded = []
        calls = count_forwards(model, forwarded)
        # a round's evaluation: one block of the base rows, one forward of the new rows
        probs = split_probs(model, model.initial, split)
        per_client = personalized_evaluate(probs, split)["per_client"]
        assert calls == [200, 200] and all(report is not None for report in per_client)
        assert all(x.base is split.x for x in forwarded)
        # the final breakdown reads the same probabilities: it forwards and gathers no rows
        out = runner.evaluate_base_new(probs, split)
        assert calls == [200, 200]
        assert out["new"] == scalars(calibration_report(ProbBatch(probs[200:], split.y[200:])))

    def test_client_without_base_test_rows_is_evaluated_on_the_new_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        protos = rng.normal(size=(6, 8))
        train_y, test_y = np.repeat(np.arange(6), 10), np.repeat(np.arange(6), 5)
        train_x, test_x = protos[train_y] + rng.normal(size=(60, 8)), protos[test_y] + rng.normal(size=(30, 8))
        paths = {name: str(tmp_path / f"{name}.bin") for name in ("train", "test", "prototypes")}
        write_embeddings(paths["train"], train_x, train_y, np.zeros(60))
        write_prototypes(paths["prototypes"], protos)
        payload = tiny_payload(setting="base_to_new", partition={"kind": "base_to_new", "num_clients": 3})
        config = parse_config({**payload, "data": {"embedding_files": paths}})
        write_embeddings(paths["test"], test_x, test_y, np.zeros(30))
        data, _ = build_data(config, RngStream(config.seed).child("data"))
        plan = build_plan(config, data, RngStream(config.seed).child("partition"))
        (missing,) = plan.metadata["client_base_classes"][1]
        # the same files without the test rows of client 1's only base class
        keep = test_y != missing
        write_embeddings(paths["test"], test_x[keep], test_y[keep], np.zeros(keep.sum()))

        _, _, model, train, split = runner._set_up(config, RngStream(config.seed))
        assert split.sizes.tolist() == [5, 0, 5] and split.shared == 15
        server = init_server(model.initial, len(train.sizes))
        run_round(model, server, train, config.federation, config.aggregator, config.loss,
                  0, RngStream(config.seed).child("rounds"))
        probs = split_probs(model, server.global_vector, split)
        evaluation = personalized_evaluate(probs, split)
        new_x, new_y = split.x[10:], split.y[10:]
        want = calibration_report(ProbBatch(softmax_rows(model.forward(new_x, server.global_vector)), new_y))
        assert evaluation["excluded"] == []
        for key, value in scalars(want).items():
            assert abs(evaluation["per_client"][1][key] - value) <= 1e-12
        final = runner.evaluate_base_new(probs, split)
        # client 1 has no base rows: base is the mean of clients 0 and 2 alone
        own = [scalars(calibration_report(ProbBatch(probs[a:b], split.y[a:b]))) for a, b in ((0, 5), (5, 10))]
        for key, value in final["base"].items():
            assert abs(value - np.mean([report[key] for report in own])) <= 1e-12
        assert final["new"] == scalars(calibration_report(ProbBatch(probs[10:], split.y[10:])))

    def test_final_new_is_the_shared_rows_report(self):
        # one report of the shared new-class rows, not a client mean of copies of it
        config = tiny_config(setting="base_to_new", partition={"kind": "base_to_new"}, federation={"rounds": 1})
        res = run_single(config)
        _, _, model, _, split = runner._set_up(config, RngStream(config.seed))
        probs = split_probs(model, np.array(res["final_global_vector"]), split)
        own = split.sizes.sum()
        shared = calibration_report(ProbBatch(probs[own:], split.y[own:]), config.metrics.bins, config.metrics.scheme)
        assert res["final"]["new"] == scalars(shared)

    def test_each_global_vector_is_forwarded_once(self, monkeypatch):
        # base-to-new with a temperature sweep: the final breakdown and the sweep
        # reuse the last round's logits, so no evaluation forward follows it
        config = tiny_config(setting="base_to_new", partition={"kind": "base_to_new"},
                             federation={"rounds": 3}, metrics={"temperatures": [0.5, 2.0]})
        events, trains, splits = [], [], []
        set_up, run_round = runner._set_up, runner.run_round

        def counted_set_up(*args):
            plan, model_config, model, train, split = set_up(*args)
            count_forwards(model, events, trains=trains)
            splits.append(split)
            return plan, model_config, model, train, split

        def marked_round(*args, **kwargs):
            events.append("round")
            return run_round(*args, **kwargs)

        monkeypatch.setattr(runner, "_set_up", counted_set_up)
        monkeypatch.setattr(runner, "run_round", marked_round)
        res = run_single(config)
        assert len(res["temperature_sweep"]) == 2 and res["final"]["harmonic_mean"] is not None
        (split,) = splits
        assert split.shared > 0
        # the evaluation forwards from each round's start to the next, each a slice of the split
        evaluated, modes = [], iter(trains)
        for event in events:
            if isinstance(event, str):
                evaluated.append([])
            elif not next(modes):
                assert event.base is split.x
                evaluated[-1].append(len(event))
        assert next(modes, None) is None and any(trains)
        assert evaluated == [[split.sizes.sum(), split.shared]] * 3


class TestOutputsOnDisk:
    def test_run_writes_expected_files(self, tmp_path):
        run_experiment(tiny_config(), out_dir=tmp_path)
        assert (tmp_path / "results.json").exists()
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "reliability.svg").exists()
        assert (tmp_path / "reliability.csv").exists()

    def test_report_reemission_is_byte_identical(self, tmp_path):
        run_experiment(tiny_config(), out_dir=tmp_path / "first")
        results = load_results(tmp_path / "first" / "results.json")
        write_outputs(render_outputs(results), tmp_path / "second")
        for name in ("results.json", "summary.csv", "reliability.svg", "reliability.csv"):
            assert (tmp_path / "first" / name).read_bytes() == (
                tmp_path / "second" / name
            ).read_bytes()

    def test_sweep_emits_per_point_and_merged(self, tmp_path):
        cfg = tiny_config(sweep={"alpha": [0.5, 100.0]})
        merged = run_experiment(cfg, out_dir=tmp_path)
        assert len(merged["runs"]) == 2
        run_dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert run_dirs == ["run_000_alpha-0.5", "run_001_alpha-100.0"]
        summary = (tmp_path / "sweep_summary.csv").read_text()
        assert summary.count("\n") == 3  # header + 2 rows
        # re-emitting the merged results writes the same files, byte for byte
        written = write_outputs(render_outputs(merged), tmp_path / "again")
        files = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file() and "again" not in p.parts)
        assert [p.relative_to(tmp_path / "again") for p in written] == files
        assert all((tmp_path / f).read_bytes() == (tmp_path / "again" / f).read_bytes() for f in files)


def load_benchmark_tracer():
    """``perfbench/tracer.py``, imported from its file as the benchmark's child process uses it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracer:
    def test_traced_run_keeps_its_bytes_and_yields_layer_metrics(self, tmp_path):
        # the tracer reads forward's embeddings as its first argument, the model's
        # config.class_count, and runner.run_round / run_single as looked up per call
        tracing = load_benchmark_tracer()
        assert list(inspect.signature(DualEncoderModel.forward).parameters)[:2] == ["self", "embeddings"]
        cfg = tiny_config()
        run_experiment(cfg, out_dir=tmp_path / "plain")
        tracer = tracing.Tracer("traced")
        originals = runner.run_round, runner.run_single
        tracing.install(tracer)
        try:
            run_experiment(cfg, out_dir=tmp_path / "traced")
        finally:
            tracer.uninstall()
        assert (runner.run_round, runner.run_single) == originals
        plain, traced = (load_results(tmp_path / side / "results.json") for side in ("plain", "traced"))
        assert results_canonical_bytes(traced) == results_canonical_bytes(plain)
        metrics = tracing.layer_metrics(tracer, run_s=1.0, results_bytes=0)
        spans = {span[tracing.NAME] for span in tracer.spans}
        assert {"runner.run_single", "runner.round", "model.forward", "model.backward"} <= spans
        assert metrics["model.forward_calls"] > 0 and metrics["model.backward_calls"] > 0
        assert metrics["model.forward_rows"] > 0 and metrics["model.text_rows_per_image_row"] > 0
        assert metrics["runner.round_s"] > 0


class TestBenchmarkChild:
    @pytest.mark.parametrize("sweep", [False, True], ids=["selfcheck", "rounds_sweep"])
    def test_child_reports_rounds_and_set_up_time(self, tmp_path, sweep):
        # perfbench/child.py patches runner.run_single and runner.run_round to time set-up
        repo = Path(__file__).resolve().parents[1]
        config = repo / "perfbench" / "selfcheck.json"
        if sweep:
            config = tmp_path / "sweep.json"
            config.write_text(json.dumps(tiny_payload(sweep={"rounds": [1, 2]})))
        env = {**os.environ, "PYTHONPATH": str(repo / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        files = {path: path.stat().st_mtime_ns for path in (repo / "perfbench").rglob("*")}
        child = subprocess.run(
            [sys.executable, str(repo / "perfbench" / "child.py"), str(config), str(tmp_path / "out"), "test"],
            cwd=repo, env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        report = json.loads(child.stdout.strip().splitlines()[-1])
        assert "error" not in report
        assert report["rounds"] == (3 if sweep else 2)
        assert report["setup_s"] > 0
        assert {path: path.stat().st_mtime_ns for path in (repo / "perfbench").rglob("*")} == files
