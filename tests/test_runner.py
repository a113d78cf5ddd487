"""Tests for experiment orchestration, results files, and report emission."""

import json
import tracemalloc
import weakref

import pytest

from fedcalib import runner
from fedcalib.calibration import pool_bins
from fedcalib.config import parse_config
from fedcalib.runner import (
    build_data,
    build_plan,
    emit_report,
    load_results,
    results_json,
    run_experiment,
    run_single,
    summary_csv,
)
from fedcalib.numerics import RngStream

from fixtures import results_canonical_bytes


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
        assert len(res["drift_series"]) == 2
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

        from fedcalib.federation import build_clients, init_server, train_participants
        from fedcalib.losses import LossSpec
        from fedcalib.model import zero_shot_init
        from fedcalib.runner import _reconcile_model, client_views

        rng = RngStream(cfg.seed)
        data, protos = build_data(cfg, rng.child("data"))
        plan = build_plan(cfg, data, rng.child("partition"))
        model = zero_shot_init(_reconcile_model(cfg, data), protos, rng.child("init"))
        clients = build_clients(client_views(data, plan, cfg.setting), model)
        server = init_server(model, 1)
        expected, _ = train_participants(
            model, [clients[0]], server.global_vector, cfg.federation, cfg.aggregator,
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
        original = runner.run_round

        def recording(*args, **kwargs):
            records.append(original(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(runner, "run_round", recording)
        overrides, excluded = self.CASES[case]
        res = run_single(tiny_config(**overrides))
        final, last = res["final"], res["rounds"][-1]
        assert final["excluded"] == excluded
        for key in ("per_client", "mean", "excluded"):
            assert json.dumps(final[key], sort_keys=True) == json.dumps(last[key], sort_keys=True)
        assert len(records) == len(res["rounds"])
        included = [r.bins for r in records[-1].client_reports if r is not None]
        assert final["pooled_bins"] == runner._bins_dict(pool_bins(included))


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

    def run_capturing_clients(self, monkeypatch, config):
        """Clients as built, and whether the dataset was alive at round 0."""
        clients, data_refs, alive_at_round_0 = [], [], []
        build_clients, build_data, run_round = runner.build_clients, runner.build_data, runner.run_round

        def capture_data(*args):
            data, protos = build_data(*args)
            data_refs.append(weakref.ref(data))
            return data, protos

        def capture_clients(*args):
            clients.extend(build_clients(*args))
            return clients

        def check_round(*args, **kwargs):
            alive_at_round_0.append(data_refs[0]() is not None)
            return run_round(*args, **kwargs)

        monkeypatch.setattr(runner, "build_data", capture_data)
        monkeypatch.setattr(runner, "build_clients", capture_clients)
        monkeypatch.setattr(runner, "run_round", check_round)
        run_single(config)
        return clients, alive_at_round_0[0]

    def test_client_views_share_one_gathered_copy_per_split(self, monkeypatch):
        clients, data_alive = self.run_capturing_clients(monkeypatch, tiny_config())
        assert not data_alive
        for attr in ("train_x", "train_y", "test_x", "test_y"):
            views = [getattr(c, attr) for c in clients]
            assert views[0].base is not None
            assert all(v.base is views[0].base for v in views)

    def test_base_to_new_shares_the_new_class_view(self, monkeypatch):
        config = tiny_config(setting="base_to_new", partition={"kind": "base_to_new"})
        clients, data_alive = self.run_capturing_clients(monkeypatch, config)
        assert not data_alive
        assert all(c.test_new is clients[0].test_new for c in clients)
        for c in clients:
            assert c.test_base[0].base is c.test_x.base
            assert len(c.test_base[1]) + len(c.test_new[1]) == len(c.test_y)


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
        emit_report(results, ("json", "csv", "svg"), tmp_path / "second")
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
