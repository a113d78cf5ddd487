"""Tests for the command-line interface and its exit-code contract."""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from fedcalib import runner
from fedcalib.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from fedcalib.config import expand_sweep, load_config, parse_config
from fedcalib.numerics import RngStream

from fixtures import own_rows, write_embedding_csv, write_embeddings, write_prototypes


def write_tiny_config(tmp_path, **extra):
    payload = {
        "seed": 5,
        "model": {"head_kind": "lora_both"},
        "federation": {"rounds": 1, "participation_rate": 1.0, "batch_size": 16},
        "partition": {"num_clients": 2, "alpha": 0.5},
        "data": {"synthetic": {"class_count": 4, "dim": 8, "samples_per_class": 10}},
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestRunVerb:
    def test_run_success(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "results.json").exists()
        assert "wrote results" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--seed", "6", "--out-dir", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a" / "results.json").read_text())
        b = json.loads((tmp_path / "b" / "results.json").read_text())
        assert a["config"]["seed"] == 5
        assert b["config"]["seed"] == 6
        assert a["final_global_vector"] != b["final_global_vector"]

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--seed", "-1", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"lora_rank": 0}}))
        code = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_embedding_file_exit_code(self, tmp_path, capsys):
        femb = tmp_path / "x.femb"
        femb.write_bytes(b"WAT?" + b"\x00" * 20)
        cfg = write_tiny_config(
            tmp_path,
            data={"embedding_files": {"train": str(femb), "test": str(femb), "prototypes": str(femb)}},
        )
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_FORMAT
        assert "format error" in capsys.readouterr().err

    def test_non_finite_training_data_exit_code(self, tmp_path, capsys, monkeypatch):
        original = runner.client_views

        def poisoned(*args):
            train, split = original(*args)
            own_rows(train, 1)[0][0, 0] = float("nan")
            return train, split

        monkeypatch.setattr(runner, "client_views", poisoned)
        cfg = write_tiny_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric error" in err and "on client 1, round 0, step" in err


    def test_empty_test_split_exits_config_before_training(self, tmp_path, capsys, monkeypatch):
        # one sample per class goes to the train split, so no client gets a test row
        rounds = []
        monkeypatch.setattr(runner, "run_round", lambda *args, **kwargs: rounds.append(args))
        cfg = write_tiny_config(tmp_path, data={"synthetic": {"class_count": 4, "dim": 8, "samples_per_class": 1}})
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "no client holds a test sample" in capsys.readouterr().err
        assert rounds == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, path", [
        # an infinite alpha made the Dirichlet draw reject every sample forever
        ({"partition": {"num_clients": 3, "alpha": math.inf}}, "partition.alpha"),
        # a tau this small overflowed the scaled logits after training
        ({"metrics": {"temperatures": [1e-310]}}, "metrics.temperatures[0]"),
    ], ids=["alpha-Infinity", "tiny-temperature"])
    def test_unusable_float_exits_config_before_training(self, tmp_path, capsys, monkeypatch, extra, path):
        rounds = []
        monkeypatch.setattr(runner, "run_round", lambda *args, **kwargs: rounds.append(args))
        cfg = write_tiny_config(tmp_path, **extra)
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert path in capsys.readouterr().err
        assert rounds == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "partition"])
    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_domain_generalization_over_one_domain_exits_config(self, tmp_path, capsys, monkeypatch, source, verb):
        # every row of the CSV set has domain 0; it used to run on 2 clients of one domain
        rounds = []
        monkeypatch.setattr(runner, "run_round", lambda *args, **kwargs: rounds.append(args))
        data = ({"synthetic": {"class_count": 4, "dim": 8, "samples_per_class": 10, "domain_count": 1}}
                if source == "synthetic" else {"embedding_files": write_embedding_set(tmp_path, "csv")})
        cfg = write_tiny_config(tmp_path, setting="domain_generalization", partition={"kind": "domain"}, data=data)
        code = main([verb, "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "domain_generalization needs data with at least 2 domains, got 1" in capsys.readouterr().err
        assert rounds == []
        assert not (tmp_path / "out").exists()

    def test_mdca_on_one_class_exits_config_before_training(self, tmp_path, capsys, monkeypatch):
        # it used to pass set-up and fail in round 0 with exit 1
        rounds = []
        monkeypatch.setattr(runner, "run_round", lambda *args, **kwargs: rounds.append(args))
        cfg = write_tiny_config(tmp_path, loss={"aux_kind": "mdca"},
                                data={"synthetic": {"class_count": 1, "dim": 8, "samples_per_class": 10}})
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "loss.aux_kind 'mdca' needs at least 2 classes" in capsys.readouterr().err
        assert rounds == []
        assert not (tmp_path / "out").exists()


def write_embedding_set(tmp_path, fmt, bad_value=None):
    """Train, test and prototype files of a 3-class, 4-dim set in ``fmt``
    ("csv" or "bin"); ``bad_value`` = (file, row, column, value) is written
    into that file's features (``column`` may be a slice)."""
    rng = RngStream(21)
    d, c = 4, 3
    features = {
        "train": rng.normal(24 * d).reshape(24, d),
        "test": rng.normal(12 * d).reshape(12, d),
        "prototypes": rng.normal(c * d).reshape(c, d),
    }
    if bad_value is not None:
        key, row, col, value = bad_value
        features[key][row, col] = value
    suffix = {"csv": (".csv", ".csv"), "bin": (".femb", ".fpro")}[fmt]
    paths = {
        "train": str(tmp_path / f"train{suffix[0]}"),
        "test": str(tmp_path / f"test{suffix[0]}"),
        "prototypes": str(tmp_path / f"prototypes{suffix[1]}"),
    }
    write = write_embedding_csv if fmt == "csv" else write_embeddings
    for key in ("train", "test"):
        n = len(features[key])
        write(paths[key], features[key], np.arange(n) % c, np.zeros(n, dtype=np.int64))
    if fmt == "csv":
        with open(paths["prototypes"], "w") as fh:
            fh.write("label," + ",".join(f"f{i}" for i in range(d)) + "\n")
            for i, row in enumerate(features["prototypes"]):
                fh.write(f"{i}," + ",".join(f"{v:.8g}" for v in row) + "\n")
    else:
        write_prototypes(paths["prototypes"], features["prototypes"])
    return paths


def replace_line(index, edit):
    def rewrite(path):
        lines = open(path).read().splitlines(keepends=True)
        lines[index] = edit(lines[index])
        open(path, "w").write("".join(lines))
    return rewrite


def keep_header_only(path):
    header = open(path).readline()
    open(path, "w").write(header)


def write_zero_records(path):
    write_embeddings(path, np.zeros((0, 4)), [], [])


def overwrite_header(offset, layout, *values):
    """Rewrite the header field at ``offset`` with ``values`` packed as ``layout``."""
    def rewrite(path):
        blob = bytearray(open(path, "rb").read())
        blob[offset : offset + struct.calcsize(layout)] = struct.pack(layout, *values)
        open(path, "wb").write(bytes(blob))
    return rewrite


# (format, broken file, bad feature value (row, column, value), rewrite of the written file)
MALFORMED_EMBEDDINGS = {
    "prototype_csv_label_not_integer": (
        "csv", "prototypes", None, replace_line(2, lambda line: "one" + line[1:])),
    "prototype_csv_header_only": ("csv", "prototypes", None, keep_header_only),
    "sample_csv_header_only": ("csv", "train", None, keep_header_only),
    "sample_csv_negative_label": ("csv", "train", None, replace_line(3, lambda line: "-1" + line[1:])),
    "sample_csv_nan_feature": ("csv", "test", (2, 1, float("nan")), None),
    "femb_nan_feature": ("bin", "train", (5, 0, float("nan")), None),
    "fpro_infinite_value": ("bin", "prototypes", (1, 3, float("inf")), None),
    # a row with norm 0, or one whose norm overflows, cannot be normalized
    "sample_csv_zero_row": ("csv", "train", (4, slice(None), 0.0), None),
    "sample_csv_norm_overflows": ("csv", "test", (3, 2, 1e200), None),
    "femb_zero_row": ("bin", "test", (0, slice(None), 0.0), None),
    "femb_zero_records_train": ("bin", "train", None, write_zero_records),
    "femb_zero_records_test": ("bin", "test", None, write_zero_records),
    # FEMB stores f32, so 1e200 is written as inf
    "femb_value_beyond_float32": ("bin", "train", (7, 1, 1e200), None),
    "prototype_csv_zero_row": ("csv", "prototypes", (2, slice(None), 0.0), None),
    # headers that claim terabytes: the claim is checked against the file before any allocation
    "femb_count_beyond_file": ("bin", "train", None, overwrite_header(12, "<Q", 2**40)),
    "fpro_size_beyond_file": ("bin", "prototypes", None, overwrite_header(4, "<II", 2**20, 2**20)),
    "fpro_trailing_bytes": ("bin", "prototypes", None, overwrite_header(4, "<II", 4, 2)),
}


class TestMalformedEmbeddingFiles:
    def run_on(self, tmp_path, paths):
        cfg = write_tiny_config(tmp_path, data={"embedding_files": paths})
        return main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_well_formed_set_runs(self, tmp_path, fmt):
        assert self.run_on(tmp_path, write_embedding_set(tmp_path, fmt)) == EXIT_OK

    @pytest.mark.parametrize("case", sorted(MALFORMED_EMBEDDINGS))
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_malformed_content_exits_format(self, tmp_path, capsys, case):
        fmt, key, bad_value, rewrite = MALFORMED_EMBEDDINGS[case]
        paths = write_embedding_set(tmp_path, fmt, bad_value and (key, *bad_value))
        if rewrite is not None:
            rewrite(paths[key])
        assert self.run_on(tmp_path, paths) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith(f"format error: {paths[key]}: ")
        assert not (tmp_path / "out").exists()


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


class TestPartitionVerb:
    def test_partition_emits_plan_and_audit(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        code = main(["partition", "--config", str(cfg), "--out-dir", str(tmp_path / "plan")])
        assert code == EXIT_OK
        plan = json.loads((tmp_path / "plan" / "plan.json").read_text())
        audit = json.loads((tmp_path / "plan" / "plan_audit.json").read_text())
        assert plan["num_clients"] == 2
        assert len(audit["entropy"]) == 2
        assert sum(audit["train_sizes"]) == sum(len(ix) for ix in plan["train_indices"])

    def test_base_to_new_audit_counts_the_shared_rows_in_every_view(self, tmp_path):
        cfg = write_tiny_config(tmp_path, setting="base_to_new", partition={"kind": "base_to_new", "num_clients": 2})
        code = main(["partition", "--config", str(cfg), "--out-dir", str(tmp_path / "plan")])
        assert code == EXIT_OK
        plan = json.loads((tmp_path / "plan" / "plan.json").read_text())
        audit = json.loads((tmp_path / "plan" / "plan_audit.json").read_text())
        shared = len(plan["shared_test_indices"])
        assert shared > 0
        assert audit["test_sizes"] == [len(ix) + shared for ix in plan["test_indices"]]
        config = parse_config(json.loads(cfg.read_text()))
        *_, split = runner._set_up(config, RngStream(config.seed))
        assert audit["test_sizes"] == split.view_sizes.tolist()

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
    def test_each_plan_is_the_one_its_run_trains_on_in_its_run_directory(self, tmp_path, path):
        out = tmp_path / "plan"
        assert main(["partition", "--config", str(path), "--out-dir", str(out)]) == EXIT_OK
        config = load_config(path)
        points = expand_sweep(config)
        # the directory of each point's results.json, as run writes it
        results = {"runs": [{"sweep_point": point} for point, _ in points]} if config.sweep else {}
        dirs = [Path(name).parent for name in runner.render_outputs(results, ("json",))]
        assert len(dirs) == len(points)
        written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert written == sorted(d / name for d in dirs for name in ("plan.json", "plan_audit.json"))
        for directory, (_, point_config) in zip(dirs, points):
            plan = runner._set_up(point_config, RngStream(point_config.seed))[0]
            assert (out / directory / "plan.json").read_text() == plan.to_json()

    def test_failed_write_leaves_no_plan_behind(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        (tmp_path / "out" / "plan_audit.json").mkdir(parents=True)
        assert main(["partition", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_IO
        assert "io error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "plan.json").exists()


# results files of the right shape that lack a key the report renders
_MEAN = {key: 0.5 for key in ("accuracy", "ece", "mce", "ace", "brier", "nll")}
_BINS = {"scheme": "equal_width", "counts": [1], "accuracy": [1.0], "confidence": [0.9]}
_RUN = {"method": "m", "config": {"setting": "s"}, "final": {"mean": _MEAN, "pooled_bins": _BINS}}
MISSING_RENDERED_KEYS = [json.dumps(payload) for payload in (
    {"final": {"mean": {}}},
    {"method": "m", "config": {}, "final": {"mean": {}}},
    {**_RUN, "final": {"mean": {k: v for k, v in _MEAN.items() if k != "ece"}, "pooled_bins": _BINS}},
    {**_RUN, "final": {"mean": _MEAN}},
    {"runs": [_RUN, {k: v for k, v in _RUN.items() if k != "method"}]},
    {**_RUN, "final": {**_RUN["final"], "harmonic_mean": _MEAN}},
)]
# results files that render wrongly: a sweep point whose run directory would
# leave the output directory, and pooled bins without one bin or of unequal lengths
MISRENDERED = [json.dumps(payload) for payload in (
    {"runs": [{**_RUN, "sweep_point": {"k": "/../../outside"}}]},
    {**_RUN, "final": {"mean": _MEAN, "pooled_bins": {**_BINS, "counts": [], "accuracy": [], "confidence": []}}},
    {**_RUN, "final": {"mean": _MEAN, "pooled_bins": {**_BINS, "accuracy": [0.5, 0.7]}}},
)]


class TestReportVerb:
    def test_report_rerenders(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        code = main(
            ["report", "--results", str(tmp_path / "out" / "results.json"),
             "--out-dir", str(tmp_path / "re"), "--kind", "csv"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "re" / "summary.csv").read_bytes() == (
            tmp_path / "out" / "summary.csv"
        ).read_bytes()
        assert not (tmp_path / "re" / "reliability.svg").exists()

    def test_sweep_summary_names_each_point_of_a_two_axis_sweep(self, tmp_path):
        cfg = write_tiny_config(tmp_path, sweep={"rounds": [1, 2], "alpha": [0.1, 1.0]})
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        lines = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
        # one column per axis after the setting, axes sorted by name as in the run directories
        assert lines[0] == "method,setting,alpha,rounds,acc,ece,mce,ace,brier,nll"
        assert [line.split(",")[:4] for line in lines[1:]] == [
            ["lora_both", "in_distribution", alpha, rounds] for alpha in ("0.1", "1.0") for rounds in ("1", "2")
        ]
        # the report of the merged results rebuilds the same file
        merged = runner.run_experiment(load_config(cfg))
        (tmp_path / "merged.json").write_text(runner.results_json(merged))
        assert main(["report", "--results", str(tmp_path / "merged.json"), "--out-dir", str(tmp_path / "re"),
                     "--kind", "csv"]) == EXIT_OK
        rebuilt = (tmp_path / "re" / "sweep_summary.csv").read_bytes()
        assert rebuilt == (tmp_path / "out" / "sweep_summary.csv").read_bytes()

    def test_report_rerenders_a_results_file_with_drift_series(self, tmp_path):
        # results written before update norms: drift mean and std per round, and a drift series
        cfg = write_tiny_config(tmp_path)
        main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        for row in results["rounds"]:
            del row["update_norms"]
            row["drift_mean"], row["drift_std"] = 0.001, 0.0002
        results["drift_series"] = [{"round": r["round"], "mean": 0.001, "std": 0.0002} for r in results["rounds"]]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(results))
        assert main(["report", "--results", str(old), "--out-dir", str(tmp_path / "re")]) == EXIT_OK
        for name in ("summary.csv", "reliability.csv", "reliability.svg"):
            assert (tmp_path / "re" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()

    @pytest.mark.parametrize("content", ["not json", '{"runs": 3}', "[]", '{"final": 1}', '{"runs": [{}]}', b"\xff\xfe",
                                         *MISSING_RENDERED_KEYS, *MISRENDERED],
                             ids=["not_json", "runs_not_a_list", "not_an_object", "final_not_an_object",
                                  "run_without_final", "not_utf8", "no_method", "no_setting", "mean_without_ece",
                                  "no_pooled_bins", "sweep_run_without_method", "harmonic_mean_without_base",
                                  "run_directory_leaves_out_dir", "empty_pooled_bins", "unequal_pooled_bins"])
    def test_malformed_results_exit_format_naming_the_file(self, tmp_path, capsys, content):
        path = tmp_path / "results.json"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        assert main(["report", "--results", str(path), "--out-dir", str(tmp_path / "re")]) == EXIT_FORMAT
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "re").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]  # nothing written anywhere


class TestBenchVerb:
    def test_bench_prints_pass_lines(self, capsys, monkeypatch):
        rows = [("ordering holds", True, "a 1 vs 2"), ("other ordering", True, "b")]
        monkeypatch.setattr("fedcalib.cli.run_trend_suite", lambda progress=None: rows)
        assert main(["bench"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_bench_fail_exit_code(self, capsys, monkeypatch):
        rows = [("ordering holds", False, "a 2 vs 1")]
        monkeypatch.setattr("fedcalib.cli.run_trend_suite", lambda progress=None: rows)
        assert main(["bench"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_report_requires_results(self):
        with pytest.raises(SystemExit):
            main(["report", "--out-dir", "x"])
