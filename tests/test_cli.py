"""Tests for the command-line interface and its exit-code contract."""

import json

import numpy as np
import pytest

from fedcalib import runner
from fedcalib.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_NUMERIC, EXIT_OK, main
from fedcalib.numerics import RngStream

from fixtures import write_embedding_csv, write_embeddings, write_prototypes


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
            views = original(*args)
            views[1]["train_x"] = views[1]["train_x"].copy()
            views[1]["train_x"][0, 0] = float("nan")
            return views

        monkeypatch.setattr(runner, "client_views", poisoned)
        cfg = write_tiny_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric error" in err and "on client 1, round 0, step" in err


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
    # FEMB stores f32, so 1e200 is written as inf
    "femb_value_beyond_float32": ("bin", "train", (7, 1, 1e200), None),
    "prototype_csv_zero_row": ("csv", "prototypes", (2, slice(None), 0.0), None),
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
