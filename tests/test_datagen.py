"""Tests for synthetic data generation and embedding-file ingestion."""

import tracemalloc

import numpy as np
import pytest

from fedcalib.calibration import ProbBatch, calibration_report
from fedcalib.datagen import (
    SyntheticSpec,
    generate_synthetic,
    load_embeddings,
    read_embeddings,
)
from fedcalib.errors import ConfigError, FormatError
from fedcalib.model import ModelConfig, zero_shot_init
from fedcalib.numerics import RngStream, softmax_rows

from fixtures import dataset_rows, write_embedding_csv, write_embeddings, write_prototypes
from oracles import naive_generate_synthetic


def zs_accuracy(data, protos, seed=0):
    model = zero_shot_init(
        ModelConfig(embed_dim=data.dim, class_count=data.class_count, head_kind="zero_shot"),
        protos,
        RngStream(seed).child("init"),
    )
    te = data.test_indices()
    logits = model.forward(dataset_rows(data)[te], model.initial)
    return calibration_report(ProbBatch(softmax_rows(logits), data.labels[te]), 15).accuracy


class TestGenerateSynthetic:
    def test_balanced_and_unit_norm(self):
        spec = SyntheticSpec(class_count=5, dim=16, samples_per_class=30)
        data, protos = generate_synthetic(spec, RngStream(1))
        assert data.sample_count == 150
        assert np.array_equal(np.bincount(data.labels), [30] * 5)
        assert np.allclose(np.linalg.norm(dataset_rows(data), axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-12)

    def test_stratified_split(self):
        spec = SyntheticSpec(class_count=4, dim=8, samples_per_class=10, train_fraction=0.8)
        data, _ = generate_synthetic(spec, RngStream(2))
        for c in range(4):
            mask = data.labels == c
            assert data.is_train[mask].sum() == 8

    def test_same_seed_byte_identical(self):
        spec = SyntheticSpec(class_count=3, dim=8, samples_per_class=5)
        a, pa = generate_synthetic(spec, RngStream(3, 77))
        b, pb = generate_synthetic(spec, RngStream(3, 77))
        assert dataset_rows(a).tobytes() == dataset_rows(b).tobytes()
        assert pa.tobytes() == pb.tobytes()

    def test_noiseless_limit_perfect_zero_shot(self):
        spec = SyntheticSpec(class_count=6, dim=16, samples_per_class=10, noise_sigma=1e-9)
        data, protos = generate_synthetic(spec, RngStream(4))
        assert zs_accuracy(data, protos) == 1.0

    def test_default_regime_calibration_study_band(self):
        # frozen default sigma puts zero-shot accuracy in the study band
        accs = [
            zs_accuracy(*generate_synthetic(SyntheticSpec(), RngStream(seed).child("data")), seed=seed)
            for seed in range(10)
        ]
        assert all(0.55 < a < 0.8 for a in accs)
        assert 0.6 < np.mean(accs) < 0.75

    def test_domains_shift_geometry(self):
        spec = SyntheticSpec(class_count=4, dim=16, samples_per_class=40, domain_count=3)
        data, _ = generate_synthetic(spec, RngStream(5))
        assert data.domain_count() == 3
        assert np.array_equal(np.bincount(data.domains), [160, 160, 160])
        # per-domain class means should differ across domains
        means = []
        for dom in range(3):
            mask = (data.domains == dom) & (data.labels == 0)
            means.append(dataset_rows(data)[mask].mean(axis=0))
        assert np.linalg.norm(means[0] - means[1]) > 0.01
        assert np.linalg.norm(means[0] - means[2]) > 0.01

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(class_count=5, dim=16, samples_per_class=30, domain_count=3),
            SyntheticSpec(class_count=3, dim=8, samples_per_class=1, domain_count=2),
            SyntheticSpec(class_count=4, dim=8, samples_per_class=7, domain_count=4, train_fraction=0.3),
            # blocks hold consecutive classes of a domain up to SYNTHETIC_BLOCK_ROWS (256) rows
            SyntheticSpec(class_count=3, dim=8, samples_per_class=300, domain_count=3),
            SyntheticSpec(class_count=7, dim=16, samples_per_class=100, domain_count=3),
            SyntheticSpec(class_count=10, dim=9, samples_per_class=60, domain_count=3, train_fraction=0.3),
        ],
        ids=["three_domains", "one_sample_per_class", "four_domains_ragged_split",
             "class_above_block_budget", "two_classes_per_block_odd_count", "four_classes_per_block_odd_dim"],
    )
    def test_matches_block_stacking_oracle(self, spec):
        data, protos = generate_synthetic(spec, RngStream(6, 3))
        want, want_protos = naive_generate_synthetic(spec, RngStream(6, 3))
        assert data.dim == want.dim
        for field in ("rows", "labels", "domains", "is_train"):
            got, expected = (dataset_rows(data), dataset_rows(want)) if field == "rows" else (
                getattr(data, field), getattr(want, field))
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), field
        assert protos.tobytes() == want_protos.tobytes()

    def test_rows_are_written_once(self):
        # block-wise stacking holds every block and the stacked matrix at once (about 2.1x)
        spec = SyntheticSpec(class_count=20, dim=64, samples_per_class=100, domain_count=3)
        dataset_rows(generate_synthetic(spec, RngStream(7))[0])  # warm caches outside the measurement
        tracemalloc.start()
        try:
            x = dataset_rows(generate_synthetic(spec, RngStream(7))[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(noise_sigma=0.0)
        with pytest.raises(ConfigError):
            SyntheticSpec(train_fraction=1.0)
        with pytest.raises(ConfigError):
            SyntheticSpec(class_count=0)


class TestBinaryFormats:
    def _sample_blob(self, n=7, d=5, seed=6):
        rng = RngStream(seed)
        x = rng.normal(n * d).reshape(n, d)
        labels = (rng.u64(n) % np.uint64(3)).astype(np.int64)
        domains = (rng.u64(n) % np.uint64(2)).astype(np.int64)
        return x, labels, domains

    def test_roundtrip(self, tmp_path):
        x, labels, domains = self._sample_blob()
        path = tmp_path / "data.femb"
        write_embeddings(path, x, labels, domains)
        rx, rl, rd = read_embeddings(path)
        assert np.allclose(rx, x, atol=1e-6)  # f32 storage
        assert rx.tobytes() == x.astype(np.float32).astype(np.float64).tobytes()
        assert np.array_equal(rl, labels)
        assert np.array_equal(rd, domains)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.femb"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_embeddings(path)

    def test_truncated_file_names_offset(self, tmp_path):
        x, labels, domains = self._sample_blob()
        path = tmp_path / "trunc.femb"
        write_embeddings(path, x, labels, domains)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(FormatError, match="byte"):
            read_embeddings(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        x, labels, domains = self._sample_blob()
        path = tmp_path / "extra.femb"
        write_embeddings(path, x, labels, domains)
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(FormatError, match="trailing"):
            read_embeddings(path)


class TestLoadEmbeddings:
    def _write_set(self, tmp_path, d=6, c=3, fmt="bin"):
        rng = RngStream(7)
        protos = rng.normal(c * d).reshape(c, d)
        tr_x = rng.normal(12 * d).reshape(12, d)
        tr_y = np.arange(12) % c
        te_x = rng.normal(6 * d).reshape(6, d)
        te_y = np.arange(6) % c
        zeros = np.zeros(12, dtype=np.int64)
        if fmt == "bin":
            train, test, pro = tmp_path / "train.femb", tmp_path / "test.femb", tmp_path / "p.fpro"
            write_embeddings(train, tr_x, tr_y, zeros)
            write_embeddings(test, te_x, te_y, zeros[:6])
            write_prototypes(pro, protos)
        else:
            train, test, pro = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "p.csv"
            write_embedding_csv(train, tr_x, tr_y, zeros)
            write_embedding_csv(test, te_x, te_y, zeros[:6])
            with open(pro, "w") as fh:
                fh.write("label," + ",".join(f"f{i}" for i in range(d)) + "\n")
                for i in range(c):
                    fh.write(f"{i}," + ",".join(f"{v:.8g}" for v in protos[i]) + "\n")
        return train, test, pro

    def test_binary_pipeline(self, tmp_path):
        train, test, pro = self._write_set(tmp_path)
        data, protos = load_embeddings(train, test, pro)
        assert data.sample_count == 18
        assert data.train_indices().size == 12
        assert data.class_count == 3
        assert np.allclose(np.linalg.norm(dataset_rows(data), axis=1), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-9)

    def test_csv_pipeline_counts(self, tmp_path):
        train, test, pro = self._write_set(tmp_path, d=64, fmt="csv")
        data, protos = load_embeddings(train, test, pro)
        assert data.dim == 64
        assert protos.shape == (3, 64)

    def test_csv_two_rows_shape(self, tmp_path):
        # header label,domain,f0..f63 with 2 rows gives n = 2, d = 64
        d = 64
        rng = RngStream(8)
        path = tmp_path / "two.csv"
        write_embedding_csv(path, rng.normal(2 * d).reshape(2, d), np.array([0, 1]), np.zeros(2, int))
        from fedcalib.datagen import _read_embedding_csv

        x, labels, domains = _read_embedding_csv(path)
        assert x.shape == (2, 64)

    def test_prototype_count_mismatch_names_both(self, tmp_path):
        train, test, _ = self._write_set(tmp_path)
        bad = tmp_path / "bad.fpro"
        write_prototypes(bad, RngStream(9).normal(5 * 6).reshape(5, 6))
        with pytest.raises(FormatError, match="5 classes.*imply 3"):
            load_embeddings(train, test, bad)

    def test_dimension_mismatch_rejected(self, tmp_path):
        train, test, _ = self._write_set(tmp_path, d=6)
        bad = tmp_path / "bad.fpro"
        write_prototypes(bad, RngStream(10).normal(3 * 9).reshape(3, 9))
        with pytest.raises(FormatError, match="dimension"):
            load_embeddings(train, test, bad)
