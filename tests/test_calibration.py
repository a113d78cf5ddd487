"""Tests for binning, calibration metrics, temperature scaling, and export."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcalib.calibration import (
    ProbBatch,
    apply_temperature,
    calibration_report,
    fit_temperature,
    harmonic_mean,
    reliability_csv,
    reliability_rows,
    reliability_svg,
    segmented_reports,
)
from fedcalib.errors import InvalidInputError
from fedcalib.numerics import RngStream, softmax_rows

from fixtures import scalars
from oracles import (
    naive_accuracy,
    naive_ace,
    naive_bins,
    naive_brier,
    naive_ece,
    naive_ece_of_bins,
    naive_mce,
    naive_nll,
    random_prob_batch,
)


def two_sample_batch():
    # conf 0.8 (correct) and 0.6 (incorrect): with G = 1 this gives
    # acc 0.5, conf 0.7, gap 0.2
    probs = np.array([[0.8, 0.2], [0.6, 0.4]])
    labels = np.array([0, 1])
    return ProbBatch(probs, labels)


class TestProbBatch:
    def test_rejects_bad_rows(self):
        with pytest.raises(InvalidInputError):
            ProbBatch(np.array([[0.5, 0.6]]), np.array([0]))
        with pytest.raises(InvalidInputError):
            ProbBatch(np.array([[0.5, 0.5]]), np.array([2]))
        with pytest.raises(InvalidInputError):
            ProbBatch(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_argmax_tie_breaks_low_index(self):
        b = ProbBatch(np.array([[0.5, 0.5]]), np.array([1]))
        assert b.predictions()[0] == 0


class TestBinPredictions:
    def test_single_sample(self):
        b = ProbBatch(np.array([[0.7, 0.3]]), np.array([0]))
        rb = calibration_report(b, 10).bins
        nonempty = rb.counts > 0
        assert nonempty.sum() == 1
        assert rb.accuracy[nonempty][0] == 1.0
        assert rb.confidence[nonempty][0] == pytest.approx(0.7)

    def test_two_sample_single_bin(self):
        rb = calibration_report(two_sample_batch(), 1).bins
        assert rb.counts[0] == 2
        assert rb.accuracy[0] == pytest.approx(0.5)
        assert rb.confidence[0] == pytest.approx(0.7)

    def test_boundary_confidence_goes_to_lower_bin(self):
        # conf exactly 0.1 with G = 10 belongs to bin 1, interval (0, 0.1]
        probs = np.full((1, 10), 0.1)
        rb = calibration_report(ProbBatch(probs, np.array([0])), 10).bins
        assert rb.counts[0] == 1
        assert rb.counts[1:].sum() == 0

    def test_counts_sum_to_n(self):
        rng = RngStream(30)
        for i in range(30):
            probs, labels = random_prob_batch(rng)
            rb = calibration_report(ProbBatch(probs, labels), 15).bins
            assert rb.counts.sum() == len(labels)

    def test_equal_mass_sizes(self):
        rng = RngStream(31)
        probs, labels = random_prob_batch(rng, max_n=103)
        rb = calibration_report(ProbBatch(probs, labels), 7, scheme="equal_mass").bins
        n = len(labels)
        assert rb.counts.sum() == n
        assert rb.counts.max() - rb.counts.min() <= 1

    def test_rejects_zero_bins(self):
        with pytest.raises(InvalidInputError):
            calibration_report(two_sample_batch(), 0)


class TestMetricsAgainstOracle:
    def test_trivial_perfect_predictions(self):
        probs = np.eye(4)[np.array([0, 1, 2, 3])]
        batch = ProbBatch(probs, np.array([0, 1, 2, 3]))
        rep = calibration_report(batch, 15)
        assert rep.accuracy == 1.0
        assert rep.ece == 0.0
        assert rep.mce == 0.0
        assert rep.ace == 0.0
        assert rep.brier == 0.0
        assert rep.nll == 0.0

    def test_two_sample_hand_values(self):
        rep = calibration_report(two_sample_batch(), 1)
        assert rep.ece == pytest.approx(0.2)
        assert rep.mce == pytest.approx(0.2)
        assert rep.ace == pytest.approx(0.2)

    def test_uniform_binary_closed_form(self):
        batch = ProbBatch(np.array([[0.5, 0.5]]), np.array([1]))
        assert calibration_report(batch).brier == pytest.approx(0.5)
        assert calibration_report(batch).nll == pytest.approx(math.log(2.0))

    def test_oracle_equivalence_100_batches(self):
        rng = RngStream(32)
        for i in range(100):
            probs, labels = random_prob_batch(rng)
            batch = ProbBatch(probs, labels)
            rep = calibration_report(batch, 15)
            assert abs(rep.ece - naive_ece(probs, labels, 15)) <= 1e-12
            assert abs(rep.mce - naive_mce(probs, labels, 15)) <= 1e-12
            assert abs(rep.ace - naive_ace(probs, labels, 15)) <= 1e-12
            assert abs(rep.brier - naive_brier(probs, labels)) <= 1e-12
            assert abs(rep.nll - naive_nll(probs, labels)) <= 1e-12
            assert abs(rep.accuracy - naive_accuracy(probs, labels)) <= 1e-12

    def test_mce_dominates_ece_and_ace(self):
        rng = RngStream(33)
        for i in range(500):
            probs, labels = random_prob_batch(rng, max_n=60)
            rep = calibration_report(ProbBatch(probs, labels), 15)
            assert rep.mce >= rep.ece - 1e-15
            assert rep.mce >= rep.ace - 1e-15

    def test_permutation_invariance(self):
        rng = RngStream(34)
        probs, labels = random_prob_batch(rng)
        perm = RngStream(35).permutation(len(labels))
        a = calibration_report(ProbBatch(probs, labels), 15)
        b = calibration_report(ProbBatch(probs[perm], labels[perm]), 15)
        for key, val in scalars(a).items():
            assert val == pytest.approx(scalars(b)[key], abs=1e-12)

    def test_split_and_pool_reproduces_whole_batch(self):
        rng = RngStream(36)
        probs, labels = random_prob_batch(rng, max_n=150)
        n = len(labels)
        if n < 2:
            probs = np.vstack([probs, probs])
            labels = np.concatenate([labels, labels])
            n = 2
        cut = n // 2
        whole = calibration_report(ProbBatch(probs, labels), 15)
        pooled = segmented_reports(ProbBatch(probs, labels), [cut, n - cut], 15).pooled_bins()
        assert np.array_equal(pooled.counts, whole.bins.counts)
        assert naive_ece_of_bins(pooled.counts, pooled.accuracy, pooled.confidence) == pytest.approx(
            whole.ece, abs=1e-12
        )

    def test_brier_range(self):
        # totally wrong confident prediction gives the maximum of 2
        batch = ProbBatch(np.array([[1.0, 0.0]]), np.array([1]))
        assert calibration_report(batch).brier == pytest.approx(2.0)


def scaled_nll(logits, labels, tau) -> float:
    """NLL of ``logits`` at temperature ``tau``, through the metric suite."""
    return calibration_report(ProbBatch(apply_temperature(logits, tau), labels)).nll


class TestTemperature:
    def _random_logits(self, seed, n=64, c=6, sharp=3.0, flip=0.25):
        # labels mostly agree with the argmax so the NLL-optimal temperature
        # is interior rather than pinned at a bound
        rng = RngStream(seed)
        logits = rng.normal(n * c).reshape(n, c) * sharp
        labels = logits.argmax(axis=1)
        flips = rng.random(n) < flip
        labels[flips] = (rng.u64(n)[flips] % np.uint64(c)).astype(np.int64)
        return logits, labels

    def test_tau_one_is_plain_softmax(self):
        logits, _ = self._random_logits(40)
        scaled = apply_temperature(logits, 1.0)
        assert np.allclose(scaled, softmax_rows(logits))

    def test_large_tau_approaches_uniform(self):
        logits, _ = self._random_logits(41, c=5)
        scaled = apply_temperature(logits, 1e6)
        assert np.allclose(scaled, 0.2, atol=1e-5)

    def test_accuracy_bit_equal_under_scaling(self):
        logits, labels = self._random_logits(42)
        base = calibration_report(ProbBatch(apply_temperature(logits, 1.0), labels)).accuracy
        for tau in (0.1, 0.5, 1.0, 2.0, 5.0):
            scaled = ProbBatch(apply_temperature(logits, tau), labels)
            assert calibration_report(scaled).accuracy == base

    def test_rejects_nonpositive_tau(self):
        logits, _ = self._random_logits(43)
        for tau in (0.0, -2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError):
                apply_temperature(logits, tau)

    def test_fitted_never_worse_than_unit(self):
        for seed in range(10):
            logits, labels = self._random_logits(50 + seed, sharp=4.0)
            tau = fit_temperature(logits, labels)
            nll_fit = scaled_nll(logits, labels, tau)
            nll_one = scaled_nll(logits, labels, 1.0)
            assert nll_fit <= nll_one + 1e-15

    def test_refit_of_scaled_logits_is_near_one(self):
        logits, labels = self._random_logits(60, n=256, sharp=5.0)
        first = fit_temperature(logits, labels)
        second = fit_temperature(logits / first, labels)
        assert abs(second - 1.0) <= 1e-2

    def test_scaling_logits_scales_fitted_tau(self):
        logits, labels = self._random_logits(61, n=256, sharp=5.0)
        t1 = fit_temperature(logits, labels)
        k = 2.5
        t2 = fit_temperature(logits * k, labels)
        assert t2 == pytest.approx(k * t1, rel=2e-2)

    def test_single_confident_correct_sample_hits_lower_bound(self):
        tau = fit_temperature(np.array([[4.0, 0.0, 0.0]]), np.array([0]))
        assert tau == pytest.approx(0.05, abs=1e-3)

    def test_sweep_reports_per_tau(self):
        logits, labels = self._random_logits(62)
        scaled = [ProbBatch(apply_temperature(logits, tau), labels) for tau in (0.5, 1.0, 2.0)]
        accs = {calibration_report(batch).accuracy for batch in scaled}
        assert len(accs) == 1  # argmax invariance

    # fitted temperatures of seeded batches, keyed by (seed, n, C, sharpness),
    # as float.hex(); recorded when the fit ran on LogitBatch and
    # TemperatureScaler, so a change to the grid, the search or the
    # objective's arithmetic shows here
    PINNED_TAU = {
        (70, 64, 6, 3.0): "0x1.89b4dca6a5875p+0",
        (71, 256, 10, 5.0): "0x1.869a05a0f9bfcp+1",
        (72, 16, 3, 1.0): "0x1.5a745ce7dd2f2p-1",
        (73, 128, 4, 8.0): "0x1.4dffed5f8accdp+2",
        (74, 1, 2, 0.5): "0x1.3fffb8f504d7ap+3",
    }

    @pytest.mark.parametrize("key", sorted(PINNED_TAU))
    def test_fitted_tau_is_pinned(self, key):
        tau = fit_temperature(*self._random_logits(*key))
        assert type(tau) is float
        assert tau.hex() == self.PINNED_TAU[key]


SCHEMES = ("equal_width", "equal_mass")


def prob_rows(seed, n, c=5, tied=False):
    """n probability rows and labels; ``tied`` draws rows from four fixed
    vectors, so confidences repeat."""
    rng = RngStream(seed)
    if tied:
        table = softmax_rows(RngStream(seed, 1).normal(4 * c).reshape(4, c))
        probs = table[(rng.u64(n) % np.uint64(4)).astype(np.int64)]
    else:
        probs = softmax_rows(rng.normal(n * c).reshape(n, c) * 2.0)
    labels = (rng.u64(n) % np.uint64(c)).astype(np.int64)
    return probs, labels


def naive_scalars(probs, labels, bins, scheme):
    return {
        "accuracy": naive_accuracy(probs, labels),
        "ece": naive_ece(probs, labels, bins, scheme),
        "mce": naive_mce(probs, labels, bins, scheme),
        "ace": naive_ace(probs, labels, bins, scheme),
        "brier": naive_brier(probs, labels),
        "nll": naive_nll(probs, labels),
    }


def split_rows(probs, labels, sizes):
    bounds = np.cumsum([0, *sizes])
    return [(probs[a:b], labels[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


class TestSegmentedReports:
    def assert_matches_oracle(self, probs, labels, sizes, bins, scheme):
        table = segmented_reports(ProbBatch(probs, labels), sizes, bins, scheme)
        segments = split_rows(probs, labels, sizes)
        assert [len(column) for column in table.columns.values()] == [len(sizes)] * 6
        for i, (p, y) in enumerate(segments):
            rep = table.report(i)
            assert table.rows()[i] == scalars(rep)
            assert rep.bins.counts.tolist() == [count for count, _, _ in naive_bins(p, y, bins, scheme)]
            for key, value in naive_scalars(p, y, bins, scheme).items():
                assert abs(scalars(rep)[key] - value) <= 1e-12, key
        # the unweighted client mean and the bins pooled over the segments
        for key, value in table.mean().items():
            assert abs(value - np.mean([naive_scalars(p, y, bins, scheme)[key] for p, y in segments])) <= 1e-12
        per_segment = [naive_bins(p, y, bins, scheme) for p, y in segments]
        pooled = table.pooled_bins()
        for g in range(bins):
            count = sum(seg[g][0] for seg in per_segment)
            assert pooled.counts[g] == count
            for stat, column in ((1, pooled.accuracy), (2, pooled.confidence)):
                want = sum(seg[g][0] * seg[g][stat] for seg in per_segment) / count if count else 0.0
                assert abs(column[g] - want) <= 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_row_segments(self, scheme):
        probs, labels = prob_rows(80, 30)
        self.assert_matches_oracle(probs, labels, [1] * 30, 15, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_segments_smaller_than_bin_count(self, scheme):
        sizes = [3, 14, 1, 9, 15, 16, 40]
        probs, labels = prob_rows(81, sum(sizes))
        self.assert_matches_oracle(probs, labels, sizes, 15, scheme)

    @pytest.mark.parametrize("bins", [1, 4, 15])
    def test_equal_mass_confidence_ties(self, bins):
        sizes = [7, 1, 3, 20, 2, 33]
        probs, labels = prob_rows(82, sum(sizes), tied=True)
        self.assert_matches_oracle(probs, labels, sizes, bins, "equal_mass")

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=15),
        bins=st.sampled_from([1, 3, 15]),
        scheme=st.sampled_from(SCHEMES),
        tied=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_segmentations_match_per_segment_reports(self, sizes, bins, scheme, tied, seed):
        # calibration_report is the one-segment case of the same code, so the
        # oracles are the independent reference; the per-segment reports check
        # that no statistic leaks across segment boundaries
        probs, labels = prob_rows(seed, sum(sizes), tied=tied)
        self.assert_matches_oracle(probs, labels, sizes, bins, scheme)
        table = segmented_reports(ProbBatch(probs, labels), sizes, bins, scheme)
        for i, (p, y) in enumerate(split_rows(probs, labels, sizes)):
            rep, ref = table.report(i), calibration_report(ProbBatch(p, y), bins, scheme)
            assert np.array_equal(rep.bins.counts, ref.bins.counts)
            assert np.allclose(rep.bins.accuracy, ref.bins.accuracy, rtol=0, atol=1e-12)
            assert np.allclose(rep.bins.confidence, ref.bins.confidence, rtol=0, atol=1e-12)
            for key, value in scalars(ref).items():
                assert abs(scalars(rep)[key] - value) <= 1e-12, key

    def test_rejects_sizes_that_do_not_cover_the_batch(self):
        batch = ProbBatch(*prob_rows(83, 6))
        for sizes in ([2, 3], [2, 5], [3, 0, 3], []):
            with pytest.raises(InvalidInputError):
                segmented_reports(batch, sizes)
        with pytest.raises(InvalidInputError):
            segmented_reports(batch, [6], scheme="quantile")


class TestHarmonicMean:
    def test_equal_inputs(self):
        assert harmonic_mean(90.0, 90.0) == pytest.approx(90.0)

    def test_zero_annihilates(self):
        assert harmonic_mean(75.0, 0.0) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0

    def test_reference_value(self):
        assert harmonic_mean(89.34, 89.83) == pytest.approx(89.58, abs=5e-3)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            harmonic_mean(-1.0, 5.0)


class TestReliabilityExport:
    def test_rows_match_bins(self):
        rb = calibration_report(two_sample_batch(), 1).bins
        rows = reliability_rows(rb)
        assert rows == [(0.5, 0.5, pytest.approx(0.7), 2)]

    def test_csv_header_and_shape(self):
        rb = calibration_report(two_sample_batch(), 5).bins
        text = reliability_csv(rb)
        lines = text.strip().split("\n")
        assert lines[0] == "bin_midpoint,accuracy,confidence,count"
        assert len(lines) == 6

    def test_svg_deterministic(self):
        rb = calibration_report(two_sample_batch(), 15).bins
        assert reliability_svg(rb) == reliability_svg(rb)

    def test_svg_renders_empty_bins(self):
        rb = calibration_report(two_sample_batch(), 15).bins
        svg = reliability_svg(rb)
        # one accuracy bar and one gap overlay per bin, empty or not
        assert svg.count("<rect") == 1 + 2 * 15
        assert svg.startswith("<svg")


class TestReportInvariants:
    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInputError):
            ProbBatch(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_nll_nonnegative_brier_bounded(self):
        rng = RngStream(70)
        for i in range(100):
            probs, labels = random_prob_batch(rng, max_n=40)
            rep = calibration_report(ProbBatch(probs, labels), 10)
            assert rep.nll >= 0.0
            assert 0.0 <= rep.brier <= 2.0
