"""Tests for cross-entropy and the DCA/MDCA calibration regularizers."""

import math

import numpy as np
import pytest

from fedcalib.calibration import ProbBatch
from fedcalib.errors import ConfigError, InvalidInputError
from fedcalib.losses import LossSpec, ce_loss, dca_loss, mdca_loss, total_loss
from fedcalib.numerics import RngStream

from oracles import naive_ce_loss, naive_dca_loss, naive_mdca_loss, random_prob_batch


def batch(probs, labels):
    return np.asarray(probs, dtype=float), np.asarray(labels)


class TestCeLoss:
    def test_perfect_predictions_zero(self):
        b = batch([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        assert ce_loss(*b).total == 0.0

    def test_uniform_binary_ln2(self):
        b = batch([[0.5, 0.5]], [0])
        assert ce_loss(*b).total == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_value(self):
        b = batch([[0.7, 0.3]], [0])
        assert ce_loss(*b).total == pytest.approx(0.356675, abs=1e-6)

    def test_gradient_structure(self):
        b = batch([[0.7, 0.3], [0.2, 0.8]], [0, 1])
        g = ce_loss(*b).grad_wrt_probs
        assert g[0, 0] == pytest.approx(-1.0 / (2 * 0.7))
        assert g[0, 1] == 0.0
        assert g[1, 1] == pytest.approx(-1.0 / (2 * 0.8))
        assert g[1, 0] == 0.0

    def test_gradient_matches_finite_differences(self):
        # perturb the true-class probability only (renormalizing would mix
        # entries); CE depends on p_true alone so this isolates the gradient
        rng = RngStream(80)
        probs, labels = random_prob_batch(rng, max_n=20)
        g = ce_loss(probs, labels).grad_wrt_probs
        h = 1e-7
        for i in range(min(5, len(labels))):
            y = labels[i]
            up = probs.copy()
            down = probs.copy()
            up[i, y] += h
            down[i, y] -= h
            m = len(labels)
            f_up = -np.log(np.maximum(up[np.arange(m), labels], 1e-12)).mean()
            f_dn = -np.log(np.maximum(down[np.arange(m), labels], 1e-12)).mean()
            fd = (f_up - f_dn) / (2 * h)
            assert g[i, y] == pytest.approx(fd, rel=1e-5)

    def test_saturated_row_clamped(self):
        b = batch([[1.0, 0.0]], [1])
        value = ce_loss(*b)
        assert value.total == pytest.approx(-math.log(1e-12))
        assert np.all(np.isfinite(value.grad_wrt_probs))


class TestDcaLoss:
    def test_all_correct_full_confidence(self):
        b = batch([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        assert dca_loss(*b).total == 0.0

    def test_hand_value_two_samples(self):
        # c = (1, 0), s = (0.9, 0.3): |0.5 - 0.6| = 0.1
        b = batch([[0.9, 0.1], [0.7, 0.3]], [0, 1])
        v = dca_loss(*b)
        assert v.total == pytest.approx(0.1)
        # sign(0.5 - 0.6) = -1, so the confidence gradient is +1/m
        assert v.grad_wrt_probs[0, 0] == pytest.approx(0.5)
        assert v.grad_wrt_probs[1, 1] == pytest.approx(0.5)

    def test_single_sample_gradient(self):
        # correct with s = 0.6: loss 0.4, gradient w.r.t. s is -1
        b = batch([[0.6, 0.4]], [0])
        v = dca_loss(*b)
        assert v.total == pytest.approx(0.4)
        assert v.grad_wrt_probs[0, 0] == pytest.approx(-1.0)
        assert v.grad_wrt_probs[0, 1] == 0.0

    def test_bounded_unit_interval(self):
        rng = RngStream(81)
        for i in range(100):
            probs, labels = random_prob_batch(rng, max_n=30)
            assert 0.0 <= dca_loss(probs, labels).total <= 1.0

    def test_gradient_matches_detached_surrogate(self):
        # the oracle differentiates sign * (-mean(s)) with the sign frozen,
        # never the absolute value itself
        rng = RngStream(82)
        for i in range(20):
            probs, labels = random_prob_batch(rng, max_n=25)
            m = len(labels)
            correct = (probs.argmax(axis=1) == labels).astype(float)
            s = probs[np.arange(m), labels]
            sign = np.sign(correct.mean() - s.mean())
            g = dca_loss(probs, labels).grad_wrt_probs
            h = 1e-7
            for j in range(min(3, m)):
                y = labels[j]
                s_up = s.copy()
                s_dn = s.copy()
                s_up[j] += h
                s_dn[j] -= h
                surrogate_up = sign * (-s_up.mean())
                surrogate_dn = sign * (-s_dn.mean())
                fd = (surrogate_up - surrogate_dn) / (2 * h)
                assert g[j, y] == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_sign_zero_at_kink(self):
        # balanced batch: mean correctness equals mean confidence exactly
        b = batch([[0.5, 0.5], [0.5, 0.5]], [0, 1])
        v = dca_loss(*b)
        assert v.total == 0.0
        assert np.all(v.grad_wrt_probs == 0.0)


class TestMdcaLoss:
    def test_exact_onehot_zero(self):
        b = batch([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        assert mdca_loss(*b).total == 0.0

    def test_hand_value_single_sample(self):
        # label 0, s = (0.6, 0.4): (1/2)(|1-0.6| + |0-0.4|) = 0.4
        b = batch([[0.6, 0.4]], [0])
        assert mdca_loss(*b).total == pytest.approx(0.4)

    def test_balanced_uniform_zero(self):
        b = batch([[0.5, 0.5], [0.5, 0.5]], [0, 1])
        assert mdca_loss(*b).total == 0.0

    def test_bounded_unit_interval(self):
        rng = RngStream(83)
        for i in range(100):
            probs, labels = random_prob_batch(rng, max_n=30)
            assert 0.0 <= mdca_loss(probs, labels).total <= 1.0

    def test_gradient_matches_finite_differences(self):
        # away from sign switches the loss is locally linear in each
        # probability entry, so central differences match the analytic rule
        rng = RngStream(84)
        checked = 0
        for i in range(30):
            probs, labels = random_prob_batch(rng, max_n=25)
            m, c = probs.shape
            onehot = np.zeros_like(probs)
            onehot[np.arange(m), labels] = 1.0
            gaps = onehot.mean(axis=0) - probs.mean(axis=0)
            if np.any(np.abs(gaps) <= 1e-3):
                continue  # too close to a kink for finite differences
            g = mdca_loss(probs, labels).grad_wrt_probs
            h = 1e-6

            def loss_of(p):
                gp = onehot.mean(axis=0) - p.mean(axis=0)
                return np.mean(np.abs(gp))

            for (si, sj) in [(0, 0), (m - 1, c - 1)]:
                up = probs.copy()
                dn = probs.copy()
                up[si, sj] += h
                dn[si, sj] -= h
                fd = (loss_of(up) - loss_of(dn)) / (2 * h)
                assert g[si, sj] == pytest.approx(fd, rel=1e-4, abs=1e-12)
                checked += 1
        assert checked >= 10

    def test_rejects_single_class(self):
        with pytest.raises(InvalidInputError):
            mdca_loss(*batch([[1.0]], [0]))


def random_stack(rng, k, n, c):
    """K batches of n probability rows over c classes, with labels, back to back."""
    raw = rng.normal(k * n * c).reshape(k * n, c) * 2.0
    probs = np.exp(raw - raw.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    labels = (rng.u64(k * n) % np.uint64(c)).astype(np.int64)
    return probs, labels


class TestStackedLosses:
    """Every loss on a stack of K batches keeps each client's own batch means."""

    LOSSES = [(ce_loss, naive_ce_loss), (dca_loss, naive_dca_loss), (mdca_loss, naive_mdca_loss)]

    @pytest.mark.parametrize("loss, oracle", LOSSES)
    @pytest.mark.parametrize("k, n, c", [(1, 1, 2), (1, 7, 3), (4, 1, 5), (5, 9, 4), (10, 32, 20)])
    def test_every_slice_matches_the_oracle(self, loss, oracle, k, n, c):
        probs, labels = random_stack(RngStream(88, k * 1000 + n), k, n, c)
        stacked = loss(probs, labels, [n] * k)
        assert np.shape(stacked.total) == (k,)
        assert stacked.grad_wrt_probs.shape == (k * n, c)
        for i in range(k):
            rows = slice(i * n, (i + 1) * n)
            value, grad = oracle(probs[rows], labels[rows])
            assert abs(stacked.total[i] - value) <= 1e-12
            assert np.max(np.abs(stacked.grad_wrt_probs[rows] - grad)) <= 1e-12

    @pytest.mark.parametrize("kind", ["none", "dca", "mdca"])
    def test_slices_equal_the_batch_alone_bit_for_bit(self, kind):
        probs, labels = random_stack(RngStream(89), 6, 12, 7)
        # one slice whose DCA gap is exactly 0, so sign(0) is covered
        probs[24:36] = 0.0
        probs[24:36, :2] = 0.5
        labels[24:36] = np.repeat([0, 1], 6)
        stacked = total_loss(probs, labels, LossSpec(kind), [12] * 6)
        for i in range(6):
            rows = slice(12 * i, 12 * i + 12)
            alone = total_loss(probs[rows], labels[rows], LossSpec(kind))
            assert isinstance(alone.total, float)
            for part in ("total", "ce_part", "aux_part"):
                got = np.broadcast_to(getattr(stacked, part), (6,))[i]
                assert np.float64(got).tobytes() == np.float64(getattr(alone, part)).tobytes(), part
            assert stacked.grad_wrt_probs[rows].tobytes() == alone.grad_wrt_probs.tobytes()

    @pytest.mark.parametrize("kind", ["none", "dca", "mdca"])
    def test_padded_blocks_equal_each_padded_batch_alone(self, kind):
        # clients of 9, 9, 12 and 1 real rows, each padded to 12 rows by repeating its own rows
        counts, size = [9, 9, 12, 1], 12
        probs, labels = random_stack(RngStream(92), 1, sum(counts), 6)
        ends = np.cumsum(counts)
        rows = np.concatenate([np.resize(np.arange(start, end), size) for start, end in zip(ends - counts, ends)])
        stacked = total_loss(probs[rows], labels[rows], LossSpec(kind), counts)
        assert stacked.grad_wrt_probs.shape == (4 * size, 6)
        oracle = {"dca": naive_dca_loss, "mdca": naive_mdca_loss}.get(kind)
        for i, (start, end, n) in enumerate(zip(ends - counts, ends, counts)):
            block = slice(i * size, (i + 1) * size)
            alone = total_loss(probs[rows[block]], labels[rows[block]], LossSpec(kind), [n])
            for part in ("total", "ce_part", "aux_part"):
                got = np.broadcast_to(getattr(stacked, part), (len(counts),))[i]
                want = np.broadcast_to(getattr(alone, part), (1,))[0]
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), part
            assert stacked.grad_wrt_probs[block].tobytes() == alone.grad_wrt_probs.tobytes()
            # padded rows carry zero loss weight; the real rows are the unpadded batch's loss
            assert not stacked.grad_wrt_probs[block][n:].any()
            ce_value, ce_grad = naive_ce_loss(probs[start:end], labels[start:end])
            aux_value, aux_grad = (0.0, 0.0) if kind == "none" else oracle(probs[start:end], labels[start:end])
            assert abs(stacked.total[i] - (ce_value + aux_value)) <= 1e-12
            assert np.max(np.abs(stacked.grad_wrt_probs[block][:n] - (ce_grad + aux_grad))) <= 1e-12

    @pytest.mark.parametrize("kind", ["none", "dca", "mdca"])
    def test_a_full_block_is_the_plain_batch(self, kind):
        # a block without padding takes numpy's mean, so it is the plain batch bit for bit
        probs, labels = random_stack(RngStream(93), 1, 30, 5)
        plain = total_loss(probs, labels, LossSpec(kind))
        block = total_loss(probs, labels, LossSpec(kind), [30])
        for part in ("total", "ce_part", "aux_part"):
            got = np.broadcast_to(getattr(block, part), (1,))[0]
            assert np.float64(got).tobytes() == np.float64(getattr(plain, part)).tobytes(), part
        assert block.grad_wrt_probs.tobytes() == plain.grad_wrt_probs.tobytes()

    def test_oracles_match_single_batches(self):
        rng = RngStream(90)
        for _ in range(20):
            probs, labels = random_prob_batch(rng, max_n=25)
            for loss, oracle in self.LOSSES:
                value, grad = oracle(probs, labels)
                got = loss(probs, labels)
                assert abs(got.total - value) <= 1e-12
                assert np.max(np.abs(got.grad_wrt_probs - grad)) <= 1e-12

    def test_stack_labels_must_match_rows(self):
        probs, labels = random_stack(RngStream(91), 3, 4, 5)
        with pytest.raises(InvalidInputError):
            ProbBatch(probs, labels[:-1])
        with pytest.raises(InvalidInputError):
            ProbBatch(probs, labels.reshape(3, 4))
        # a stack is its rows back to back, never a K x n x C array
        with pytest.raises(InvalidInputError):
            ProbBatch(probs.reshape(3, 4, 5), labels.reshape(3, 4))


class TestTotalLoss:
    def test_none_is_pure_ce(self):
        rng = RngStream(85)
        probs, labels = random_prob_batch(rng)
        t = total_loss(probs, labels, LossSpec("none"))
        c = ce_loss(probs, labels)
        assert t.total == c.total
        assert np.array_equal(t.grad_wrt_probs, c.grad_wrt_probs)

    def test_zero_weight_reports_aux_but_inert(self):
        b = batch([[0.9, 0.1], [0.7, 0.3]], [0, 1])
        t = total_loss(*b, LossSpec("dca", aux_weight=0.0))
        assert t.total == t.ce_part
        assert t.aux_part == pytest.approx(0.1)
        assert np.array_equal(t.grad_wrt_probs, ce_loss(*b).grad_wrt_probs)

    def test_composition_of_hand_values(self):
        b = batch([[0.9, 0.1], [0.7, 0.3]], [0, 1])
        t = total_loss(*b, LossSpec("dca", aux_weight=1.0))
        assert t.total == pytest.approx(t.ce_part + 0.1)

    def test_total_additive_decomposition(self):
        rng = RngStream(86)
        for kind in ("dca", "mdca"):
            probs, labels = random_prob_batch(rng)
            for beta in (0.5, 1.0, 2.0):
                t = total_loss(probs, labels, LossSpec(kind, aux_weight=beta))
                assert t.total == pytest.approx(t.ce_part + beta * t.aux_part, abs=1e-12)

    def test_beta_rescales_aux_gradient_linearly(self):
        rng = RngStream(87)
        probs, labels = random_prob_batch(rng)
        ce_grad = ce_loss(probs, labels).grad_wrt_probs
        g1 = total_loss(probs, labels, LossSpec("mdca", aux_weight=1.0)).grad_wrt_probs
        g3 = total_loss(probs, labels, LossSpec("mdca", aux_weight=3.0)).grad_wrt_probs
        aux1 = g1 - ce_grad
        aux3 = g3 - ce_grad
        assert np.allclose(aux3, 3.0 * aux1, atol=1e-15)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            LossSpec("focal")
        with pytest.raises(ConfigError):
            LossSpec("dca", aux_weight=-0.5)
