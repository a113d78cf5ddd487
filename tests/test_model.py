"""Tests for the dual-encoder model: init, forward, gradients, parameter layout."""

import numpy as np
import pytest

from fedcalib.errors import (
    ConfigError,
    InvalidInputError,
    NumericError,
    TransportError,
    UsageError,
)
from fedcalib.losses import LossSpec
from fedcalib.model import (
    HEAD_KINDS,
    DenseLayer,
    DualEncoderModel,
    ModelConfig,
    zero_shot_init,
)
from fedcalib.numerics import RngStream, l2_normalize_rows, softmax_rows
from fixtures import model_array_bytes
from oracles import naive_train_logits, naive_unpack

TRAINED_HEADS = ["prompt", "lora_text", "lora_vision", "lora_both", "bitfit"]


def small_config(head="lora_both", d=8, c=4, dropout=0.0, **kw):
    return ModelConfig(
        embed_dim=d,
        class_count=c,
        head_kind=head,
        lora_dropout=dropout,
        **kw,
    )


def random_prototypes(d, c, seed=0):
    return l2_normalize_rows(RngStream(seed, 999).normal(c * d).reshape(c, d))


def build(head="lora_both", d=8, c=4, seed=1, dropout=0.0, **kw):
    cfg = small_config(head, d, c, dropout, **kw)
    protos = random_prototypes(d, c, seed)
    return zero_shot_init(cfg, protos, RngStream(seed))


def perturbed(model, rng, k=None, sigma=0.1):
    """The initial vector plus gaussian noise, or K such rows."""
    size = model.initial.size
    if k is None:
        return model.initial + rng.normal(size) * sigma
    return model.initial + rng.normal(k * size).reshape(k, size) * sigma


def identity_model(prototypes, logit_scale=1.0, head_kind="zero_shot"):
    """Single identity layer per encoder; handy for hand-checkable tests."""
    protos = np.asarray(prototypes, dtype=np.float64)
    c, d = protos.shape
    config = ModelConfig(
        embed_dim=d,
        class_count=c,
        encoder_widths=(d,),
        head_kind=head_kind,
        logit_scale=logit_scale,
        lora_dropout=0.0,
    )
    eye = [DenseLayer(np.eye(d), np.zeros(d)), DenseLayer(np.eye(d), np.zeros(d))]
    return DualEncoderModel(config, eye, protos, RngStream(0))


class TestZeroShotInit:
    def test_same_seed_bit_identical(self):
        a = build("lora_both", seed=3)
        b = build("lora_both", seed=3)
        assert model_array_bytes(a) == model_array_bytes(b)
        assert a.initial.tobytes() == b.initial.tobytes()

    def test_lora_defaults(self):
        m = build("lora_both")
        assert m.config.lora_scale == pytest.approx(0.5)  # alpha = 1/r with r = 2
        parts = naive_unpack(m, m.initial)
        for stack in ("img", "txt"):
            for i in (0, 1):
                assert parts[stack, i, "A"].shape[1] == 2
                assert np.all(parts[stack, i, "B"] == 0.0)
                assert not np.all(parts[stack, i, "A"] == 0.0)

    def test_adapters_only_on_selected_stacks(self):
        m = build("lora_text")
        assert sorted(naive_unpack(m, m.initial)) == [("txt", i, p) for i in (0, 1) for p in ("A", "B")]
        m = build("lora_vision")
        assert sorted(naive_unpack(m, m.initial)) == [("img", i, p) for i in (0, 1) for p in ("A", "B")]

    def test_bitfit_starts_from_the_frozen_biases(self):
        layers = [DenseLayer(RngStream(4).normal(16 * 8).reshape(16, 8), RngStream(5).normal(16)),
                  DenseLayer(RngStream(6).normal(8 * 16).reshape(8, 16), RngStream(7).normal(8))]
        m = DualEncoderModel(small_config("bitfit"), layers, random_prototypes(8, 4), RngStream(0))
        parts = naive_unpack(m, m.initial)
        for stack in ("img", "txt"):
            for i, layer in enumerate(layers):
                assert parts[stack, i, "bias"].tobytes() == layer.bias.tobytes()

    def test_zero_init_head_preserves_zero_shot_logits(self):
        protos = random_prototypes(8, 4, seed=5)
        x = RngStream(6).normal(3 * 8).reshape(3, 8)
        zs = zero_shot_init(small_config("zero_shot"), protos, RngStream(7))
        base = zs.forward(x, zs.initial)
        for head in TRAINED_HEADS:
            m = zero_shot_init(small_config(head), protos, RngStream(7))
            assert np.array_equal(m.forward(x, m.initial), base)

    def test_initial_vector_is_read_only(self):
        m = build("lora_both")
        with pytest.raises(ValueError):
            m.initial[0] = 1.0

    def test_prototype_shape_validated(self):
        with pytest.raises(ConfigError):
            zero_shot_init(small_config(), np.zeros((3, 8)), RngStream(0))
        with pytest.raises(ConfigError):
            zero_shot_init(small_config(), np.zeros((4, 9)), RngStream(0))


class TestForward:
    def test_identity_encoder_hand_cosine(self):
        m = identity_model(np.array([[1.0, 0.0], [0.0, 1.0]]), logit_scale=1.0)
        logits = m.forward(np.array([[1.0, 0.0]]), m.initial)
        assert np.allclose(logits, [[1.0, 0.0]], atol=1e-12)

    def test_single_class_softmax_is_one(self):
        m = identity_model(np.array([[1.0, 0.0]]), logit_scale=1.0)
        logits = m.forward(np.array([[0.3, 0.4]]), m.initial)
        assert softmax_rows(logits)[0, 0] == 1.0

    def test_eval_deterministic(self):
        m = build("lora_both", dropout=0.25)
        x = RngStream(15).normal(4 * 8).reshape(4, 8)
        assert np.array_equal(m.forward(x, m.initial), m.forward(x, m.initial))

    def test_train_dropout_depends_only_on_stream(self):
        m = build("lora_both", dropout=0.25)
        # make the adapter path live, otherwise masks are invisible
        params = m.initial + 0.1
        x = RngStream(16).normal(4 * 8).reshape(4, 8)
        a = m.forward(x, params, train=True, rng=RngStream(99, 1))
        b = m.forward(x, params, train=True, rng=RngStream(99, 1))
        c = m.forward(x, params, train=True, rng=RngStream(99, 2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_train_without_stream_rejected_when_dropout_on(self):
        m = build("lora_both", dropout=0.25)
        x = np.zeros((2, 8))
        with pytest.raises(UsageError):
            m.forward(x, m.initial, train=True)

    def test_tau_cancellation_keeps_argmax(self):
        m = build("lora_both", logit_scale=100.0)
        x = RngStream(17).normal(6 * 8).reshape(6, 8)
        base = m.forward(x, m.initial)
        k = 4.0
        m2 = build("lora_both", logit_scale=100.0 * k)
        scaled = m2.forward(x, m2.initial) / k
        assert np.allclose(scaled, base, atol=1e-9)
        assert np.array_equal(np.argmax(scaled, axis=1), np.argmax(base, axis=1))

    def test_wrong_dim_rejected(self):
        m = build()
        with pytest.raises(InvalidInputError):
            m.forward(np.zeros((2, 9)), m.initial)

    def test_nonfinite_propagation_names_layer(self):
        m = build()
        with pytest.raises(NumericError):
            m.forward(np.full((1, 8), 1e308), m.initial)


class TestBackward:
    def _loss_of_vector(self, model, vec, x, labels, spec):
        from fedcalib.calibration import ProbBatch
        from fedcalib.losses import total_loss

        probs = softmax_rows(model.forward(x, vec, train=True))
        return total_loss(ProbBatch(probs, labels), spec).total

    def _check_gradients(self, model, spec, seed, rel_tol=1e-4):
        rng = RngStream(seed)
        x = rng.normal(6 * model.config.embed_dim).reshape(6, model.config.embed_dim)
        labels = (rng.u64(6) % np.uint64(model.config.class_count)).astype(np.int64)
        vec = model.initial
        model.forward(x, vec, train=True)
        _, analytic = model.backward(labels, spec)
        h = 1e-4
        fd = np.zeros_like(vec)
        for j in range(vec.size):
            up = vec.copy()
            dn = vec.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                self._loss_of_vector(model, up, x, labels, spec)
                - self._loss_of_vector(model, dn, x, labels, spec)
            ) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-6)
        rel = np.abs(analytic - fd) / denom
        assert rel.max() < rel_tol, f"worst rel error {rel.max():.2e}"

    def test_ce_gradients_all_heads(self):
        for i, head in enumerate(TRAINED_HEADS):
            model = build(head, seed=20 + i, logit_scale=10.0)
            self._check_gradients(model, LossSpec("none"), seed=30 + i)

    def test_mdca_gradients(self):
        model = build("lora_both", seed=40, logit_scale=10.0)
        self._check_gradients(model, LossSpec("mdca", aux_weight=1.0), seed=41)

    def test_frozen_entries_have_no_gradient_slot(self):
        model = build("lora_both", seed=42)
        x = RngStream(43).normal(3 * 8).reshape(3, 8)
        model.forward(x, model.initial, train=True)
        _, grad = model.backward(np.array([0, 1, 2]), LossSpec("none"))
        # only the adapters have slots: 2 stacks x 2 layers x (A + B)
        per_stack = 16 * 2 + 2 * 8 + 8 * 2 + 2 * 16
        assert model.initial.size == 2 * per_stack
        assert grad.shape == (model.initial.size,)

    def test_backward_without_forward_rejected(self):
        model = build()
        with pytest.raises(UsageError):
            model.backward(np.array([0]), LossSpec("none"))

    def test_single_class_zero_gradient(self):
        # C = 1: softmax is identically 1, loss 0, gradient 0
        protos = random_prototypes(8, 1, seed=44)
        cfg = ModelConfig(embed_dim=8, class_count=1, head_kind="lora_both", lora_dropout=0.0)
        model = zero_shot_init(cfg, protos, RngStream(45))
        x = RngStream(46).normal(2 * 8).reshape(2, 8)
        model.forward(x, model.initial, train=True)
        loss, grad = model.backward(np.array([0, 0]), LossSpec("none"))
        assert loss.total == 0.0
        assert np.all(grad == 0.0)

    def test_returned_gradient_survives_next_backward(self):
        rng = RngStream(47)
        for head in TRAINED_HEADS:
            model = build(head, seed=48, logit_scale=10.0)
            model.forward(rng.normal(4 * 8).reshape(4, 8), model.initial, train=True)
            _, first = model.backward(np.array([0, 1, 2, 3]), LossSpec("none"))
            kept = first.copy()
            model.forward(rng.normal(4 * 8).reshape(4, 8), model.initial, train=True)
            _, second = model.backward(np.array([3, 2, 1, 0]), LossSpec("none"))
            assert first.tobytes() == kept.tobytes(), head
            assert not np.array_equal(first, second), head


class TestClientStack:
    """A stack of K clients' batches equals each client's batch alone, bit for bit."""

    @pytest.mark.parametrize("head", TRAINED_HEADS)
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_stack_equals_each_client_alone(self, head, k):
        m = build(head, seed=70, dropout=0.25, logit_scale=10.0)
        rng = RngStream(71)
        thetas = perturbed(m, rng, k)
        # one run: K clients of 5 rows each, back to back
        x = rng.normal(k * 5 * 8).reshape(k * 5, 8)
        y = (rng.u64(k * 5) % np.uint64(4)).astype(np.int64)
        logits = m.forward(x, thetas, train=True, rng=[RngStream(72, i) for i in range(k)], counts=[5] * k)
        loss, grad = m.backward(y, LossSpec("mdca"))
        assert logits.shape == (k * 5, 4) and grad.shape == thetas.shape and loss.total.shape == (k,)
        for i in range(k):
            rows = slice(5 * i, 5 * i + 5)
            alone = m.forward(x[rows], thetas[i], train=True, rng=RngStream(72, i))
            loss_i, grad_i = m.backward(y[rows], LossSpec("mdca"))
            assert logits[rows].tobytes() == alone.tobytes()
            assert grad[i].tobytes() == grad_i.tobytes()
            assert np.float64(loss.total[i]).tobytes() == np.float64(loss_i.total).tobytes()

    @pytest.mark.parametrize("aux", ["none", "dca", "mdca"])
    @pytest.mark.parametrize("head", TRAINED_HEADS)
    def test_flat_stack_of_uneven_batches_equals_each_client_alone(self, head, aux):
        # runs of 7, 7, 4 and 1 rows: the clients' rows back to back with their counts
        counts = [7, 7, 4, 1]
        m = build(head, seed=82, dropout=0.25, logit_scale=10.0)
        rng = RngStream(83)
        thetas = perturbed(m, rng, len(counts))
        x = rng.normal(sum(counts) * 8).reshape(-1, 8)
        y = (rng.u64(sum(counts)) % np.uint64(4)).astype(np.int64)
        logits = m.forward(x, thetas, train=True, rng=[RngStream(84, i) for i in range(4)], counts=counts)
        loss, grad = m.backward(y, LossSpec(aux, aux_weight=0.5))
        assert logits.shape == (sum(counts), 4) and grad.shape == thetas.shape and loss.total.shape == (4,)
        ends = np.cumsum(counts)
        for i, (start, end) in enumerate(zip(ends - counts, ends)):
            alone = m.forward(x[start:end], thetas[i], train=True, rng=RngStream(84, i))
            loss_i, grad_i = m.backward(y[start:end], LossSpec(aux, aux_weight=0.5))
            assert logits[start:end].tobytes() == alone.tobytes()
            assert grad[i].tobytes() == grad_i.tobytes()
            assert np.float64(loss.total[i]).tobytes() == np.float64(loss_i.total).tobytes()

    @pytest.mark.parametrize("head", TRAINED_HEADS)
    def test_training_forward_matches_naive_oracle(self, head):
        # the oracle cuts each client's arrays at the documented offsets, draws
        # each adapted layer's mask in turn and recomputes the text stack's first
        # frozen product for every client
        m = build(head, seed=79, dropout=0.25, logit_scale=10.0)
        rng = RngStream(80)
        params = perturbed(m, rng, 3)
        x = rng.normal(3 * 5 * 8).reshape(3, 5, 8)
        logits = m.forward(x.reshape(15, 8), params, train=True, rng=[RngStream(81, i) for i in range(3)],
                           counts=[5] * 3)
        want = naive_train_logits(m, params, x, [RngStream(81, i) for i in range(3)])
        assert logits.reshape(want.shape).tobytes() == want.tobytes()

    def test_stack_size_must_match_parameter_rows(self):
        m = build("lora_both", seed=74)
        params = np.tile(m.initial, (2, 1))
        with pytest.raises(UsageError):
            m.forward(np.zeros((12, 8)), params, counts=[4, 4, 4])
        with pytest.raises(UsageError):
            m.forward(np.zeros((4, 8)), params)
        with pytest.raises(UsageError):
            m.forward(np.zeros((8, 8)), params, counts=[4, 3])
        # a stack is its rows back to back, never a K x n x d array
        with pytest.raises(InvalidInputError):
            m.forward(np.zeros((2, 4, 8)), params, counts=[4, 4])
        m.forward(np.zeros((8, 8)) + 0.1, params, counts=[4, 4])

    def test_non_finite_input_names_its_stack_row(self):
        m = build("lora_both", seed=75)
        x = RngStream(76).normal(4 * 3 * 8).reshape(4 * 3, 8)
        x[2 * 3 + 1, 5] = np.inf
        with pytest.raises(NumericError) as info:
            m.forward(x, np.tile(m.initial, (4, 1)), counts=[3] * 4)
        assert info.value.rows == (2,)

    @pytest.mark.parametrize(
        "head, layers", [("prompt", 2), ("lora_text", 2), ("lora_vision", 2), ("lora_both", 4), ("bitfit", 4)]
    )
    def test_backward_runs_only_stacks_with_trainable_entries(self, head, layers, monkeypatch):
        import fedcalib.model as model_module

        calls = []
        original = model_module._layer_backward

        def counted(*args, input_grad):
            calls.append(input_grad)
            return original(*args, input_grad=input_grad)

        monkeypatch.setattr(model_module, "_layer_backward", counted)
        m = build(head, seed=77)
        m.forward(RngStream(78).normal(3 * 8).reshape(3, 8), m.initial, train=True)
        m.backward(np.array([0, 1, 2]), LossSpec("none"))
        assert len(calls) == layers
        # only the prompt reads a gradient w.r.t. a stack's input
        assert calls.count(False) == (0 if head == "prompt" else layers // 2)


class TestStateless:
    """The model holds only frozen state; each call reads the parameters it is given."""

    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_forward_and_backward_leave_every_array_unchanged(self, head):
        m = build(head, seed=56, dropout=0.25, logit_scale=10.0)
        before = model_array_bytes(m)
        assert {"initial", "prototypes", "_text_first", "layers.0.weight", "layers.1.bias"} <= set(before)
        rng = RngStream(57)
        params = perturbed(m, rng, 3)
        kept = params.tobytes()
        x = rng.normal(3 * 5 * 8).reshape(3 * 5, 8)
        m.forward(x, params, train=True, rng=[RngStream(58, i) for i in range(3)], counts=[5] * 3)
        m.backward(np.zeros(3 * 5, dtype=np.int64), LossSpec("mdca"))
        m.forward(x[:5], params[0])
        assert model_array_bytes(m) == before
        assert params.tobytes() == kept

    @pytest.mark.parametrize("head", TRAINED_HEADS)
    def test_params_a_then_b_then_a_give_the_bits_of_a(self, head):
        m = build(head, seed=59, dropout=0.25, logit_scale=10.0)
        rng = RngStream(60)
        a, b = perturbed(m, rng, 3), perturbed(m, rng, 3)
        x = rng.normal(3 * 5 * 8).reshape(3 * 5, 8)
        y = (rng.u64(15) % np.uint64(4)).astype(np.int64)

        def step(params):
            logits = m.forward(x, params, train=True, rng=[RngStream(61, i) for i in range(3)], counts=[5] * 3)
            _, grad = m.backward(y, LossSpec("mdca"))
            return logits.tobytes(), grad.tobytes(), m.forward(x[5:10], params[1]).tobytes()

        first = step(a)
        other = step(b)
        again = step(a)
        assert again == first
        assert all(o != f for o, f in zip(other, first))

    def test_evaluation_forward_drops_the_training_cache(self):
        m = build("lora_both", seed=62)
        x = RngStream(63).normal(3 * 8).reshape(3, 8)
        m.forward(x, m.initial, train=True)
        m.forward(x, m.initial)
        with pytest.raises(UsageError):
            m.backward(np.array([0, 1, 2]), LossSpec("none"))


class TestTransport:
    def test_prompt_length_counting(self):
        cfg = ModelConfig(embed_dim=4, class_count=2, head_kind="prompt", prompt_length=1)
        m = zero_shot_init(cfg, random_prototypes(4, 2), RngStream(51))
        assert m.initial.size == 4

    def test_lora_both_counting(self):
        # one m x n layer per encoder with rank 2: 2 * (m*2 + 2*n) entries
        cfg = ModelConfig(
            embed_dim=6, class_count=3, encoder_widths=(6,), head_kind="lora_both",
            lora_rank=2, lora_dropout=0.0,
        )
        m = zero_shot_init(cfg, random_prototypes(6, 3), RngStream(52))
        per_layer = 6 * 2 + 2 * 6
        assert m.initial.size == 2 * 2 * per_layer  # 2 stacks x 2 layers

    def test_zero_shot_head_is_empty(self):
        m = build("zero_shot")
        assert m.initial.size == 0

    def test_length_mismatch_rejected(self):
        m = build("lora_both")
        size = m.initial.size
        x = np.zeros((4, 8))
        with pytest.raises(TransportError):
            m.forward(x, np.zeros(size + 1))
        with pytest.raises(TransportError):
            m.forward(x, np.zeros((1, 1, size)))
        with pytest.raises(TransportError):
            m.forward(np.zeros((8, 8)), np.zeros((2, size + 1)), counts=[4, 4])
        with pytest.raises(TransportError):
            m.forward(np.zeros((0, 8)), np.zeros((0, size)), counts=[])

    def test_params_change_predictions(self):
        m = build("lora_both", seed=53)
        x = RngStream(54).normal(3 * 8).reshape(3, 8)
        assert not np.array_equal(m.forward(x, m.initial + 0.05), m.forward(x, m.initial))

