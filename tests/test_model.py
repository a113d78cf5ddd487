"""Tests for the dual-encoder model: init, forward, gradients, transport."""

import copy

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
    LoraAdapter,
    ModelConfig,
    effective_weight,
    weight_drift,
    zero_shot_init,
)
from fedcalib.numerics import RngStream, l2_normalize_rows, softmax_rows
from oracles import naive_train_logits


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


def state_bytes(model):
    """Bytes of every array the forward reads, frozen and trainable."""
    arrays = [model.prototypes] if model.prompt is None else [model.prototypes, model.prompt]
    for layer in (*model.image_stack, *model.text_stack):
        arrays += [layer.weight, layer.bias]
        if layer.adapter is not None:
            arrays += [layer.adapter.down, layer.adapter.up]
    return [a.tobytes() for a in arrays]


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
    eye = [(np.eye(d), np.zeros(d)), (np.eye(d), np.zeros(d))]
    return zero_shot_init(config, protos, RngStream(0), encoder_weights=eye)


class TestZeroShotInit:
    def test_same_seed_bit_identical(self):
        a = build("lora_both", seed=3)
        b = build("lora_both", seed=3)
        assert state_bytes(a) == state_bytes(b)
        assert a.trainable_vector().tobytes() == b.trainable_vector().tobytes()

    def test_lora_defaults(self):
        m = build("lora_both")
        ad = m.image_stack[0].adapter
        assert ad.rank == 2
        assert ad.scale == pytest.approx(0.5)  # alpha = 1/r with r = 2
        assert np.all(ad.up == 0.0)
        assert not np.all(ad.down == 0.0)

    def test_adapters_only_on_selected_stacks(self):
        m = build("lora_text")
        assert all(l.adapter is None for l in m.image_stack)
        assert all(l.adapter is not None for l in m.text_stack)
        m = build("lora_vision")
        assert all(l.adapter is not None for l in m.image_stack)
        assert all(l.adapter is None for l in m.text_stack)

    def test_zero_init_head_preserves_zero_shot_logits(self):
        protos = random_prototypes(8, 4, seed=5)
        x = RngStream(6).normal(3 * 8).reshape(3, 8)
        base = zero_shot_init(small_config("zero_shot"), protos, RngStream(7)).forward(x)
        for head in ("prompt", "lora_text", "lora_vision", "lora_both", "bitfit"):
            m = zero_shot_init(small_config(head), protos, RngStream(7))
            assert np.array_equal(m.forward(x), base)

    def test_prototype_shape_validated(self):
        with pytest.raises(ConfigError):
            zero_shot_init(small_config(), np.zeros((3, 8)), RngStream(0))
        with pytest.raises(ConfigError):
            zero_shot_init(small_config(), np.zeros((4, 9)), RngStream(0))


class TestEffectiveWeight:
    def test_zero_up_factor_gives_base_exactly(self):
        w = RngStream(8).normal(12).reshape(3, 4)
        ad = LoraAdapter(
            down=RngStream(9).normal(6).reshape(3, 2),
            up=np.zeros((2, 4)),
            rank=2,
            scale=0.5,
            dropout_rate=0.0,
        )
        assert np.array_equal(effective_weight(w, ad), w)

    def test_hand_product(self):
        w = np.zeros((2, 2))
        ad = LoraAdapter(
            down=np.array([[1.0], [0.0]]),
            up=np.array([[0.0, 1.0]]),
            rank=1,
            scale=1.0,
            dropout_rate=0.0,
        )
        assert np.array_equal(effective_weight(w, ad), [[0.0, 1.0], [0.0, 0.0]])

    def test_factor_rescaling_invariance(self):
        w = RngStream(10).normal(12).reshape(3, 4)
        a = RngStream(11).normal(6).reshape(3, 2)
        b = RngStream(12).normal(8).reshape(2, 4)
        make = lambda aa, bb: LoraAdapter(down=aa, up=bb, rank=2, scale=0.5, dropout_rate=0.0)
        k = 3.7
        lhs = effective_weight(w, make(a * k, b / k))
        rhs = effective_weight(w, make(a, b))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        w = np.zeros((3, 4))
        ad = LoraAdapter(down=np.zeros((2, 2)), up=np.zeros((2, 4)), rank=2, scale=1.0, dropout_rate=0.0)
        with pytest.raises(InvalidInputError):
            effective_weight(w, ad)

    def test_low_rank_structure_by_svd(self):
        rng = RngStream(13)
        for r in (1, 2, 3):
            a = rng.normal(8 * r).reshape(8, r)
            b = rng.normal(r * 6).reshape(r, 6)
            ad = LoraAdapter(down=a, up=b, rank=r, scale=1.0 / r, dropout_rate=0.0)
            delta = effective_weight(np.zeros((8, 6)), ad)
            s = np.linalg.svd(delta, compute_uv=False)
            assert np.all(s[r:] < 1e-8)

    def test_frobenius_drift_bound(self):
        rng = RngStream(14)
        for _ in range(20):
            a = rng.normal(10).reshape(5, 2)
            b = rng.normal(8).reshape(2, 4)
            ad = LoraAdapter(down=a, up=b, rank=2, scale=0.5, dropout_rate=0.0)
            lhs = np.linalg.norm(ad.delta())
            rhs = 0.5 * np.linalg.norm(a) * np.linalg.norm(b)
            assert lhs <= rhs + 1e-12


class TestForward:
    def test_identity_encoder_hand_cosine(self):
        m = identity_model(np.array([[1.0, 0.0], [0.0, 1.0]]), logit_scale=1.0)
        logits = m.forward(np.array([[1.0, 0.0]]))
        assert np.allclose(logits, [[1.0, 0.0]], atol=1e-12)

    def test_single_class_softmax_is_one(self):
        m = identity_model(np.array([[1.0, 0.0]]), logit_scale=1.0)
        logits = m.forward(np.array([[0.3, 0.4]]))
        assert softmax_rows(logits)[0, 0] == 1.0

    def test_eval_deterministic(self):
        m = build("lora_both", dropout=0.25)
        x = RngStream(15).normal(4 * 8).reshape(4, 8)
        assert np.array_equal(m.forward(x), m.forward(x))

    def test_train_dropout_depends_only_on_stream(self):
        m = build("lora_both", dropout=0.25)
        # make the adapter path live, otherwise masks are invisible
        m.load_trainable(m.trainable_vector() + 0.1)
        x = RngStream(16).normal(4 * 8).reshape(4, 8)
        a = m.forward(x, train=True, rng=RngStream(99, 1))
        b = m.forward(x, train=True, rng=RngStream(99, 1))
        c = m.forward(x, train=True, rng=RngStream(99, 2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_train_without_stream_rejected_when_dropout_on(self):
        m = build("lora_both", dropout=0.25)
        x = np.zeros((2, 8))
        with pytest.raises(UsageError):
            m.forward(x, train=True)

    def test_tau_cancellation_keeps_argmax(self):
        m = build("lora_both", logit_scale=100.0)
        x = RngStream(17).normal(6 * 8).reshape(6, 8)
        base = m.forward(x)
        k = 4.0
        m2 = build("lora_both", logit_scale=100.0 * k)
        scaled = m2.forward(x) / k
        assert np.allclose(scaled, base, atol=1e-9)
        assert np.array_equal(np.argmax(scaled, axis=1), np.argmax(base, axis=1))

    def test_wrong_dim_rejected(self):
        m = build()
        with pytest.raises(InvalidInputError):
            m.forward(np.zeros((2, 9)))

    def test_nonfinite_propagation_names_layer(self):
        m = build()
        with pytest.raises(NumericError):
            m.forward(np.full((1, 8), 1e308))


class TestBackward:
    def _loss_of_vector(self, model, vec, x, labels, spec):
        probe = copy.deepcopy(model)
        probe.load_trainable(vec)
        probe.forward(x, train=True)
        from fedcalib.calibration import ProbBatch
        from fedcalib.losses import total_loss

        probs = softmax_rows(probe._cache["logits"])
        return total_loss(ProbBatch(probs, labels), spec).total

    def _check_gradients(self, model, spec, seed, rel_tol=1e-4):
        rng = RngStream(seed)
        x = rng.normal(6 * model.config.embed_dim).reshape(6, model.config.embed_dim)
        labels = (rng.u64(6) % np.uint64(model.config.class_count)).astype(np.int64)
        model.forward(x, train=True)
        _, analytic = model.backward(labels, spec)
        vec = model.trainable_vector()
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
        for i, head in enumerate(("prompt", "lora_text", "lora_vision", "lora_both", "bitfit")):
            model = build(head, seed=20 + i, logit_scale=10.0)
            self._check_gradients(model, LossSpec("none"), seed=30 + i)

    def test_mdca_gradients(self):
        model = build("lora_both", seed=40, logit_scale=10.0)
        self._check_gradients(model, LossSpec("mdca", aux_weight=1.0), seed=41)

    def test_frozen_entries_have_no_gradient_slot(self):
        model = build("lora_both", seed=42)
        x = RngStream(43).normal(3 * 8).reshape(3, 8)
        model.forward(x, train=True)
        _, grad = model.backward(np.array([0, 1, 2]), LossSpec("none"))
        # only the adapters have slots: 2 stacks x 2 layers x (A + B)
        per_stack = 16 * 2 + 2 * 8 + 8 * 2 + 2 * 16
        assert model.trainable_size() == 2 * per_stack
        assert grad.shape == (model.trainable_size(),)

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
        model.forward(x, train=True)
        loss, grad = model.backward(np.array([0, 0]), LossSpec("none"))
        assert loss.total == 0.0
        assert np.all(grad == 0.0)

    def test_returned_gradient_survives_next_backward(self):
        rng = RngStream(47)
        for head in ("prompt", "lora_text", "lora_vision", "lora_both", "bitfit"):
            model = build(head, seed=48, logit_scale=10.0)
            model.forward(rng.normal(4 * 8).reshape(4, 8), train=True)
            _, first = model.backward(np.array([0, 1, 2, 3]), LossSpec("none"))
            kept = first.copy()
            model.forward(rng.normal(4 * 8).reshape(4, 8), train=True)
            _, second = model.backward(np.array([3, 2, 1, 0]), LossSpec("none"))
            assert first.tobytes() == kept.tobytes(), head
            assert not np.array_equal(first, second), head


class TestClientStack:
    """A stack of K clients' batches equals each client's batch alone, bit for bit."""

    @pytest.mark.parametrize("head", ["prompt", "lora_text", "lora_vision", "lora_both", "bitfit"])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_stack_equals_each_client_alone(self, head, k):
        m = build(head, seed=70, dropout=0.25, logit_scale=10.0)
        rng = RngStream(71)
        size = m.trainable_size()
        thetas = m.trainable_vector() + rng.normal(k * size).reshape(k, size) * 0.1
        x = rng.normal(k * 5 * 8).reshape(k, 5, 8)
        y = (rng.u64(k * 5) % np.uint64(4)).astype(np.int64).reshape(k, 5)
        stacked = copy.deepcopy(m)
        stacked.load_trainable(thetas)
        assert stacked.trainable_vector().tobytes() == thetas.tobytes()
        logits = stacked.forward(x, train=True, rng=[RngStream(72, i) for i in range(k)])
        loss, grad = stacked.backward(y, LossSpec("mdca"))
        assert logits.shape == (k, 5, 4) and grad.shape == (k, size)
        for i in range(k):
            m.load_trainable(thetas[i])
            alone = m.forward(x[i], train=True, rng=RngStream(72, i))
            loss_i, grad_i = m.backward(y[i], LossSpec("mdca"))
            assert logits[i].tobytes() == alone.tobytes()
            assert grad[i].tobytes() == grad_i.tobytes()
            assert np.float64(loss.total[i]).tobytes() == np.float64(loss_i.total).tobytes()

    @pytest.mark.parametrize("head", ["lora_text", "lora_vision", "lora_both", "bitfit"])
    def test_training_forward_matches_naive_oracle(self, head):
        # the oracle draws each adapted layer's mask in turn and recomputes the
        # text stack's first frozen product for every client
        m = build(head, seed=79, dropout=0.25, logit_scale=10.0)
        rng = RngStream(80)
        size = m.trainable_size()
        m.load_trainable(m.trainable_vector() + rng.normal(3 * size).reshape(3, size) * 0.1)
        x = rng.normal(3 * 5 * 8).reshape(3, 5, 8)
        logits = m.forward(x, train=True, rng=[RngStream(81, i) for i in range(3)])
        want = naive_train_logits(m, x, [RngStream(81, i) for i in range(3)])
        assert logits.tobytes() == want.tobytes()

    def test_views_carry_the_client_axis(self):
        m = build("lora_both", seed=73)
        size = m.trainable_size()
        m.load_trainable(np.arange(3 * size, dtype=float).reshape(3, size))
        ad = m.image_stack[0].adapter
        assert ad.down.shape == (3, 16, 2) and ad.up.shape == (3, 2, 8)
        assert np.shares_memory(ad.down, m.theta) and np.shares_memory(ad.down_grad, m.grad)
        assert ad.down[1, 0, 0] == size  # row 1 starts at entry P
        m.load_trainable(np.zeros(size))
        assert ad.down.shape == (1, 16, 2) and m.trainable_vector().shape == (size,)
        with pytest.raises(TransportError):
            m.load_trainable(np.zeros((2, size + 1)))
        with pytest.raises(TransportError):
            m.load_trainable(np.zeros((0, size)))

    def test_stack_size_must_match_parameter_rows(self):
        m = build("lora_both", seed=74)
        m.load_trainable(np.tile(m.trainable_vector(), (2, 1)))
        with pytest.raises(UsageError):
            m.forward(np.zeros((3, 4, 8)))
        with pytest.raises(UsageError):
            m.forward(np.zeros((4, 8)))
        m.forward(np.zeros((2, 4, 8)) + 0.1)

    def test_non_finite_input_names_its_stack_row(self):
        m = build("lora_both", seed=75)
        m.load_trainable(np.tile(m.trainable_vector(), (4, 1)))
        x = RngStream(76).normal(4 * 3 * 8).reshape(4, 3, 8)
        x[2, 1, 5] = np.inf
        with pytest.raises(NumericError) as info:
            m.forward(x)
        assert info.value.rows == (2,)

    @pytest.mark.parametrize(
        "head, layers", [("prompt", 2), ("lora_text", 2), ("lora_vision", 2), ("lora_both", 4), ("bitfit", 4)]
    )
    def test_backward_runs_only_stacks_with_trainable_entries(self, head, layers, monkeypatch):
        import fedcalib.model as model_module

        calls = []
        original = model_module._layer_backward

        def counted(layer, record, delta, input_grad):
            calls.append(input_grad)
            return original(layer, record, delta, input_grad)

        monkeypatch.setattr(model_module, "_layer_backward", counted)
        m = build(head, seed=77)
        m.forward(RngStream(78).normal(3 * 8).reshape(3, 8), train=True)
        m.backward(np.array([0, 1, 2]), LossSpec("none"))
        assert len(calls) == layers
        # only the prompt reads a gradient w.r.t. a stack's input
        assert calls.count(False) == (0 if head == "prompt" else layers // 2)


class TestTransport:
    def test_roundtrip_bit_identical(self):
        for head in ("prompt", "lora_both", "bitfit"):
            m = build(head, seed=50)
            before = state_bytes(m)
            m.load_trainable(m.trainable_vector())
            assert state_bytes(m) == before

    def test_prompt_length_counting(self):
        cfg = ModelConfig(embed_dim=4, class_count=2, head_kind="prompt", prompt_length=1)
        m = zero_shot_init(cfg, random_prototypes(4, 2), RngStream(51))
        assert m.trainable_vector().size == 4

    def test_lora_both_counting(self):
        # one m x n layer per encoder with rank 2: 2 * (m*2 + 2*n) entries
        cfg = ModelConfig(
            embed_dim=6, class_count=3, encoder_widths=(6,), head_kind="lora_both",
            lora_rank=2, lora_dropout=0.0,
        )
        m = zero_shot_init(cfg, random_prototypes(6, 3), RngStream(52))
        per_layer = 6 * 2 + 2 * 6
        assert m.trainable_vector().size == 2 * 2 * per_layer  # 2 stacks x 2 layers

    def test_zero_shot_head_is_empty(self):
        m = build("zero_shot")
        assert m.trainable_vector().size == 0

    def test_length_mismatch_rejected(self):
        m = build("lora_both")
        with pytest.raises(TransportError):
            m.load_trainable(np.zeros(m.trainable_size() + 1))

    def test_load_changes_predictions(self):
        m = build("lora_both", seed=53)
        x = RngStream(54).normal(3 * 8).reshape(3, 8)
        base = m.forward(x)
        vec = m.trainable_vector()
        m.load_trainable(vec + 0.05)
        assert not np.array_equal(m.forward(x), base)

    def test_layout_is_the_documented_order(self):
        # prompt; else A then B of each adapted layer; else each bias;
        # image stack first
        for head in ("prompt", "lora_text", "lora_vision", "lora_both", "bitfit"):
            m = build(head, seed=55)
            m.load_trainable(RngStream(56).normal(m.trainable_size()))
            img, txt = m.image_stack, m.text_stack
            if head == "prompt":
                expected = [m.prompt]
            elif head == "bitfit":
                expected = [img[0].bias, img[1].bias, txt[0].bias, txt[1].bias]
            else:
                expected = []
                if head != "lora_text":
                    expected += [img[0].adapter.down, img[0].adapter.up, img[1].adapter.down, img[1].adapter.up]
                if head != "lora_vision":
                    expected += [txt[0].adapter.down, txt[0].adapter.up, txt[1].adapter.down, txt[1].adapter.up]
            vec = m.trainable_vector()
            offset = 0
            for array in expected:
                assert np.array_equal(vec[offset : offset + array.size], array.ravel()), head
                offset += array.size
            assert offset == vec.size, head

    def test_load_into_deep_copy_leaves_original(self):
        x = RngStream(57).normal(3 * 8).reshape(3, 8)
        for head in ("prompt", "lora_text", "lora_vision", "lora_both", "bitfit"):
            m = build(head, seed=58)
            before, base = state_bytes(m), m.forward(x)
            probe = copy.deepcopy(m)
            probe.load_trainable(m.trainable_vector() + 0.05)
            assert not np.array_equal(probe.forward(x), base), head
            assert state_bytes(m) == before, head
            assert m.forward(x).tobytes() == base.tobytes(), head


class TestWeightDrift:
    def test_untrained_adapter_zero_drift(self):
        m = build("lora_both", seed=60)
        per_layer, agg = weight_drift(m)
        assert agg == 0.0
        assert all(v == 0.0 for v in per_layer.values())

    def test_known_delta(self):
        m = identity_model(np.eye(2), head_kind="lora_both")
        # force delta entries of +-0.1 on the first image layer (rank 2,
        # so the second rank component is zeroed)
        ad = m.image_stack[0].adapter
        ad.down[...] = [[1.0, 0.0], [-1.0, 0.0]]
        ad.up[...] = np.array([[0.1, 0.1], [0.0, 0.0]]) / ad.scale
        per_layer, _ = weight_drift(m)
        assert per_layer["img.0.W"] == pytest.approx(0.1)

    def test_drift_respects_frobenius_bound(self):
        m = build("lora_both", seed=61)
        rng = RngStream(62)
        vec = m.trainable_vector() + rng.normal(m.trainable_size()) * 0.2
        m.load_trainable(vec)
        per_layer, _ = weight_drift(m)
        for stack_name, stack in (("img", m.image_stack), ("txt", m.text_stack)):
            for i, layer in enumerate(stack):
                ad = layer.adapter
                mn = layer.weight.size
                bound = ad.scale * np.linalg.norm(ad.down) * np.linalg.norm(ad.up) / np.sqrt(mn)
                assert per_layer[f"{stack_name}.{i}.W"] <= bound + 1e-12

    def test_no_adapter_head_zero_aggregate(self):
        m = build("prompt")
        per_layer, agg = weight_drift(m)
        assert per_layer == {} and agg == 0.0
