"""Desk-scale dual-encoder classifier with frozen backbone and trainable heads.

The classifier mirrors a CLIP-style zero-shot setup: an image encoder maps
sample embeddings and a text encoder maps class prototype vectors into a
shared space, and the logit for (sample, class) is a scaled cosine
similarity. Both encoders are small dense stacks whose weights are drawn
once and shared across the two modalities, so the untrained model already
classifies by prototype proximity (the zero-shot reference point).

Trainable heads, selected by ``ModelConfig.head_kind``:

- ``zero_shot``     nothing trainable (frozen baseline)
- ``prompt``        learnable context vectors whose mean is added to every
                    class prototype before the text encoder
- ``lora_text``     low-rank adapters on every text-encoder layer
- ``lora_vision``   low-rank adapters on every image-encoder layer
- ``lora_both``     adapters on both encoders
- ``bitfit``        bias terms of both encoders

An adapter adds ``scale * A @ B`` to its frozen weight matrix; ``B`` starts
at zero so training begins exactly at the zero-shot predictions. Dropout
regularizes only the adapter input path, never the frozen path.

The trainable parameters live in one flat float64 vector ``theta``, the
vector that clients send to the server. Its layout: the prompt; else each
adapted layer's ``A`` then ``B``, image stack first; else each layer's
bias, image stack first. The prompt, adapter and bitfit bias arrays are
reshaped views into ``theta``, bound once at construction (and again in a
deep copy), so transport is one copy in or out.

``backward`` computes analytic gradients through softmax, cosine
normalization, the dense stacks, and the adapter factorization into a
``grad`` buffer with the layout of ``theta``; it is verified against
central finite differences in the test suite.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass

import numpy as np

from .calibration import ProbBatch
from .errors import (
    ConfigError,
    InvalidInputError,
    NumericError,
    TransportError,
    UsageError,
)
from .losses import LossSpec, LossValue, total_loss
from .numerics import RngStream, softmax_rows

HEAD_KINDS = ("zero_shot", "prompt", "lora_text", "lora_vision", "lora_both", "bitfit")


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    class_count: int = 20
    encoder_widths: tuple = ()  # hidden widths; () means the default (2d,)
    head_kind: str = "zero_shot"
    lora_rank: int = 2
    lora_alpha: float | None = None  # None means 1/rank
    lora_dropout: float = 0.25
    logit_scale: float = 100.0
    prompt_length: int = 2

    def __post_init__(self):
        if self.head_kind not in HEAD_KINDS:
            raise ConfigError(f"head_kind must be one of {HEAD_KINDS}, got {self.head_kind!r}")
        if self.embed_dim < 1 or self.class_count < 1:
            raise ConfigError("embed_dim and class_count must be positive")
        if self.lora_rank < 1:
            raise ConfigError(f"lora rank must be at least 1, got {self.lora_rank}")
        if not 0.0 <= self.lora_dropout < 1.0:
            raise ConfigError(f"lora dropout must be in [0, 1), got {self.lora_dropout}")
        if self.logit_scale <= 0:
            raise ConfigError(f"logit_scale must be positive, got {self.logit_scale}")
        if self.prompt_length < 1:
            raise ConfigError(f"prompt_length must be at least 1, got {self.prompt_length}")

    @property
    def lora_scale(self) -> float:
        return (1.0 / self.lora_rank) if self.lora_alpha is None else self.lora_alpha

    def hidden_widths(self) -> tuple:
        return self.encoder_widths if self.encoder_widths else (2 * self.embed_dim,)


@dataclass
class LoraAdapter:
    """Low-rank update ``scale * A @ B`` attached to one dense layer."""

    down: np.ndarray  # A, (out x rank)
    up: np.ndarray  # B, (rank x in)
    rank: int
    scale: float
    dropout_rate: float
    down_grad: np.ndarray | None = None  # gradient slots, bound by the model
    up_grad: np.ndarray | None = None

    def delta(self) -> np.ndarray:
        return self.scale * (self.down @ self.up)


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out x in), frozen
    bias: np.ndarray  # (out,)
    activation: str  # "relu" | "none"
    adapter: LoraAdapter | None = None
    bias_grad: np.ndarray | None = None  # gradient slot of a trainable bias


def effective_weight(weight: np.ndarray, adapter: LoraAdapter | None) -> np.ndarray:
    """Frozen weight plus the adapter's low-rank update."""
    if adapter is None:
        return weight
    m, n = weight.shape
    if adapter.down.shape[0] != m or adapter.up.shape[1] != n:
        raise InvalidInputError(
            f"adapter shapes {adapter.down.shape}x{adapter.up.shape} do not chain with weight {weight.shape}"
        )
    if adapter.down.shape[1] != adapter.up.shape[0]:
        raise InvalidInputError("adapter factor inner dimensions disagree")
    return weight + adapter.delta()


class DualEncoderModel:
    """Model instance: two encoder stacks, prototypes, and one trainable head."""

    def __init__(self, config: ModelConfig, image_stack, text_stack, prototypes, prompt):
        self.config = config
        self.image_stack = image_stack
        self.text_stack = text_stack
        self.prototypes = prototypes  # (C x d) frozen text-side class inputs
        self.prompt = prompt  # (M x d) or None
        self.prompt_grad = None
        self._cache = None
        self._bind()

    def __deepcopy__(self, memo):
        # a deep-copied view no longer aliases its copied base, so bind again
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__ = _copy.deepcopy(self.__dict__, memo)
        clone._bind()
        return clone

    # -- parameter transport --------------------------------------------------

    def _trainable_slots(self) -> list:
        """(owner, attribute) of every trainable array, in transport order."""
        head = self.config.head_kind
        layers = [*self.image_stack, *self.text_stack]
        if head == "prompt":
            return [(self, "prompt")]
        if head == "bitfit":
            return [(layer, "bias") for layer in layers]
        adapters = [layer.adapter for layer in layers if layer.adapter is not None]
        return [(ad, part) for ad in adapters for part in ("down", "up")]

    def _bind(self) -> None:
        """Copy the trainable arrays into ``theta`` and rebind them as its views."""
        slots = self._trainable_slots()
        size = sum(getattr(owner, attr).size for owner, attr in slots)
        self.theta, self.grad = np.zeros(size), np.zeros(size)
        offset = 0
        for owner, attr in slots:
            value = getattr(owner, attr)
            end = offset + value.size
            self.theta[offset:end] = value.ravel()
            setattr(owner, attr, self.theta[offset:end].reshape(value.shape))
            setattr(owner, f"{attr}_grad", self.grad[offset:end].reshape(value.shape))
            offset = end

    def trainable_size(self) -> int:
        return self.theta.size

    def trainable_vector(self) -> np.ndarray:
        """A copy of the transport vector ``theta``."""
        return self.theta.copy()

    def load_trainable(self, vector: np.ndarray) -> None:
        """Copy a transport vector into ``theta``; rejects length mismatches."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != self.theta.shape:
            raise TransportError(
                f"trainable vector has {vector.size} entries, model expects {self.theta.size}"
            )
        self.theta[...] = vector

    # -- forward / backward ---------------------------------------------------

    def _stack_forward(self, stack_name, stack, x, train, rng):
        """Run one encoder stack; in training, also keep what backward needs.

        Returns the stack output and, per layer in training (else an empty
        list), the layer output, the adapter input after dropout and the
        dropout mask (``None`` without an adapter or without dropout). Each
        layer adds its bias and adapter term and applies its relu in place,
        so an evaluation forward holds at most two layers' activations.
        """
        records = []
        a = x
        for i, layer in enumerate(stack):
            a_drop = mask = None
            # overflow here surfaces as the NumericError below, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                z = a @ layer.weight.T
                z += layer.bias
                ad = layer.adapter
                if ad is not None:
                    a_drop = a
                    if train and ad.dropout_rate > 0.0:
                        if rng is None:
                            raise UsageError("training forward with dropout requires an RngStream")
                        keep = 1.0 - ad.dropout_rate
                        mask = (rng.random(a.size).reshape(a.shape) < keep) / keep
                        a_drop = a * mask
                    z += ad.scale * (a_drop @ ad.up.T) @ ad.down.T
            if not np.all(np.isfinite(z)):
                raise NumericError(f"non-finite activation in {stack_name} layer {i}")
            if layer.activation == "relu":
                np.maximum(z, 0.0, out=z)
            if train:
                records.append((z, a_drop, mask))
            a = z
        return a, records

    def _text_input(self):
        t = self.prototypes
        if self.config.head_kind == "prompt":
            t = t + self.prompt.mean(axis=0)
        return t

    def forward(self, embeddings: np.ndarray, train: bool = False, rng: RngStream | None = None) -> np.ndarray:
        """Logit matrix (batch x C) of scaled cosine similarities.

        In training mode the adapter-input dropout is live (driven by
        ``rng``) and the forward state is cached for ``backward``.
        """
        x = np.asarray(embeddings, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.embed_dim:
            raise InvalidInputError(
                f"embeddings must be (n x {self.config.embed_dim}), got {x.shape}"
            )
        fv, img_cache = self._stack_forward("img", self.image_stack, x, train, rng)
        ft, txt_cache = self._stack_forward("txt", self.text_stack, self._text_input(), train, rng)
        v_norms = np.linalg.norm(fv, axis=1, keepdims=True)
        t_norms = np.linalg.norm(ft, axis=1, keepdims=True)
        if np.any(v_norms == 0) or np.any(t_norms == 0):
            raise NumericError("zero-norm encoder output; cannot take cosine")
        u = fv / v_norms
        w = ft / t_norms
        logits = self.config.logit_scale * (u @ w.T)
        if train:
            self._cache = {
                "img": img_cache,
                "txt": txt_cache,
                "u": u,
                "w": w,
                "v_norms": v_norms,
                "t_norms": t_norms,
                "logits": logits,
            }
        else:
            self._cache = None
        return logits

    def _stack_backward(self, stack, records, delta):
        """Backpropagate ``delta`` (d loss / d stack output) through a stack.

        Writes the bias and adapter gradients into their slots of ``grad``
        and returns the gradient with respect to the stack input.
        """
        for layer, (out, a_drop, mask) in zip(reversed(stack), reversed(records)):
            if layer.activation == "relu":
                # out > 0 exactly where the pre-activation is > 0
                delta = delta * (out > 0)
            if layer.bias_grad is not None:
                layer.bias_grad[...] = delta.sum(axis=0)
            ad = layer.adapter
            back = delta @ layer.weight
            if ad is not None:
                ad.down_grad[...] = ad.scale * (delta.T @ (a_drop @ ad.up.T))
                ad.up_grad[...] = ad.scale * ((delta @ ad.down).T @ a_drop)
                adapter_back = ad.scale * ((delta @ ad.down) @ ad.up)
                if mask is not None:
                    adapter_back = adapter_back * mask
                back = back + adapter_back
            delta = back
        return delta

    def backward(self, labels: np.ndarray, loss_spec: LossSpec) -> tuple:
        """Gradients of the training objective for every trainable entry.

        Requires a cached training forward for the same batch. Returns
        ``(LossValue, gradient)``, the gradient a copy of ``grad`` in the
        layout of ``theta``.
        """
        if self._cache is None:
            raise UsageError("backward requires a preceding forward(train=True)")
        cache = self._cache
        labels = np.asarray(labels, dtype=np.int64)
        probs = softmax_rows(cache["logits"])
        loss = total_loss(ProbBatch(probs, labels), loss_spec)

        g = loss.grad_wrt_probs
        # softmax Jacobian, row-wise: dL/dz = p * (g - <g, p>)
        gz = probs * (g - np.sum(g * probs, axis=1, keepdims=True))

        scale = self.config.logit_scale
        du = scale * (gz @ cache["w"])  # (n x d)
        dw = scale * (gz.T @ cache["u"])  # (C x d)

        # through row normalization: d/dv of v/|v| applied to upstream du
        u, w = cache["u"], cache["w"]
        dfv = (du - np.sum(du * u, axis=1, keepdims=True) * u) / cache["v_norms"]
        dft = (dw - np.sum(dw * w, axis=1, keepdims=True) * w) / cache["t_norms"]

        self._stack_backward(self.image_stack, cache["img"], dfv)
        d_text_input = self._stack_backward(self.text_stack, cache["txt"], dft)
        if self.config.head_kind == "prompt":
            # the context mean is added to every class prototype, and each
            # of the M vectors contributes 1/M of the mean
            self.prompt_grad[...] = d_text_input.sum(axis=0) / self.prompt.shape[0]
        return loss, self.grad.copy()


def _init_stack(dims, rng: RngStream):
    """Weights for one encoder stack: He-scaled for relu layers, zero biases."""
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        last = i == len(dims) - 2
        std = np.sqrt((1.0 if last else 2.0) / fan_in)
        w = rng.child("enc", i).normal(fan_out * fan_in).reshape(fan_out, fan_in) * std
        layers.append(
            DenseLayer(
                weight=w,
                bias=np.zeros(fan_out),
                activation="none" if last else "relu",
            )
        )
    return layers


def _attach_adapters(stack, config: ModelConfig, rng: RngStream, stack_name: str):
    for i, layer in enumerate(stack):
        out_dim, in_dim = layer.weight.shape
        r = config.lora_rank
        down = rng.child("lora", stack_name, i).normal(out_dim * r).reshape(out_dim, r) * np.sqrt(1.0 / r)
        layer.adapter = LoraAdapter(
            down=down,
            up=np.zeros((r, in_dim)),
            rank=r,
            scale=config.lora_scale,
            dropout_rate=config.lora_dropout,
        )


def zero_shot_init(
    config: ModelConfig,
    class_prototypes: np.ndarray,
    rng: RngStream,
    encoder_weights=None,
) -> DualEncoderModel:
    """Build a model whose initial predictions are the zero-shot reference.

    Encoder weights are drawn once and shared by both modalities (the
    analogue of a jointly pretrained dual encoder), or taken from
    ``encoder_weights`` as a list of (W, b) pairs. LoRA ``B`` factors start
    at zero and prompt vectors start at zero, so every head reproduces the
    zero-shot logits exactly at initialization.
    """
    protos = np.asarray(class_prototypes, dtype=np.float64)
    if protos.ndim != 2 or protos.shape[0] != config.class_count:
        raise ConfigError(
            f"prototype matrix must be ({config.class_count} x {config.embed_dim}), got {protos.shape}"
        )
    if protos.shape[1] != config.embed_dim:
        raise ConfigError(
            f"prototype dimension {protos.shape[1]} does not match embed_dim {config.embed_dim}"
        )
    dims = [config.embed_dim, *config.hidden_widths(), config.embed_dim]
    if encoder_weights is None:
        shared = _init_stack(dims, rng.child("backbone"))
    else:
        shared = []
        if len(encoder_weights) != len(dims) - 1:
            raise ConfigError(
                f"encoder_weights must provide {len(dims) - 1} layers, got {len(encoder_weights)}"
            )
        for i, (w, b) in enumerate(encoder_weights):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                raise ConfigError(f"encoder layer {i} has wrong shape {w.shape}")
            last = i == len(dims) - 2
            shared.append(DenseLayer(weight=w, bias=b, activation="none" if last else "relu"))

    image_stack = _copy.deepcopy(shared)
    text_stack = _copy.deepcopy(shared)

    head = config.head_kind
    if head in ("lora_vision", "lora_both"):
        _attach_adapters(image_stack, config, rng, "img")
    if head in ("lora_text", "lora_both"):
        _attach_adapters(text_stack, config, rng, "txt")

    prompt = np.zeros((config.prompt_length, config.embed_dim)) if head == "prompt" else None
    return DualEncoderModel(config, image_stack, text_stack, protos, prompt)


def weight_drift(model: DualEncoderModel) -> tuple:
    """Mean |effective weight - frozen weight| per adapted layer.

    Returns ``(per_layer, aggregate)`` where ``per_layer`` maps layer names
    (``img.0.W``) to mean absolute entry drift and ``aggregate`` averages
    over adapted layers (0.0 when the head has no adapters).
    """
    per_layer = {}
    for stack_name, stack in (("img", model.image_stack), ("txt", model.text_stack)):
        for i, layer in enumerate(stack):
            if layer.adapter is not None:
                eff = effective_weight(layer.weight, layer.adapter)
                per_layer[f"{stack_name}.{i}.W"] = float(np.mean(np.abs(eff - layer.weight)))
    aggregate = float(np.mean(list(per_layer.values()))) if per_layer else 0.0
    return per_layer, aggregate
