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

``backward`` computes analytic gradients through softmax, cosine
normalization, the dense stacks, and the adapter factorization; it is
verified against central finite differences in the test suite.
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

    def delta(self) -> np.ndarray:
        return self.scale * (self.down @ self.up)


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out x in), frozen
    bias: np.ndarray  # (out,)
    activation: str  # "relu" | "none"
    adapter: LoraAdapter | None = None


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


@dataclass
class ParamSet:
    """Named flat parameter arrays with shape metadata; deterministic order."""

    entries: dict  # name -> 1-D float64 array
    shapes: dict  # name -> tuple

    def names(self) -> list:
        return list(self.entries.keys())


class DualEncoderModel:
    """Model instance: two encoder stacks, prototypes, and one trainable head."""

    def __init__(self, config: ModelConfig, image_stack, text_stack, prototypes, prompt):
        self.config = config
        self.image_stack = image_stack
        self.text_stack = text_stack
        self.prototypes = prototypes  # (C x d) frozen text-side class inputs
        self.prompt = prompt  # (M x d) or None
        self._cache = None

    # -- parameter bookkeeping ------------------------------------------------

    def _stacks(self):
        return (("img", self.image_stack), ("txt", self.text_stack))

    def param_set(self) -> ParamSet:
        entries, shapes = {}, {}
        for stack_name, stack in self._stacks():
            for i, layer in enumerate(stack):
                base = f"{stack_name}.{i}"
                entries[f"{base}.W"] = layer.weight.ravel().copy()
                shapes[f"{base}.W"] = layer.weight.shape
                entries[f"{base}.b"] = layer.bias.ravel().copy()
                shapes[f"{base}.b"] = layer.bias.shape
                if layer.adapter is not None:
                    entries[f"{base}.A"] = layer.adapter.down.ravel().copy()
                    shapes[f"{base}.A"] = layer.adapter.down.shape
                    entries[f"{base}.B"] = layer.adapter.up.ravel().copy()
                    shapes[f"{base}.B"] = layer.adapter.up.shape
        if self.prompt is not None:
            entries["prompt"] = self.prompt.ravel().copy()
            shapes["prompt"] = self.prompt.shape
        return ParamSet(entries=entries, shapes=shapes)

    def trainable_names(self) -> list:
        head = self.config.head_kind
        names = []
        if head == "prompt":
            names.append("prompt")
        elif head in ("lora_vision", "lora_both", "lora_text"):
            for stack_name, stack in self._stacks():
                if stack_name == "img" and head == "lora_text":
                    continue
                if stack_name == "txt" and head == "lora_vision":
                    continue
                for i, layer in enumerate(stack):
                    names.append(f"{stack_name}.{i}.A")
                    names.append(f"{stack_name}.{i}.B")
        elif head == "bitfit":
            for stack_name, stack in self._stacks():
                for i in range(len(stack)):
                    names.append(f"{stack_name}.{i}.b")
        return names

    def _param_ref(self, name: str) -> np.ndarray:
        """Live array behind a parameter name (not a copy)."""
        if name == "prompt":
            if self.prompt is None:
                raise UsageError("model has no prompt head")
            return self.prompt
        stack_name, idx, kind = name.split(".")
        stack = self.image_stack if stack_name == "img" else self.text_stack
        layer = stack[int(idx)]
        if kind == "W":
            return layer.weight
        if kind == "b":
            return layer.bias
        if layer.adapter is None:
            raise UsageError(f"layer {name} carries no adapter")
        return layer.adapter.down if kind == "A" else layer.adapter.up

    def trainable_size(self) -> int:
        return sum(self._param_ref(n).size for n in self.trainable_names())

    def trainable_vector(self) -> np.ndarray:
        """Flatten all trainable entries into one transport vector."""
        names = self.trainable_names()
        if not names:
            return np.zeros(0)
        return np.concatenate([self._param_ref(n).ravel() for n in names])

    def load_trainable(self, vector: np.ndarray) -> None:
        """Inverse of ``trainable_vector``; rejects length mismatches."""
        vector = np.asarray(vector, dtype=np.float64)
        expected = self.trainable_size()
        if vector.ndim != 1 or vector.size != expected:
            raise TransportError(
                f"trainable vector has {vector.size} entries, model expects {expected}"
            )
        offset = 0
        for name in self.trainable_names():
            ref = self._param_ref(name)
            chunk = vector[offset : offset + ref.size]
            ref[...] = chunk.reshape(ref.shape)
            offset += ref.size

    # -- forward / backward ---------------------------------------------------

    def _stack_forward(self, stack_name, stack, x, train, rng):
        """Run one encoder stack, caching what backward needs."""
        layers = []
        a = x
        for i, layer in enumerate(stack):
            record = {"inp": a}
            # overflow here surfaces as the NumericError below, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                z = a @ layer.weight.T + layer.bias
                ad = layer.adapter
                if ad is not None:
                    if train and ad.dropout_rate > 0.0:
                        if rng is None:
                            raise UsageError("training forward with dropout requires an RngStream")
                        keep = 1.0 - ad.dropout_rate
                        mask = (rng.random(a.size).reshape(a.shape) < keep) / keep
                        a_drop = a * mask
                        record["mask"] = mask
                    else:
                        a_drop = a
                        record["mask"] = None
                    record["inp_drop"] = a_drop
                    z = z + ad.scale * (a_drop @ ad.up.T) @ ad.down.T
            record["pre"] = z
            if not np.all(np.isfinite(z)):
                raise NumericError(f"non-finite activation in {stack_name} layer {i}")
            a = np.maximum(z, 0.0) if layer.activation == "relu" else z
            layers.append(record)
        return a, layers

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
                "n": x.shape[0],
            }
        else:
            self._cache = None
        return logits

    def _stack_backward(self, stack_name, stack, cache, delta, grads):
        """Backpropagate ``delta`` (d loss / d stack output) through a stack.

        Fills adapter/bias gradients for trainable entries and returns the
        gradient with respect to the stack input.
        """
        trainable = set(self.trainable_names())
        for i in reversed(range(len(stack))):
            layer = stack[i]
            record = cache[i]
            if layer.activation == "relu":
                delta = delta * (record["pre"] > 0)
            name = f"{stack_name}.{i}"
            if f"{name}.b" in trainable:
                grads[f"{name}.b"] = delta.sum(axis=0)
            ad = layer.adapter
            back = delta @ layer.weight
            if ad is not None:
                a_drop = record["inp_drop"]
                if f"{name}.A" in trainable:
                    grads[f"{name}.A"] = ad.scale * (delta.T @ (a_drop @ ad.up.T))
                    grads[f"{name}.B"] = ad.scale * ((delta @ ad.down).T @ a_drop)
                adapter_back = ad.scale * ((delta @ ad.down) @ ad.up)
                if record["mask"] is not None:
                    adapter_back = adapter_back * record["mask"]
                back = back + adapter_back
            delta = back
        return delta

    def backward(self, labels: np.ndarray, loss_spec: LossSpec) -> tuple:
        """Gradients of the training objective for every trainable entry.

        Requires a cached training forward for the same batch. Returns
        ``(LossValue, grads)`` where grads maps trainable names to arrays;
        frozen entries have no slot at all.
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

        grads: dict = {}
        self._stack_backward("img", self.image_stack, cache["img"], dfv, grads)
        d_text_input = self._stack_backward("txt", self.text_stack, cache["txt"], dft, grads)
        if self.config.head_kind == "prompt":
            # the context mean is added to every class prototype, and each
            # of the M vectors contributes 1/M of the mean
            mean_grad = d_text_input.sum(axis=0) / self.prompt.shape[0]
            grads["prompt"] = np.tile(mean_grad, (self.prompt.shape[0], 1))
        return loss, grads

    def grad_vector(self, grads: dict) -> np.ndarray:
        """Flatten a gradient dict into transport order."""
        names = self.trainable_names()
        if not names:
            return np.zeros(0)
        return np.concatenate([np.asarray(grads[n]).ravel() for n in names])


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


def weight_drift(model: DualEncoderModel, reference: ParamSet) -> tuple:
    """Mean |effective weight - reference weight| per adapted layer.

    Returns ``(per_layer, aggregate)`` where ``per_layer`` maps layer names
    to mean absolute entry drift and ``aggregate`` averages over adapted
    layers (0.0 when the head has no adapters).
    """
    per_layer = {}
    for stack_name, stack in model._stacks():
        for i, layer in enumerate(stack):
            if layer.adapter is None:
                continue
            name = f"{stack_name}.{i}.W"
            if name not in reference.entries:
                raise InvalidInputError(f"reference ParamSet lacks entry {name}")
            ref = reference.entries[name].reshape(reference.shapes[name])
            if ref.shape != layer.weight.shape:
                raise InvalidInputError(f"reference shape mismatch on {name}")
            eff = effective_weight(layer.weight, layer.adapter)
            per_layer[name] = float(np.mean(np.abs(eff - ref)))
    aggregate = float(np.mean(list(per_layer.values()))) if per_layer else 0.0
    return per_layer, aggregate
