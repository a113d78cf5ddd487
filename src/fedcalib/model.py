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

The trainable parameters live in one float64 array ``theta``: the P-entry
vector that clients send to the server, or a K x P matrix with one such
row per client when K clients train in lockstep. The layout of a row: the
prompt; else each adapted layer's ``A`` then ``B``, image stack first; else
each layer's bias, image stack first. The prompt, adapter and bitfit bias
arrays are reshaped views into ``theta`` with a leading client axis (K = 1
for a vector), bound at construction, again in a deep copy and whenever
``load_trainable`` changes the number of rows, so transport is one copy in
or out.

``forward`` takes one batch (n x d) or a stack of K clients' batches of
equal size (K x n x d). Every activation carries the leading client axis,
and client k's rows meet only row k of each trainable array, through
stacked ``np.matmul``, so a client's slice of a stacked forward and
backward is the computation of its batch alone. A stack whose input and
weights are the same for every client (the text stack of a head that does
not train it) runs once with a leading axis of 1; the text stack's first
frozen product ``prototypes @ W.T`` is made once per model. A training
forward draws all adapted layers' dropout masks, image layers then text
layers, in one ``bernoulli_rows`` call and records per layer where its relu
is positive, the dropped adapter input, its mask and ``a_drop @ B.T``.

``backward`` computes analytic gradients through softmax, cosine
normalization, the dense stacks, and the adapter factorization into a
``grad`` buffer shaped like ``theta``; it is verified against central
finite differences in the test suite. It backpropagates only through the
stacks that hold trainable entries or feed the prompt.
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
    encoder_widths: tuple[int, ...] = ()  # hidden widths; () means the default (2d,)
    head_kind: str = "zero_shot"
    lora_rank: int = 2
    lora_alpha: float | None = None  # None means 1/rank
    lora_dropout: float = 0.25
    logit_scale: float = 100.0
    prompt_length: int = 2

    def __post_init__(self):
        if self.head_kind not in HEAD_KINDS:
            raise ConfigError(f"head_kind must be one of {HEAD_KINDS}, got {self.head_kind!r}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.class_count < 1:
            raise ConfigError(f"class_count must be >= 1, got {self.class_count}")
        if not all(w >= 1 for w in self.encoder_widths):
            raise ConfigError(f"encoder_widths must be positive, got {list(self.encoder_widths)}")
        if self.lora_rank < 1:
            raise ConfigError(f"lora_rank must be >= 1, got {self.lora_rank}")
        if self.lora_alpha is not None and not self.lora_alpha > 0:
            raise ConfigError(f"lora_alpha must be positive or null, got {self.lora_alpha}")
        if not 0.0 <= self.lora_dropout < 1.0:
            raise ConfigError(f"lora_dropout must be in [0, 1), got {self.lora_dropout}")
        if not self.logit_scale > 0:
            raise ConfigError(f"logit_scale must be positive, got {self.logit_scale}")
        if self.prompt_length < 1:
            raise ConfigError(f"prompt_length must be >= 1, got {self.prompt_length}")

    @property
    def lora_scale(self) -> float:
        return (1.0 / self.lora_rank) if self.lora_alpha is None else self.lora_alpha

    def hidden_widths(self) -> tuple:
        return self.encoder_widths if self.encoder_widths else (2 * self.embed_dim,)


@dataclass
class LoraAdapter:
    """Low-rank update ``scale * A @ B`` attached to one dense layer."""

    down: np.ndarray  # A, (out x rank); (K x out x rank) once bound to a model
    up: np.ndarray  # B, (rank x in); (K x rank x in) once bound to a model
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
    bias: np.ndarray  # (out,); (K x 1 x out) when trainable and bound
    activation: str  # "relu" | "none"
    adapter: LoraAdapter | None = None
    bias_grad: np.ndarray | None = None  # gradient slot of a trainable bias


def effective_weight(weight: np.ndarray, adapter: LoraAdapter | None) -> np.ndarray:
    """Frozen weight plus the adapter's low-rank update (one per client row)."""
    if adapter is None:
        return weight
    m, n = weight.shape
    if adapter.down.shape[-2] != m or adapter.up.shape[-1] != n:
        raise InvalidInputError(
            f"adapter shapes {adapter.down.shape}x{adapter.up.shape} do not chain with weight {weight.shape}"
        )
    if adapter.down.shape[-1] != adapter.up.shape[-2]:
        raise InvalidInputError("adapter factor inner dimensions disagree")
    return weight + adapter.delta()


def _drop(x: np.ndarray, kept: np.ndarray, adapter: LoraAdapter, out=None) -> np.ndarray:
    """Inverted dropout: ``x`` zeroed where not ``kept``, else scaled by 1 / keep.

    ``(x * kept) * (1 / keep)`` gives the same bits as ``x * (kept / keep)``:
    a kept entry is multiplied by the same rounded 1 / keep, and a dropped
    one is a zero of the sign of ``x`` either way.
    """
    out = np.multiply(x, kept, out=out)
    out *= 1.0 / (1.0 - adapter.dropout_rate)
    return out


def _through_normalization(upstream: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """d/dv of v / |v| applied to ``upstream``, row-wise, given v / |v| and |v|."""
    return (upstream - np.sum(upstream * unit, axis=-1, keepdims=True) * unit) / norms


def _layer_backward(layer: DenseLayer, record: tuple, delta: np.ndarray, input_grad: bool):
    """One layer of ``_stack_backward``: writes the layer's gradient slots and
    returns the gradient w.r.t. its input (``None`` unless ``input_grad``).

    ``record`` is the layer's record from ``_stack_forward``, whose dropped
    input and rank-r product are reused. Overwrites ``delta`` and a dropped
    input the forward made. Each temporary is released as soon as it is used,
    because a stack of K clients makes every one of them K times larger.
    """
    positive, a_drop, kept, a_up = record
    if positive is not None:
        delta *= positive
    if layer.bias_grad is not None:
        layer.bias_grad[...] = delta.sum(axis=-2, keepdims=True)
    ad = layer.adapter
    if ad is None:
        return delta @ layer.weight if input_grad else None
    ad.down_grad[...] = ad.scale * (delta.mT @ a_up)
    delta_down = delta @ ad.down
    ad.up_grad[...] = ad.scale * (delta_down.mT @ a_drop)
    if not input_grad:
        return None
    adapter_back = np.matmul(delta_down, ad.up, out=None if kept is None else a_drop)
    adapter_back *= ad.scale
    if kept is not None:
        _drop(adapter_back, kept, ad, out=adapter_back)
    back = delta @ layer.weight
    back += adapter_back
    return back


# heads whose image / text stack holds trainable entries or feeds the prompt
_IMAGE_TRAINED = ("lora_vision", "lora_both", "bitfit")
_TEXT_TRAINED = ("prompt", "lora_text", "lora_both", "bitfit")


class DualEncoderModel:
    """Model instance: two encoder stacks, prototypes, and one trainable head."""

    def __init__(self, config: ModelConfig, image_stack, text_stack, prototypes, prompt):
        self.config = config
        self.image_stack = image_stack
        self.text_stack = text_stack
        self.prototypes = prototypes  # (C x d) frozen text-side class inputs
        self.prompt = prompt  # (M x d) or None; (K x M x d) once bound
        self.prompt_grad = None
        self._cache = None
        self._text_first = prototypes @ text_stack[0].weight.T  # shared by every head but the prompt
        self._slots = self._trainable_slots()
        values = [getattr(owner, attr).ravel() for owner, attr, _ in self._slots]
        self._bind(np.concatenate(values) if values else np.zeros(0))

    def __deepcopy__(self, memo):
        # a deep-copied view no longer aliases its copied base, so bind again
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__ = _copy.deepcopy(self.__dict__, memo)
        clone._bind(clone.theta)
        return clone

    # -- parameter transport --------------------------------------------------

    def _trainable_slots(self) -> list:
        """(owner, attribute, per-client shape) of every trainable array, in transport order."""
        head = self.config.head_kind
        layers = [*self.image_stack, *self.text_stack]
        if head == "prompt":
            return [(self, "prompt", self.prompt.shape)]
        if head == "bitfit":
            # (1 x out) per client, so that a bias broadcasts over batch rows
            return [(layer, "bias", (1, layer.bias.size)) for layer in layers]
        adapters = [layer.adapter for layer in layers if layer.adapter is not None]
        return [(ad, part, getattr(ad, part).shape) for ad in adapters for part in ("down", "up")]

    def _bind(self, theta: np.ndarray) -> None:
        """Make ``theta`` the trainable state and rebind the arrays as its views.

        ``theta`` is one transport vector (P,) or a K x P matrix, one row per
        client of a stack. Every trainable array becomes a (K x ...) view of
        its slice of the rows (K = 1 for a vector), and its gradient slot the
        same view of a ``grad`` buffer shaped like ``theta``.
        """
        self.theta, self.grad = theta, np.zeros_like(theta)
        rows = theta if theta.ndim == 2 else theta[None]
        grad_rows = self.grad if theta.ndim == 2 else self.grad[None]
        offset = 0
        for owner, attr, shape in self._slots:
            end = offset + int(np.prod(shape))
            setattr(owner, attr, rows[:, offset:end].reshape(len(rows), *shape))
            setattr(owner, f"{attr}_grad", grad_rows[:, offset:end].reshape(len(rows), *shape))
            offset = end

    def trainable_size(self) -> int:
        """Entries P of one client's transport vector."""
        return self.theta.shape[-1]

    def trainable_vector(self) -> np.ndarray:
        """A copy of ``theta``: the transport vector, or one row per client of a stack."""
        return self.theta.copy()

    def load_trainable(self, values: np.ndarray) -> None:
        """Copy a transport vector, or a K x P stack of them, into ``theta``.

        Rejects rows whose length is not P. A stack of K rows binds the
        trainable arrays with a leading client axis of K, for a stacked
        ``forward``; a vector binds one row.
        """
        values = np.asarray(values, dtype=np.float64)
        size = self.trainable_size()
        empty_stack = values.ndim == 2 and len(values) == 0
        if values.ndim not in (1, 2) or values.shape[-1] != size or empty_stack:
            raise TransportError(f"trainable values of shape {values.shape} do not hold rows of {size} entries")
        if values.shape != self.theta.shape:
            self._bind(np.empty_like(values))
        self.theta[...] = values

    # -- forward / backward ---------------------------------------------------

    def _stack_forward(self, stack_name, stack, x, train, masks, first=None):
        """Run one encoder stack on a (K x rows x in) stack of inputs.

        A leading axis of 1 serves every client when the stack's input and
        parameters are shared. ``first``, if given, is the first layer's
        frozen product ``x @ W.T``. An adapted layer in training takes its
        adapter-input mask from ``masks`` (none without dropout). Returns the
        stack output and, per layer in training (else an empty list), the
        record ``(positive, a_drop, kept, a_up)``: ``out > 0`` under a relu,
        the dropped adapter input, its mask and ``a_drop @ up.mT`` (``None``
        where they do not apply). Each layer adds its bias and adapter term
        and applies its relu in place, so an evaluation forward holds at most
        two layers' activations.
        """
        records = []
        a = x
        for i, layer in enumerate(stack):
            kept = a_drop = a_up = None
            # overflow here surfaces as the NumericError below, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                z = a @ layer.weight.T if i or first is None else first
                z += layer.bias
                ad = layer.adapter
                if ad is not None:
                    kept = next(masks, None) if train else None
                    a_drop = a if kept is None else _drop(a, kept, ad)
                    a_up = a_drop @ ad.up.mT
                    z += ad.scale * a_up @ ad.down.mT
                # one sum is finite only if every entry is; the exact scan runs on failure
                finite = np.isfinite(z.sum()) or np.isfinite(z).all()
            if not finite:
                bad = ~np.isfinite(z).reshape(len(z), -1).all(axis=1)
                raise NumericError(f"non-finite activation in {stack_name} layer {i}", np.flatnonzero(bad))
            if layer.activation == "relu":
                np.maximum(z, 0.0, out=z)
            if train:
                # backward reads a layer's output only through its relu
                records.append((z > 0 if layer.activation == "relu" else None, a_drop, kept, a_up))
            a = z
        return a, records

    def _dropout_masks(self, streams, stacks):
        """Iterator of the (K x rows x in) adapter-input masks of the trained
        ``(layers, rows)`` stacks, image stack first; empty without dropout.
        Client k's masks are row k of one ``bernoulli_rows`` draw, cut in
        layer order, so each is the draw of its layer after those before it.
        """
        shapes = [(rows, ly.weight.shape[1]) for layers, rows in stacks for ly in layers if ly.adapter is not None]
        if not shapes or self.config.lora_dropout == 0.0:
            return iter(())
        if any(rng is None for rng in streams):
            raise UsageError("training forward with dropout requires an RngStream")
        ends = np.cumsum([r * c for r, c in shapes])
        kept = RngStream.bernoulli_rows(streams, int(ends[-1]), 1.0 - self.config.lora_dropout)
        return iter([kept[:, e - r * c : e].reshape(len(streams), r, c) for e, (r, c) in zip(ends, shapes)])

    def forward(self, embeddings: np.ndarray, train: bool = False, rng: RngStream | list | None = None) -> np.ndarray:
        """Logit matrix (batch x C) of scaled cosine similarities.

        ``embeddings`` is one batch (n x d), or a stack of K clients' batches
        (K x n x d) that gives K x n x C logits; a stack needs K parameter
        rows loaded (``load_trainable``), and client k's batch meets only
        row k. In training mode the adapter-input dropout is live, drawn from
        ``rng`` (a sequence of K streams for a stack), and the forward state
        is cached for ``backward``.
        """
        self._cache = None  # frees the previous step's records before this forward builds its own
        x = np.asarray(embeddings, dtype=np.float64)
        d = self.config.embed_dim
        if x.ndim not in (2, 3) or x.shape[-1] != d:
            raise InvalidInputError(f"embeddings must be (n x {d}) or (K x n x {d}), got {x.shape}")
        stacked = x.ndim == 3
        xs = x if stacked else x[None]
        k = len(self.theta) if self.theta.ndim == 2 else 1
        if len(xs) != k:
            raise UsageError(f"a stack of {len(xs)} batches needs {len(xs)} parameter rows, the model holds {k}")
        streams = list(rng) if stacked and rng is not None else [rng] * k
        if len(streams) != k:
            raise UsageError(f"a stack of {k} batches needs {k} streams, got {len(streams)}")
        head = self.config.head_kind
        train_img, train_txt = train and head in _IMAGE_TRAINED, train and head in _TEXT_TRAINED
        # only a prompt makes the text input differ per client; else layer 0's product is cached
        text, first = self.prototypes[None], None
        if head == "prompt":
            text = text + self.prompt.mean(axis=1)[:, None, :]
        else:
            first = np.repeat(self._text_first[None], k if head in _TEXT_TRAINED else 1, axis=0)
        trained = [(self.image_stack, xs.shape[1])] if train_img else []
        trained += [(self.text_stack, text.shape[1])] if train_txt else []
        masks = self._dropout_masks(streams, trained)
        fv, img_records = self._stack_forward("img", self.image_stack, xs, train_img, masks)
        ft, txt_records = self._stack_forward("txt", self.text_stack, text, train_txt, masks, first)
        v_norms = np.linalg.norm(fv, axis=-1, keepdims=True)
        t_norms = np.linalg.norm(ft, axis=-1, keepdims=True)
        zero = (v_norms == 0).any(axis=(1, 2)) | (t_norms == 0).any(axis=(1, 2))
        if zero.any():
            rows = np.flatnonzero(np.broadcast_to(zero, (k,)))
            raise NumericError("zero-norm encoder output; cannot take cosine", rows)
        u = np.divide(fv, v_norms, out=fv)  # both are this forward's own arrays
        w = np.divide(ft, t_norms, out=ft)
        logits = self.config.logit_scale * (u @ w.mT)
        if not stacked:
            logits = logits[0]
        if train:
            self._cache = dict(img=img_records, txt=txt_records, u=u, w=w, v_norms=v_norms, t_norms=t_norms,
                               logits=logits)
        return logits

    def _stack_backward(self, stack, records, delta, input_grad):
        """Backpropagate ``delta`` (d loss / d stack output) through a stack.

        Writes the bias and adapter gradients into their slots of ``grad``.
        Returns the gradient with respect to the stack input when
        ``input_grad`` is set, else ``None`` without computing it.
        """
        for i in reversed(range(len(stack))):
            delta = _layer_backward(stack[i], records[i], delta, input_grad=i > 0 or input_grad)
        return delta

    def backward(self, labels: np.ndarray, loss_spec: LossSpec) -> tuple:
        """Gradients of the training objective for every trainable entry.

        Uses up the cached training forward for the same batch (labels n, or
        K x n for a stack); a second backward needs a new forward. Returns
        ``(LossValue, gradient)``, the gradient a copy of ``grad`` shaped like
        ``theta``: each client's gradient uses only its own batch and
        parameter row. Only the stacks that hold trainable entries, or feed
        the prompt, are backpropagated.
        """
        if self._cache is None:
            raise UsageError("backward requires a preceding forward(train=True)")
        cache = self._cache
        logits = cache["logits"]
        labels = np.asarray(labels, dtype=np.int64)
        probs = softmax_rows(logits.reshape(-1, logits.shape[-1])).reshape(logits.shape)
        loss = total_loss(ProbBatch(probs, labels), loss_spec)

        u, w = cache["u"], cache["w"]
        g = loss.grad_wrt_probs.reshape(len(u), -1, logits.shape[-1])
        probs = probs.reshape(g.shape)
        # softmax Jacobian, row-wise: dL/dz = p * (g - <g, p>)
        gz = probs * (g - np.sum(g * probs, axis=-1, keepdims=True))

        scale = self.config.logit_scale
        head = self.config.head_kind
        if head in _TEXT_TRAINED:
            dft = _through_normalization(scale * (gz.mT @ u), w, cache["t_norms"])  # (K x C x d)
            d_text_input = self._stack_backward(self.text_stack, cache["txt"], dft, input_grad=head == "prompt")
            if head == "prompt":
                # the context mean is added to every class prototype, and each
                # of the M vectors contributes 1/M of the mean
                self.prompt_grad[...] = (d_text_input.sum(axis=1) / self.prompt.shape[1])[:, None, :]
        if head in _IMAGE_TRAINED:
            dfv = _through_normalization(scale * (gz @ w), u, cache["v_norms"])  # (K x n x d)
            self._stack_backward(self.image_stack, cache["img"], dfv, input_grad=False)
        grad, self._cache = self.grad.copy(), None  # backward overwrites records it no longer reads
        return loss, grad


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
