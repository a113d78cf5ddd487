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
- ``bitfit``        a bias on every layer of both encoders, from zero

An adapter adds ``scale * A @ B`` to its frozen weight matrix; ``B`` starts
at zero so training begins exactly at the zero-shot predictions. Dropout
regularizes only the adapter input path, never the frozen path.

Between training steps the model holds only frozen state: one list of
weight matrices that both stacks read (every layer but the last applies a
relu, and no frozen layer has a bias), the class prototypes, the layout of
the trainable entries and the initial trainable vector ``initial``. A
training forward also keeps the step's records in ``_cache`` until the
``backward`` that uses them up. The trainable parameters are passed in on
every call: the P-entry vector that clients send to the server, or a K x P
matrix with one such row per client when K clients train in lockstep. The
layout of a row: the prompt; else each adapted layer's ``A`` then ``B``,
image stack first; else each layer's bias, image stack first, which bitfit
trains per client from zero. Each call cuts the prompt, adapter and bias
arrays as reshaped views of its parameter rows, with a leading client axis
(K = 1 for a vector), so transport costs nothing and no call reads
parameters that an earlier call was given.

``forward`` takes one batch (n x d), or a stack of K clients' minibatches of
B rows each, back to back, with each client's count of real rows. A client
with fewer than B real rows comes padded to B (see
``federation.train_participants``), and its padded rows carry zero dropout
masks and zero loss weight. Activations keep a leading client axis, and
every product is one batched ``np.matmul``: one GEMM per client, with the
shapes of one B-row batch whatever the stack. So client k's rows meet only
row k of the parameters, and its slice of a stacked step is the computation
of its padded batch alone. The text stack has C rows per client, or a
leading axis of 1 when its input and weights are the same for every client
(a head that does not train it); its first frozen product
``prototypes @ W.T`` is made once per model and never written: the first
text layer adds its adapter term or trained bias to it by broadcasting. A
training forward draws each client's dropout masks, image layers then text
layers, in one draw for the whole stack, and records per layer where its
relu is positive, the dropped adapter input, its mask and ``a_drop @ B.T``.

``backward`` computes analytic gradients through softmax, cosine
normalization, the dense stacks, and the adapter factorization into a new
array shaped like the forward's parameters; it is verified against central
finite differences in the test suite. It hands the losses its own softmax
rows and the step's labels as plain arrays, which nothing validates again.
It backpropagates only through the stacks that hold trainable entries or
feed the prompt.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InvalidInputError,
    NumericError,
    TransportError,
    UsageError,
)
from .losses import LossSpec, total_loss
from .numerics import RngStream, _softmax

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


def _slot_layout(config: ModelConfig, weights: list) -> dict:
    """Slice of a parameter row and per-client shape of every trainable array,
    keyed ``"prompt"`` or ``(stack, layer, part)``, in transport order."""
    head = config.head_kind
    adapted = {"lora_vision": ("img",), "lora_text": ("txt",), "lora_both": ("img", "txt")}.get(head, ())
    r = config.lora_rank
    shapes = {"prompt": (config.prompt_length, config.embed_dim)} if head == "prompt" else {}
    for stack in ("img", "txt"):
        for i, weight in enumerate(weights):
            out_dim, in_dim = weight.shape
            if head == "bitfit":
                # (1 x out) per client, so that a bias broadcasts over batch rows
                shapes[stack, i, "bias"] = (1, out_dim)
            elif stack in adapted:
                shapes[stack, i, "down"] = (out_dim, r)
                shapes[stack, i, "up"] = (r, in_dim)
    slots, offset = {}, 0
    for key, (rows, cols) in shapes.items():
        slots[key] = (slice(offset, offset + rows * cols), (rows, cols))
        offset += rows * cols
    return slots


def _layer_views(views: dict, stack: str, i: int) -> tuple:
    """``(bias, down, up)`` of layer ``i`` of ``stack`` from ``views``; ``None`` where frozen."""
    return views.get((stack, i, "bias")), views.get((stack, i, "down")), views.get((stack, i, "up"))


def _drop(x: np.ndarray, kept: np.ndarray, rate: float, out=None) -> np.ndarray:
    """Inverted dropout: ``x`` zeroed where not ``kept``, else scaled by 1 / keep.

    ``(x * kept) * (1 / keep)`` gives the same bits as ``x * (kept / keep)``:
    a kept entry is multiplied by the same rounded 1 / keep, and a dropped
    one is a zero of the sign of ``x`` either way.
    """
    out = np.multiply(x, kept, out=out)
    out *= 1.0 / (1.0 - rate)
    return out


def _through_normalization(upstream: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """d/dv of v / |v| applied to ``upstream``, row-wise, given v / |v| and |v|."""
    return (upstream - np.add.reduce(upstream * unit, axis=-1, keepdims=True) * unit) / norms


def _layer_backward(weight: np.ndarray, params: tuple, grads: tuple, config: ModelConfig, record: tuple,
                    delta: np.ndarray, input_grad: bool):
    """One layer of ``_stack_backward``: writes the layer's gradient views and
    returns the gradient w.r.t. its input (``None`` unless ``input_grad``).

    ``params`` and ``grads`` are the layer's ``(bias, down, up)`` parameter
    and gradient views (``None`` where frozen). ``record`` is the layer's
    record from ``_stack_forward``, whose dropped input and rank-r product
    are reused. Overwrites ``delta`` and a dropped input the forward made.
    Each temporary is released as soon as it is used, because a stack of K
    clients makes every one of them K times larger.
    """
    positive, a_drop, kept, a_up = record
    _, down, up = params
    bias_grad, down_grad, up_grad = grads
    if positive is not None:
        delta *= positive
    if bias_grad is not None:
        bias_grad[...] = delta.sum(axis=-2, keepdims=True)
    if down is None:
        return delta @ weight if input_grad else None
    scale = config.lora_scale
    down_grad[...] = scale * (delta.mT @ a_up)
    delta_down = delta @ down
    up_grad[...] = scale * (delta_down.mT @ a_drop)
    if not input_grad:
        return None
    adapter_back = np.matmul(delta_down, up, out=None if kept is None else a_drop)
    adapter_back *= scale
    if kept is not None:
        _drop(adapter_back, kept, config.lora_dropout, out=adapter_back)
    back = delta @ weight
    back += adapter_back
    return back


class DualEncoderModel:
    """Frozen state of the classifier; the trainable parameters are passed in."""

    def __init__(self, config: ModelConfig, weights: list, prototypes: np.ndarray, rng: RngStream):
        """The model over the frozen (out x in) ``weights`` and ``prototypes``,
        with its initial vector at zero-shot: each LoRA ``A`` factor is drawn
        from ``rng.child("lora", stack, layer)``, and the prompt, the ``B``
        factors and bitfit's biases start at zero."""
        self.config = config
        self.weights = weights  # one frozen list, read by the image and the text stack
        self.prototypes = prototypes  # (C x d) frozen text-side class inputs
        self._text_first = prototypes @ weights[0].T  # shared by every head but the prompt
        self._text_first.flags.writeable = False
        self._slots = _slot_layout(config, weights)
        # stacks that hold trainable entries; the prompt counts as the text stack it feeds
        self._trained = {"txt" if key == "prompt" else key[0] for key in self._slots}
        parts = []
        for key, (_, (rows, cols)) in self._slots.items():
            if key[-1] == "down":
                parts.append(rng.child("lora", *key[:2]).normal(rows * cols) * np.sqrt(1.0 / config.lora_rank))
            else:
                parts.append(np.zeros(rows * cols))
        self.initial = np.concatenate(parts) if parts else np.zeros(0)  # the P-entry vector at zero-shot
        self.initial.flags.writeable = False
        self._cache = None

    def _views(self, params: np.ndarray) -> dict:
        """Every trainable array as a (K x ...) view of its slice of the K x P
        ``params`` (K = 1 for a vector), keyed as in the slot layout.

        Rejects an empty stack and rows whose length is not P.
        """
        size = self.initial.size
        if params.ndim not in (1, 2) or params.shape[-1] != size or (params.ndim == 2 and len(params) == 0):
            raise TransportError(f"trainable values of shape {params.shape} do not hold rows of {size} entries")
        rows = params if params.ndim == 2 else params[None]
        return {key: rows[:, cut].reshape(len(rows), *shape) for key, (cut, shape) in self._slots.items()}

    def _stack_forward(self, stack, x, views, train, masks, first=None):
        """Run one encoder stack on the inputs ``x`` (clients x rows x d) of a
        stack of clients; a leading axis of 1 serves every client when the
        stack's input and parameters are shared. ``views`` holds the
        trainable arrays of the forward's parameters. ``first``, if given, is
        the first layer's frozen product ``x @ W.T``, which is only read. An
        adapted layer in training takes its adapter-input mask from ``masks``
        (none without dropout). Returns the stack output and, per layer in
        training (else an empty list), the record ``(positive, a_drop, kept,
        a_up)``: ``out > 0`` under a relu, the dropped adapter input, its mask
        and ``a_drop @ up.mT`` (``None`` where they do not apply). A layer adds
        its trained bias or adapter term, if it has one, and applies its relu
        in place on an array of its own, so an evaluation forward holds at
        most two layers' activations."""
        records = []
        a = x
        last = len(self.weights) - 1
        # overflow here surfaces as the NumericError below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for i, weight in enumerate(self.weights):
                bias, down, up = _layer_views(views, stack, i)
                kept = a_drop = a_up = None
                z = a @ weight.T if i or first is None else first
                if bias is not None:
                    z = np.add(z, bias, out=None if z is first else z)
                if down is not None:
                    kept = next(masks, None) if train else None
                    a_drop = a if kept is None else _drop(a, kept, self.config.lora_dropout)
                    a_up = a_drop @ up.mT
                    # summed into the adapter term, this layer's own array: y + x is x + y bit for bit
                    adapter = (self.config.lora_scale * a_up) @ down.mT
                    z = np.add(adapter, z, out=adapter)
                # one sum is finite only if every entry is; the exact scan runs on failure
                if not (np.isfinite(z.sum()) or np.isfinite(z).all()):
                    bad = ~np.isfinite(z).all(axis=(1, 2))
                    raise NumericError(f"non-finite activation in {stack} layer {i}", np.flatnonzero(bad))
                if i < last:
                    z = np.maximum(z, 0.0, out=None if z is first else z)
                if train:
                    # backward reads a layer's output only through its relu
                    records.append((z > 0 if i < last else None, a_drop, kept, a_up))
                a = z
        return a, records

    def _dropout_masks(self, streams, stacks):
        """Iterator of the adapter-input masks of the trained ``(stack, counts,
        rows)`` stacks, image stack first, each shaped like its layer's input
        (clients x rows x width); empty without dropout. Client k draws its
        masks in one ``bernoulli_rows`` call, ``counts[k]`` rows of every
        adapted layer in layer order, image layers then text layers, as its
        batch alone does. In a full stack each mask is a view of that draw;
        else a client's padded rows keep zero masks.
        """
        layers = [(counts, rows, weight.shape[1]) for stack, counts, rows in stacks
                  for i, weight in enumerate(self.weights) if (stack, i, "down") in self._slots]
        keep = 1.0 - self.config.lora_dropout
        if not layers or keep == 1.0:
            return iter(())
        if any(rng is None for rng in streams):
            raise UsageError("training forward with dropout requires an RngStream")
        drawn = [np.multiply(counts, w) for counts, _, w in layers]
        kept = RngStream.bernoulli_rows(streams, sum(drawn), keep)
        if all(min(counts) == rows for counts, rows, _ in layers):
            starts = itertools.accumulate((rows * w for _, rows, w in layers), initial=0)
            return (kept[:, start : start + rows * w].reshape(-1, rows, w) for start, (_, rows, w) in zip(starts, layers))
        masks, starts = [], np.zeros(len(streams), dtype=np.int64)
        for (counts, rows, w), size in zip(layers, drawn):
            mask = np.zeros((len(counts), rows, w), dtype=bool)
            for client, (n, start) in enumerate(zip(counts, starts)):
                mask[client, :n] = kept[client, start : start + n * w].reshape(n, w)
            masks.append(mask)
            starts += size
        return iter(masks)

    def forward(self, embeddings: np.ndarray, params: np.ndarray, train: bool = False,
                rng: RngStream | list | None = None, counts=None) -> np.ndarray:
        """Logits (rows x C) of scaled cosine similarities.

        ``embeddings`` is one batch (n x d) with a P-entry parameter vector
        ``params``, or a stack of K clients' minibatches of B rows each with
        K parameter rows (K x P): their rows back to back, with each
        client's count of real rows (1 to B) in ``counts``, its padded rows
        after them; client k's rows meet only row k. In training mode the
        adapter-input dropout is live, drawn from ``rng`` (a sequence of K
        streams for a stack), and the forward state is cached for
        ``backward``; ``params`` must not change before that ``backward``.
        """
        self._cache = None  # frees the previous step's records before this forward builds its own
        x = np.asarray(embeddings, dtype=np.float64)
        d = self.config.embed_dim
        if x.ndim != 2 or x.shape[-1] != d:
            raise InvalidInputError(f"embeddings must be (n x {d}), got {x.shape}")
        params = np.asarray(params, dtype=np.float64)
        views = self._views(params)
        k = len(params) if params.ndim == 2 else 1
        rows = len(x) // k
        sizes = [len(x)] if counts is None else counts
        if len(sizes) != k or len(x) != k * rows or not all(0 < n <= rows for n in sizes):
            raise UsageError(f"a stack of {k} batches of B rows each, with 1 to B real rows, got {len(x)} rows "
                             f"and counts {list(sizes)}")
        streams = [rng] * k if rng is None or isinstance(rng, RngStream) else list(rng)
        if len(streams) != k:
            raise UsageError(f"a stack of {k} batches needs {k} streams, got {len(streams)}")
        head = self.config.head_kind
        train_img, train_txt = train and "img" in self._trained, train and "txt" in self._trained
        # only a prompt makes the text input differ per client; else layer 0's product is cached
        text, first = self.prototypes[None], None
        if head == "prompt":
            text = text + views["prompt"].mean(axis=1)[:, None, :]
        else:
            first = self._text_first[None]
        trained = [("img", sizes, rows)] if train_img else []
        trained += [("txt", [len(self.prototypes)] * k, len(self.prototypes))] if train_txt else []
        masks = self._dropout_masks(streams, trained)
        fv, img_records = self._stack_forward("img", x.reshape(k, rows, d), views, train_img, masks)
        ft, txt_records = self._stack_forward("txt", text, views, train_txt, masks, first)
        # the arithmetic of np.linalg.norm(f, axis=-1, keepdims=True), bit for bit, without its dispatch
        v_norms, t_norms = (np.sqrt(np.add.reduce(f * f, axis=-1, keepdims=True)) for f in (fv, ft))
        if not (v_norms.all() and t_norms.all()):
            zero = (t_norms == 0).any(axis=(1, 2)) | (v_norms == 0).any(axis=(1, 2))
            raise NumericError("zero-norm encoder output; cannot take cosine", np.flatnonzero(zero))
        u = np.divide(fv, v_norms, out=fv)  # both are this forward's own arrays
        w = np.divide(ft, t_norms, out=ft)
        logits = self.config.logit_scale * (u @ w.mT)
        if train:
            self._cache = dict(img=img_records, txt=txt_records, u=u, w=w, v_norms=v_norms, t_norms=t_norms,
                               logits=logits, views=views, shape=params.shape, counts=counts)
        return logits.reshape(len(x), -1)

    def _stack_backward(self, stack, views, grads, records, delta, input_grad):
        """Backpropagate ``delta`` (d loss / d stack output) through a stack.

        Writes the bias and adapter gradients into their views in ``grads``.
        Returns the gradient with respect to the stack input when
        ``input_grad`` is set, else ``None`` without computing it.
        """
        for i in reversed(range(len(self.weights))):
            delta = _layer_backward(self.weights[i], _layer_views(views, stack, i), _layer_views(grads, stack, i),
                                    self.config, records[i], delta, input_grad=i > 0 or input_grad)
        return delta

    def backward(self, labels: np.ndarray, loss_spec: LossSpec) -> tuple:
        """Gradients of the training objective for every trainable entry.

        Uses up the cached training forward for the same rows (one label per
        row); a second backward needs a new forward. Returns
        ``(LossValue, gradient)``, the gradient a new array shaped like the
        forward's parameters: each client's gradient uses only its own batch
        and parameter row. Only the stacks that hold trainable entries, or
        feed the prompt, are backpropagated.
        """
        if self._cache is None:
            raise UsageError("backward requires a preceding forward(train=True)")
        cache = self._cache
        logits = cache["logits"]
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        # the forward's activations are checked finite and its cosines bounded, so are its logits
        probs = _softmax(logits.reshape(-1, logits.shape[-1]))
        loss = total_loss(probs, labels, loss_spec, cache["counts"])

        u, w = cache["u"], cache["w"]
        g = loss.grad_wrt_probs.reshape(logits.shape)
        probs = probs.reshape(g.shape)
        # softmax Jacobian, row-wise: dL/dz = p * (g - <g, p>)
        gz = probs * (g - np.sum(g * probs, axis=-1, keepdims=True))

        grad = np.zeros(cache["shape"])
        views, grads = cache["views"], self._views(grad)
        scale = self.config.logit_scale
        head = self.config.head_kind
        if "txt" in self._trained:
            dft = _through_normalization(scale * (gz.mT @ u), w, cache["t_norms"])
            d_text_input = self._stack_backward("txt", views, grads, cache["txt"], dft, input_grad=head == "prompt")
            if head == "prompt":
                # the context mean is added to every class prototype, and each
                # of the M vectors contributes 1/M of the mean
                grads["prompt"][...] = (d_text_input.sum(axis=1) / self.config.prompt_length)[:, None, :]
        if "img" in self._trained:
            dfv = _through_normalization(scale * (gz @ w), u, cache["v_norms"])  # shaped like u
            self._stack_backward("img", views, grads, cache["img"], dfv, input_grad=False)
        self._cache = None  # backward overwrites records it no longer reads
        return loss, grad


def _init_stack(dims, rng: RngStream) -> list:
    """The (out x in) weight matrices of one encoder stack, He-scaled for relu
    layers; the frozen layers have no bias."""
    weights = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        std = np.sqrt((1.0 if i == len(dims) - 2 else 2.0) / fan_in)
        weights.append(rng.child("enc", i).normal(fan_out * fan_in).reshape(fan_out, fan_in) * std)
    return weights


def zero_shot_init(config: ModelConfig, class_prototypes: np.ndarray, rng: RngStream) -> DualEncoderModel:
    """Build a model whose initial predictions are the zero-shot reference.

    Encoder weight matrices, without biases, are drawn once and shared by
    both modalities (the analogue of a jointly pretrained dual encoder).
    LoRA ``B`` factors, prompt vectors and bitfit's biases start at zero, so
    every head reproduces the zero-shot logits exactly at initialization.
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
    return DualEncoderModel(config, _init_stack(dims, rng.child("backbone")), protos, rng)
