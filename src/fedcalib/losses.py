"""Training objectives: cross-entropy plus optional calibration regularizers.

The two regularizers penalize the gap between mean confidence and mean
accuracy, per batch (DCA) or per class (MDCA). Both treat the correctness
indicators as constants: gradients flow only through the predicted
probabilities, and the sign of the gap is held fixed at the evaluation
point (sign(0) is defined as 0 so a perfectly matched batch produces no
spurious gradient).

All gradients here are taken with respect to the predicted probabilities;
the softmax chain is applied downstream by the model's backward pass.
Every loss takes the plain arrays of the model's own softmax, ``probs``
(n x C) and ``labels`` (n class indices), which it does not validate
again: the rows of one batch, or of a stack of K clients' minibatches of B
rows each, back to back, with each client's count of real rows in
``counts``. A client's padded rows follow its real rows; they carry zero
loss weight and get exactly zero gradient. Each client's mean is the sum
over its block, padded entries zeroed, divided by its count (for a full
block, numpy's ``mean`` bit for bit), so a client's slice of a stacked loss
equals the loss of its padded batch alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import PROB_CLAMP
from .errors import ConfigError, InvalidInputError

AUX_KINDS = ("none", "dca", "mdca")


@dataclass(frozen=True)
class LossSpec:
    """Which auxiliary calibration loss to add, and with what weight."""

    aux_kind: str = "none"
    aux_weight: float = 1.0

    def __post_init__(self):
        if self.aux_kind not in AUX_KINDS:
            raise ConfigError(f"aux_kind must be one of {AUX_KINDS}, got {self.aux_kind!r}")
        if not self.aux_weight >= 0:
            raise ConfigError(f"aux_weight must be non-negative, got {self.aux_weight}")


@dataclass(frozen=True)
class LossValue:
    """Total objective with its parts and the gradient w.r.t. probabilities.

    With ``counts`` (a stack of K batches, K = 1 included), each nonzero
    part is an array with one entry per client, that client's own batch mean.
    """

    total: float | np.ndarray
    ce_part: float | np.ndarray
    aux_part: float | np.ndarray
    grad_wrt_probs: np.ndarray  # shaped like the probabilities


def _flat(probs: np.ndarray, labels: np.ndarray, counts) -> tuple:
    """``(true-class probs, counts, real)`` of the rows of K equal blocks whose
    clients hold ``counts`` real rows each (by default one block of real
    rows); ``real`` (K x B) marks each block's real rows."""
    counts = np.asarray([len(labels)] if counts is None else counts)
    real = np.arange(len(labels) // len(counts)) < counts[:, None]
    return probs[np.arange(len(labels)), labels], counts, real


def _on_real_rows(real: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values``, one entry or row per row of the blocks ``real`` marks, with every padded row zeroed."""
    return np.where(real.reshape(-1, *(1,) * (values.ndim - 1)), values, 0.0)


def _means(values: np.ndarray, real: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each client's mean of its real rows of ``values``: the sum over its block, padding zeroed, over its count."""
    blocks = _on_real_rows(real, values).reshape(*real.shape, *values.shape[1:])
    return blocks.sum(axis=1) / counts.reshape(-1, *(1,) * (values.ndim - 1))


def _shaped(counts, value: np.ndarray):
    """Per-client ``value``, a scalar for a plain batch."""
    return value[0] if counts is None else value


def _at_true_class(probs: np.ndarray, labels: np.ndarray, values) -> np.ndarray:
    """Zeros like ``probs``, ``values`` (one per row, or one for all) at the true classes."""
    grad = np.zeros_like(probs)
    grad[np.arange(len(labels)), labels] = values
    return grad


def ce_loss(probs: np.ndarray, labels: np.ndarray, counts=None) -> LossValue:
    """Mean cross-entropy, probabilities clamped at 1e-12 before the log.

    Gradient w.r.t. probabilities is -1/(m * p_true) on true-class entries
    (using the clamped value, so saturated rows stay finite) and 0 elsewhere.
    """
    true, sizes, real = _flat(probs, labels, counts)
    p_true = np.maximum(true, PROB_CLAMP)
    value = _shaped(counts, -_means(np.log(p_true), real, sizes))
    grad = _at_true_class(probs, labels, _on_real_rows(real, -1.0 / (np.repeat(sizes, real.shape[1]) * p_true)))
    return LossValue(total=value, ce_part=value, aux_part=0.0, grad_wrt_probs=grad)


def dca_loss(probs: np.ndarray, labels: np.ndarray, counts=None) -> LossValue:
    """|mean correctness - mean true-class confidence| over the minibatch."""
    true, sizes, real = _flat(probs, labels, counts)
    correct = (probs.argmax(axis=-1) == labels).astype(np.float64)
    gap = _means(correct, real, sizes) - _means(true, real, sizes)
    value = _shaped(counts, np.abs(gap))
    # sign(0) = 0; correctness indicators are constants, only s carries gradient
    sign = np.sign(gap)
    grad = _at_true_class(probs, labels, _on_real_rows(real, np.repeat(-sign / sizes, real.shape[1])))
    return LossValue(total=value, ce_part=0.0, aux_part=value, grad_wrt_probs=grad)


def mdca_loss(probs: np.ndarray, labels: np.ndarray, counts=None) -> LossValue:
    """Class-wise confidence/accuracy gap, averaged over all classes."""
    _, sizes, real = _flat(probs, labels, counts)
    num_classes = probs.shape[-1]
    if num_classes < 2:
        raise InvalidInputError("mdca requires at least 2 classes")
    # per client and class j
    gaps = _means(_at_true_class(probs, labels, 1.0), real, sizes) - _means(probs, real, sizes)
    value = _shaped(counts, np.mean(np.abs(gaps), axis=-1))
    signs = np.sign(gaps)
    grad = _on_real_rows(real, np.repeat(-signs / (num_classes * sizes[:, None]), real.shape[1], axis=0))
    return LossValue(total=value, ce_part=0.0, aux_part=value, grad_wrt_probs=grad)


def total_loss(probs: np.ndarray, labels: np.ndarray, spec: LossSpec, counts=None) -> LossValue:
    """Cross-entropy plus the weighted auxiliary term from ``spec``."""
    ce = ce_loss(probs, labels, counts)
    if spec.aux_kind == "none":
        return ce
    aux = (dca_loss if spec.aux_kind == "dca" else mdca_loss)(probs, labels, counts)
    beta = spec.aux_weight
    return LossValue(
        total=ce.ce_part + beta * aux.aux_part,
        ce_part=ce.ce_part,
        aux_part=aux.aux_part,
        grad_wrt_probs=ce.grad_wrt_probs + beta * aux.grad_wrt_probs,
    )
