"""Training objectives: cross-entropy plus optional calibration regularizers.

The two regularizers penalize the gap between mean confidence and mean
accuracy, per batch (DCA) or per class (MDCA). Both treat the correctness
indicators as constants: gradients flow only through the predicted
probabilities, and the sign of the gap is held fixed at the evaluation
point (sign(0) is defined as 0 so a perfectly matched batch produces no
spurious gradient).

All gradients here are taken with respect to the predicted probabilities;
the softmax chain is applied downstream by the model's backward pass.
Every loss takes one batch or a stack of K clients' batches of equal size
(a leading client axis) and keeps each client's own batch means, so a
client's slice of a stacked loss equals the loss of its batch alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import PROB_CLAMP, ProbBatch
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

    For a stack of K batches, each nonzero part is an array with one entry
    per client, that client's own batch mean.
    """

    total: float | np.ndarray
    ce_part: float | np.ndarray
    aux_part: float | np.ndarray
    grad_wrt_probs: np.ndarray  # batch x C (K x batch x C for a stack)


def _true_class_entries(batch: ProbBatch) -> tuple:
    """(row, class) index of each true-class entry, probabilities seen as rows x C."""
    labels = batch.labels.ravel()
    return np.arange(labels.size), labels


def _true_class(batch: ProbBatch) -> np.ndarray:
    """Each row's true-class probability, shaped like the labels."""
    flat = batch.probs.reshape(-1, batch.class_count)
    return flat[_true_class_entries(batch)].reshape(batch.labels.shape)


def _at_true_class(batch: ProbBatch, values) -> np.ndarray:
    """Zeros shaped like the probabilities, ``values`` (one per row, or one
    for all) on the true-class entries."""
    grad = np.zeros_like(batch.probs)
    grad.reshape(-1, batch.class_count)[_true_class_entries(batch)] = np.ravel(values)
    return grad


def ce_loss(batch: ProbBatch) -> LossValue:
    """Mean cross-entropy, probabilities clamped at 1e-12 before the log.

    Gradient w.r.t. probabilities is -1/(m * p_true) on true-class entries
    (using the clamped value, so saturated rows stay finite) and 0 elsewhere.
    """
    m = batch.n
    p_true = np.maximum(_true_class(batch), PROB_CLAMP)
    value = -np.mean(np.log(p_true), axis=-1)
    grad = _at_true_class(batch, -1.0 / (m * p_true))
    return LossValue(total=value, ce_part=value, aux_part=0.0, grad_wrt_probs=grad)


def dca_loss(batch: ProbBatch) -> LossValue:
    """|mean correctness - mean true-class confidence| over the minibatch."""
    m = batch.n
    correct = (batch.predictions() == batch.labels).astype(np.float64)
    s = _true_class(batch)
    gap = correct.mean(axis=-1) - s.mean(axis=-1)
    value = np.abs(gap)
    # sign(0) = 0; correctness indicators are constants, only s carries gradient
    sign = np.sign(gap)
    grad = _at_true_class(batch, np.repeat(-sign / m, m))
    return LossValue(total=value, ce_part=0.0, aux_part=value, grad_wrt_probs=grad)


def mdca_loss(batch: ProbBatch) -> LossValue:
    """Class-wise confidence/accuracy gap, averaged over all classes."""
    m, num_classes = batch.probs.shape[-2:]
    if num_classes < 2:
        raise InvalidInputError("mdca requires at least 2 classes")
    onehot = _at_true_class(batch, 1.0)
    gaps = onehot.mean(axis=-2) - batch.probs.mean(axis=-2)  # per class j
    value = np.mean(np.abs(gaps), axis=-1)
    signs = np.sign(gaps)
    grad = (-signs / (num_classes * m))[..., None, :].repeat(m, axis=-2)
    return LossValue(total=value, ce_part=0.0, aux_part=value, grad_wrt_probs=grad)


def total_loss(batch: ProbBatch, spec: LossSpec) -> LossValue:
    """Cross-entropy plus the weighted auxiliary term from ``spec``."""
    ce = ce_loss(batch)
    if spec.aux_kind == "none":
        return ce
    aux = dca_loss(batch) if spec.aux_kind == "dca" else mdca_loss(batch)
    beta = spec.aux_weight
    return LossValue(
        total=ce.ce_part + beta * aux.aux_part,
        ce_part=ce.ce_part,
        aux_part=aux.aux_part,
        grad_wrt_probs=ce.grad_wrt_probs + beta * aux.grad_wrt_probs,
    )
