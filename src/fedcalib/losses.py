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
again: the rows of one batch, or of a stack of clients' batches back to
back with each client's row count in ``counts``. It keeps each client's
own batch means, taken with the shape of its batch alone, so a client's
slice of a stacked loss equals the loss of its batch alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import PROB_CLAMP
from .errors import ConfigError, InvalidInputError
from .numerics import row_runs

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
    grad_wrt_probs: np.ndarray  # shaped like the probabilities


def _flat(probs: np.ndarray, labels: np.ndarray, counts) -> tuple:
    """``(true-class probs, counts, row_runs)`` of the rows, whose clients
    hold ``counts`` rows each (by default one client)."""
    counts = np.asarray([len(labels)] if counts is None else counts)
    return probs[np.arange(len(labels)), labels], counts, row_runs(counts)


def _means(values: np.ndarray, runs: list) -> np.ndarray:
    """Each client's mean of its rows of ``values``, as its batch alone takes it."""
    parts = [values[rows].reshape(m, n, *values.shape[1:]).mean(axis=1) for _, rows, m, n in runs]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    true, sizes, runs = _flat(probs, labels, counts)
    p_true = np.maximum(true, PROB_CLAMP)
    value = _shaped(counts, -_means(np.log(p_true), runs))
    grad = _at_true_class(probs, labels, -1.0 / (np.repeat(sizes, sizes) * p_true))
    return LossValue(total=value, ce_part=value, aux_part=0.0, grad_wrt_probs=grad)


def dca_loss(probs: np.ndarray, labels: np.ndarray, counts=None) -> LossValue:
    """|mean correctness - mean true-class confidence| over the minibatch."""
    true, sizes, runs = _flat(probs, labels, counts)
    correct = (probs.argmax(axis=-1) == labels).astype(np.float64)
    gap = _means(correct, runs) - _means(true, runs)
    value = _shaped(counts, np.abs(gap))
    # sign(0) = 0; correctness indicators are constants, only s carries gradient
    sign = np.sign(gap)
    grad = _at_true_class(probs, labels, np.repeat(-sign / sizes, sizes))
    return LossValue(total=value, ce_part=0.0, aux_part=value, grad_wrt_probs=grad)


def mdca_loss(probs: np.ndarray, labels: np.ndarray, counts=None) -> LossValue:
    """Class-wise confidence/accuracy gap, averaged over all classes."""
    _, sizes, runs = _flat(probs, labels, counts)
    num_classes = probs.shape[-1]
    if num_classes < 2:
        raise InvalidInputError("mdca requires at least 2 classes")
    gaps = _means(_at_true_class(probs, labels, 1.0), runs) - _means(probs, runs)  # per client and class j
    value = _shaped(counts, np.mean(np.abs(gaps), axis=-1))
    signs = np.sign(gaps)
    grad = np.repeat(-signs / (num_classes * sizes[:, None]), sizes, axis=0)
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
