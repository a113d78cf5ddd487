"""Evaluation-time calibration machinery.

Implements confidence binning, the bin-based calibration errors (ECE, MCE,
ACE), proper scoring rules (Brier, NLL), post-hoc temperature scaling, the
harmonic-mean summary used for base/new class reporting, and deterministic
reliability-diagram export (CSV rows + SVG).

A temperature is a plain float and logits a plain n x C array:
``apply_temperature(logits, tau)`` is the one place logits are divided by a
temperature, and both the runner's temperature sweep and
``fit_temperature`` go through it.

Probabilities are validated once, where they enter from outside the
program: ``calibration_report`` takes a ``ProbBatch``, and
``fit_temperature`` builds one from its arguments. Internal stages
(``segmented_reports``, the losses, the model's backward pass) pass the
plain ``probs`` and ``labels`` arrays of the program's own softmax.
Reliability bins have one form, the dict of ``ReportTable.pooled_bins``
that ``results.json`` stores and the CSV and SVG export read.

Conventions:

- all metrics are fractions in [0, 1] (or [0, 2] for Brier); multiply by 100
  for percent reporting
- equal-width bin ``g`` (1-indexed) covers the half-open interval
  ``((g-1)/G, g/G]``; a confidence of exactly 0 goes to bin 1
- MCE and ACE are taken over non-empty bins only (the gap of an empty bin
  is undefined)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .numerics import softmax_rows

PROB_CLAMP = 1e-12

TEMP_LOWER = 0.05
TEMP_UPPER = 10.0
TEMP_GRID_POINTS = 50
TEMP_REFINE_TOL = 1e-4


@dataclass(frozen=True)
class ProbBatch:
    """Per-sample predicted probability vectors plus true labels, validated.

    The public entry for probabilities from outside the program:
    ``calibration_report`` takes one, and ``fit_temperature`` builds one
    from its arguments. Internal stages pass the plain ``probs`` and
    ``labels`` arrays of the program's own softmax.
    """

    probs: np.ndarray  # n x C, rows on the simplex
    labels: np.ndarray  # n class indices

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if probs.ndim != 2 or 0 in probs.shape:
            raise InvalidInputError("probs must be a non-empty n x C matrix")
        if labels.shape != probs.shape[:1]:
            raise InvalidInputError("labels must have one entry per row of probs")
        if not np.all(np.isfinite(probs)):
            raise InvalidInputError("probs contains non-finite entries")
        row_sums = probs.sum(axis=-1)
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise InvalidInputError("probability rows must sum to 1 within 1e-9")
        if np.any(probs < 0):
            raise InvalidInputError("probs contains negative entries")
        if labels.min() < 0 or labels.max() >= probs.shape[-1]:
            raise InvalidInputError("label out of range for class count")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class CalibrationReport:
    """Accuracy plus the five calibration metrics, all as fractions."""

    accuracy: float
    ece: float
    mce: float
    ace: float
    brier: float
    nll: float
    bins: dict = field(repr=False)  # the ``ReportTable.pooled_bins`` form


@dataclass(frozen=True)
class ReportTable:
    """One ``CalibrationReport`` per segment of a batch, stored by column.

    ``columns`` maps each scalar field of ``CalibrationReport`` to an
    array with one entry per segment. ``counts``, ``bin_accuracy`` and
    ``bin_confidence`` are the segments x bins reliability statistics
    (0.0 in empty bins).
    """

    columns: dict
    scheme: str
    counts: np.ndarray
    bin_accuracy: np.ndarray
    bin_confidence: np.ndarray

    def report(self, i: int) -> CalibrationReport:
        bins = _bins(self.scheme, self.counts[i], self.bin_accuracy[i], self.bin_confidence[i])
        return CalibrationReport(**{key: float(column[i]) for key, column in self.columns.items()}, bins=bins)

    def rows(self) -> list:
        """Each segment's scalars as a dict of floats."""
        return [dict(zip(self.columns, values)) for values in zip(*(c.tolist() for c in self.columns.values()))]

    def mean(self) -> dict:
        """Unweighted mean over the segments of each scalar."""
        return {key: float(np.mean(column)) for key, column in self.columns.items()}

    def pooled_bins(self) -> dict:
        """The bins of all segments' rows together, as ``results.json`` holds
        them: ``scheme`` and per-bin lists of ``counts``, mean ``accuracy``
        and mean ``confidence`` (0.0 in empty bins).

        Counts and count-weighted sums are added in segment order, which
        reproduces the bins of the whole batch exactly.
        """
        counts = self.counts.sum(axis=0)
        acc_sum = (self.counts * self.bin_accuracy).sum(axis=0)
        conf_sum = (self.counts * self.bin_confidence).sum(axis=0)
        nonempty = counts > 0
        acc = np.zeros(counts.size)
        conf = np.zeros(counts.size)
        acc[nonempty] = acc_sum[nonempty] / counts[nonempty]
        conf[nonempty] = conf_sum[nonempty] / counts[nonempty]
        return _bins(self.scheme, counts, acc, conf)


def _bins(scheme: str, counts: np.ndarray, accuracy: np.ndarray, confidence: np.ndarray) -> dict:
    return {"scheme": scheme, "counts": counts.tolist(), "accuracy": accuracy.tolist(),
            "confidence": confidence.tolist()}


def _check_binning(bins: int, scheme: str) -> None:
    if bins < 1:
        raise InvalidInputError(f"bin count must be at least 1, got {bins}")
    if scheme not in ("equal_width", "equal_mass"):
        raise InvalidInputError(f"unknown binning scheme {scheme!r}")


def _segment_bins(probs: np.ndarray, labels: np.ndarray, sizes, bins: int, scheme: str):
    """Bin statistics of each consecutive row segment of ``(probs, labels)``.

    Returns the per-row segment index, the per-row hit vector (1.0 where
    the argmax is the label) and ``segments x bins`` arrays of counts, mean
    accuracy and mean confidence (0.0 in empty bins). Each array is one
    ``np.bincount`` over the key ``segment * bins + bin``.

    Equal-width bin ``g`` covers ((g-1)/G, g/G]. Equal-mass bins rank the
    rows of a segment by confidence, ties in row order, and cut the ranks
    into G near-equal groups; the first ``size mod G`` groups take one
    extra row.
    """
    _check_binning(bins, scheme)
    sizes = np.asarray(sizes, dtype=np.int64)
    n = len(labels)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.sum() != n:
        raise InvalidInputError("segment sizes must be positive and sum to the batch size")
    g = sizes.size
    seg = np.repeat(np.arange(g), sizes)
    conf = probs.max(axis=1)
    # argmax breaks ties toward the lowest index, the package's tie rule
    hits = (probs.argmax(axis=1) == labels).astype(np.float64)
    if scheme == "equal_width":
        idx = np.clip(np.ceil(conf * bins).astype(np.int64) - 1, 0, bins - 1)
    else:
        # lexsort is stable and the segments are consecutive, so position in
        # sorted order minus the segment start is the rank within the segment
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((conf, seg))] = np.arange(n) - (np.cumsum(sizes) - sizes)[seg]
        base, extra = sizes[seg] // bins, sizes[seg] % bins
        cut = extra * (base + 1)
        idx = np.where(rank < cut, rank // (base + 1), extra + (rank - cut) // np.maximum(base, 1))
    key = seg * bins + idx
    counts = np.bincount(key, minlength=g * bins).reshape(g, bins)
    acc_sum = np.bincount(key, weights=hits, minlength=g * bins).reshape(g, bins)
    conf_sum = np.bincount(key, weights=conf, minlength=g * bins).reshape(g, bins)
    nonempty = counts > 0
    acc = np.zeros((g, bins))
    confm = np.zeros((g, bins))
    acc[nonempty] = acc_sum[nonempty] / counts[nonempty]
    confm[nonempty] = conf_sum[nonempty] / counts[nonempty]
    return seg, hits, counts, acc, confm


def _gap_metrics(counts: np.ndarray, accuracy: np.ndarray, confidence: np.ndarray):
    """ECE, MCE and ACE along the last (bin) axis.

    ECE is the count-weighted mean |accuracy - confidence|; MCE and ACE are
    the largest and the unweighted mean gap over non-empty bins. Empty bins
    hold accuracy = confidence = 0, so their gap is 0.
    """
    gaps = np.abs(accuracy - confidence)
    ece = np.sum(counts / counts.sum(axis=-1, keepdims=True) * gaps, axis=-1)
    mce = gaps.max(axis=-1)
    ace = gaps.sum(axis=-1) / (counts > 0).sum(axis=-1)
    return ece, mce, ace


def _squared_errors(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row squared distance between the probability row and the one-hot label."""
    err = probs.copy()
    err[np.arange(len(labels)), labels] -= 1.0
    return np.sum(np.square(err, out=err), axis=1)


def _true_log_probs(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row log of the (clamped) probability of the true class."""
    return np.log(np.maximum(probs[np.arange(len(labels)), labels], PROB_CLAMP))


def segmented_reports(probs: np.ndarray, labels: np.ndarray, sizes, bins: int = 15,
                      scheme: str = "equal_width") -> ReportTable:
    """The ``ReportTable`` of the consecutive row segments of the program's own
    ``probs`` (n x C softmax rows) and ``labels`` (n class indices).

    ``sizes`` lists the row count of each segment in order; segments are
    non-empty and together cover the rows. Every per-segment statistic is
    one ``np.bincount`` over a segment key, so the cost is that of one
    report on all the rows.
    """
    seg, hits, counts, acc, confm = _segment_bins(probs, labels, sizes, bins, scheme)
    sizes = counts.sum(axis=1)
    g = sizes.size
    ece, mce, ace = _gap_metrics(counts, acc, confm)
    columns = {
        "accuracy": np.bincount(seg, weights=hits, minlength=g) / sizes,
        "ece": ece,
        "mce": mce,
        "ace": ace,
        "brier": np.bincount(seg, weights=_squared_errors(probs, labels), minlength=g) / sizes,
        "nll": -np.bincount(seg, weights=_true_log_probs(probs, labels), minlength=g) / sizes,
    }
    return ReportTable(columns, scheme, counts, acc, confm)


def calibration_report(batch: ProbBatch, bins: int = 15, scheme: str = "equal_width") -> CalibrationReport:
    """Compute the full metric suite on one validated probability batch."""
    return segmented_reports(batch.probs, batch.labels, [len(batch.labels)], bins, scheme).report(0)


def apply_temperature(logits, tau: float) -> np.ndarray:
    """Softmax rows of ``logits / tau``; preserves each row's argmax exactly.

    ``tau`` must be positive and finite; NaN is rejected too.
    """
    tau = float(tau)
    if not 0.0 < tau < np.inf:
        raise InvalidInputError(f"temperature must be positive and finite, got {tau}")
    return softmax_rows(np.asarray(logits, dtype=np.float64) / tau)


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def fit_temperature(logits, labels) -> float:
    """Fit the NLL-minimizing temperature on validation logits and labels.

    Coarse 50-point log grid over [0.05, 10], then golden-section
    refinement between the grid neighbours of the best point down to a
    bracket width of 1e-4. The unit temperature is kept as an explicit
    candidate so the fitted temperature never has a worse fitting-set NLL
    than no scaling at all.
    """
    grid = np.exp(np.linspace(np.log(TEMP_LOWER), np.log(TEMP_UPPER), TEMP_GRID_POINTS))
    # validated once: every temperature tried is at least the grid's first,
    # so every scaled logit is at most as large as the ones checked here
    labels = ProbBatch(apply_temperature(logits, float(grid[0])), labels).labels

    def nll(tau: float) -> float:
        return float(-np.mean(_true_log_probs(apply_temperature(logits, tau), labels)))

    nlls = [nll(float(t)) for t in grid]
    best = int(np.argmin(nlls))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, TEMP_GRID_POINTS - 1)]

    # golden-section search on the bracket
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = nll(c)
    fd = nll(d)
    while (b - a) > TEMP_REFINE_TOL:
        # ties keep the left bracket so plateaus (saturated probabilities)
        # resolve toward the smaller temperature
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = nll(d)
    fitted = 0.5 * (a + b)

    candidates = [(nll(t), float(t)) for t in (fitted, 1.0)]
    candidates.sort()
    return candidates[0][1]


def harmonic_mean(base: float, new: float) -> float:
    """Harmonic mean of base-class and new-class scores; 0 when both are 0."""
    if base < 0 or new < 0:
        raise InvalidInputError("harmonic mean requires non-negative inputs")
    if base == 0.0 and new == 0.0:
        return 0.0
    return 2.0 * base * new / (base + new)


# ---------------------------------------------------------------------------
# reliability-diagram export
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 460, 360
_PLOT = (60, 20, 420, 320)  # left, top, right, bottom in SVG user units


def reliability_rows(bins: dict) -> list:
    """Per-bin (midpoint, accuracy, confidence, count) rows of ``bins`` in the
    ``ReportTable.pooled_bins`` form, which needs at least one bin and as many
    accuracies and confidences as counts."""
    counts, accuracy, confidence = bins["counts"], bins["accuracy"], bins["confidence"]
    g = len(counts)
    if g == 0 or len(accuracy) != g or len(confidence) != g:
        raise InvalidInputError(f"reliability bins need at least one bin and equally many counts, accuracies "
                                f"and confidences, got {g}, {len(accuracy)} and {len(confidence)}")
    return [((i + 0.5) / g, float(acc), float(conf), int(count))
            for i, (count, acc, conf) in enumerate(zip(counts, accuracy, confidence))]


def reliability_csv(bins: dict) -> str:
    lines = ["bin_midpoint,accuracy,confidence,count"]
    for mid, acc, conf, count in reliability_rows(bins):
        lines.append(f"{mid:.6f},{acc:.6f},{conf:.6f},{count}")
    return "\n".join(lines) + "\n"


def _x(frac: float) -> float:
    l, _, r, _ = _PLOT
    return l + frac * (r - l)


def _y(frac: float) -> float:
    _, t, _, b = _PLOT
    return b - frac * (b - t)


def _escape_text(text: str) -> str:
    """``text`` as XML character data: what ``xml.sax.saxutils.escape`` gives,
    without importing that module, which pulls in ``urllib.request`` and
    adds about 3 MB to a run's peak RSS."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def reliability_svg(bins: dict, title: str = "reliability") -> str:
    """Deterministic SVG reliability diagram.

    Accuracy bars in blue, the accuracy-to-confidence gap overlaid in
    translucent red, and the identity diagonal as reference. Empty bins
    render as zero-height bars so the axis is always complete.
    """
    rows = reliability_rows(bins)
    width = (_PLOT[2] - _PLOT[0]) / len(rows)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_x(0.5):.2f}" y="14" text-anchor="middle" font-size="12" font-family="sans-serif">'
        f'{_escape_text(title)}</text>',
    ]
    for i, (_, acc, conf, _) in enumerate(rows):
        x0 = _PLOT[0] + i * width
        parts.append(
            f'<rect x="{x0 + 1:.2f}" y="{_y(acc):.2f}" width="{width - 2:.2f}" '
            f'height="{_y(0.0) - _y(acc):.2f}" fill="#4878cf" stroke="#2a4d8f" stroke-width="0.5"/>'
        )
        lo, hi = sorted((acc, conf))
        parts.append(
            f'<rect x="{x0 + 1:.2f}" y="{_y(hi):.2f}" width="{width - 2:.2f}" '
            f'height="{_y(lo) - _y(hi):.2f}" fill="#d65f5f" fill-opacity="0.45"/>'
        )
    parts.append(
        f'<line x1="{_x(0.0):.2f}" y1="{_y(0.0):.2f}" x2="{_x(1.0):.2f}" y2="{_y(1.0):.2f}" '
        f'stroke="#444444" stroke-width="1" stroke-dasharray="4,3"/>'
    )
    # axes
    parts.append(
        f'<line x1="{_PLOT[0]}" y1="{_PLOT[3]}" x2="{_PLOT[2]}" y2="{_PLOT[3]}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_PLOT[0]}" y1="{_PLOT[1]}" x2="{_PLOT[0]}" y2="{_PLOT[3]}" stroke="black" stroke-width="1"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{_x(tick):.2f}" y="{_PLOT[3] + 14}" text-anchor="middle" font-size="10" '
            f'font-family="sans-serif">{tick:.2f}</text>'
        )
        parts.append(
            f'<text x="{_PLOT[0] - 6}" y="{_y(tick) + 3:.2f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{tick:.2f}</text>'
        )
    parts.append(
        f'<text x="{_x(0.5):.2f}" y="{_SVG_H - 6}" text-anchor="middle" font-size="11" '
        f'font-family="sans-serif">confidence</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
