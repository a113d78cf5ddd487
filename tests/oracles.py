"""Independent brute-force oracles used to freeze expected test values.

Everything here is written as plain double loops over samples and bins,
deliberately sharing no code with the package implementation.
"""

import math

import numpy as np

from fedcalib.numerics import RngStream


def random_prob_batch(rng: RngStream, max_n: int = 200, max_c: int = 10):
    """A random (probs, labels) pair with rows on the simplex."""
    n = 1 + int(rng.u64(1)[0] % max_n)
    c = 2 + int(rng.u64(1)[0] % (max_c - 1))
    raw = rng.normal(n * c).reshape(n, c) * 2.0
    probs = np.exp(raw - raw.max(axis=1, keepdims=True))
    probs = probs / probs.sum(axis=1, keepdims=True)
    labels = (rng.u64(n) % np.uint64(c)).astype(np.int64)
    return probs, labels


def naive_bins(probs, labels, num_bins, scheme="equal_width"):
    """Binning by max probability: equal-width, interval ((g-1)/G, g/G], or
    equal-mass, G rank groups of near-equal size with the n mod G extra
    samples in the lowest groups and ties kept in sample order."""
    n, _ = probs.shape
    samples = []
    for i in range(n):
        conf = max(probs[i])
        best = 0
        for c in range(len(probs[i])):
            if probs[i][c] > probs[i][best]:
                best = c
        samples.append((conf, 1.0 if best == labels[i] else 0.0))
    members = [[] for _ in range(num_bins)]
    if scheme == "equal_width":
        for conf, hit in samples:
            g = math.ceil(conf * num_bins) - 1
            g = min(max(g, 0), num_bins - 1)
            members[g].append((conf, hit))
    else:
        ranked = sorted(range(n), key=lambda i: (samples[i][0], i))
        start = 0
        for g in range(num_bins):
            size = n // num_bins + (1 if g < n % num_bins else 0)
            members[g] = [samples[i] for i in ranked[start : start + size]]
            start += size
    stats = []
    for g in range(num_bins):
        if members[g]:
            accs = [m[1] for m in members[g]]
            confs = [m[0] for m in members[g]]
            stats.append((len(members[g]), sum(accs) / len(accs), sum(confs) / len(confs)))
        else:
            stats.append((0, 0.0, 0.0))
    return stats


def naive_ece_of_bins(counts, accuracy, confidence):
    """Count-weighted mean |accuracy - confidence| over (count, acc, conf) bins."""
    n = sum(int(count) for count in counts)
    total = 0.0
    for count, acc, conf in zip(counts, accuracy, confidence):
        if count:
            total += (count / n) * abs(acc - conf)
    return total


def naive_ece(probs, labels, num_bins, scheme="equal_width"):
    return naive_ece_of_bins(*zip(*naive_bins(probs, labels, num_bins, scheme)))


def naive_mce(probs, labels, num_bins, scheme="equal_width"):
    worst = 0.0
    for count, acc, conf in naive_bins(probs, labels, num_bins, scheme):
        if count:
            worst = max(worst, abs(acc - conf))
    return worst


def naive_ace(probs, labels, num_bins, scheme="equal_width"):
    gaps = []
    for count, acc, conf in naive_bins(probs, labels, num_bins, scheme):
        if count:
            gaps.append(abs(acc - conf))
    return sum(gaps) / len(gaps)


def naive_brier(probs, labels):
    n, c = probs.shape
    total = 0.0
    for i in range(n):
        for j in range(c):
            y = 1.0 if j == labels[i] else 0.0
            total += (probs[i][j] - y) ** 2
    return total / n


def naive_nll(probs, labels):
    n = len(labels)
    total = 0.0
    for i in range(n):
        total -= math.log(max(probs[i][labels[i]], 1e-12))
    return total / n


def naive_accuracy(probs, labels):
    n = len(labels)
    hits = 0
    for i in range(n):
        best = 0
        for c in range(len(probs[i])):
            if probs[i][c] > probs[i][best]:
                best = c
        if best == labels[i]:
            hits += 1
    return hits / n


def _argmax(row):
    best = 0
    for c in range(len(row)):
        if row[c] > row[best]:
            best = c
    return best


def naive_ce_loss(probs, labels):
    """(value, gradient w.r.t. probs) of the mean clamped cross-entropy."""
    n, c = probs.shape
    value = 0.0
    grad = [[0.0] * c for _ in range(n)]
    for i in range(n):
        p = max(probs[i][labels[i]], 1e-12)
        value -= math.log(p) / n
        grad[i][labels[i]] = -1.0 / (n * p)
    return value, np.array(grad)


def naive_dca_loss(probs, labels):
    """(value, gradient) of |mean correctness - mean true-class probability|,
    the sign of the gap held fixed (sign(0) = 0)."""
    n, c = probs.shape
    correct = sum(1.0 for i in range(n) if _argmax(probs[i]) == labels[i]) / n
    confidence = sum(probs[i][labels[i]] for i in range(n)) / n
    gap = correct - confidence
    sign = 1.0 if gap > 0 else (-1.0 if gap < 0 else 0.0)
    grad = [[0.0] * c for _ in range(n)]
    for i in range(n):
        grad[i][labels[i]] = -sign / n
    return abs(gap), np.array(grad)


def naive_mdca_loss(probs, labels):
    """(value, gradient) of the class-wise gap |mean 1[y = j] - mean p_j|
    averaged over the classes j, each sign held fixed."""
    n, c = probs.shape
    value = 0.0
    grad = [[0.0] * c for _ in range(n)]
    for j in range(c):
        gap = sum(1.0 for i in range(n) if labels[i] == j) / n - sum(probs[i][j] for i in range(n)) / n
        value += abs(gap) / c
        sign = 1.0 if gap > 0 else (-1.0 if gap < 0 else 0.0)
        for i in range(n):
            grad[i][j] = -sign / (c * n)
    return value, np.array(grad)


def naive_train_logits(model, x, streams):
    """Training-mode logits of a stack of K batches ``x`` (K x n x d), client by
    client and layer by layer.

    Every layer is recomputed from scratch as ``a @ W.T`` on client k's own
    parameter row, and each adapted layer draws its dropout mask in turn,
    image stack first, as ``streams[k].random(size) < keep``.
    """
    keep = 1.0 - model.config.lora_dropout
    out = []
    for k, stream in enumerate(streams):
        features = []
        for stack, a in ((model.image_stack, x[k]), (model.text_stack, model.prototypes)):
            for layer in stack:
                bias = layer.bias[k] if layer.bias.ndim == 3 else layer.bias
                z = a @ layer.weight.T + bias
                ad = layer.adapter
                if ad is not None:
                    kept = stream.random(a.size).reshape(a.shape) < keep if keep < 1.0 else True
                    a_drop = (a * kept) * (1.0 / keep)
                    z = z + (ad.scale * (a_drop @ ad.up[k].T)) @ ad.down[k].T
                a = np.maximum(z, 0.0) if layer.activation == "relu" else z
            features.append(a / np.linalg.norm(a, axis=-1, keepdims=True))
        out.append(model.config.logit_scale * (features[0] @ features[1].T))
    return np.array(out)


def naive_group_by_client(pieces, counts, num_clients):
    """Each client's concatenation of its chunks, pieces in order: piece
    ``p`` is cut with ``np.split`` into consecutive chunks of ``counts[p][k]``
    entries, one per client ``k`` in id order."""
    per_client = [[] for _ in range(num_clients)]
    for piece, piece_counts in zip(pieces, counts):
        for client, part in enumerate(np.split(piece, np.cumsum(piece_counts)[:-1])):
            if len(part):
                per_client[client].append(part)
    return [np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64) for parts in per_client]
