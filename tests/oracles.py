"""Independent brute-force oracles used to freeze expected test values.

Everything here is written as plain double loops over samples and bins,
deliberately sharing no code with the package implementation.
"""

import math

import numpy as np

from fedcalib.datagen import DOMAIN_SHIFT_SCALE, TEXT_PERTURBATION_SCALE, _domain_rotation
from fedcalib.numerics import RngStream, l2_normalize_rows
from fedcalib.partition import LabeledDataset


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


def naive_layout(model):
    """(key, shape) of each trainable array of one parameter row, in the
    documented order: the prompt (M x d); else ``A`` (out x rank) then ``B``
    (rank x in) of each adapted layer, image stack first; else each layer's
    bias (out,), image stack first. Worked out from the config alone."""
    cfg = model.config
    if cfg.head_kind == "prompt":
        return [("prompt", (cfg.prompt_length, cfg.embed_dim))]
    dims = [cfg.embed_dim, *cfg.hidden_widths(), cfg.embed_dim]
    adapted = {"lora_vision": ["img"], "lora_text": ["txt"], "lora_both": ["img", "txt"]}.get(cfg.head_kind, [])
    layout = []
    for stack in ("img", "txt"):
        for i in range(len(dims) - 1):
            fan_out, fan_in = dims[i + 1], dims[i]
            if cfg.head_kind == "bitfit":
                layout.append(((stack, i, "bias"), (fan_out,)))
            elif stack in adapted:
                layout.append(((stack, i, "A"), (fan_out, cfg.lora_rank)))
                layout.append(((stack, i, "B"), (cfg.lora_rank, fan_in)))
    return layout


def naive_unpack(model, row):
    """Each trainable array of one parameter row, as a view cut at the
    offsets that ``naive_layout`` sums up; writing a view writes the row."""
    parts, offset = {}, 0
    for key, shape in naive_layout(model):
        size = math.prod(shape)
        parts[key] = row[offset : offset + size].reshape(shape)
        offset += size
    assert offset == len(row), "the row is longer than the documented layout"
    return parts


def naive_train_logits(model, params, x, streams):
    """Training-mode logits of a stack of K batches ``x`` (K x n x d) under the
    K x P ``params``, client by client and layer by layer.

    Client k's arrays are cut from its own row at the documented offsets
    (``naive_unpack``). Every layer is recomputed from scratch as ``a @ W.T``,
    and each adapted layer draws its dropout mask in turn, image stack first,
    as ``streams[k].random(size) < keep``.
    """
    keep = 1.0 - model.config.lora_dropout
    scale = model.config.lora_scale
    out = []
    for k, stream in enumerate(streams):
        parts = naive_unpack(model, params[k])
        text = model.prototypes + parts["prompt"].mean(axis=0) if "prompt" in parts else model.prototypes
        features = []
        for stack, a in (("img", x[k]), ("txt", text)):
            for i, layer in enumerate(model.layers):
                z = a @ layer.weight.T + parts.get((stack, i, "bias"), layer.bias)
                if (stack, i, "A") in parts:
                    kept = stream.random(a.size).reshape(a.shape) < keep if keep < 1.0 else True
                    a_drop = (a * kept) * (1.0 / keep)
                    z = z + (scale * (a_drop @ parts[stack, i, "B"].T)) @ parts[stack, i, "A"].T
                a = np.maximum(z, 0.0) if i < len(model.layers) - 1 else z
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


def naive_apply_rotation(x, planes):
    """A rotated copy of ``x``: each (i, j, angle) Givens plane in turn."""
    out = x.copy()
    for i, j, angle in planes:
        c, s = np.cos(angle), np.sin(angle)
        xi = out[:, i].copy()
        xj = out[:, j].copy()
        out[:, i] = c * xi - s * xj
        out[:, j] = s * xi + c * xj
    return out


def naive_generate_synthetic(spec, rng: RngStream):
    """``datagen.generate_synthetic`` as a dataset-order generator that makes
    every row up front: each (domain, class) block's rows, labels, domains
    and split tags go into lists that are stacked at the end, and the
    dataset's rows are the stacked matrix, as one block. It shares the
    rotation draw and the row normalization with the package; the
    arithmetic of each row, out of place, and the assembly are what it pins."""
    c, d = spec.class_count, spec.dim
    image_protos = l2_normalize_rows(rng.child("protos").normal(c * d).reshape(c, d))
    text_noise = rng.child("text-protos").normal(c * d).reshape(c, d)
    text_protos = l2_normalize_rows(image_protos + TEXT_PERTURBATION_SCALE * spec.noise_sigma * text_noise)
    blocks_x, blocks_y, blocks_dom, blocks_train = [], [], [], []
    n_train = int(round(spec.train_fraction * spec.samples_per_class))
    n_train = min(max(n_train, 1), spec.samples_per_class - 1) if spec.samples_per_class > 1 else 1
    for dom in range(spec.domain_count):
        dom_rng = rng.child("domain", dom)
        planes = _domain_rotation(d, dom_rng.child("rotation"))
        shift = dom_rng.child("shift").normal(d, scale=DOMAIN_SHIFT_SCALE * spec.noise_sigma)
        for cls in range(c):
            noise = rng.child("samples", dom, cls).normal(spec.samples_per_class * d)
            raw = image_protos[cls] + spec.noise_sigma * noise.reshape(spec.samples_per_class, d)
            raw = naive_apply_rotation(raw, planes) + shift
            blocks_x.append(l2_normalize_rows(raw))
            blocks_y.append(np.full(spec.samples_per_class, cls, dtype=np.int64))
            blocks_dom.append(np.full(spec.samples_per_class, dom, dtype=np.int64))
            tags = np.zeros(spec.samples_per_class, dtype=bool)
            tags[:n_train] = True
            blocks_train.append(tags)
    x = np.vstack(blocks_x)
    data = LabeledDataset(
        labels=np.concatenate(blocks_y),
        domains=np.concatenate(blocks_dom),
        class_count=c,
        is_train=np.concatenate(blocks_train),
        dim=d,
        rows=lambda: iter([(0, x)]),
    )
    return data, text_protos
