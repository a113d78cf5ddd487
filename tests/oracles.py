"""Independent brute-force oracles used to freeze expected test values.

Everything here is written as plain double loops over samples and bins,
deliberately sharing no code with the package implementation.
"""

import math

import numpy as np

from fedcalib.datagen import DOMAIN_ROTATION_ANGLE, DOMAIN_SHIFT_SCALE, TEXT_PERTURBATION_SCALE
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


def naive_train_logits(model, params, x, streams, counts=None):
    """Training-mode logits of a stack of K batches ``x`` (K x n x d) under the
    K x P ``params``, client by client and layer by layer; batch k's first
    ``counts[k]`` rows are real (all of them by default), the rest padding.

    Client k's arrays are cut from its own row at the documented offsets
    (``naive_unpack``). Every layer is recomputed from scratch as ``a @ W.T``,
    plus the bias where bitfit trains one (the frozen layers have none), and
    each adapted layer draws its dropout mask for the real rows in turn,
    image stack first, as ``streams[k].random(size) < keep``; padded rows
    get a zero mask.
    """
    keep = 1.0 - model.config.lora_dropout
    scale = model.config.lora_scale
    out = []
    for k, stream in enumerate(streams):
        parts = naive_unpack(model, params[k])
        text = model.prototypes + parts["prompt"].mean(axis=0) if "prompt" in parts else model.prototypes
        features = []
        for stack, a, real in (("img", x[k], x.shape[1] if counts is None else counts[k]), ("txt", text, len(text))):
            for i, weight in enumerate(model.weights):
                z = a @ weight.T
                if (stack, i, "bias") in parts:
                    z = z + parts[stack, i, "bias"]
                if (stack, i, "A") in parts:
                    kept = True
                    if keep < 1.0:
                        kept = np.zeros(a.shape, dtype=bool)
                        kept[:real] = stream.random(real * a.shape[1]).reshape(real, -1) < keep
                    a_drop = (a * kept) * (1.0 / keep)
                    z = z + (scale * (a_drop @ parts[stack, i, "B"].T)) @ parts[stack, i, "A"].T
                a = np.maximum(z, 0.0) if i < len(model.weights) - 1 else z
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


def naive_bernoulli_rows(streams, counts, p):
    """Row k is ``streams[k].random(counts[k]) < p``, drawn stream by stream,
    then False up to the longest count."""
    width = max(counts, default=0)
    return np.array([np.concatenate([s.random(n) < p, np.zeros(width - n, dtype=bool)])
                     for s, n in zip(streams, counts)]).reshape(len(streams), width)


def naive_normal(rng: RngStream, n: int, scale: float = 1.0):
    """``n`` Box-Muller normals: ``random_open(pairs)`` uniforms u1, then
    ``random(pairs)`` uniforms u2; pair k gives r cos(theta) at k and
    r sin(theta) at pairs + k, cut to ``n``."""
    if n == 0:
        return np.zeros(0)
    pairs = (n + 1) // 2
    u1 = rng.random_open(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return out * scale if scale != 1.0 else out


def naive_log_gamma(rng: RngStream, alpha: float, n: int):
    """log Gamma(alpha, 1) draws by Marsaglia-Tsang, one pass per round of
    rejections: the pending lanes draw ``normal`` then ``random_open``; for
    alpha < 1 the draws for alpha + 1, then ``random_open(n)`` for the boost
    ``U^(1/alpha)``."""
    a = alpha if alpha >= 1.0 else alpha + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        x = naive_normal(rng, pending.size)
        u = rng.random_open(pending.size)
        v = (1.0 + c * x) ** 3
        ok = v > 0
        logv = np.where(ok, np.log(np.where(ok, v, 1.0)), -np.inf)
        accept = ok & (np.log(u) < 0.5 * x**2 + d - d * v + d * logv)
        out[pending[accept]] = math.log(d) + logv[accept]
        pending = pending[~accept]
    if alpha < 1.0:
        out = out + np.log(rng.random_open(n)) / alpha
    return out


def naive_domain_rotation(dim: int, rng: RngStream):
    """The (i, j, angle) Givens planes of a domain: ``dim // 2`` angles, then
    per plane one draw for i and one for j, j skipping i."""
    planes = []
    angles = naive_normal(rng, dim // 2, scale=DOMAIN_ROTATION_ANGLE)
    for k in range(dim // 2):
        i = int(rng.u64(1)[0] % np.uint64(dim))
        j = int(rng.u64(1)[0] % np.uint64(dim - 1))
        if j >= i:
            j += 1
        planes.append((i, j, float(angles[k])))
    return planes


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
    dataset's rows are the stacked matrix, as one block. Its normals and
    rotation draws are its own (``naive_normal``, ``naive_domain_rotation``);
    it shares the row normalization and the stream derivation with the
    package, and pins the draws, the arithmetic of each row, out of place,
    and the assembly."""
    c, d = spec.class_count, spec.dim
    image_protos = l2_normalize_rows(naive_normal(rng.child("protos"), c * d).reshape(c, d))
    text_noise = naive_normal(rng.child("text-protos"), c * d).reshape(c, d)
    text_protos = l2_normalize_rows(image_protos + TEXT_PERTURBATION_SCALE * spec.noise_sigma * text_noise)
    blocks_x, blocks_y, blocks_dom, blocks_train = [], [], [], []
    n_train = int(round(spec.train_fraction * spec.samples_per_class))
    n_train = min(max(n_train, 1), spec.samples_per_class - 1) if spec.samples_per_class > 1 else 1
    for dom in range(spec.domain_count):
        dom_rng = rng.child("domain", dom)
        planes = naive_domain_rotation(d, dom_rng.child("rotation"))
        shift = naive_normal(dom_rng.child("shift"), d, scale=DOMAIN_SHIFT_SCALE * spec.noise_sigma)
        for cls in range(c):
            noise = naive_normal(rng.child("samples", dom, cls), spec.samples_per_class * d)
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
