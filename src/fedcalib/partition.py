"""Client dataset construction for the three experimental settings.

Partitioners assign every training sample to exactly one client and attach
a per-client test view, the client's own test rows followed by the plan's
shared test rows (empty except in base-to-new):

- ``dirichlet_partition``   overlapping non-IID label skew: for each class,
  client shares are drawn from a symmetric Dirichlet and the class's
  samples are split by a multinomial draw
- ``sort_and_partition``    label-sorted shards dealt so each client holds
  a fixed number of classes
- ``base_to_new_split``     half the classes (after a seeded shuffle) are
  dealt disjointly to clients for training; the other half form the shared
  "new" test rows, held once, that every client is tested on
- ``domain_partition``      each domain's data is Dirichlet-split among
  that domain's clients; ``dirichlet_partition`` is the one-domain case:
  both run ``_dirichlet_clients``, once over all rows or once per domain

The Dirichlet scheme allocates shares per CLASS across clients (the
field-standard construction): it conserves samples exactly and never
assigns a sample twice. Test views mirror the realized train histogram of
each client (largest-remainder apportionment per class), so personalized
evaluation sees the same label mix a client was trained on.

Dealing costs O(classes) passes, not classes x clients: one stable sort
groups the indices by class, and once every class's per-client counts are
drawn, one stable sort by owner client and one split deal all of them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, InvalidInputError
from .numerics import RngStream, dirichlet_sample, multinomial_split


@dataclass
class LabeledDataset:
    """Labels, domain tags and a train/test split of ``dim``-wide embedding rows.

    The rows are made on demand, and no partitioner reads them: ``rows()``
    yields ``(start, block)`` pairs, each block the unit rows of the dataset
    indices from ``start`` on, in index order and each index once.
    """

    labels: np.ndarray  # (n,)
    domains: np.ndarray  # (n,)
    class_count: int
    is_train: np.ndarray  # (n,) bool
    dim: int
    rows: Callable[[], Iterator[tuple]]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)
        self.is_train = np.asarray(self.is_train, dtype=bool)
        n = len(self.labels)
        if self.labels.shape != (n,) or self.domains.shape != (n,) or self.is_train.shape != (n,):
            raise InvalidInputError("labels/domains/is_train must be aligned 1-D arrays")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise InvalidInputError("label out of range for class_count")

    @property
    def sample_count(self) -> int:
        return len(self.labels)

    def train_indices(self) -> np.ndarray:
        return np.flatnonzero(self.is_train)

    def test_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.is_train)

    def domain_count(self) -> int:
        return int(self.domains.max()) + 1 if self.sample_count else 0


@dataclass
class PartitionPlan:
    """Per-client train assignment plus test views and audit metadata.

    Client k's test view is ``test_indices[k]``, its own rows, followed by
    ``shared_test``, the rows that end every client's view.
    """

    train_indices: list  # per client: np.ndarray of dataset indices
    test_indices: list  # per client: np.ndarray of its own test rows (disjoint across clients)
    histograms: np.ndarray  # (N x C) train class counts
    metadata: dict
    shared_test: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def num_clients(self) -> int:
        return len(self.train_indices)

    @property
    def class_count(self) -> int:
        return self.histograms.shape[1]

    def total_assigned(self) -> int:
        return int(sum(len(ix) for ix in self.train_indices))

    def to_json(self) -> str:
        payload = {
            "num_clients": self.num_clients,
            "class_count": self.class_count,
            "train_indices": [ix.tolist() for ix in self.train_indices],
            "test_indices": [ix.tolist() for ix in self.test_indices],
            "shared_test_indices": self.shared_test.tolist(),
            "histograms": self.histograms.tolist(),
            "metadata": self.metadata,
        }
        return canonical_json(payload)


def canonical_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, built from
    chunks joined 4,096 at a time instead of one list of every chunk.

    It raises what ``json.dumps`` raises: ``TypeError`` for an object JSON
    cannot hold or for keys that do not sort, ``ValueError`` for a circular
    reference.
    """
    chunks = _chunks(payload, 0, set())
    parts = []
    while batch := list(islice(chunks, 4096)):
        parts.append("".join(batch))
    parts.append("\n")
    return "".join(parts)


_INDENT = "  "
_INF = float("inf")


def _scalar_text(value):
    """The JSON text of a str, None, bool, int or float, as ``json.dumps``
    writes it (NaN and the infinities by name); ``None`` for anything else."""
    if type(value) is float and value - value == 0.0:  # finite: the common case first
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    return None


def _chunks(value, level: int, markers: set):
    """The encoder chunks of ``value`` nested ``level`` deep; ``markers``
    holds the ids of the containers being written, to catch cycles."""
    text = _scalar_text(value)
    if text is not None:
        yield text
        return
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    if not value:
        yield "{}" if is_dict else "[]"
        return
    inner = "\n" + _INDENT * (level + 1)
    closing = "\n" + _INDENT * level + ("}" if is_dict else "]")
    flat = None if is_dict else _flat_items(value, level + 1)
    if flat is not None:
        yield "[" + inner + ("," + inner).join(flat) + closing
        return
    if id(value) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(value))
    head = ("{" if is_dict else "[") + inner
    # keys are sorted before any is converted, so mixed key types raise as in json
    for item in sorted(value.items()) if is_dict else value:
        if is_dict:
            key, item = item
            key_text = key if isinstance(key, str) else _scalar_text(key)
            if key_text is None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
            head += encode_basestring_ascii(key_text) + ": "
        text = _scalar_text(item)
        if text is not None:
            yield head + text
        else:
            yield head
            yield from _chunks(item, level + 1, markers)
        head = "," + inner
    yield closing
    markers.discard(id(value))


def _flat_items(items, level: int):
    """The texts of the items of a list nested ``level`` deep, if they are
    all scalars or all flat dicts (or ``None``) with the same str keys and
    scalar values, else ``None``. Each flat dict is one ``%`` template."""
    texts = list(map(_scalar_text, items))
    if None not in texts:
        return texts
    rows = [item for item in items if item is not None]
    keys = rows[0].keys() if type(rows[0]) is dict else None
    if not keys or any(type(key) is not str for key in keys):
        return None
    if any(type(row) is not dict or row.keys() != keys for row in rows):
        return None
    order = sorted(keys)
    values = list(map(_scalar_text, [row[key] for row in rows for key in order]))
    if None in values:
        return None
    inner = "\n" + _INDENT * (level + 1)
    template = "{" + inner + ("," + inner).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in order
    ) + "\n" + _INDENT * level + "}"
    width = len(order)
    rendered = (template % tuple(values[i : i + width]) for i in range(0, len(values), width))
    return ["null" if item is None else next(rendered) for item in items]


def _histograms(plan_train, labels, class_count) -> np.ndarray:
    num_clients = len(plan_train)
    owner = np.repeat(np.arange(num_clients), [len(ix) for ix in plan_train])
    keys = owner * class_count + labels[np.concatenate(plan_train)]
    return np.bincount(keys, minlength=num_clients * class_count).reshape(num_clients, class_count)


def _enforce_min_one(per_client: list, labels: np.ndarray) -> None:
    """Move samples from the largest client until no client is empty.

    Donor choice (largest count, lowest id on ties) and donated class
    (donor's most populous, lowest id on ties) depend only on histograms,
    so permuting sample order leaves the per-client class histograms
    unchanged.
    """
    while True:
        sizes = np.array([len(ix) for ix in per_client])
        empty = np.flatnonzero(sizes == 0)
        if empty.size == 0:
            return
        donor = int(np.argmax(sizes))
        if sizes[donor] <= 1:
            raise ConfigError("not enough training samples to give every client one")
        target = int(empty[0])
        donor_labels = labels[per_client[donor]]
        counts = np.bincount(donor_labels)
        moved_class = int(np.argmax(counts))
        pos = np.flatnonzero(donor_labels == moved_class)[-1]
        moved = per_client[donor][pos]
        per_client[donor] = np.delete(per_client[donor], pos)
        per_client[target] = np.array([moved], dtype=np.int64)


def _apportion(total: int, weights: np.ndarray) -> np.ndarray:
    """Largest-remainder split of ``total`` items proportional to ``weights``.

    Zero-weight rows get nothing unless all weights are zero, in which case
    items are dealt round-robin from client 0.
    """
    k = len(weights)
    if total == 0:
        return np.zeros(k, dtype=np.int64)
    wsum = weights.sum()
    if wsum == 0:
        counts = np.full(k, total // k, dtype=np.int64)
        counts[: total % k] += 1
        return counts
    quotas = total * weights / wsum
    counts = np.floor(quotas).astype(np.int64)
    remainder = total - counts.sum()
    if remainder > 0:
        frac = quotas - counts
        order = np.lexsort((np.arange(k), -frac))  # largest remainder, lowest id ties
        counts[order[:remainder]] += 1
    return counts


def _by_class(indices: np.ndarray, labels: np.ndarray, class_count: int) -> tuple:
    """``indices`` grouped by label (stable within a class), and the class sizes."""
    classes = labels[indices]
    return indices[np.argsort(classes, kind="stable")], np.bincount(classes, minlength=class_count)


def _group_by_owner(ordered: np.ndarray, piece_owners: np.ndarray, piece_sizes: np.ndarray, num_clients: int) -> list:
    """Deal consecutive pieces of ``ordered`` to their owner clients.

    Piece ``p`` is the next ``piece_sizes[p]`` entries and goes to client
    ``piece_owners[p]``. Each client's array holds its pieces in piece
    order; one stable sort by owner and one split do the dealing.
    """
    owner = np.repeat(piece_owners, piece_sizes)
    bounds = np.cumsum(np.bincount(owner, minlength=num_clients))[:-1]
    return np.split(ordered[np.argsort(owner, kind="stable")], bounds)


def mirror_test_split(data: LabeledDataset, train_hist: np.ndarray, test_ix: np.ndarray) -> list:
    """Distribute the test rows ``test_ix`` so each client's test label mix
    mirrors its realized train histogram, class by class."""
    ordered, sizes = _by_class(test_ix, data.labels, data.class_count)
    weights = train_hist.astype(np.float64)
    counts = np.array([_apportion(int(sizes[c]), weights[:, c]) for c in range(data.class_count)])
    num_clients = train_hist.shape[0]
    return _group_by_owner(ordered, np.tile(np.arange(num_clients), data.class_count), counts.ravel(), num_clients)


def _dirichlet_clients(data: LabeledDataset, train_ix: np.ndarray, test_ix: np.ndarray, num_clients: int,
                       alpha: float, rng: RngStream) -> tuple:
    """Per-class Dirichlet share split of ``train_ix`` among clients, each
    given at least one row, and ``test_ix`` mirrored onto the result:
    ``(train, test, histograms)``."""
    if len(train_ix) < num_clients:
        raise ConfigError(f"{len(train_ix)} train samples cannot cover {num_clients} clients")
    ordered, sizes = _by_class(train_ix, data.labels, data.class_count)
    counts = np.zeros((data.class_count, num_clients), dtype=np.int64)
    for c in np.flatnonzero(sizes):
        shares = dirichlet_sample(alpha, num_clients, rng.child("class", c))
        counts[c] = multinomial_split(int(sizes[c]), shares, rng.child("counts", c))
    train = _group_by_owner(ordered, np.tile(np.arange(num_clients), data.class_count), counts.ravel(), num_clients)
    _enforce_min_one(train, data.labels)
    hist = _histograms(train, data.labels, data.class_count)
    return train, mirror_test_split(data, hist, test_ix), hist


def dirichlet_partition(data: LabeledDataset, num_clients: int, alpha: float, rng: RngStream) -> PartitionPlan:
    """Overlapping non-IID partition driven by a symmetric Dirichlet:
    ``domain_partition``'s splitter run once over every row, domains ignored."""
    train_ix = data.train_indices()
    if len(train_ix) == 0:
        raise InvalidInputError("dataset has no training samples")
    train, test, hist = _dirichlet_clients(data, train_ix, data.test_indices(), num_clients, alpha, rng)
    return PartitionPlan(train, test, hist, {"kind": "dirichlet", "alpha": alpha,
                                             "allocation": "per-class client shares (conserves samples exactly)"})


def sort_and_partition(data: LabeledDataset, num_clients: int, classes_per_client: int) -> PartitionPlan:
    """Label-sorted shards dealt so each client holds a fixed class set."""
    c = data.class_count
    if not 1 <= classes_per_client <= c:
        raise ConfigError(f"classes_per_client must be in [1, {c}], got {classes_per_client}")
    total_shards = num_clients * classes_per_client
    if total_shards < c or total_shards % c != 0:
        raise ConfigError(
            f"{num_clients} clients x {classes_per_client} classes must be a multiple of {c} classes"
        )
    shards_per_class = total_shards // c
    ordered, sizes = _by_class(data.train_indices(), data.labels, c)
    short = np.flatnonzero(sizes < shards_per_class)
    if short.size:
        cls = int(short[0])
        raise ConfigError(
            f"class {cls} has {sizes[cls]} train samples but needs {shards_per_class} shards"
        )
    # class cls splits into near-equal shards cls * spc + j, dealt round-robin
    base, extra = np.divmod(sizes, shards_per_class)
    shard_sizes = base[:, None] + (np.arange(shards_per_class) < extra[:, None])
    shard_owners = np.arange(total_shards) % num_clients
    per_client = _group_by_owner(ordered, shard_owners, shard_sizes.ravel(), num_clients)
    hist = _histograms(per_client, data.labels, c)
    return PartitionPlan(per_client, mirror_test_split(data, hist, data.test_indices()), hist,
                         {"kind": "sort_partition", "classes_per_client": classes_per_client})


def base_to_new_split(data: LabeledDataset, num_clients: int, rng: RngStream) -> PartitionPlan:
    """Disjoint base-class training plan whose test views add the held-out new classes.

    The first ceil(C/2) classes of a seeded class shuffle become base
    classes, dealt round-robin to clients. A client's own test rows are
    those of its base classes; the test rows of every new class are the
    plan's ``shared_test``, held once, which ends every client's view. So
    evaluation can report base (own rows), new (shared rows) and their
    harmonic mean.
    """
    c = data.class_count
    if c < 2:
        raise ConfigError("base-to-new needs at least 2 classes")
    if num_clients < 1:
        raise InvalidInputError("need at least one client")
    order = rng.child("class-order").permutation(c)
    base_count = (c + 1) // 2
    base_classes = order[:base_count]
    new_classes = order[base_count:]
    if num_clients > base_count:
        raise ConfigError(f"{num_clients} clients exceed {base_count} base classes")

    client_classes = [base_classes[i::num_clients] for i in range(num_clients)]
    train_ix = data.train_indices()
    test_ix = data.test_indices()
    labels = data.labels

    masks = [np.isin(labels, classes) for classes in client_classes]
    per_client_train = [train_ix[mask[train_ix]] for mask in masks]

    return PartitionPlan(
        per_client_train,
        [test_ix[mask[test_ix]] for mask in masks],
        _histograms(per_client_train, labels, c),
        {
            "kind": "base_to_new",
            "class_order": order.tolist(),
            "base_classes": np.sort(base_classes).tolist(),
            "new_classes": np.sort(new_classes).tolist(),
            "client_base_classes": [np.sort(cc).tolist() for cc in client_classes],
        },
        test_ix[np.isin(labels[test_ix], new_classes)],
    )


def domain_partition(data: LabeledDataset, clients_per_domain: int, alpha: float, rng: RngStream) -> PartitionPlan:
    """Dirichlet split of each domain's data among that domain's clients."""
    num_domains = data.domain_count()
    if num_domains == 0:
        raise InvalidInputError("dataset has no samples")
    train_ix, test_ix = data.train_indices(), data.test_indices()
    train, test, hists = [], [], []
    for dom in range(num_domains):
        try:
            dom_train, dom_test, dom_hist = _dirichlet_clients(
                data, train_ix[data.domains[train_ix] == dom], test_ix[data.domains[test_ix] == dom],
                clients_per_domain, alpha, rng.child("domain", dom))
        except ConfigError as err:
            raise ConfigError(f"domain {dom}: {err}") from err
        train += dom_train
        test += dom_test
        hists.append(dom_hist)
    metadata = {"kind": "domain", "alpha": alpha, "clients_per_domain": clients_per_domain,
                "client_domain": np.repeat(np.arange(num_domains), clients_per_domain).tolist()}
    return PartitionPlan(train, test, np.vstack(hists), metadata)


def _proportions(histograms: np.ndarray) -> np.ndarray:
    hist = histograms.astype(np.float64)
    sizes = hist.sum(axis=1, keepdims=True)
    return np.divide(hist, sizes, out=np.zeros_like(hist), where=sizes > 0)


def client_entropy(histograms: np.ndarray) -> np.ndarray:
    """Shannon entropy of each client's train class proportions."""
    props = _proportions(histograms)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(props > 0, np.log(props), 0.0)
    return -np.sum(props * logs, axis=1)


def heterogeneity_stats(plan: PartitionPlan) -> dict:
    """Per-client class proportions, Shannon entropy, and the N x N count of
    classes each pair of clients shares (for the ``partition`` audit)."""
    hist, support = plan.histograms, (plan.histograms > 0).astype(np.int64)
    return {"proportions": _proportions(hist), "entropy": client_entropy(hist), "overlap": support @ support.T}
