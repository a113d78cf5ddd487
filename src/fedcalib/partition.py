"""Client dataset construction for the three experimental settings.

Partitioners assign every training sample to exactly one client and attach
a per-client test view:

- ``dirichlet_partition``   overlapping non-IID label skew: for each class,
  client shares are drawn from a symmetric Dirichlet and the class's
  samples are split by a multinomial draw
- ``sort_and_partition``    label-sorted shards dealt so each client holds
  a fixed number of classes
- ``base_to_new_split``     half the classes (after a seeded shuffle) are
  dealt disjointly to clients for training; the other half form a held-out
  "new" evaluation set every client is tested on
- ``domain_partition``      each domain's data is Dirichlet-split among
  that domain's clients

The Dirichlet scheme allocates shares per CLASS across clients (the
field-standard construction): it conserves samples exactly and never
assigns a sample twice. Test views mirror the realized train histogram of
each client (largest-remainder apportionment per class), so personalized
evaluation sees the same label mix a client was trained on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError
from .numerics import RngStream, dirichlet_sample, multinomial_split


@dataclass
class LabeledDataset:
    """Embeddings with labels, domain tags, and a train/test split."""

    embeddings: np.ndarray  # (n x d)
    labels: np.ndarray  # (n,)
    domains: np.ndarray  # (n,)
    class_count: int
    is_train: np.ndarray  # (n,) bool

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)
        self.is_train = np.asarray(self.is_train, dtype=bool)
        n = self.embeddings.shape[0]
        if self.embeddings.ndim != 2:
            raise InvalidInputError("embeddings must be a 2-D matrix")
        if self.labels.shape != (n,) or self.domains.shape != (n,) or self.is_train.shape != (n,):
            raise InvalidInputError("labels/domains/is_train must align with embeddings rows")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise InvalidInputError("label out of range for class_count")

    @property
    def sample_count(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def train_indices(self) -> np.ndarray:
        return np.flatnonzero(self.is_train)

    def test_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.is_train)

    def domain_count(self) -> int:
        return int(self.domains.max()) + 1 if self.sample_count else 0


@dataclass
class PartitionPlan:
    """Per-client train assignment plus test views and audit metadata."""

    num_clients: int
    class_count: int
    train_indices: list  # per client: np.ndarray of dataset indices
    test_indices: list  # per client: np.ndarray (may overlap across clients)
    histograms: np.ndarray  # (N x C) train class counts
    metadata: dict = field(default_factory=dict)

    def total_assigned(self) -> int:
        return int(sum(len(ix) for ix in self.train_indices))

    def to_json(self) -> str:
        payload = {
            "num_clients": self.num_clients,
            "class_count": self.class_count,
            "train_indices": [ix.tolist() for ix in self.train_indices],
            "test_indices": [ix.tolist() for ix in self.test_indices],
            "histograms": self.histograms.tolist(),
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _histograms(plan_train, labels, num_clients, class_count) -> np.ndarray:
    hist = np.zeros((num_clients, class_count), dtype=np.int64)
    for client, ix in enumerate(plan_train):
        if len(ix):
            hist[client] = np.bincount(labels[ix], minlength=class_count)
    return hist


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


def _chunk_by_counts(indices: np.ndarray, counts: np.ndarray) -> list:
    bounds = np.cumsum(counts)[:-1]
    return [np.asarray(part, dtype=np.int64) for part in np.split(indices, bounds)]


def mirror_test_split(data: LabeledDataset, train_hist: np.ndarray, restrict: np.ndarray | None = None) -> list:
    """Distribute test samples so each client's test label mix mirrors its
    realized train histogram, class by class."""
    num_clients = train_hist.shape[0]
    test_ix = data.test_indices() if restrict is None else restrict
    test_labels = data.labels[test_ix]
    per_client = [[] for _ in range(num_clients)]
    for c in range(data.class_count):
        class_test = test_ix[test_labels == c]
        counts = _apportion(len(class_test), train_hist[:, c].astype(np.float64))
        for client, part in enumerate(_chunk_by_counts(class_test, counts)):
            if len(part):
                per_client[client].append(part)
    return [
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64) for parts in per_client
    ]


def _dirichlet_assign(data: LabeledDataset, indices: np.ndarray, num_clients: int, alpha: float, rng: RngStream) -> list:
    """Per-class Dirichlet share split of ``indices`` among clients."""
    labels = data.labels
    per_client = [[] for _ in range(num_clients)]
    for c in range(data.class_count):
        class_ix = indices[labels[indices] == c]
        if len(class_ix) == 0:
            continue
        shares = dirichlet_sample(alpha, num_clients, rng.child("class", c))
        counts = multinomial_split(len(class_ix), shares, rng.child("counts", c))
        for client, part in enumerate(_chunk_by_counts(class_ix, counts)):
            if len(part):
                per_client[client].append(part)
    return [
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64) for parts in per_client
    ]


def dirichlet_partition(data: LabeledDataset, num_clients: int, alpha: float, rng: RngStream) -> PartitionPlan:
    """Overlapping non-IID partition driven by a symmetric Dirichlet."""
    if num_clients < 1:
        raise InvalidInputError("need at least one client")
    if alpha <= 0:
        raise InvalidInputError(f"concentration must be positive, got {alpha}")
    train_ix = data.train_indices()
    if len(train_ix) == 0:
        raise InvalidInputError("dataset has no training samples")
    if len(train_ix) < num_clients:
        raise ConfigError(f"{len(train_ix)} train samples cannot cover {num_clients} clients")
    per_client = _dirichlet_assign(data, train_ix, num_clients, alpha, rng)
    _enforce_min_one(per_client, data.labels)
    hist = _histograms(per_client, data.labels, num_clients, data.class_count)
    test = mirror_test_split(data, hist)
    return PartitionPlan(
        num_clients=num_clients,
        class_count=data.class_count,
        train_indices=per_client,
        test_indices=test,
        histograms=hist,
        metadata={"kind": "dirichlet", "alpha": alpha,
                  "allocation": "per-class client shares (conserves samples exactly)"},
    )


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
    train_ix = data.train_indices()
    labels = data.labels
    shards = []
    for cls in range(c):
        class_ix = train_ix[labels[train_ix] == cls]
        if len(class_ix) < shards_per_class:
            raise ConfigError(
                f"class {cls} has {len(class_ix)} train samples but needs {shards_per_class} shards"
            )
        base, extra = divmod(len(class_ix), shards_per_class)
        counts = np.full(shards_per_class, base, dtype=np.int64)
        counts[:extra] += 1
        shards.extend(_chunk_by_counts(class_ix, counts))
    per_client = []
    for i in range(num_clients):
        mine = [shards[i + t * num_clients] for t in range(classes_per_client)]
        per_client.append(np.concatenate(mine))
    hist = _histograms(per_client, labels, num_clients, c)
    if not np.all((hist > 0).sum(axis=1) == classes_per_client):
        raise ConfigError("shard dealing did not give every client the requested class count")
    test = mirror_test_split(data, hist)
    return PartitionPlan(
        num_clients=num_clients,
        class_count=c,
        train_indices=per_client,
        test_indices=test,
        histograms=hist,
        metadata={"kind": "sort_partition", "classes_per_client": classes_per_client},
    )


def base_to_new_split(data: LabeledDataset, num_clients: int, rng: RngStream) -> tuple:
    """Disjoint base-class training plan plus the held-out new-class set.

    The first ceil(C/2) classes of a seeded class shuffle become base
    classes, dealt round-robin to clients. Each client's test view covers
    its own base classes plus every new class; the base/new index split is
    recorded separately so evaluation can report both plus their harmonic
    mean.
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

    new_mask = np.isin(labels, new_classes)
    new_eval = test_ix[new_mask[test_ix]]

    per_client_train, per_client_test, test_base, test_new = [], [], [], []
    for classes in client_classes:
        mask = np.isin(labels, classes)
        mine_train = train_ix[mask[train_ix]]
        mine_base_test = test_ix[mask[test_ix]]
        per_client_train.append(mine_train)
        test_base.append(mine_base_test)
        test_new.append(new_eval)
        per_client_test.append(np.concatenate([mine_base_test, new_eval]))

    hist = _histograms(per_client_train, labels, num_clients, c)
    plan = PartitionPlan(
        num_clients=num_clients,
        class_count=c,
        train_indices=per_client_train,
        test_indices=per_client_test,
        histograms=hist,
        metadata={
            "kind": "base_to_new",
            "class_order": order.tolist(),
            "base_classes": np.sort(base_classes).tolist(),
            "new_classes": np.sort(new_classes).tolist(),
            "client_base_classes": [np.sort(cc).tolist() for cc in client_classes],
        },
    )
    plan.metadata["test_base_indices"] = [ix.tolist() for ix in test_base]
    plan.metadata["test_new_indices"] = [ix.tolist() for ix in test_new]
    return plan, new_eval


def domain_partition(data: LabeledDataset, clients_per_domain: int, alpha: float, rng: RngStream) -> PartitionPlan:
    """Dirichlet split of each domain's data among that domain's clients."""
    if clients_per_domain < 1:
        raise InvalidInputError("need at least one client per domain")
    if alpha <= 0:
        raise InvalidInputError(f"concentration must be positive, got {alpha}")
    num_domains = data.domain_count()
    if num_domains == 0:
        raise InvalidInputError("dataset has no samples")
    num_clients = num_domains * clients_per_domain
    train_ix = data.train_indices()
    per_client = [np.zeros(0, dtype=np.int64)] * num_clients
    test = [np.zeros(0, dtype=np.int64)] * num_clients
    client_domain = np.repeat(np.arange(num_domains), clients_per_domain)
    hist = np.zeros((num_clients, data.class_count), dtype=np.int64)
    for dom in range(num_domains):
        dom_train = train_ix[data.domains[train_ix] == dom]
        if len(dom_train) < clients_per_domain:
            raise ConfigError(
                f"domain {dom} has {len(dom_train)} train samples for {clients_per_domain} clients"
            )
        local = _dirichlet_assign(data, dom_train, clients_per_domain, alpha, rng.child("domain", dom))
        _enforce_min_one(local, data.labels)
        local_hist = _histograms(local, data.labels, clients_per_domain, data.class_count)
        dom_test_all = data.test_indices()
        dom_test = dom_test_all[data.domains[dom_test_all] == dom]
        local_test = mirror_test_split(data, local_hist, restrict=dom_test)
        for j in range(clients_per_domain):
            client = dom * clients_per_domain + j
            per_client[client] = local[j]
            test[client] = local_test[j]
            hist[client] = local_hist[j]
    return PartitionPlan(
        num_clients=num_clients,
        class_count=data.class_count,
        train_indices=per_client,
        test_indices=test,
        histograms=hist,
        metadata={
            "kind": "domain",
            "alpha": alpha,
            "clients_per_domain": clients_per_domain,
            "client_domain": client_domain.tolist(),
        },
    )


def heterogeneity_stats(plan: PartitionPlan) -> dict:
    """Per-client class proportions, Shannon entropy, and class overlap."""
    hist = plan.histograms.astype(np.float64)
    sizes = hist.sum(axis=1, keepdims=True)
    props = np.divide(hist, sizes, out=np.zeros_like(hist), where=sizes > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(props > 0, np.log(props), 0.0)
    entropy = -np.sum(props * logs, axis=1)
    support = plan.histograms > 0
    overlap = support.astype(np.int64) @ support.astype(np.int64).T
    return {"proportions": props, "entropy": entropy, "overlap": overlap}
