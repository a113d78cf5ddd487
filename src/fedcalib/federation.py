"""Communication-round engine: participant sampling, local SGD, aggregation,
and the evaluation of a global vector on every client's test view.

A client is an index: client k's data are its rows of the run's two
``RowSplit``s, training and test, and all other state is the server's. One
round proceeds as broadcast -> local training on sampled participants ->
aggregation, and leaves the new global vector in the ``ServerState``; the
runner then evaluates that vector once on all clients. A round's
participants train in lockstep on the run's single model: at each local
step, the participants that take it run stacked steps of at most
``STACK_ROWS // batch_size`` clients, each with its own row of a K x P
parameter matrix (see ``model``). Every minibatch is padded to
``batch_size`` rows by repeating its own rows, so a stack is always K blocks
of ``batch_size`` rows, and padded rows carry zero loss weight. Clients
differ only in their rows, their trainable vector and, once they have taken
part under feddyn, their dual, which the server holds by client id. Every
client draws from a stream derived from (seed, round, client id), so each
client's update is the one it would compute alone, whatever the grouping or
the order.

Every client holds the same global vector after broadcast, so
``split_logits`` forwards the test views of consecutive clients together,
in blocks of at most ``EVAL_BLOCK_ROWS`` rows. The run holds each test row
once, in the test split: every client's own rows in client order, then the
rows that every view shares (base-to-new's new-class rows), forwarded once
more. Each block is a slice of it. The reports (``personalized_evaluate``,
``evaluate_base_new``) take the split's probabilities and forward nothing.
``calibration.segmented_reports`` splits the metrics by client into one
column table per evaluation; the client mean, the pooled bins and the
per-client dicts of the results all come from its columns. Each client's
metrics keep the definitions of ``calibration.calibration_report`` on its
own view.

Aggregation strategies:

- ``fedavg`` / ``fedprox``  sample-count weighted average of participant
  vectors (the prox term only changes the local objective)
- ``fednova``               step-count normalized update averaging; its
  mixing coefficients are computed in exact rational arithmetic so that
  equal local step counts reproduce the fedavg result bit for bit
- ``feddyn``                dynamic regularization with client duals and a
  server dual mean, all held in the ``ServerState``

A failed client aborts the whole round; silently dropping it would bias
the weighted average and break determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .calibration import harmonic_mean, segmented_reports
from .errors import ConfigError, InvalidInputError, NumericError, TransportError
from .losses import LossSpec
from .model import DualEncoderModel
from .numerics import RngStream

AGGREGATOR_KINDS = ("fedavg", "fedprox", "feddyn", "fednova")


@dataclass(frozen=True)
class FederationConfig:
    rounds: int = 50
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 1e-3
    warmup_lr: float = 1e-5
    participation_rate: float = 1.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.local_epochs < 0:
            raise ConfigError(f"local_epochs must be >= 0, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.warmup_lr > 0:
            raise ConfigError(f"warmup_lr must be positive, got {self.warmup_lr}")
        if not 0.0 < self.participation_rate <= 1.0:
            raise ConfigError(f"participation_rate must be in (0, 1], got {self.participation_rate}")


@dataclass(frozen=True)
class AggregatorConfig:
    kind: str = "fedavg"
    mu_prox: float = 0.01
    alpha_dyn: float = 0.01

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ConfigError(f"kind must be one of {AGGREGATOR_KINDS}, got {self.kind!r}")
        if not self.mu_prox > 0:
            raise ConfigError(f"mu_prox must be positive, got {self.mu_prox}")
        if not self.alpha_dyn > 0:
            raise ConfigError(f"alpha_dyn must be positive, got {self.alpha_dyn}")


@dataclass
class ServerState:
    """Coordinator-held state: the global vector and FedDyn's state, the dual
    mean and each client's dual h_n by client id. A client's dual is made when
    it first takes part; until then it reads as zeros."""

    global_vector: np.ndarray
    num_clients: int
    dual_mean: np.ndarray | None = None
    duals: dict = field(default_factory=dict)


# rows of one stacked training step: a stack holds at most STACK_ROWS // batch_size clients
# (one if a batch is larger), so eight full 32-row batches share a step
STACK_ROWS = 256


def sample_participants(num_clients: int, rate: float, rng: RngStream) -> np.ndarray:
    """Uniform without-replacement sample of max(1, round(rate * N)) clients."""
    if num_clients < 1:
        raise InvalidInputError("need at least one client")
    if not 0.0 < rate <= 1.0:
        raise InvalidInputError(f"participation rate must be in (0, 1], got {rate}")
    k = max(1, int(np.floor(rate * num_clients + 0.5)))
    k = min(k, num_clients)
    return rng.choice(num_clients, k)


def train_participants(
    model: DualEncoderModel,
    train: RowSplit,
    ids: list,
    duals: dict,
    global_vector: np.ndarray,
    fed_config: FederationConfig,
    agg_config: AggregatorConfig,
    loss_spec: LossSpec,
    rngs: list,
    round_index: int = 0,
) -> list:
    """Local SGD of the clients ``ids`` of the training split in lockstep; one
    (vector, steps) per client.

    Every client starts from the broadcast vector and runs its own epochs:
    its shuffle per epoch from ``rngs[i].child("shuffle", epoch)`` and its
    dropout per step from ``rngs[i].child("dropout", epoch, step)``. At each
    step, the clients that take it share stacked forwards and backwards of at
    most ``max(1, STACK_ROWS // batch_size)`` clients; a client out of
    batches drops out. A minibatch of n < ``batch_size`` rows is padded to
    ``batch_size`` by repeating its rows in order (row j is row j mod n), and
    the model gives its padded rows zero masks and zero loss weight. So every
    product of a client has the shapes of one ``batch_size``-row batch, and
    this padded step is the definition of one minibatch step. The first
    round uses the warm-up learning rate, later rounds the main one.
    FedProx adds ``mu * (w - w_global)`` to each step's gradient; FedDyn adds
    ``-h_n + alpha * (w - w_global)``, each with the client's own ``w`` and
    dual ``h_n = duals[id]`` (zeros while the client holds none). So a
    client's result does not depend on the other clients; the model is not changed.
    """
    vectors = np.tile(global_vector, (len(ids), 1))
    views = [train.own(cid) for cid in ids]
    size = fed_config.batch_size
    batches = [-(-len(y) // size) if global_vector.size else 0 for _, y in views]
    total_steps = [fed_config.local_epochs * b for b in batches]
    lr = fed_config.warmup_lr if round_index == 0 else fed_config.learning_rate
    dual_rows = None
    if agg_config.kind == "feddyn" and ids:
        zero = np.zeros(global_vector.size)
        dual_rows = np.stack([duals.get(cid, zero) for cid in ids])
    orders = [None] * len(ids)
    per_stack = max(1, STACK_ROWS // size)  # so that a stack holds at most STACK_ROWS rows
    for step in range(max(total_steps, default=0)):
        members = []
        for i, (_, y) in enumerate(views):
            if step < total_steps[i]:
                epoch, b = divmod(step, batches[i])
                if b == 0:
                    order = rngs[i].child("shuffle", epoch).permutation(len(y))
                    last = (batches[i] - 1) * size  # the last minibatch repeats its own rows up to size
                    orders[i] = np.concatenate([order[:last], np.resize(order[last:], size)])
                rows = orders[i][b * size : (b + 1) * size]
                members.append((i, rows, min(size, len(y) - b * size), rngs[i].child("dropout", epoch, step)))
        for group in (members[start : start + per_stack] for start in range(0, len(members), per_stack)):
            stack = [i for i, _, _, _ in group]
            w = vectors[stack]
            g = _stacked_gradient(model, w, views, ids, group, loss_spec, round_index, step)
            if agg_config.kind == "fedprox":
                g += agg_config.mu_prox * (w - global_vector)
            elif agg_config.kind == "feddyn":
                g -= dual_rows[stack]
                g += agg_config.alpha_dyn * (w - global_vector)
            w -= lr * g
            vectors[stack] = w
    return [(vector, steps) for vector, steps in zip(vectors, total_steps)]


def _stacked_gradient(model, params, views, ids, members, loss_spec, round_index, step) -> np.ndarray:
    """K x P loss gradient of one stacked step at the K x P ``params``;
    ``members`` are (participant index, padded rows, count of real rows,
    dropout stream), ``views[i]`` participant i's training rows and ``ids[i]``
    its client id.

    A non-finite activation or loss raises ``NumericError`` naming the
    client it belongs to, the round and the step.
    """
    x = np.concatenate([views[i][0][rows] for i, rows, _, _ in members])
    y = np.concatenate([views[i][1][rows] for i, rows, _, _ in members])
    stack = [ids[i] for i, _, _, _ in members]
    try:
        model.forward(x, params, train=True, rng=[stream for *_, stream in members],
                      counts=[n for _, _, n, _ in members])
        loss, g = model.backward(y, loss_spec)
    except NumericError as err:
        raise _client_error(str(err), stack, err.rows or range(len(stack)), round_index, step) from err
    if not np.all(np.isfinite(loss.total)):
        raise _client_error("non-finite loss", stack, np.flatnonzero(~np.isfinite(loss.total)), round_index, step)
    return g


def _client_error(message: str, stack: list, rows, round_index: int, step: int) -> NumericError:
    names = ", ".join(str(stack[r]) for r in rows)
    return NumericError(f"{message} on client {names}, round {round_index}, step {step}")


def _weighted_sum(coeffs, vectors, anchor_coeff=0.0, anchor=None):
    acc = None
    if anchor_coeff != 0.0:
        acc = anchor_coeff * anchor
    for c, v in zip(coeffs, vectors):
        term = c * v
        acc = term if acc is None else acc + term
    return acc


def aggregate(
    updates: list,
    global_vector: np.ndarray,
    agg_config: AggregatorConfig,
    server: ServerState,
) -> np.ndarray:
    """Combine participant updates into the next global vector.

    ``updates`` is a list of (vector, sample_count, local_steps), ordered by
    client id. Weights are normalized over the participants of this round.
    """
    if not updates:
        raise InvalidInputError("cannot aggregate zero updates")
    size = global_vector.size
    for vec, _, _ in updates:
        if vec.size != size:
            raise TransportError("update vector length mismatch")
    counts = [int(d) for _, d, _ in updates]
    if min(counts) < 0 or sum(counts) == 0:
        raise InvalidInputError("sample counts must be non-negative and not all zero")
    total = sum(counts)
    vectors = [vec for vec, _, _ in updates]

    if agg_config.kind in ("fedavg", "fedprox"):
        return _weighted_sum([d / total for d in counts], vectors)

    if agg_config.kind == "fednova":
        # exact rational coefficients: tau_eff * p_n / a_n with
        # p_n = d_n / total and tau_eff = sum(p_m * a_m). When all a_m are
        # equal this reduces to p_n exactly, and the anchor coefficient
        # (1 - sum q_n) to exactly zero, making the result bit-identical
        # to fedavg.
        steps = [max(int(a), 1) for _, _, a in updates]
        p = [Fraction(d, total) for d in counts]
        tau = sum((pn * an for pn, an in zip(p, steps)), Fraction(0))
        q = [tau * pn / an for pn, an in zip(p, steps)]
        q0 = Fraction(1) - sum(q, Fraction(0))
        return _weighted_sum(
            [float(qn) for qn in q], vectors, anchor_coeff=float(q0), anchor=global_vector
        )

    # feddyn: unweighted participant mean corrected by the server dual mean
    if server.dual_mean is None or server.dual_mean.size != size:
        raise InvalidInputError("feddyn aggregation requires a server dual mean")
    k = len(vectors)
    mean_theta = _weighted_sum([1.0 / k] * k, vectors)
    server.dual_mean = server.dual_mean - agg_config.alpha_dyn * (
        (mean_theta - global_vector) * (k / server.num_clients)
    )
    return mean_theta - server.dual_mean / agg_config.alpha_dyn


EVAL_BLOCK_ROWS = 256  # caps the transient memory of one evaluation forward


@dataclass(frozen=True)
class RowSplit:
    """The training or the test rows of a run, each held once.

    ``x`` and ``y`` hold every client's own rows in client order, ``sizes[k]``
    rows for client k, then ``shared`` rows that close every client's view
    (the new-class rows of base-to-new's test split). Client k's training rows
    are its own rows; its test view is its own rows, then the shared rows.
    """

    x: np.ndarray
    y: np.ndarray
    sizes: np.ndarray
    shared: int = 0

    def own(self, k: int) -> tuple:
        """Client ``k``'s own rows ``(x, y)``, slices of the split."""
        start = int(self.sizes[:k].sum())
        rows = slice(start, start + int(self.sizes[k]))
        return self.x[rows], self.y[rows]

    @property
    def view_sizes(self) -> np.ndarray:
        """Each client's test-view size: its own rows and the shared rows."""
        return self.sizes + self.shared

    def views(self, rows: np.ndarray) -> np.ndarray:
        """``rows``, one per row of the split, laid out view after view; ``rows`` itself
        when no row is shared."""
        if not self.shared:
            return rows
        own, shared = np.split(rows[: -self.shared], np.cumsum(self.sizes)[:-1]), rows[-self.shared :]
        return np.concatenate([part for mine in own for part in (mine, shared)])


def split_logits(model: DualEncoderModel, vector: np.ndarray, split: RowSplit) -> np.ndarray:
    """Logits under ``vector`` of every row of ``split``, each row forwarded once.

    Consecutive non-empty own views are forwarded together, in blocks of at
    most ``EVAL_BLOCK_ROWS`` rows, and a larger view alone; the shared rows
    are one more forward. Each block is a slice of ``split.x``.
    """
    blocks, start, rows = [], 0, 0
    for size in split.sizes:
        if size and rows and rows + size > EVAL_BLOCK_ROWS:
            blocks.append(model.forward(split.x[start : start + rows], vector))
            start, rows = start + rows, 0
        rows += size
    for rows in (rows, split.shared):
        if rows:
            blocks.append(model.forward(split.x[start : start + rows], vector))
            start += rows
    return np.concatenate(blocks)


def _table(probs: np.ndarray, y: np.ndarray, sizes, bins: int, scheme: str):
    """The ``ReportTable`` of the non-empty consecutive views of ``sizes`` rows
    of ``(probs, y)``, or ``None`` when every view is empty."""
    kept = sizes[sizes > 0]
    return segmented_reports(probs, y, kept, bins, scheme) if kept.size else None


def _with_empty(rows: list, sizes) -> list:
    """``rows`` of the non-empty views, with ``None`` at each empty view."""
    rows = iter(rows)
    return [next(rows) if size else None for size in sizes]


def personalized_evaluate(probs: np.ndarray, split: RowSplit, bins: int = 15, scheme: str = "equal_width") -> dict:
    """Per-client metrics of ``probs``, one row per row of ``split``, on each
    test view of ``split``, their unweighted mean and the pooled bins.

    Clients without test data are excluded from the mean and the pooled
    bins and listed under ``excluded``.
    """
    sizes = split.view_sizes
    if not sizes.any():
        raise InvalidInputError("every client has an empty test view")
    table = _table(split.views(probs), split.views(split.y), sizes, bins, scheme)
    return {
        "mean": table.mean(),
        "per_client": _with_empty(table.rows(), sizes),
        "pooled_bins": table.pooled_bins(),
        "excluded": [k for k, size in enumerate(sizes) if not size],
    }


def evaluate_base_new(probs: np.ndarray, split: RowSplit, bins: int = 15, scheme: str = "equal_width") -> dict:
    """Base/new breakdown of ``probs``, one row per row of ``split``, for the
    base-to-new setting, plus harmonic means.

    ``base`` is the client mean of the reports of the clients' own rows
    (clients without own rows are skipped); ``new`` is the one report of
    the shared rows, the new-class rows every view ends with. Either is
    ``None`` without rows, and then so is ``harmonic_mean``.
    """
    own = len(split.y) - split.shared
    tables = (_table(probs[:own], split.y[:own], split.sizes, bins, scheme),
              _table(probs[own:], split.y[own:], np.array([split.shared]), bins, scheme))
    base, new = (None if table is None else table.mean() for table in tables)
    hm = {key: harmonic_mean(base[key], new[key]) for key in base} if base and new else None
    return {"base": base, "new": new, "harmonic_mean": hm}


def run_round(
    model: DualEncoderModel,
    server: ServerState,
    train: RowSplit,
    fed_config: FederationConfig,
    agg_config: AggregatorConfig,
    loss_spec: LossSpec,
    round_index: int,
    base_stream: RngStream,
) -> tuple:
    """One communication round over the clients of the training split,
    deterministic in (config, seed): sample, train, aggregate into
    ``server.global_vector`` and, under feddyn, update the participants' duals
    in ``server.duals``. Returns the participants (ascending client ids) and,
    aligned with them, each one's update norm ||w_k - w_global||: 0.0 without
    trainable parameters or local steps, and taken over the participant's own
    vector, so its bits do not depend on the other participants."""
    sampled = sample_participants(
        len(train.sizes), fed_config.participation_rate, base_stream.child("participants", round_index)
    )
    participants = [int(c) for c in sampled]
    global_before = server.global_vector

    trained = train_participants(
        model, train, participants, server.duals, global_before, fed_config, agg_config, loss_spec,
        [base_stream.child("local", round_index, cid) for cid in participants], round_index,
    )
    updates = [(vector, train.sizes[cid], steps) for cid, (vector, steps) in zip(participants, trained)]
    norms = [float(np.linalg.norm(vector - global_before)) for vector, _ in trained]

    server.global_vector = aggregate(updates, global_before, agg_config, server)
    if agg_config.kind == "feddyn":
        for cid, (vec, _) in zip(participants, trained):
            # a first dual is 0.0 - t, the bits of zeros - t (-t would turn +0.0 into -0.0)
            server.duals[cid] = server.duals.get(cid, 0.0) - agg_config.alpha_dyn * (vec - global_before)
    return participants, norms


def init_server(vector: np.ndarray, num_clients: int) -> ServerState:
    """Server state that broadcasts a copy of ``vector`` first and holds no client dual."""
    return ServerState(global_vector=vector.copy(), num_clients=num_clients, dual_mean=np.zeros(vector.size))
