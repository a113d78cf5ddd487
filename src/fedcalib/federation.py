"""Communication-round engine: participant sampling, local SGD, aggregation.

One round proceeds as broadcast -> local training on sampled participants
-> aggregation -> broadcast -> personalized evaluation of all clients.
Clients run one after another on a single model per run: each participant
starts by loading the broadcast vector, so clients differ only in their
data, their trainable vector and their FedDyn dual. Every client draws from
a stream derived from (seed, round, client id), so the round outcome is
independent of client execution order.

Aggregation strategies:

- ``fedavg`` / ``fedprox``  sample-count weighted average of participant
  vectors (the prox term only changes the local objective)
- ``fednova``               step-count normalized update averaging; its
  mixing coefficients are computed in exact rational arithmetic so that
  equal local step counts reproduce the fedavg result bit for bit
- ``feddyn``                dynamic regularization with client duals and a
  server dual mean

A failed client aborts the whole round; silently dropping it would bias
the weighted average and break determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calibration import (
    LogitBatch,
    ProbBatch,
    calibration_report,
    harmonic_mean,
    pool_bins,
)
from .errors import ConfigError, InvalidInputError, NumericError, TransportError
from .losses import LossSpec
from .model import DualEncoderModel, ParamSet, weight_drift
from .numerics import RngStream, softmax_rows

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
            raise ConfigError("rounds must be at least 1")
        if self.local_epochs < 0:
            raise ConfigError("local_epochs must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.learning_rate <= 0 or self.warmup_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 < self.participation_rate <= 1.0:
            raise ConfigError("participation_rate must be in (0, 1]")


@dataclass(frozen=True)
class AggregatorConfig:
    kind: str = "fedavg"
    mu_prox: float = 0.01
    alpha_dyn: float = 0.01

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ConfigError(f"aggregator must be one of {AGGREGATOR_KINDS}, got {self.kind!r}")
        if self.kind == "fedprox" and self.mu_prox <= 0:
            raise ConfigError("fedprox requires mu_prox > 0")
        if self.kind == "feddyn" and self.alpha_dyn <= 0:
            raise ConfigError("feddyn requires alpha_dyn > 0")


@dataclass
class ClientState:
    """One client's data views and optimizer extras."""

    client_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    # base/new breakdown of the test view (base-to-new setting only)
    test_base: tuple | None = None
    test_new: tuple | None = None
    dual: np.ndarray | None = None  # FedDyn h_n, trainable-vector shaped

    @property
    def train_size(self) -> int:
        return len(self.train_y)


@dataclass
class ServerState:
    """Coordinator-held state: the global vector and FedDyn's dual mean."""

    global_vector: np.ndarray
    num_clients: int
    zero_shot_reference: ParamSet
    dual_mean: np.ndarray | None = None


@dataclass
class RoundRecord:
    """Immutable snapshot of one communication round."""

    round_index: int
    participants: list
    global_vector: np.ndarray
    client_reports: list  # CalibrationReport | None per client
    excluded_clients: list  # clients skipped for having no test data
    mean: dict  # unweighted client mean of each report scalar
    drift_mean: float
    drift_std: float


def sample_participants(num_clients: int, rate: float, rng: RngStream) -> np.ndarray:
    """Uniform without-replacement sample of max(1, round(rate * N)) clients."""
    if num_clients < 1:
        raise InvalidInputError("need at least one client")
    if not 0.0 < rate <= 1.0:
        raise InvalidInputError(f"participation rate must be in (0, 1], got {rate}")
    k = max(1, int(np.floor(rate * num_clients + 0.5)))
    k = min(k, num_clients)
    return rng.choice(num_clients, k)


def local_train(
    model: DualEncoderModel,
    client: ClientState,
    global_vector: np.ndarray,
    fed_config: FederationConfig,
    agg_config: AggregatorConfig,
    loss_spec: LossSpec,
    rng: RngStream,
    round_index: int = 0,
) -> tuple:
    """Run local SGD epochs from the broadcast vector; returns (vector, steps).

    The first round uses the warm-up learning rate, later rounds the main
    one. FedProx adds ``mu * (w - w_global)`` to each step's gradient;
    FedDyn adds ``-h_n + alpha * (w - w_global)``.
    """
    if global_vector.size != model.trainable_size():
        raise TransportError(
            f"broadcast vector has {global_vector.size} entries, client expects {model.trainable_size()}"
        )
    model.load_trainable(global_vector)
    n = client.train_size
    if fed_config.local_epochs == 0 or n == 0 or model.trainable_size() == 0:
        return model.trainable_vector(), 0

    lr = fed_config.warmup_lr if round_index == 0 else fed_config.learning_rate
    steps = 0
    for epoch in range(fed_config.local_epochs):
        order = rng.child("shuffle", epoch).permutation(n)
        for start in range(0, n, fed_config.batch_size):
            batch_ix = order[start : start + fed_config.batch_size]
            x = client.train_x[batch_ix]
            y = client.train_y[batch_ix]
            model.forward(x, train=True, rng=rng.child("dropout", epoch, steps))
            loss, grads = model.backward(y, loss_spec)
            if not np.isfinite(loss.total):
                raise NumericError(
                    f"non-finite loss on client {client.client_id}, "
                    f"round {round_index}, step {steps}"
                )
            g = model.grad_vector(grads)
            w = model.trainable_vector()
            if agg_config.kind == "fedprox":
                g = g + agg_config.mu_prox * (w - global_vector)
            elif agg_config.kind == "feddyn":
                g = g - client.dual + agg_config.alpha_dyn * (w - global_vector)
            model.load_trainable(w - lr * g)
            steps += 1
    return model.trainable_vector(), steps


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


def evaluate_client(
    model: DualEncoderModel, client: ClientState, bins: int, scheme: str, temperature: float = 1.0
):
    """Personalized evaluation on the client's local test view."""
    if len(client.test_y) == 0:
        return None
    logits = model.forward(client.test_x)
    probs = softmax_rows(logits / temperature)
    return calibration_report(ProbBatch(probs, client.test_y), bins, scheme)


def client_logits(model: DualEncoderModel, client: ClientState) -> LogitBatch | None:
    if len(client.test_y) == 0:
        return None
    return LogitBatch(model.forward(client.test_x), client.test_y)


def personalized_evaluate(
    model: DualEncoderModel, clients: list, bins: int = 15, scheme: str = "equal_width"
) -> dict:
    """Per-client reports plus their unweighted average across clients.

    Clients without test data are excluded from the average and listed
    under ``excluded``.
    """
    reports = [evaluate_client(model, c, bins, scheme) for c in clients]
    included = [r for r in reports if r is not None]
    excluded = [c.client_id for c, r in zip(clients, reports) if r is None]
    if not included:
        raise InvalidInputError("every client has an empty test view")
    mean_scalars = {
        key: float(np.mean([r.scalars()[key] for r in included]))
        for key in included[0].scalars()
    }
    pooled = pool_bins([r.bins for r in included])
    return {
        "mean": mean_scalars,
        "per_client": reports,
        "pooled_bins": pooled,
        "excluded": excluded,
    }


def evaluate_base_new(
    model: DualEncoderModel, clients: list, bins: int = 15, scheme: str = "equal_width"
) -> dict:
    """Base/new breakdown for the base-to-new setting, plus harmonic means."""

    def one(client):
        out = {}
        for part_name, part in (("base", client.test_base), ("new", client.test_new)):
            if part is None or len(part[1]) == 0:
                out[part_name] = None
                continue
            x, y = part
            probs = softmax_rows(model.forward(x))
            out[part_name] = calibration_report(ProbBatch(probs, y), bins, scheme)
        return out

    per_client = [one(c) for c in clients]
    result = {"per_client": per_client}
    for part_name in ("base", "new"):
        rs = [pc[part_name] for pc in per_client if pc[part_name] is not None]
        if rs:
            result[part_name] = {
                key: float(np.mean([r.scalars()[key] for r in rs])) for key in rs[0].scalars()
            }
        else:
            result[part_name] = None
    if result["base"] and result["new"]:
        result["harmonic_mean"] = {
            key: harmonic_mean(result["base"][key], result["new"][key])
            for key in result["base"]
        }
    else:
        result["harmonic_mean"] = None
    return result


def run_round(
    model: DualEncoderModel,
    server: ServerState,
    clients: list,
    fed_config: FederationConfig,
    agg_config: AggregatorConfig,
    loss_spec: LossSpec,
    round_index: int,
    base_stream: RngStream,
    bins: int = 15,
    scheme: str = "equal_width",
) -> RoundRecord:
    """One full communication round; deterministic in (config, seed)."""
    sampled = sample_participants(
        len(clients), fed_config.participation_rate, base_stream.child("participants", round_index)
    )
    participants = [int(c) for c in sampled]
    global_before = server.global_vector

    updates, drifts = [], []
    for cid in participants:
        client = clients[cid]
        rng = base_stream.child("local", round_index, cid)
        vector, steps = local_train(
            model, client, global_before, fed_config, agg_config, loss_spec, rng, round_index
        )
        _, drift = weight_drift(model, server.zero_shot_reference)
        updates.append((vector, client.train_size, steps))
        drifts.append(drift)
    drifts = np.array(drifts)

    new_global = aggregate(updates, global_before, agg_config, server)
    server.global_vector = new_global

    if agg_config.kind == "feddyn":
        for (vec, _, _), cid in zip(updates, participants):
            client = clients[cid]
            client.dual = client.dual - agg_config.alpha_dyn * (vec - global_before)

    model.load_trainable(new_global)
    evaluation = personalized_evaluate(model, clients, bins, scheme)
    return RoundRecord(
        round_index=round_index,
        participants=participants,
        global_vector=new_global,
        client_reports=evaluation["per_client"],
        excluded_clients=evaluation["excluded"],
        mean=evaluation["mean"],
        drift_mean=float(drifts.mean()),
        drift_std=float(drifts.std()),
    )


def build_clients(data_views: list, model: DualEncoderModel) -> list:
    """Client state for each (train, test[, base, new]) view, duals sized to ``model``."""
    clients = []
    size = model.trainable_size()
    for cid, view in enumerate(data_views):
        clients.append(
            ClientState(
                client_id=cid,
                train_x=view["train_x"],
                train_y=view["train_y"],
                test_x=view["test_x"],
                test_y=view["test_y"],
                test_base=view.get("test_base"),
                test_new=view.get("test_new"),
                dual=np.zeros(size),
            )
        )
    return clients


def init_server(model: DualEncoderModel, num_clients: int) -> ServerState:
    vec = model.trainable_vector()
    return ServerState(
        global_vector=vec,
        num_clients=num_clients,
        zero_shot_reference=model.param_set(),
        dual_mean=np.zeros(vec.size),
    )
