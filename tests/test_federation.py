"""Tests for the round engine: sampling, local SGD, aggregation, evaluation."""

import copy

import numpy as np
import pytest

from fedcalib.calibration import (
    LogitBatch,
    ProbBatch,
    TemperatureScaler,
    apply_temperature,
    calibration_report,
)
from fedcalib.errors import ConfigError, InvalidInputError, NumericError, TransportError
from fedcalib.federation import (
    AggregatorConfig,
    FederationConfig,
    ServerState,
    aggregate,
    build_clients,
    EVAL_BLOCK_ROWS,
    STACK_ROWS,
    evaluate_base_new,
    init_server,
    personalized_evaluate,
    run_round,
    sample_participants,
    train_participants,
)
from fedcalib.losses import LossSpec, total_loss
from fedcalib.model import HEAD_KINDS, ModelConfig, weight_drift, zero_shot_init
from fedcalib.numerics import RngStream, l2_normalize_rows, softmax_rows
from fedcalib.runner import _temperature_rows


def make_blob_views(num_clients, d=8, c=4, per_client=24, test_per_client=12, seed=0):
    """Per-client gaussian-blob views around shared class prototypes.

    ``per_client`` and ``test_per_client`` are one train- or test-view size
    for all clients or a list of per-client sizes.
    """
    protos = l2_normalize_rows(RngStream(seed, 12345).normal(c * d).reshape(c, d))
    rng = RngStream(seed, 54321)

    def block(n):
        labels = (rng.u64(n) % np.uint64(c)).astype(np.int64)
        noise = rng.normal(n * d).reshape(n, d) * 0.4
        x = l2_normalize_rows(protos[labels] + noise)
        return x, labels

    if isinstance(per_client, int):
        per_client = [per_client] * num_clients
    if isinstance(test_per_client, int):
        test_per_client = [test_per_client] * num_clients
    views = []
    for train_rows, test_rows in zip(per_client, test_per_client, strict=True):
        tx, ty = block(train_rows)
        vx, vy = block(test_rows)
        views.append({"train_x": tx, "train_y": ty, "test_x": vx, "test_y": vy})
    return protos, views


def make_federation(num_clients, head="lora_both", seed=0, dropout=0.0, logit_scale=10.0, **view_kw):
    protos, views = make_blob_views(num_clients, seed=seed, **view_kw)
    cfg = ModelConfig(
        embed_dim=8, class_count=4, head_kind=head, lora_dropout=dropout, logit_scale=logit_scale
    )
    model = zero_shot_init(cfg, protos, RngStream(seed, 777))
    clients = build_clients(views, model)
    server = init_server(model, num_clients)
    return model, server, clients


def local_objective(model, client, vector, global_vector, agg_config, loss_spec):
    """Full-set local objective at ``vector``, dropout off, penalties included."""
    model.load_trainable(vector)
    probs = softmax_rows(model.forward(client.train_x))
    value = total_loss(ProbBatch(probs, client.train_y), loss_spec).total
    if agg_config.kind == "fedprox":
        diff = vector - global_vector
        value += 0.5 * agg_config.mu_prox * float(diff @ diff)
    elif agg_config.kind == "feddyn":
        diff = vector - global_vector
        value += -float(client.dual @ vector) + 0.5 * agg_config.alpha_dyn * float(diff @ diff)
    return value


def sequential_local_train(model, client, global_vector, fed_config, agg_config, loss_spec, rng, round_index=0):
    """Plain local SGD of one client, one unstacked forward and backward per
    minibatch: the reference that lockstep training must reproduce."""
    model.load_trainable(global_vector)
    n = client.train_size
    if fed_config.local_epochs == 0 or n == 0 or model.trainable_size() == 0:
        return model.trainable_vector(), 0
    lr = fed_config.warmup_lr if round_index == 0 else fed_config.learning_rate
    w = model.theta
    steps = 0
    for epoch in range(fed_config.local_epochs):
        order = rng.child("shuffle", epoch).permutation(n)
        for start in range(0, n, fed_config.batch_size):
            batch_ix = order[start : start + fed_config.batch_size]
            model.forward(client.train_x[batch_ix], train=True, rng=rng.child("dropout", epoch, steps))
            _, g = model.backward(client.train_y[batch_ix], loss_spec)
            if agg_config.kind == "fedprox":
                g += agg_config.mu_prox * (w - global_vector)
            elif agg_config.kind == "feddyn":
                g -= client.dual
                g += agg_config.alpha_dyn * (w - global_vector)
            w -= lr * g
            steps += 1
    return model.trainable_vector(), steps


class TestSampleParticipants:
    def test_full_rate_takes_everyone(self):
        ids = sample_participants(12, 1.0, RngStream(1))
        assert np.array_equal(ids, np.arange(12))

    def test_ten_percent_of_hundred(self):
        ids = sample_participants(100, 0.1, RngStream(2))
        assert len(ids) == 10
        assert len(set(ids.tolist())) == 10

    def test_floor_to_minimum_one(self):
        assert len(sample_participants(5, 0.1, RngStream(3))) == 1

    def test_deterministic_per_stream(self):
        a = sample_participants(50, 0.2, RngStream(4, 9))
        b = sample_participants(50, 0.2, RngStream(4, 9))
        c = sample_participants(50, 0.2, RngStream(4, 10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_empty_and_bad_rate(self):
        with pytest.raises(InvalidInputError):
            sample_participants(0, 0.5, RngStream(5))
        with pytest.raises(InvalidInputError):
            sample_participants(10, 0.0, RngStream(5))


class TestLocalTrain:
    def test_zero_epochs_returns_global_unchanged(self):
        model, server, clients = make_federation(1)
        fed = FederationConfig(local_epochs=0)
        vec, steps = train_participants(
            model, [clients[0]], server.global_vector, fed, AggregatorConfig(), LossSpec(), [RngStream(6)]
        )[0]
        assert steps == 0
        assert vec.tobytes() == server.global_vector.tobytes()

    def test_single_step_matches_hand_sgd(self):
        model, server, clients = make_federation(1, per_client=8)
        client = clients[0]
        fed = FederationConfig(batch_size=8, local_epochs=1, learning_rate=1e-3)
        rng_id = RngStream(7, 100)
        vec, steps = train_participants(
            model, [client], server.global_vector, fed, AggregatorConfig(), LossSpec(),
            [rng_id], round_index=5,
        )[0]
        assert steps == 1
        # replay by hand on a fresh copy with the same derived streams
        probe = copy.deepcopy(model)
        probe.load_trainable(server.global_vector)
        order = RngStream(7, 100).child("shuffle", 0).permutation(8)
        probe.forward(client.train_x[order], train=True)
        _, grad = probe.backward(client.train_y[order], LossSpec())
        expected = probe.trainable_vector() - 1e-3 * grad
        assert vec.tobytes() == expected.tobytes()

    def test_warmup_lr_on_round_zero(self):
        model, server, clients = make_federation(1, per_client=8)
        fed = FederationConfig(batch_size=8, learning_rate=1e-3, warmup_lr=1e-5)
        v0, _ = train_participants(
            model, [clients[0]], server.global_vector, fed, AggregatorConfig(), LossSpec(),
            [RngStream(8)], round_index=0,
        )[0]
        step0 = np.linalg.norm(v0 - server.global_vector)
        v1, _ = train_participants(
            model, [clients[0]], server.global_vector, fed, AggregatorConfig(), LossSpec(),
            [RngStream(8)], round_index=1,
        )[0]
        step1 = np.linalg.norm(v1 - server.global_vector)
        assert step0 == pytest.approx(step1 * 1e-2, rel=1e-9)

    def test_fedprox_shrinks_toward_global_monotonically(self):
        model, server, clients = make_federation(1, per_client=24)
        fed = FederationConfig(batch_size=8, local_epochs=3)
        dists = []
        for mu in (0.01, 1.0, 100.0):
            vec, _ = train_participants(
                model, [clients[0]], server.global_vector, fed,
                AggregatorConfig("fedprox", mu_prox=mu), LossSpec(),
                [RngStream(9, 5)], round_index=2,
            )[0]
            dists.append(np.linalg.norm(vec - server.global_vector))
        assert dists[0] > dists[1] > dists[2]

    def test_fedprox_objective_dominates_plain(self):
        model, server, clients = make_federation(1)
        client = clients[0]
        prox = AggregatorConfig("fedprox", mu_prox=0.5)
        plain = AggregatorConfig("fedavg")
        g = server.global_vector
        at_global_prox = local_objective(model, client, g.copy(), g, prox, LossSpec())
        at_global_plain = local_objective(model, client, g.copy(), g, plain, LossSpec())
        assert at_global_prox == pytest.approx(at_global_plain, abs=1e-15)
        rng = RngStream(10)
        for _ in range(5):
            w = g + rng.normal(g.size) * 0.1
            assert local_objective(model, client, w, g, prox, LossSpec()) > local_objective(
                model, client, w, g, plain, LossSpec()
            )

    def test_length_mismatch_rejected(self):
        model, server, clients = make_federation(1)
        with pytest.raises(TransportError):
            train_participants(
                model, [clients[0]], np.zeros(3), FederationConfig(), AggregatorConfig(),
                LossSpec(), [RngStream(11)],
            )[0]


class TestAggregate:
    def _random_updates(self, rng, k, size, equal_steps=None):
        updates = []
        for i in range(k):
            vec = rng.normal(size)
            d = 1 + int(rng.u64(1)[0] % 50)
            a = equal_steps if equal_steps else 1 + int(rng.u64(1)[0] % 9)
            updates.append((vec, d, a))
        return updates

    def test_single_client_identity_all_strategies(self):
        rng = RngStream(12)
        vec = rng.normal(20)
        prev = rng.normal(20)
        for kind in ("fedavg", "fedprox", "fednova"):
            server = ServerState(prev.copy(), 1, np.zeros(20))
            out = aggregate([(vec, 7, 3)], prev, AggregatorConfig(kind), server)
            assert out.tobytes() == vec.tobytes()
        # feddyn is an identity only when the client returns the global
        # vector unchanged (its server dual correction is by design nonzero
        # whenever clients move)
        server = ServerState(prev.copy(), 1, np.zeros(20))
        out = aggregate([(prev.copy(), 7, 3)], prev, AggregatorConfig("feddyn"), server)
        assert np.allclose(out, prev, atol=1e-15)

    def test_two_client_weighted_mean(self):
        server = ServerState(np.zeros(1), 2, np.zeros(1))
        out = aggregate(
            [(np.array([0.0]), 1, 1), (np.array([4.0]), 3, 1)],
            np.zeros(1), AggregatorConfig("fedavg"), server,
        )
        assert out[0] == pytest.approx(3.0)

    def test_fednova_equals_fedavg_on_equal_steps(self):
        rng = RngStream(13)
        for trial in range(100):
            k = 1 + int(rng.u64(1)[0] % 6)
            size = 1 + int(rng.u64(1)[0] % 30)
            steps = 1 + int(rng.u64(1)[0] % 7)
            updates = self._random_updates(rng, k, size, equal_steps=steps)
            prev = rng.normal(size)
            avg = aggregate(updates, prev, AggregatorConfig("fedavg"), ServerState(prev, k))
            nova = aggregate(updates, prev, AggregatorConfig("fednova"), ServerState(prev, k))
            assert avg.tobytes() == nova.tobytes()

    def test_fednova_zero_step_client_is_safe(self):
        # a client that took no steps necessarily returned the global
        # vector; its normalized update is zero and must not divide by zero
        rng = RngStream(140)
        prev = rng.normal(6)
        moved = rng.normal(6)
        out = aggregate(
            [(prev.copy(), 4, 0), (moved, 4, 3)],
            prev, AggregatorConfig("fednova"), ServerState(prev, 2),
        )
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("kind", ["fedavg", "fedprox", "fednova"])
    def test_identical_updates_return_that_vector(self, kind):
        # k equal weights 1/k: the sequential weighted sum is exact for k = 1,
        # 2 and 4; otherwise each of the k products and sums may round, so
        # the result is within k ulps of the vector
        rng = RngStream(141)
        for k in range(1, 11):
            for _ in range(20):
                vec, prev = rng.normal(30), rng.normal(30)
                d, a = 1 + int(rng.u64(1)[0] % 50), 1 + int(rng.u64(1)[0] % 9)
                out = aggregate([(vec.copy(), d, a)] * k, prev, AggregatorConfig(kind), ServerState(prev, k))
                if k in (1, 2, 4):
                    assert out.tobytes() == vec.tobytes()
                assert np.all(np.abs(out - vec) <= k * np.spacing(np.abs(vec)))

    def test_fednova_zero_step_participants_count_one_step(self):
        rng = RngStream(142)
        prev, first, second = rng.normal(8), rng.normal(8), rng.normal(8)
        out = aggregate(
            [(first, 4, 0), (second, 4, 3)], prev, AggregatorConfig("fednova"), ServerState(prev, 2)
        )
        clamped = aggregate(
            [(first, 4, 1), (second, 4, 3)], prev, AggregatorConfig("fednova"), ServerState(prev, 2)
        )
        assert out.tobytes() == clamped.tobytes()
        # p = (1/2, 1/2), steps (1, 3): tau = 2, q = (1, 1/3), anchor 1 - 4/3
        assert np.array_equal(out, (-1 / 3) * prev + 1.0 * first + (1 / 3) * second)

    def test_fednova_differs_on_unequal_steps(self):
        rng = RngStream(14)
        updates = [(rng.normal(10), 5, 1), (rng.normal(10), 5, 9)]
        prev = rng.normal(10)
        avg = aggregate(updates, prev, AggregatorConfig("fedavg"), ServerState(prev, 2))
        nova = aggregate(updates, prev, AggregatorConfig("fednova"), ServerState(prev, 2))
        assert not np.allclose(avg, nova)

    def test_fedavg_weights_sum_to_one(self):
        rng = RngStream(15)
        for trial in range(200):
            k = 1 + int(rng.u64(1)[0] % 10)
            counts = [1 + int(v % 100) for v in rng.u64(k)]
            total = sum(counts)
            assert abs(sum(d / total for d in counts) - 1.0) <= 1e-12

    def test_feddyn_server_rule(self):
        # hand-computed: h <- h - a*(mean - prev)*(k/N); out = mean - h/a
        prev = np.array([1.0, 1.0])
        server = ServerState(prev.copy(), 4, np.zeros(2))
        vecs = [np.array([2.0, 0.0]), np.array([4.0, 2.0])]
        out = aggregate(
            [(vecs[0], 1, 1), (vecs[1], 1, 1)], prev, AggregatorConfig("feddyn", alpha_dyn=0.5), server
        )
        mean = np.array([3.0, 1.0])
        h = -0.5 * (mean - prev) * (2 / 4)
        assert np.allclose(server.dual_mean, h)
        assert np.allclose(out, mean - h / 0.5)

    def test_mismatched_lengths_rejected(self):
        server = ServerState(np.zeros(3), 2, np.zeros(3))
        with pytest.raises(TransportError):
            aggregate(
                [(np.zeros(3), 1, 1), (np.zeros(4), 1, 1)],
                np.zeros(3), AggregatorConfig(), server,
            )

    def test_empty_updates_rejected(self):
        server = ServerState(np.zeros(3), 2, np.zeros(3))
        with pytest.raises(InvalidInputError):
            aggregate([], np.zeros(3), AggregatorConfig(), server)


class TestRunRound:
    def test_single_client_round_is_local_training(self):
        model, server, clients = make_federation(1, seed=20)
        fed = FederationConfig(batch_size=8, participation_rate=1.0)
        expected, _ = train_participants(
            copy.deepcopy(model), [clients[0]], server.global_vector.copy(), fed, AggregatorConfig(),
            LossSpec(), [RngStream(0, 0).child("local", 0, 0)], round_index=0,
        )[0]
        record = run_round(
            model, server, clients, fed, AggregatorConfig(), LossSpec(), 0, RngStream(0, 0)
        )
        assert record.global_vector.tobytes() == expected.tobytes()

    def test_serial_matches_parallel(self):
        # every client trains and is evaluated on one shared model, so any
        # state one client leaves behind would change another's result
        model, server, clients = make_federation(6, seed=21, dropout=0.25)
        fed = FederationConfig(batch_size=8, participation_rate=0.5)
        agg = AggregatorConfig()
        stream = RngStream(42)
        for t in range(3):
            global_before = server.global_vector
            record = run_round(model, server, clients, fed, agg, LossSpec(), t, stream)
            # (a) replaying the participants in reverse order on the same
            # model aggregates to the same bytes
            updates = {}
            for cid in reversed(record.participants):
                vec, steps = train_participants(
                    model, [clients[cid]], global_before, fed, agg, LossSpec(),
                    [stream.child("local", t, cid)], round_index=t,
                )[0]
                updates[cid] = (vec, clients[cid].train_size, steps)
            replay = aggregate(
                [updates[cid] for cid in record.participants], global_before, agg,
                ServerState(global_before, len(clients)),
            )
            assert replay.tobytes() == record.global_vector.tobytes()
            # (b) the reports equal those of a fresh model holding the round's vector
            fresh, _, _ = make_federation(6, seed=21, dropout=0.25)
            fresh.load_trainable(record.global_vector)
            expected = personalized_evaluate(fresh, clients, 15, "equal_width")["per_client"]
            for want, got in zip(expected, record.client_reports, strict=True):
                assert want.scalars() == got.scalars()

    @pytest.mark.parametrize("aux", ["none", "dca", "mdca"])
    @pytest.mark.parametrize("kind", ["fedavg", "fedprox", "feddyn", "fednova"])
    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_lockstep_round_equals_each_client_alone(self, head, kind, aux):
        # with batches of 8, the clients' steps mix full batches with ragged
        # tails of 5, 8 (exact fit), 5 and 1 rows; client 3 holds no rows
        sizes = [21, 13, 8, 0, 5, 17]
        model, server, clients = make_federation(len(sizes), head=head, seed=32, dropout=0.25, per_client=sizes)
        fed = FederationConfig(batch_size=8, local_epochs=2, learning_rate=0.05, warmup_lr=0.01)
        agg = AggregatorConfig(kind, mu_prox=0.3, alpha_dyn=0.2)
        spec = LossSpec(aux, aux_weight=0.5)
        stream = RngStream(33)
        for t in range(2):
            before, dual_mean = server.global_vector, server.dual_mean.copy()
            duals = [c.dual.copy() for c in clients]
            probe = copy.deepcopy(model)
            alone = []
            for cid, client in enumerate(clients):
                vec, steps = sequential_local_train(
                    probe, client, before, fed, agg, spec, stream.child("local", t, cid), t
                )
                alone.append((vec, steps, weight_drift(probe)[1]))
            want_steps = [0 if head == "zero_shot" else 2 * -(-n // 8) for n in sizes]
            assert [steps for _, steps, _ in alone] == want_steps

            streams = [stream.child("local", t, cid) for cid in range(len(clients))]
            lockstep = train_participants(copy.deepcopy(model), clients, before, fed, agg, spec, streams, t)
            for (vec, steps), (want, want_steps, _) in zip(lockstep, alone, strict=True):
                assert vec.tobytes() == want.tobytes()
                assert steps == want_steps

            record = run_round(model, server, clients, fed, agg, spec, t, stream)
            updates = [(vec, c.train_size, steps) for (vec, steps, _), c in zip(alone, clients)]
            want = aggregate(updates, before, agg, ServerState(before, len(clients), dual_mean))
            assert record.global_vector.tobytes() == want.tobytes()
            drifts = np.array([drift for _, _, drift in alone])
            assert (record.drift_mean, record.drift_std) == (float(drifts.mean()), float(drifts.std()))
            for client, dual, (vec, _, _) in zip(clients, duals, alone):
                want_dual = dual - agg.alpha_dyn * (vec - before) if kind == "feddyn" else dual
                assert client.dual.tobytes() == want_dual.tobytes()

    def test_full_stack_equals_each_client_alone(self):
        # eight clients with 32-row batches fill one stack of STACK_ROWS rows
        model, server, clients = make_federation(8, seed=36, dropout=0.25, per_client=64)
        fed = FederationConfig(batch_size=32, learning_rate=0.05, warmup_lr=0.01)
        agg, spec, stream = AggregatorConfig(), LossSpec("mdca", aux_weight=0.5), RngStream(37)
        alone = [
            sequential_local_train(copy.deepcopy(model), c, server.global_vector, fed, agg, spec,
                                   stream.child("local", 0, c.client_id))
            for c in clients
        ]
        rows = count_forwards(model)
        streams = [stream.child("local", 0, c.client_id) for c in clients]
        lockstep = train_participants(model, clients, server.global_vector, fed, agg, spec, streams)
        assert rows == [8, 8] and 8 * 32 == STACK_ROWS
        for (vec, steps), (want, want_steps) in zip(lockstep, alone, strict=True):
            assert vec.tobytes() == want.tobytes() and steps == want_steps == 2

    def test_non_finite_client_in_a_stack_names_client_round_and_step(self):
        model, server, clients = make_federation(5, seed=34, per_client=16)
        fed = FederationConfig(batch_size=8)
        stream = RngStream(35)
        run_round(model, server, clients, fed, AggregatorConfig(), LossSpec(), 0, stream)
        # all five clients share each 8-row step, so client 3 fails inside a stack
        clients[3].train_x = clients[3].train_x.copy()
        clients[3].train_x[11, 2] = np.nan
        order = stream.child("local", 1, 3).child("shuffle", 0).permutation(16)
        step = int(np.flatnonzero(order == 11)[0]) // 8
        with pytest.raises(NumericError, match=rf"on client 3, round 1, step {step}$"):
            run_round(model, server, clients, fed, AggregatorConfig(), LossSpec(), 1, stream)

    def test_round_reports_cover_all_clients(self):
        model, server, clients = make_federation(5, seed=22)
        fed = FederationConfig(batch_size=8, participation_rate=0.4)
        record = run_round(model, server, clients, fed, AggregatorConfig(), LossSpec(), 0, RngStream(1))
        assert len(record.participants) == 2
        assert len(record.client_reports) == 5
        assert all(r is not None for r in record.client_reports)

    def test_drift_zero_before_any_training(self):
        model, server, clients = make_federation(3, seed=23)
        fed = FederationConfig(batch_size=8, local_epochs=0)
        record = run_round(model, server, clients, fed, AggregatorConfig(), LossSpec(), 0, RngStream(2))
        assert record.drift_mean == 0.0
        assert record.drift_std == 0.0

    def test_feddyn_round_updates_client_duals(self):
        model, server, clients = make_federation(2, seed=24)
        fed = FederationConfig(batch_size=8)
        run_round(model, server, clients, fed, AggregatorConfig("feddyn"), LossSpec(), 0, RngStream(3))
        assert any(np.linalg.norm(c.dual) > 0 for c in clients)


class TestPersonalizedEvaluate:
    def test_identical_clients_average_equals_single(self):
        model, server, clients = make_federation(3, seed=25)
        # same test view for all
        for c in clients[1:]:
            c.test_x = clients[0].test_x
            c.test_y = clients[0].test_y
        out = personalized_evaluate(model, clients)
        single = out["per_client"][0].scalars()
        for key, value in out["mean"].items():
            assert value == pytest.approx(single[key], abs=1e-12)

    def test_mean_accuracy_of_opposite_clients(self):
        model, server, clients = make_federation(2, seed=26)
        # force client 0 all-correct and client 1 all-wrong labels
        logits = model.forward(clients[0].test_x)
        preds = logits.argmax(axis=1)
        clients[0].test_y = preds.copy()
        logits1 = model.forward(clients[1].test_x)
        clients[1].test_y = (logits1.argmax(axis=1) + 1) % 4
        out = personalized_evaluate(model, clients)
        assert out["mean"]["accuracy"] == pytest.approx(0.5)

    def test_empty_test_view_excluded_with_flag(self):
        model, server, clients = make_federation(3, seed=27)
        clients[1].test_x = np.zeros((0, 8))
        clients[1].test_y = np.zeros(0, dtype=np.int64)
        out = personalized_evaluate(model, clients)
        assert out["excluded"] == [1]
        assert out["per_client"][1] is None

    def test_base_new_breakdown_with_harmonic_mean(self):
        model, server, clients = make_federation(2, seed=28)
        for c in clients:
            half = len(c.test_y) // 2
            c.test_base = (c.test_x[:half], c.test_y[:half])
            c.test_new = (c.test_x[half:], c.test_y[half:])
        out = evaluate_base_new(model, clients)
        assert out["base"] is not None and out["new"] is not None
        hm = out["harmonic_mean"]["accuracy"]
        b, n = out["base"]["accuracy"], out["new"]["accuracy"]
        expected = 0.0 if (b == 0 and n == 0) else 2 * b * n / (b + n)
        assert hm == pytest.approx(expected)


def per_client_reference(model, views, bins=15, scheme="equal_width"):
    """One forward and one calibration_report per non-empty (x, y) view."""
    return [
        None if view is None or len(view[1]) == 0
        else calibration_report(ProbBatch(softmax_rows(model.forward(view[0])), view[1]), bins, scheme)
        for view in views
    ]


def assert_reports_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert np.array_equal(g.bins.counts, w.bins.counts)
        for key, value in w.scalars().items():
            assert abs(g.scalars()[key] - value) <= 1e-12, key


def count_forwards(model):
    """Wrap ``model.forward`` on the instance; returns the list of row counts per call."""
    calls = []
    original = model.forward

    def counted(x, *args, **kwargs):
        calls.append(len(x))
        return original(x, *args, **kwargs)

    model.forward = counted
    return calls


def held_out_views(clients):
    return [(c.test_x, c.test_y) for c in clients]


class TestBlockedEvaluation:
    def trained_federation(self, sizes, seed=30):
        model, server, clients = make_federation(len(sizes), seed=seed, test_per_client=sizes)
        fed = FederationConfig(batch_size=8)
        run_round(model, server, clients, fed, AggregatorConfig(), LossSpec(), 1, RngStream(seed))
        return model, clients

    @pytest.mark.parametrize("scheme", ["equal_width", "equal_mass"])
    def test_empty_views_in_the_middle(self, scheme):
        model, clients = self.trained_federation([5, 0, 9, 0, 0, 1, 12])
        out = personalized_evaluate(model, clients, 15, scheme)
        assert out["excluded"] == [1, 3, 4]
        assert_reports_close(out["per_client"], per_client_reference(model, held_out_views(clients), 15, scheme))

    @pytest.mark.parametrize(
        "sizes, blocks",
        [
            # a view over the block size goes alone, between small ones
            ([3, 300, 4, 5], [3, 300, 9]),
            # views that would cross the block boundary start the next block
            ([250, 10, 1, 255, 2], [250, 11, 255, 2]),
            # an exact fit closes the block
            ([200, 56, 1], [256, 1]),
        ],
    )
    def test_block_boundaries(self, sizes, blocks):
        assert EVAL_BLOCK_ROWS == 256  # the cases are cut for this block size
        model, clients = self.trained_federation(sizes)
        want = per_client_reference(model, held_out_views(clients))
        calls = count_forwards(model)
        out = personalized_evaluate(model, clients)
        assert calls == blocks
        assert_reports_close(out["per_client"], want)

    def test_one_forward_for_twelve_small_clients(self):
        model, clients = self.trained_federation([1 + i % 10 for i in range(12)])
        calls = count_forwards(model)
        personalized_evaluate(model, clients)
        assert len(calls) == 1

    def test_base_new_parts_match_per_client(self):
        model, clients = self.trained_federation([8, 6, 9, 4])
        for c in clients:
            half = len(c.test_y) // 2
            c.test_base = (c.test_x[:half], c.test_y[:half])
            c.test_new = (c.test_x[half:], c.test_y[half:])
        clients[1].test_new = (clients[1].test_x[:0], clients[1].test_y[:0])
        clients[2].test_base = None
        out = evaluate_base_new(model, clients, 15, "equal_mass")
        for part in ("base", "new"):
            want = per_client_reference(model, [getattr(c, f"test_{part}") for c in clients], 15, "equal_mass")
            assert_reports_close([pc[part] for pc in out["per_client"]], want)
            for key, value in out[part].items():
                expected = np.mean([w.scalars()[key] for w in want if w is not None])
                assert abs(value - expected) <= 1e-12
        assert out["per_client"][1]["new"] is None
        assert out["per_client"][2]["base"] is None

    def test_base_new_with_an_empty_part_everywhere(self):
        model, clients = self.trained_federation([4, 5])
        for c in clients:
            c.test_base = (c.test_x, c.test_y)
            c.test_new = (c.test_x[:0], c.test_y[:0])
        out = evaluate_base_new(model, clients)
        assert out["new"] is None and out["harmonic_mean"] is None
        assert_reports_close([pc["base"] for pc in out["per_client"]],
                             per_client_reference(model, held_out_views(clients)))

    def test_temperature_rows_match_per_client(self):
        model, clients = self.trained_federation([7, 0, 300, 3])
        temperatures = [0.5, 1.0, 2.0]
        rows = _temperature_rows(model, clients, temperatures, 10, "equal_mass")
        assert [row["temperature"] for row in rows] == temperatures
        for row, tau in zip(rows, temperatures):
            reports = [
                calibration_report(
                    apply_temperature(LogitBatch(model.forward(c.test_x), c.test_y), TemperatureScaler(tau)),
                    10, "equal_mass",
                )
                for c in clients if len(c.test_y)
            ]
            for key, value in row["mean"].items():
                assert abs(value - np.mean([r.scalars()[key] for r in reports])) <= 1e-12


class TestConfigValidation:
    def test_federation_config_bounds(self):
        with pytest.raises(ConfigError):
            FederationConfig(rounds=0)
        with pytest.raises(ConfigError):
            FederationConfig(participation_rate=0.0)
        with pytest.raises(ConfigError):
            FederationConfig(batch_size=0)

    def test_aggregator_config_bounds(self):
        with pytest.raises(ConfigError):
            AggregatorConfig("fedsgd")
        with pytest.raises(ConfigError):
            AggregatorConfig("fedprox", mu_prox=0.0)
        with pytest.raises(ConfigError):
            AggregatorConfig("feddyn", alpha_dyn=-1.0)
