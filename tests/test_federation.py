"""Tests for the round engine: sampling, local SGD, aggregation, evaluation."""

import numpy as np
import pytest

from fedcalib import calibration, federation
from fedcalib.calibration import ProbBatch, apply_temperature, calibration_report
from fedcalib.errors import ConfigError, InvalidInputError, NumericError, TransportError
from fedcalib.federation import (
    AggregatorConfig,
    FederationConfig,
    RowSplit,
    ServerState,
    aggregate,
    EVAL_BLOCK_ROWS,
    STACK_ROWS,
    evaluate_base_new,
    init_server,
    personalized_evaluate,
    run_round,
    sample_participants,
    split_logits,
    train_participants,
)
from fedcalib.losses import LossSpec, total_loss
from fedcalib.model import HEAD_KINDS, ModelConfig, zero_shot_init
from fedcalib.numerics import RngStream, l2_normalize_rows, softmax_rows
from fedcalib.runner import _temperature_rows
from fixtures import count_forwards, model_array_bytes, own_rows, scalars, split_probs


def make_blob_views(num_clients, d=8, c=4, per_client=24, test_per_client=12, seed=0):
    """Per-client gaussian-blob ``(x, y)`` training and test views around shared
    class prototypes.

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
    train, test = [], []
    for train_rows, test_rows in zip(per_client, test_per_client, strict=True):
        train.append(block(train_rows))
        test.append(block(test_rows))
    return protos, train, test


def make_federation(num_clients, head="lora_both", seed=0, dropout=0.0, logit_scale=10.0, d=8, **view_kw):
    protos, train, test = make_blob_views(num_clients, d=d, seed=seed, **view_kw)
    cfg = ModelConfig(
        embed_dim=d, class_count=4, head_kind=head, lora_dropout=dropout, logit_scale=logit_scale
    )
    model = zero_shot_init(cfg, protos, RngStream(seed, 777))
    server = init_server(model.initial, num_clients)
    return model, server, gather_split(train), gather_split(test)


def gather_split(views, shared=None):
    """The ``RowSplit`` of per-client ``(x, y)`` own rows, gathered in client
    order, then the ``(x, y)`` rows that every view shares."""
    parts = views if shared is None else [*views, shared]
    return RowSplit(
        np.concatenate([x for x, _ in parts]),
        np.concatenate([y for _, y in parts]),
        np.array([len(y) for _, y in views]),
        0 if shared is None else len(shared[1]),
    )


def local_objective(model, rows, vector, global_vector, agg_config, loss_spec, dual=None):
    """Full-set local objective on the ``(x, y)`` ``rows`` at ``vector``, dropout
    off, penalties included; ``dual`` is the FedDyn dual, ``None`` for zeros."""
    x, y = rows
    probs = softmax_rows(model.forward(x, vector))
    value = total_loss(probs, y, loss_spec).total
    if agg_config.kind == "fedprox":
        diff = vector - global_vector
        value += 0.5 * agg_config.mu_prox * float(diff @ diff)
    elif agg_config.kind == "feddyn":
        diff = vector - global_vector
        dual = np.zeros(vector.size) if dual is None else dual
        value += -float(dual @ vector) + 0.5 * agg_config.alpha_dyn * float(diff @ diff)
    return value


def sequential_local_train(model, rows, dual, global_vector, fed_config, agg_config, loss_spec, rng, round_index=0):
    """Plain local SGD of one client on its ``(x, y)`` training ``rows`` from its
    FedDyn ``dual`` (``None`` for zeros), one unstacked forward and backward
    per minibatch, a short minibatch padded to ``batch_size`` rows by
    repeating its own rows: the reference that lockstep training must
    reproduce."""
    x, y = rows
    n = len(y)
    w = global_vector.copy()
    if fed_config.local_epochs == 0 or n == 0 or w.size == 0:
        return w, 0
    lr = fed_config.warmup_lr if round_index == 0 else fed_config.learning_rate
    steps = 0
    for epoch in range(fed_config.local_epochs):
        order = rng.child("shuffle", epoch).permutation(n)
        for start in range(0, n, fed_config.batch_size):
            batch_ix = order[start : start + fed_config.batch_size]
            padded = np.resize(batch_ix, fed_config.batch_size)
            model.forward(x[padded], w, train=True, rng=rng.child("dropout", epoch, steps), counts=[len(batch_ix)])
            _, g = model.backward(y[padded], loss_spec)
            if agg_config.kind == "fedprox":
                g += agg_config.mu_prox * (w - global_vector)
            elif agg_config.kind == "feddyn":
                g -= np.zeros(g.size) if dual is None else dual
                g += agg_config.alpha_dyn * (w - global_vector)
            w -= lr * g
            steps += 1
    return w, steps


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
        model, server, train, split = make_federation(1)
        fed = FederationConfig(local_epochs=0)
        vec, steps = train_participants(
            model, train, [0], server.duals, server.global_vector, fed, AggregatorConfig(), LossSpec(),
            [RngStream(6)],
        )[0]
        assert steps == 0
        assert vec.tobytes() == server.global_vector.tobytes()

    def test_single_step_matches_hand_sgd(self):
        model, server, train, split = make_federation(1, per_client=8)
        fed = FederationConfig(batch_size=8, local_epochs=1, learning_rate=1e-3)
        rng_id = RngStream(7, 100)
        vec, steps = train_participants(
            model, train, [0], server.duals, server.global_vector, fed, AggregatorConfig(), LossSpec(),
            [rng_id], round_index=5,
        )[0]
        assert steps == 1
        # replay by hand with the same derived streams
        order = RngStream(7, 100).child("shuffle", 0).permutation(8)
        x, y = own_rows(train, 0)
        model.forward(x[order], server.global_vector, train=True)
        _, grad = model.backward(y[order], LossSpec())
        expected = server.global_vector - 1e-3 * grad
        assert vec.tobytes() == expected.tobytes()

    def test_warmup_lr_on_round_zero(self):
        model, server, train, split = make_federation(1, per_client=8)
        fed = FederationConfig(batch_size=8, learning_rate=1e-3, warmup_lr=1e-5)
        v0, _ = train_participants(
            model, train, [0], server.duals, server.global_vector, fed, AggregatorConfig(), LossSpec(),
            [RngStream(8)], round_index=0,
        )[0]
        step0 = np.linalg.norm(v0 - server.global_vector)
        v1, _ = train_participants(
            model, train, [0], server.duals, server.global_vector, fed, AggregatorConfig(), LossSpec(),
            [RngStream(8)], round_index=1,
        )[0]
        step1 = np.linalg.norm(v1 - server.global_vector)
        assert step0 == pytest.approx(step1 * 1e-2, rel=1e-9)

    def test_fedprox_shrinks_toward_global_monotonically(self):
        model, server, train, split = make_federation(1, per_client=24)
        fed = FederationConfig(batch_size=8, local_epochs=3)
        dists = []
        for mu in (0.01, 1.0, 100.0):
            vec, _ = train_participants(
                model, train, [0], server.duals, server.global_vector, fed,
                AggregatorConfig("fedprox", mu_prox=mu), LossSpec(),
                [RngStream(9, 5)], round_index=2,
            )[0]
            dists.append(np.linalg.norm(vec - server.global_vector))
        assert dists[0] > dists[1] > dists[2]

    def test_fedprox_objective_dominates_plain(self):
        model, server, train, split = make_federation(1)
        client = own_rows(train, 0)
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
        model, server, train, split = make_federation(1)
        with pytest.raises(TransportError):
            train_participants(
                model, train, [0], server.duals, np.zeros(3), FederationConfig(), AggregatorConfig(),
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
        model, server, train, split = make_federation(1, seed=20)
        fed = FederationConfig(batch_size=8, participation_rate=1.0)
        expected, _ = train_participants(
            model, train, [0], server.duals, server.global_vector.copy(), fed, AggregatorConfig(),
            LossSpec(), [RngStream(0, 0).child("local", 0, 0)], round_index=0,
        )[0]
        run_round(model, server, train, fed, AggregatorConfig(), LossSpec(), 0, RngStream(0, 0))
        assert server.global_vector.tobytes() == expected.tobytes()

    def test_serial_matches_parallel(self):
        # every client trains and is evaluated on one shared model, so any
        # state one client leaves behind would change another's result
        model, server, train, split = make_federation(6, seed=21, dropout=0.25)
        fed = FederationConfig(batch_size=8, participation_rate=0.5)
        agg = AggregatorConfig()
        stream = RngStream(42)
        for t in range(3):
            global_before = server.global_vector
            participants, _ = run_round(model, server, train, fed, agg, LossSpec(), t, stream)
            # (a) replaying the participants in reverse order on the same
            # model aggregates to the same bytes
            updates = {}
            for cid in reversed(participants):
                vec, steps = train_participants(
                    model, train, [cid], {}, global_before, fed, agg, LossSpec(),
                    [stream.child("local", t, cid)], round_index=t,
                )[0]
                updates[cid] = (vec, train.sizes[cid], steps)
            replay = aggregate(
                [updates[cid] for cid in participants], global_before, agg,
                ServerState(global_before, len(train.sizes)),
            )
            assert replay.tobytes() == server.global_vector.tobytes()
            # (b) the reports equal those of a fresh model under the round's vector
            fresh, _, _, _ = make_federation(6, seed=21, dropout=0.25)
            expected, got = (
                personalized_evaluate(split_probs(m, server.global_vector, split), split, 15, "equal_width")["per_client"]
                for m in (fresh, model)
            )
            assert expected == got

    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_rounds_leave_every_model_array_unchanged(self, head):
        model, server, train, split = make_federation(4, head=head, seed=39, dropout=0.25)
        before = model_array_bytes(model)
        fed = FederationConfig(batch_size=8, learning_rate=0.05)
        agg, spec, stream = AggregatorConfig("feddyn"), LossSpec("mdca", aux_weight=0.5), RngStream(40)
        for t in range(2):
            run_round(model, server, train, fed, agg, spec, t, stream)
            split_logits(model, server.global_vector, split)
        assert model_array_bytes(model) == before
        assert head == "zero_shot" or not np.array_equal(server.global_vector, model.initial)

    @pytest.mark.parametrize("aux", ["none", "dca", "mdca"])
    @pytest.mark.parametrize("kind", ["fedavg", "fedprox", "feddyn", "fednova"])
    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_lockstep_round_equals_each_client_alone(self, head, kind, aux):
        # with batches of 8, the clients' steps mix full batches with ragged
        # tails of 5, 8 (exact fit), 5 and 1 rows; client 3 holds no rows
        sizes = [21, 13, 8, 0, 5, 17]
        model, server, train, split = make_federation(len(sizes), head=head, seed=32, dropout=0.25, per_client=sizes)
        fed = FederationConfig(batch_size=8, local_epochs=2, learning_rate=0.05, warmup_lr=0.01)
        agg = AggregatorConfig(kind, mu_prox=0.3, alpha_dyn=0.2)
        spec = LossSpec(aux, aux_weight=0.5)
        stream = RngStream(33)
        ids = list(range(len(sizes)))
        for t in range(2):
            before, dual_mean = server.global_vector, server.dual_mean.copy()
            duals = [server.duals[cid].copy() if cid in server.duals else None for cid in ids]
            alone = []
            for cid, dual in zip(ids, duals):
                vec, steps = sequential_local_train(
                    model, own_rows(train, cid), dual, before, fed, agg, spec, stream.child("local", t, cid), t
                )
                alone.append((vec, steps, np.linalg.norm(vec - before)))
            want_steps = [0 if head == "zero_shot" else 2 * -(-n // 8) for n in sizes]
            assert [steps for _, steps, _ in alone] == want_steps

            streams = [stream.child("local", t, cid) for cid in ids]
            lockstep = train_participants(model, train, ids, server.duals, before, fed, agg, spec, streams, t)
            for (vec, steps), (want, want_steps, _) in zip(lockstep, alone, strict=True):
                assert vec.tobytes() == want.tobytes()
                assert steps == want_steps

            participants, norms = run_round(model, server, train, fed, agg, spec, t, stream)
            assert participants == ids
            updates = [(vec, n, steps) for (vec, steps, _), n in zip(alone, sizes)]
            want = aggregate(updates, before, agg, ServerState(before, len(sizes), dual_mean))
            assert server.global_vector.tobytes() == want.tobytes()
            assert np.array(norms).tobytes() == np.array([norm for _, _, norm in alone]).tobytes()
            if kind == "feddyn":
                for cid, dual, (vec, _, _) in zip(ids, duals, alone):
                    want_dual = (0.0 if dual is None else dual) - agg.alpha_dyn * (vec - before)
                    assert server.duals[cid].tobytes() == want_dual.tobytes()
            else:
                assert server.duals == {}

    @pytest.mark.parametrize("aux", ["none", "dca", "mdca"])
    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_lockstep_round_across_the_blas_switch(self, head, aux):
        # 64 -> 128 -> 64 products, where BLAS gives a row of a small batch other bits
        # than the same row of a larger product; batches of 32 rows end in 1, 9, 9,
        # 10, 18, 19 and 31 real rows, padded to 32 beside full ones in one stack
        sizes = [33, 41, 41, 42, 50, 51, 63, 64, 96, 32]
        model, server, train, split = make_federation(len(sizes), head=head, seed=40, dropout=0.25, d=64,
                                                      per_client=sizes, test_per_client=1)
        fed = FederationConfig(batch_size=32, learning_rate=0.05, warmup_lr=0.01)
        agg, spec, stream = AggregatorConfig(), LossSpec(aux, aux_weight=0.5), RngStream(41)
        ids = list(range(len(sizes)))
        streams = [stream.child("local", 0, cid) for cid in ids]
        lockstep = train_participants(model, train, ids, server.duals, server.global_vector, fed, agg, spec, streams)
        for cid, (vec, steps) in zip(ids, lockstep, strict=True):
            want, want_steps = sequential_local_train(model, own_rows(train, cid), None, server.global_vector, fed, agg,
                                                      spec, stream.child("local", 0, cid))
            assert vec.tobytes() == want.tobytes()
            assert steps == want_steps == (0 if head == "zero_shot" else -(-sizes[cid] // 32))

    def test_full_stack_equals_each_client_alone(self):
        # uneven clients: eight 32-row batches fill a stack of STACK_ROWS rows, ragged
        # batches share stacks with full ones, and a stack holds at most eight clients
        sizes = [64, 64, 40, 33, 32, 70, 9, 64, 100, 5, 64]
        model, server, train, split = make_federation(len(sizes), seed=36, dropout=0.25, per_client=sizes,
                                                      test_per_client=1)
        fed = FederationConfig(batch_size=32, learning_rate=0.05, warmup_lr=0.01)
        agg, spec, stream = AggregatorConfig(), LossSpec("mdca", aux_weight=0.5), RngStream(37)
        ids = list(range(len(sizes)))
        alone = [
            sequential_local_train(model, own_rows(train, cid), None, server.global_vector, fed, agg, spec,
                                   stream.child("local", 0, cid))
            for cid in ids
        ]
        clients = []
        rows = count_forwards(model, clients=clients)
        streams = [stream.child("local", 0, cid) for cid in ids]
        lockstep = train_participants(model, train, ids, server.duals, server.global_vector, fed, agg, spec, streams)
        stacks = list(zip(rows, clients, strict=True))
        per_stack = STACK_ROWS // 32
        assert per_stack == 8 and (STACK_ROWS, 8) in stacks
        # every minibatch is padded to 32 rows, so every stack is K blocks of 32 rows
        assert all(rows == 32 * clients and clients <= per_stack for rows, clients in stacks)
        batches = [-(-n // 32) for n in sizes]
        schedule = [sum(step < b for b in batches) for step in range(max(batches))]
        assert schedule == [11, 8, 2, 1]
        assert len(stacks) == sum(-(-active // per_stack) for active in schedule) == 5
        for (vec, steps), (want, want_steps), b in zip(lockstep, alone, batches, strict=True):
            assert vec.tobytes() == want.tobytes() and steps == want_steps == b

    def test_non_finite_client_in_a_stack_names_client_round_and_step(self):
        model, server, train, split = make_federation(5, seed=34, per_client=16)
        fed = FederationConfig(batch_size=8)
        stream = RngStream(35)
        run_round(model, server, train, fed, AggregatorConfig(), LossSpec(), 0, stream)
        # all five clients share each 8-row step, so client 3 fails inside a stack
        own_rows(train, 3)[0][11, 2] = np.nan
        order = stream.child("local", 1, 3).child("shuffle", 0).permutation(16)
        step = int(np.flatnonzero(order == 11)[0]) // 8
        with pytest.raises(NumericError, match=rf"on client 3, round 1, step {step}$"):
            run_round(model, server, train, fed, AggregatorConfig(), LossSpec(), 1, stream)

        # clients of 16, 13, 13, 13 and 9 rows: step 1 stacks batches of 8, 5, 5, 5 and 1
        # real rows, each padded to 8, and client 3 fails there, in its padded rows too
        model, server, train, split = make_federation(5, seed=34, per_client=[16, 13, 13, 13, 9])
        run_round(model, server, train, fed, AggregatorConfig(), LossSpec(), 0, stream)
        order = stream.child("local", 1, 3).child("shuffle", 0).permutation(13)
        own_rows(train, 3)[0][order[10], 2] = np.nan
        with pytest.raises(NumericError, match=r"on client 3, round 1, step 1$"):
            run_round(model, server, train, fed, AggregatorConfig(), LossSpec(), 1, stream)

    def test_round_reports_cover_all_clients(self):
        model, server, train, split = make_federation(5, seed=22)
        fed = FederationConfig(batch_size=8, participation_rate=0.4)
        participants, norms = run_round(model, server, train, fed, AggregatorConfig(), LossSpec(), 0, RngStream(1))
        assert len(participants) == len(norms) == 2
        per_client = personalized_evaluate(split_probs(model, server.global_vector, split), split)["per_client"]
        assert len(per_client) == 5
        assert all(r is not None for r in per_client)

    def test_update_norm_zero_before_any_training(self):
        model, server, train, split = make_federation(3, seed=23)
        fed = FederationConfig(batch_size=8, local_epochs=0)
        _, norms = run_round(model, server, train, fed, AggregatorConfig(), LossSpec(), 0, RngStream(2))
        assert norms == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_every_trained_head_records_an_update_norm(self, head):
        model, server, train, split = make_federation(3, head=head, seed=25)
        fed = FederationConfig(batch_size=8)
        _, norms = run_round(model, server, train, fed, AggregatorConfig(), LossSpec(), 0, RngStream(4))
        assert len(norms) == 3
        if head == "zero_shot":
            assert norms == [0.0, 0.0, 0.0]
        else:
            assert all(norm > 0.0 for norm in norms)

    def test_feddyn_round_updates_client_duals(self):
        model, server, train, split = make_federation(2, seed=24)
        fed = FederationConfig(batch_size=8)
        run_round(model, server, train, fed, AggregatorConfig("feddyn"), LossSpec(), 0, RngStream(3))
        assert sorted(server.duals) == [0, 1]
        assert any(np.linalg.norm(dual) > 0 for dual in server.duals.values())

    def test_lazy_duals_equal_eager_zero_duals(self):
        # 3 of 10 clients take part in each of 4 rounds, so some take part twice and some
        # never; the eager copy gives every client a zero dual up front, as a dense FedDyn would
        model, server, train, split = make_federation(10, seed=38, dropout=0.25, per_client=16)
        eager_model, eager_server, eager_train, _ = make_federation(10, seed=38, dropout=0.25, per_client=16)
        eager_duals = {cid: np.zeros(eager_model.initial.size) for cid in range(10)}
        fed = FederationConfig(batch_size=8, participation_rate=0.3, learning_rate=0.05, warmup_lr=0.01)
        agg, spec, stream = AggregatorConfig("feddyn", alpha_dyn=0.2), LossSpec(), RngStream(39)
        taken = []
        for t in range(4):
            participants, _ = run_round(model, server, train, fed, agg, spec, t, stream)
            ids = sample_participants(10, 0.3, stream.child("participants", t)).tolist()
            assert ids == participants
            before, updates = eager_server.global_vector, []
            for cid in ids:
                vec, steps = sequential_local_train(
                    eager_model, own_rows(eager_train, cid), eager_duals[cid], before, fed, agg, spec,
                    stream.child("local", t, cid), t,
                )
                updates.append((vec, eager_train.sizes[cid], steps))
            eager_server.global_vector = aggregate(updates, before, agg, eager_server)
            for cid, (vec, _, _) in zip(ids, updates):
                eager_duals[cid] = eager_duals[cid] - agg.alpha_dyn * (vec - before)
            assert server.global_vector.tobytes() == eager_server.global_vector.tobytes()
            for cid in ids:
                assert server.duals[cid].tobytes() == eager_duals[cid].tobytes()
            taken += ids
        never = set(range(10)) - set(taken)
        assert never and len(set(taken)) < len(taken)
        assert sorted(server.duals) == sorted(set(taken)) and never.isdisjoint(server.duals)


class TestPersonalizedEvaluate:
    def test_identical_clients_average_equals_single(self):
        model, server, train, split = make_federation(3, seed=25)
        view = split.x[: split.sizes[0]], split.y[: split.sizes[0]]
        split = gather_split([view] * 3)
        out = personalized_evaluate(split_probs(model, server.global_vector, split), split)
        single = out["per_client"][0]
        for key, value in out["mean"].items():
            assert value == pytest.approx(single[key], abs=1e-12)

    def test_mean_accuracy_of_opposite_clients(self):
        model, server, train, split = make_federation(2, seed=26)
        # force client 0 all-correct and client 1 all-wrong labels
        (x0, _), (x1, _) = held_out_views(split)
        right = model.forward(x0, server.global_vector).argmax(axis=1)
        wrong = (model.forward(x1, server.global_vector).argmax(axis=1) + 1) % 4
        split = gather_split([(x0, right), (x1, wrong)])
        out = personalized_evaluate(split_probs(model, server.global_vector, split), split)
        assert out["mean"]["accuracy"] == pytest.approx(0.5)

    def test_empty_test_view_excluded_with_flag(self):
        model, server, train, split = make_federation(3, seed=27, test_per_client=[12, 0, 12])
        out = personalized_evaluate(split_probs(model, server.global_vector, split), split)
        assert out["excluded"] == [1]
        assert out["per_client"][1] is None

    def test_every_view_empty_is_rejected(self):
        model, server, train, split = make_federation(2, seed=27, test_per_client=0)
        with pytest.raises(InvalidInputError, match="every client has an empty test view"):
            personalized_evaluate(np.empty((0, 4)), split)

    def test_base_new_breakdown_with_harmonic_mean(self):
        model, server, train, split = make_federation(2, seed=28)
        split = base_new_split(split, [6, 6])
        out = evaluate_base_new(split_probs(model, server.global_vector, split), split)
        assert out["base"] is not None and out["new"] is not None
        hm = out["harmonic_mean"]["accuracy"]
        b, n = out["base"]["accuracy"], out["new"]["accuracy"]
        expected = 0.0 if (b == 0 and n == 0) else 2 * b * n / (b + n)
        assert hm == pytest.approx(expected)


def per_client_reference(model, vector, views, bins=15, scheme="equal_width"):
    """One forward under ``vector`` and one calibration_report per non-empty (x, y) view."""
    return [
        None if view is None or len(view[1]) == 0
        else calibration_report(ProbBatch(softmax_rows(model.forward(view[0], vector)), view[1]), bins, scheme)
        for view in views
    ]


def assert_reports_close(got, want):
    """``got`` scalar dicts within 1e-12 of the ``want`` reports, ``None`` where they are ``None``."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert g.keys() == scalars(w).keys()
        for key, value in scalars(w).items():
            assert abs(g[key] - value) <= 1e-12, key


def base_new_views(split):
    """Each client's (own rows, shared rows) ``(x, y)`` pair of views of ``split``."""
    own = len(split.y) - split.shared
    bounds = np.cumsum(split.sizes)[:-1]
    shared = split.x[own:], split.y[own:]
    return [((x, y), shared) for x, y in zip(np.split(split.x[:own], bounds), np.split(split.y[:own], bounds))]


def held_out_views(split):
    """The per-client ``(x, y)`` test views of ``split``: own rows, then the shared rows."""
    return [(np.concatenate([mine[0], shared[0]]), np.concatenate([mine[1], shared[1]]))
            for mine, shared in base_new_views(split)]


def base_new_split(split, base_sizes, new_rows=None):
    """``split``'s views cut into base rows and shared new rows: client k's own rows become its
    first ``base_sizes[k]`` rows, and ``new_rows`` (client 0's remaining rows by default) are shared."""
    views = held_out_views(split)
    if new_rows is None:
        new_rows = views[0][0][base_sizes[0]:], views[0][1][base_sizes[0]:]
    return gather_split([(x[:b], y[:b]) for (x, y), b in zip(views, base_sizes)], new_rows)


class TestBlockedEvaluation:
    def trained_federation(self, sizes, seed=30):
        model, server, train, split = make_federation(len(sizes), seed=seed, test_per_client=sizes)
        fed = FederationConfig(batch_size=8)
        run_round(model, server, train, fed, AggregatorConfig(), LossSpec(), 1, RngStream(seed))
        return model, server.global_vector, split

    @pytest.mark.parametrize("scheme", ["equal_width", "equal_mass"])
    def test_empty_views_in_the_middle(self, scheme):
        model, vector, split = self.trained_federation([5, 0, 9, 0, 0, 1, 12])
        out = personalized_evaluate(split_probs(model, vector, split), split, 15, scheme)
        assert out["excluded"] == [1, 3, 4]
        want = per_client_reference(model, vector, held_out_views(split), 15, scheme)
        assert_reports_close(out["per_client"], want)

    @pytest.mark.parametrize(
        "sizes, blocks",
        [
            # a view over the block size goes alone, between small ones
            ([3, 300, 4, 5], [3, 300, 9]),
            # views that would cross the block boundary start the next block
            ([250, 10, 1, 255, 2], [250, 11, 255, 2]),
            # an exact fit closes the block
            ([200, 56, 1], [256, 1]),
            # empty views neither open nor close a block
            ([0, 300, 0, 4, 0], [300, 4]),
        ],
    )
    def test_block_boundaries(self, sizes, blocks):
        assert EVAL_BLOCK_ROWS == 256  # the cases are cut for this block size
        model, vector, split = self.trained_federation(sizes)
        want = per_client_reference(model, vector, held_out_views(split))
        calls = count_forwards(model)
        out = personalized_evaluate(split_probs(model, vector, split), split)
        assert calls == blocks
        assert_reports_close(out["per_client"], want)

    def test_one_forward_for_twelve_small_clients(self):
        model, vector, split = self.trained_federation([1 + i % 10 for i in range(12)])
        calls = count_forwards(model)
        split_logits(model, vector, split)
        assert len(calls) == 1

    def test_blocks_are_slices_of_the_split_and_one_table_is_built(self, monkeypatch):
        # mechanism, no timings: no block is a copy, and no per-client report object is made
        model, vector, split = self.trained_federation([3, 300, 0, 4, 250, 5, 1])
        forwarded, tables, reports = [], [], []
        calls = count_forwards(model, forwarded)
        segmented_reports, report_init = federation.segmented_reports, calibration.CalibrationReport.__init__

        def recorded_table(*args, **kwargs):
            tables.append(segmented_reports(*args, **kwargs))
            return tables[-1]

        def recorded_report(self, *args, **kwargs):
            reports.append(self)
            report_init(self, *args, **kwargs)

        monkeypatch.setattr(federation, "segmented_reports", recorded_table)
        monkeypatch.setattr(calibration.CalibrationReport, "__init__", recorded_report)
        out = personalized_evaluate(split_probs(model, vector, split), split)
        assert calls == [3, 300, 254, 6]
        assert all(np.shares_memory(x, split.x) for x in forwarded)
        assert len(tables) == 1 and reports == []
        assert [len(column) for column in tables[0].columns.values()] == [6] * 6
        assert len(out["per_client"]) == 7

    @pytest.mark.parametrize("scheme", ["equal_width", "equal_mass"])
    def test_shared_rows_close_every_view_and_are_forwarded_once(self, scheme):
        model, vector, split = self.trained_federation([6, 0, 250, 4, 30])
        split = base_new_split(split, [6, 0, 250, 4, 0], new_rows=held_out_views(split)[4])
        assert split.shared == 30 and len(split.y) == 260 + 30
        forwarded = []
        calls = count_forwards(model, forwarded)
        out = personalized_evaluate(split_probs(model, vector, split), split, 15, scheme)
        # own rows in blocks as without shared rows, then the shared rows in one more forward
        assert calls == [256, 4, 30]
        assert all(x.base is split.x for x in forwarded)
        assert out["excluded"] == []
        assert_reports_close(out["per_client"], per_client_reference(model, vector, held_out_views(split), 15, scheme))
        # clients 1 and 4 have no own rows: their views are the shared rows alone
        alone = per_client_reference(model, vector, [base_new_views(split)[0][1]], 15, scheme)
        assert_reports_close([out["per_client"][1], out["per_client"][4]], alone * 2)

    def test_base_new_parts_match_per_client(self):
        model, vector, split = self.trained_federation([8, 6, 9, 4])
        split = base_new_split(split, [4, 0, 5, 2])
        out = evaluate_base_new(split_probs(model, vector, split), split, 15, "equal_mass")
        assert set(out) == {"base", "new", "harmonic_mean"}
        views = base_new_views(split)
        # base: the mean of the clients' own-row reports, client 1 (no own rows) skipped
        base = per_client_reference(model, vector, [v[0] for v in views], 15, "equal_mass")
        assert base[1] is None
        (new,) = per_client_reference(model, vector, [views[0][1]], 15, "equal_mass")
        for key, value in out["base"].items():
            expected = np.mean([scalars(w)[key] for w in base if w is not None])
            assert abs(value - expected) <= 1e-12
        for key, value in out["new"].items():
            assert abs(value - scalars(new)[key]) <= 1e-12

    def test_base_new_forwards_the_shared_new_view_once(self):
        model, vector, split = self.trained_federation([20, 20, 20, 20, 20])
        split = base_new_split(split, [5, 3, 4, 6, 2], new_rows=held_out_views(split)[4])
        calls = count_forwards(model)
        out = evaluate_base_new(split_probs(model, vector, split), split)
        # one block of the 20 base rows, one forward of the 20 shared new rows
        assert calls == [20, 20]
        new_x, new_y = base_new_views(split)[0][1]
        want = calibration_report(ProbBatch(softmax_rows(model.forward(new_x, vector)), new_y))
        assert out["new"] == scalars(want)

    def test_base_new_with_an_empty_part_everywhere(self):
        model, vector, split = self.trained_federation([4, 5])
        split = base_new_split(split, [4, 5], new_rows=(split.x[:0], split.y[:0]))
        out = evaluate_base_new(split_probs(model, vector, split), split)
        assert out["new"] is None and out["harmonic_mean"] is None
        want = per_client_reference(model, vector, held_out_views(split))
        for key, value in out["base"].items():
            assert abs(value - np.mean([scalars(w)[key] for w in want])) <= 1e-12

    @pytest.mark.parametrize("shared", [None, 9])
    def test_temperature_rows_match_per_client(self, shared):
        model, vector, split = self.trained_federation([7, 0, 300, 3, 9])
        if shared:  # base-to-new: client 4's rows become the rows every view ends with
            split = base_new_split(split, [7, 0, 300, 3, 0], new_rows=held_out_views(split)[4])
        temperatures = [0.5, 1.0, 2.0]
        rows = _temperature_rows(split_logits(model, vector, split), split, temperatures, 10, "equal_mass")
        assert [row["temperature"] for row in rows] == temperatures
        for row, tau in zip(rows, temperatures):
            reports = [
                calibration_report(
                    ProbBatch(apply_temperature(model.forward(x, vector), tau), y),
                    10, "equal_mass",
                )
                for x, y in held_out_views(split) if len(y)
            ]
            for key, value in row["mean"].items():
                assert abs(value - np.mean([scalars(r)[key] for r in reports])) <= 1e-12


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
