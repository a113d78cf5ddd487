"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the directional trend suite (criterion 9) is also exposed on the
command line as ``fedcalib bench``.
"""

import time

import numpy as np
import pytest

from fedcalib.bench import run_trend_suite
from fedcalib.calibration import (
    ProbBatch,
    apply_temperature,
    calibration_report,
    fit_temperature,
    harmonic_mean,
)
from fedcalib.config import parse_config
from fedcalib.federation import (
    AggregatorConfig,
    ServerState,
    aggregate,
    init_server,
    personalized_evaluate,
    run_round,
    train_participants,
)
from fedcalib.losses import LossSpec
from fedcalib.model import ModelConfig, zero_shot_init
from fedcalib.numerics import RngStream, l2_normalize_rows, softmax_rows
from fedcalib.partition import base_to_new_split, dirichlet_partition, heterogeneity_stats
from fedcalib.runner import (
    build_data,
    build_plan,
    client_views,
    run_single,
    _reconcile_model,
)

from fixtures import dataset_from_rows, dataset_rows, results_canonical_bytes, split_probs
from oracles import (
    naive_accuracy,
    naive_ace,
    naive_brier,
    naive_ece,
    naive_mce,
    naive_nll,
    naive_unpack,
    random_prob_batch,
)


def report(number, name, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:02d} PASS  {name}{suffix}")


def test_criterion_01_metric_oracle_equivalence():
    start = time.monotonic()
    rng = RngStream(1001)
    worst = 0.0
    for _ in range(100):
        probs, labels = random_prob_batch(rng, max_n=200, max_c=10)
        rep = calibration_report(ProbBatch(probs, labels), 15)
        diffs = [
            abs(rep.ece - naive_ece(probs, labels, 15)),
            abs(rep.mce - naive_mce(probs, labels, 15)),
            abs(rep.ace - naive_ace(probs, labels, 15)),
            abs(rep.brier - naive_brier(probs, labels)),
            abs(rep.nll - naive_nll(probs, labels)),
            abs(rep.accuracy - naive_accuracy(probs, labels)),
        ]
        worst = max(worst, max(diffs))
        assert max(diffs) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(1, "metric oracle equivalence on 100 batches",
           f"worst |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_binning_invariant_ten_thousand_batches():
    rng = RngStream(1002)
    violations = 0
    for _ in range(10_000):
        probs, labels = random_prob_batch(rng, max_n=50, max_c=8)
        rep = calibration_report(ProbBatch(probs, labels), 15)
        if rep.mce < rep.ece or rep.mce < rep.ace:
            violations += 1
    assert violations == 0
    report(2, "MCE >= ECE and MCE >= ACE on 10^4 batches", "0 violations")


def _grad_check_model(head, seed):
    protos = l2_normalize_rows(RngStream(seed, 4040).normal(4 * 8).reshape(4, 8))
    cfg = ModelConfig(embed_dim=8, class_count=4, head_kind=head,
                      lora_dropout=0.0, logit_scale=10.0)
    return zero_shot_init(cfg, protos, RngStream(seed, 4141))


def _loss_at(model, vec, x, labels, spec):
    from fedcalib.losses import total_loss

    logits = model.forward(x, vec, train=True)
    return total_loss(softmax_rows(logits), labels, spec).total


def test_criterion_03_gradient_checks():
    start = time.monotonic()
    heads = ["lora_both", "lora_text", "lora_vision", "prompt", "bitfit"]
    h = 1e-4
    worst = 0.0
    for i in range(20):
        head = heads[i % len(heads)]
        model = _grad_check_model(head, seed=2000 + i)
        rng = RngStream(3000 + i)
        x = rng.normal(6 * 8).reshape(6, 8)
        labels = (rng.u64(6) % np.uint64(4)).astype(np.int64)
        spec = LossSpec("none") if i % 2 == 0 else LossSpec("mdca", aux_weight=1.0)
        vec = model.initial
        model.forward(x, vec, train=True)
        _, analytic = model.backward(labels, spec)
        fd = np.zeros_like(vec)
        for j in range(vec.size):
            up, dn = vec.copy(), vec.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (_loss_at(model, up, x, labels, spec) - _loss_at(model, dn, x, labels, spec)) / (2 * h)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-4, f"{head} {spec.aux_kind}: rel err {rel.max():.2e}"

    # DCA through the model chain: finite differences of the detached
    # surrogate sign0 * (-mean(s)), labels and sign held fixed
    for i in range(5):
        model = _grad_check_model("lora_both", seed=2100 + i)
        rng = RngStream(3100 + i)
        x = rng.normal(6 * 8).reshape(6, 8)
        labels = (rng.u64(6) % np.uint64(4)).astype(np.int64)
        vec = model.initial
        model.forward(x, vec, train=True)
        _, grads_ce = model.backward(labels, LossSpec("none"))
        model.forward(x, vec, train=True)
        _, grads_tot = model.backward(labels, LossSpec("dca", aux_weight=1.0))
        dca_part = grads_tot - grads_ce

        probs0 = softmax_rows(model.forward(x, vec))
        m = len(labels)
        correct = (probs0.argmax(axis=1) == labels).astype(float)
        s0 = probs0[np.arange(m), labels]
        sign0 = np.sign(correct.mean() - s0.mean())
        assert sign0 != 0.0, "degenerate check point, pick another seed"

        def surrogate(v):
            probs = softmax_rows(model.forward(x, v))
            return sign0 * (-probs[np.arange(m), labels].mean())

        fd = np.zeros_like(vec)
        for j in range(vec.size):
            up, dn = vec.copy(), vec.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (surrogate(up) - surrogate(dn)) / (2 * h)
        rel = np.abs(dca_part - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-4, f"dca surrogate rel err {rel.max():.2e}"

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(3, "gradient checks vs central finite differences",
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def _one_client_federation(seed=7):
    cfg = parse_config(
        {
            "seed": seed,
            "model": {"head_kind": "lora_both"},
            "federation": {"rounds": 1, "participation_rate": 1.0, "batch_size": 16},
            "partition": {"num_clients": 1},
            "data": {"synthetic": {"class_count": 5, "dim": 16, "samples_per_class": 16}},
        }
    )
    rng = RngStream(cfg.seed)
    data, protos = build_data(cfg, rng.child("data"))
    plan = build_plan(cfg, data, rng.child("partition"))
    model = zero_shot_init(_reconcile_model(cfg, data), protos, rng.child("init"))
    train, _ = client_views(data, plan)
    server = init_server(model.initial, 1)
    return cfg, model, train, server


def test_criterion_04_aggregation_identities():
    # (a) single-client FedAvg is bit-identical to local training
    cfg, model, train, server = _one_client_federation()
    trained, steps = train_participants(
        model, train, [0], server.duals, server.global_vector, cfg.federation, cfg.aggregator,
        LossSpec(), [RngStream(0).child("local", 0, 0)], round_index=0,
    )[0]
    out = aggregate([(trained, train.sizes[0], steps)], server.global_vector,
                    AggregatorConfig("fedavg"), server)
    assert out.tobytes() == trained.tobytes()

    # (b) FedNova == FedAvg exactly when all clients take equal steps
    rng = RngStream(1004)
    for _ in range(100):
        k = 1 + int(rng.u64(1)[0] % 6)
        size = 1 + int(rng.u64(1)[0] % 40)
        steps = 1 + int(rng.u64(1)[0] % 9)
        updates = [
            (rng.normal(size), 1 + int(rng.u64(1)[0] % 50), steps) for _ in range(k)
        ]
        prev = rng.normal(size)
        avg = aggregate(updates, prev, AggregatorConfig("fedavg"), ServerState(prev, k))
        nova = aggregate(updates, prev, AggregatorConfig("fednova"), ServerState(prev, k))
        assert avg.tobytes() == nova.tobytes()

    # (c) fedavg weights sum to 1 within 1e-12 for all participant subsets
    for _ in range(200):
        k = 1 + int(rng.u64(1)[0] % 12)
        counts = [1 + int(v % 1000) for v in rng.u64(k)]
        total = sum(counts)
        assert abs(sum(d / total for d in counts) - 1.0) <= 1e-12
    report(4, "aggregation identities (single-client, fednova=fedavg, weight sums)")


def test_criterion_05_determinism_serial_vs_parallel():
    # a round's participants train in lockstep on one shared model per run,
    # so the risks to determinism are state leaking from one client to the
    # next and a client's result depending on the stack it trained in
    start = time.monotonic()
    payload = {
        "seed": 20,
        "model": {"head_kind": "lora_both"},
        "federation": {"rounds": 5, "participation_rate": 1.0},
        "partition": {"num_clients": 10, "alpha": 0.5},
    }
    cfg = parse_config(payload)
    rng = RngStream(cfg.seed)
    data, protos = build_data(cfg, rng.child("data"))
    plan = build_plan(cfg, data, rng.child("partition"))
    model_cfg = _reconcile_model(cfg, data)
    model = zero_shot_init(model_cfg, protos, rng.child("init"))
    train, split = client_views(data, plan)
    server = init_server(model.initial, plan.num_clients)
    bins, scheme = cfg.metrics.bins, cfg.metrics.scheme
    stream = rng.child("rounds")
    for t in range(cfg.federation.rounds):
        global_before = server.global_vector
        participants, round_norms = run_round(model, server, train, cfg.federation, cfg.aggregator,
                                              cfg.loss, t, stream)
        # (a) each participant replayed alone from its own stream, in reverse
        # order on the same model and on a freshly initialised model: both
        # replays agree byte for byte, aggregate to the same global bytes
        # and give the round's update norms
        updates, norms = {}, {}
        for cid in reversed(participants):
            vec, steps = train_participants(model, train, [cid], {}, global_before, cfg.federation,
                                            cfg.aggregator, cfg.loss, [stream.child("local", t, cid)], t)[0]
            alone = zero_shot_init(model_cfg, protos, RngStream(cfg.seed).child("init"))
            vec_alone, steps_alone = train_participants(
                alone, train, [cid], {}, global_before, cfg.federation, cfg.aggregator, cfg.loss,
                [stream.child("local", t, cid)], t,
            )[0]
            assert vec.tobytes() == vec_alone.tobytes() and steps == steps_alone
            updates[cid] = (vec, train.sizes[cid], steps)
            norms[cid] = np.linalg.norm(vec_alone - global_before)
        replay = aggregate([updates[cid] for cid in participants], global_before,
                           cfg.aggregator, ServerState(global_before, len(train.sizes)))
        assert replay.tobytes() == server.global_vector.tobytes()
        assert np.array(round_norms).tobytes() == np.array([norms[cid] for cid in participants]).tobytes()
        # (b) every client's report equals one from a freshly initialised
        # model under the round's global vector
        fresh = zero_shot_init(model_cfg, protos, RngStream(cfg.seed).child("init"))
        expected, got = (
            personalized_evaluate(split_probs(m, server.global_vector, split), split, bins, scheme)
            for m in (fresh, model)
        )
        assert expected["per_client"] == got["per_client"]

    # (c) runs in one process do not leak into each other: a run of another
    # head in between leaves the canonical bytes unchanged
    first = run_single(cfg)
    run_single(parse_config({**payload, "model": {"head_kind": "prompt"}}))
    again = run_single(cfg)
    assert results_canonical_bytes(first) == results_canonical_bytes(again)
    assert first["final_global_vector"] == server.global_vector.tolist()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report(5, "lockstep training on a shared model: updates replayed alone, fresh-model "
           "reports and repeated runs byte-identical", f"{elapsed:.1f}s")


def _balanced_dataset(samples_per_class, class_count):
    n = samples_per_class * class_count
    labels = np.repeat(np.arange(class_count), samples_per_class)
    emb = np.ones((n, 2))
    return dataset_from_rows(emb, labels, np.zeros(n, dtype=np.int64), class_count,
                             np.ones(n, dtype=bool))


def test_criterion_06_partition_statistics():
    data = _balanced_dataset(1000, 10)  # 1e4 balanced samples
    train_total = len(data.train_indices())

    tv_bad = 0
    for seed in range(100):
        plan = dirichlet_partition(data, 10, 1000.0, RngStream(seed, 6001))
        assert plan.total_assigned() == train_total  # conservation, every seed
        props = heterogeneity_stats(plan)["proportions"]
        tv = 0.5 * np.abs(props - 0.1).sum(axis=1)
        if np.any(tv >= 0.1):
            tv_bad += 1
    assert tv_bad <= 1, f"{tv_bad}/100 seeds exceed TV 0.1"

    ent_bad = 0
    for seed in range(100):
        plan = dirichlet_partition(data, 10, 0.05, RngStream(seed, 6002))
        assert plan.total_assigned() == train_total
        entropy = heterogeneity_stats(plan)["entropy"]
        if entropy.mean() >= 0.5 * np.log(10):
            ent_bad += 1
    assert ent_bad <= 5, f"{ent_bad}/100 seeds too uniform"
    report(6, "partition statistics",
           f"alpha=1000 TV violations {tv_bad}/100, alpha=0.05 entropy violations {ent_bad}/100")


def test_criterion_07_lora_structure_after_training():
    payload = {
        "seed": 31,
        "model": {"head_kind": "lora_both"},
        "federation": {"rounds": 50, "participation_rate": 1.0, "batch_size": 16},
        "partition": {"num_clients": 4, "alpha": 0.5},
        "data": {"synthetic": {"class_count": 5, "dim": 16, "samples_per_class": 20}},
    }
    cfg = parse_config(payload)
    rng = RngStream(cfg.seed)
    data, protos = build_data(cfg, rng.child("data"))
    model_cfg = _reconcile_model(cfg, data)

    # B = 0 initialization: predictions bit-identical to zero-shot
    zs_cfg = ModelConfig(**{**model_cfg.__dict__, "head_kind": "zero_shot"})
    zs = zero_shot_init(zs_cfg, protos, RngStream(cfg.seed).child("init"))
    lora = zero_shot_init(model_cfg, protos, RngStream(cfg.seed).child("init"))
    x = dataset_rows(data)[data.test_indices()]
    assert zs.forward(x, zs.initial).tobytes() == lora.forward(x, lora.initial).tobytes()

    # rank structure after 50 rounds of federated training
    results = run_single(cfg)
    trained = zero_shot_init(model_cfg, protos, RngStream(cfg.seed).child("init"))
    parts = naive_unpack(trained, np.asarray(results["final_global_vector"]))
    r = model_cfg.lora_rank
    checked = 0
    for stack in ("img", "txt"):
        for i in range(len(trained.weights)):
            delta = model_cfg.lora_scale * (parts[stack, i, "A"] @ parts[stack, i, "B"])
            assert np.any(delta != 0.0), "training left an adapter untouched"
            singulars = np.linalg.svd(delta, compute_uv=False)
            assert np.all(singulars[r:] < 1e-8)
            checked += 1
    report(7, "LoRA low-rank structure after 50 rounds",
           f"{checked} adapted layers, trailing singular values < 1e-8")


def test_criterion_08_temperature_scaling():
    rng = RngStream(1008)
    taus = (0.1, 0.5, 1.0, 2.0, 5.0)
    for trial in range(20):
        n, c = 64, 6
        logits = rng.normal(n * c).reshape(n, c) * 4.0
        labels = logits.argmax(axis=1)
        flips = rng.random(n) < 0.3
        labels[flips] = (rng.u64(n)[flips] % np.uint64(c)).astype(np.int64)

        def scaled(tau):
            return calibration_report(ProbBatch(apply_temperature(logits, tau), labels))

        base_acc = scaled(1.0).accuracy
        for tau in taus:
            assert scaled(tau).accuracy == base_acc
        fitted = fit_temperature(logits, labels)
        nll_fit = scaled(fitted).nll
        nll_one = scaled(1.0).nll
        assert nll_fit <= nll_one
    report(8, "temperature scaling: accuracy invariant, fitted tau never hurts NLL")


@pytest.mark.slow  # ~1 minute; the budget in the contract is 5
def test_criterion_09_directional_trends():
    start = time.monotonic()
    rows = run_trend_suite()
    elapsed = time.monotonic() - start
    for name, passed, detail in rows:
        assert passed, f"{name}: {detail}"
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    details = "; ".join(f"{name}: {detail}" for name, _, detail in rows)
    report(9, "directional trend reproduction", f"{details}; {elapsed:.0f}s")


def test_criterion_10_base_to_new_pipeline():
    assert f"{harmonic_mean(89.34, 89.83):.2f}" == "89.58"

    data_labels = np.repeat(np.arange(12), 10)
    n = len(data_labels)
    data = dataset_from_rows(
        np.ones((n, 2)), data_labels, np.zeros(n, dtype=np.int64), 12,
        (np.arange(n) % 10) < 7,
    )
    for seed in range(50):
        plan = base_to_new_split(data, 4, RngStream(seed, 6010))
        new_eval = plan.shared_test
        base = set(plan.metadata["base_classes"])
        new = set(plan.metadata["new_classes"])
        assert not (base & new)
        assert base | new == set(range(12))
        assert set(data.labels[new_eval].tolist()) == new
    report(10, "base-to-new pipeline",
           "HM(89.34, 89.83) = 89.58; base/new disjoint on 50 seeds")
