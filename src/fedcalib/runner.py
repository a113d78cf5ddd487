"""End-to-end experiment orchestration and results emission.

``run_experiment`` builds the dataset, partitions it per the configured
setting, initializes one zero-shot model that every client trains in turn,
runs the communication rounds, and assembles a results dictionary that
serializes to a canonical JSON ResultsFile. Re-running the same config
reproduces every numeric field byte for byte; wall-clock metadata lives in
a ``meta`` section that comparisons strip.

The dataset is authoritative for embedding dimension and class count; the
model section adopts them.

Output files per run: ``results.json``, ``summary.csv`` (percent
convention, two decimals), and reliability diagrams for the final round.
Sweep configs write one run directory per grid point plus a merged
comparison CSV. All file payloads are built in memory before anything is
written, and a failed write sweeps up whatever it had already put on disk.

A run keeps one copy of the data: each split's rows are gathered once, in
client order, every client view is a slice of that copy, and the dataset
is dropped once the clients are built.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibration import (
    ReliabilityBins,
    TemperatureScaler,
    apply_temperature,
    reliability_csv,
    reliability_svg,
    segmented_reports,
)
from .config import ExperimentConfig, config_echo, expand_sweep
from .datagen import generate_synthetic, load_embeddings
from .federation import (
    blocked_logits,
    build_clients,
    client_mean,
    evaluate_base_new,
    init_server,
    run_round,
)
from .model import ModelConfig, zero_shot_init
from .numerics import RngStream
from .partition import (
    LabeledDataset,
    PartitionPlan,
    base_to_new_split,
    canonical_json as results_json,
    client_entropy,
    dirichlet_partition,
    domain_partition,
    sort_and_partition,
)


def build_data(config: ExperimentConfig, rng: RngStream):
    if config.data.synthetic is not None:
        return generate_synthetic(config.data.synthetic, rng)
    files = config.data.embedding_files
    return load_embeddings(files["train"], files["test"], files["prototypes"])


def build_plan(config: ExperimentConfig, data: LabeledDataset, rng: RngStream) -> PartitionPlan:
    spec = config.partition
    if spec.kind == "dirichlet":
        return dirichlet_partition(data, spec.num_clients, spec.alpha, rng)
    if spec.kind == "sort_partition":
        return sort_and_partition(data, spec.num_clients, spec.classes_per_client)
    if spec.kind == "domain":
        return domain_partition(data, spec.clients_per_domain, spec.alpha, rng)
    plan, _ = base_to_new_split(data, spec.num_clients, rng)
    return plan


def client_views(data: LabeledDataset, plan: PartitionPlan, setting: str) -> list:
    """Per-client views, each a row slice of its split's one gathered copy.

    In base-to-new a client's test view is its base-class rows, then the
    new-class rows, of which every client shares one copy as ``test_new``."""
    def gather(per_client):
        ix = np.concatenate(per_client)
        bounds = np.cumsum([len(part) for part in per_client])[:-1]
        return zip(np.split(data.embeddings[ix], bounds), np.split(data.labels[ix], bounds))

    views = [
        {"train_x": tx, "train_y": ty, "test_x": ex, "test_y": ey}
        for (tx, ty), (ex, ey) in zip(gather(plan.train_indices), gather(plan.test_indices))
    ]
    if setting == "base_to_new":
        new_ix = np.asarray(plan.metadata["test_new_indices"][0], dtype=np.int64)
        new_view = (data.embeddings[new_ix], data.labels[new_ix])
        for view, base_ix in zip(views, plan.metadata["test_base_indices"]):
            view["test_base"] = (view["test_x"][: len(base_ix)], view["test_y"][: len(base_ix)])
            view["test_new"] = new_view
    return views


def _reconcile_model(config: ExperimentConfig, data: LabeledDataset) -> ModelConfig:
    return replace(config.model, embed_dim=data.dim, class_count=data.class_count)


def _report_dicts(reports: list) -> list:
    return [None if r is None else {k: float(v) for k, v in r.scalars().items()} for r in reports]


def _bins_dict(bins: ReliabilityBins) -> dict:
    return {
        "scheme": bins.scheme,
        "counts": bins.counts.tolist(),
        "accuracy": bins.accuracy.tolist(),
        "confidence": bins.confidence.tolist(),
    }


def _bins_from_dict(payload: dict) -> ReliabilityBins:
    return ReliabilityBins(
        scheme=payload["scheme"],
        counts=np.asarray(payload["counts"], dtype=np.int64),
        accuracy=np.asarray(payload["accuracy"], dtype=np.float64),
        confidence=np.asarray(payload["confidence"], dtype=np.float64),
    )


def _temperature_rows(model, clients, temperatures, bins, scheme) -> list:
    """Per-tau client-averaged metrics on the final model, from one blocked forward."""
    logits, sizes = blocked_logits(model, [(c.test_x, c.test_y) for c in clients])
    rows = []
    for tau in temperatures:
        scaled = apply_temperature(logits, TemperatureScaler(float(tau)))
        reports = segmented_reports(scaled, sizes, bins, scheme)
        rows.append({"temperature": float(tau), "mean": client_mean(reports)})
    return rows


def _set_up(config: ExperimentConfig, rng: RngStream) -> tuple:
    """Plan, reconciled model config, model and clients of one run; the
    dataset is dropped on return, so the clients hold the run's only copy."""
    data, text_protos = build_data(config, rng.child("data"))
    plan = build_plan(config, data, rng.child("partition"))
    model_config = _reconcile_model(config, data)
    model = zero_shot_init(model_config, text_protos, rng.child("init"))
    clients = build_clients(client_views(data, plan, config.setting), model)
    return plan, model_config, model, clients


def run_single(config: ExperimentConfig) -> dict:
    """Run one (non-sweep) experiment and return its results dictionary."""
    started = time.time()
    rng = RngStream(config.seed)
    plan, model_config, model, clients = _set_up(config, rng)
    server = init_server(model, plan.num_clients)

    bins, scheme = config.metrics.bins, config.metrics.scheme
    round_stream = rng.child("rounds")
    round_rows = []
    drift_series = []
    for t in range(config.federation.rounds):
        record = run_round(
            model, server, clients, config.federation, config.aggregator, config.loss,
            t, round_stream, bins=bins, scheme=scheme,
        )
        round_rows.append(
            {
                "round": t,
                "participants": record.participants,
                "excluded": record.excluded_clients,
                "drift_mean": record.drift_mean,
                "drift_std": record.drift_std,
                "mean": record.mean,
                "per_client": _report_dicts(record.client_reports),
                "global_vector_sha256": hashlib.sha256(record.global_vector.tobytes()).hexdigest(),
                "global_vector_l2": float(np.linalg.norm(record.global_vector)),
            }
        )
        drift_series.append({"round": t, "mean": record.drift_mean, "std": record.drift_std})

    # the last round evaluated the final global vector, which the model still holds
    final: dict = {
        "mean": dict(record.mean),
        "per_client": _report_dicts(record.client_reports),
        "excluded": list(record.excluded_clients),
        "pooled_bins": _bins_dict(record.pooled_bins),
    }
    if config.setting == "base_to_new":
        bn = evaluate_base_new(model, clients, bins, scheme)
        final["base"] = bn["base"]
        final["new"] = bn["new"]
        final["harmonic_mean"] = bn["harmonic_mean"]

    results = {
        "config": config_echo(replace(config, model=model_config)),
        "method": config.method_name(),
        "plan": {
            "histograms": plan.histograms.tolist(),
            "client_entropy": client_entropy(plan.histograms).tolist(),
            "kind": plan.metadata.get("kind"),
        },
        "rounds": round_rows,
        "drift_series": drift_series,
        "final": final,
        "final_global_vector": server.global_vector.tolist(),
        "meta": {"wall_clock_seconds": time.time() - started},
    }
    if config.metrics.temperatures:
        results["temperature_sweep"] = _temperature_rows(
            model, clients, config.metrics.temperatures, bins, scheme
        )
    return results


def summary_csv(results_list) -> str:
    """Percent-convention summary table, one row per (method, setting) line."""
    lines = ["method,setting,acc,ece,mce,ace,brier,nll"]

    def row(method, setting, scalars):
        cells = [method, setting] + [
            f"{scalars[k] * 100:.2f}" for k in ("accuracy", "ece", "mce", "ace", "brier", "nll")
        ]
        return ",".join(cells)

    for results in results_list:
        method = results["method"]
        setting = results["config"]["setting"]
        final = results["final"]
        if "harmonic_mean" in final and final.get("harmonic_mean"):
            lines.append(row(method, f"{setting}:base", final["base"]))
            lines.append(row(method, f"{setting}:new", final["new"]))
            lines.append(row(method, f"{setting}:hm", final["harmonic_mean"]))
        else:
            lines.append(row(method, setting, final["mean"]))
    return "\n".join(lines) + "\n"


def render_outputs(results: dict, kinds=("json", "csv", "svg")) -> dict:
    """Map of filename -> payload for one run's outputs."""
    out = {}
    if "json" in kinds:
        out["results.json"] = results_json(results)
    if "csv" in kinds:
        out["summary.csv"] = summary_csv([results])
    if "svg" in kinds:
        bins = _bins_from_dict(results["final"]["pooled_bins"])
        title = f"{results['method']} ({results['config']['setting']})"
        out["reliability.svg"] = reliability_svg(bins, title=title)
        out["reliability.csv"] = reliability_csv(bins)
    return out


def _write_all(payload_by_path: dict) -> None:
    """Write every payload, or clean up the ones already written on failure."""
    written = []
    try:
        for path, payload in payload_by_path.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            mode = "wb" if isinstance(payload, bytes) else "w"
            with open(path, mode) as fh:
                fh.write(payload)
            written.append(path)
    except BaseException:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run a config (expanding sweeps) and optionally write its outputs.

    Returns the results dict for a plain config, or a dict with a
    ``points`` list for sweep configs.
    """
    points = expand_sweep(config)
    if len(points) == 1 and not points[0][0]:
        results = run_single(config)
        if out_dir is not None:
            base = Path(out_dir)
            _write_all({base / name: payload for name, payload in render_outputs(results).items()})
        return results

    all_results = []
    payloads = {}
    base = Path(out_dir) if out_dir is not None else None
    for index, (point, sub_config) in enumerate(points):
        results = run_single(sub_config)
        results["sweep_point"] = point
        all_results.append(results)
        if base is not None:
            tag = "_".join(f"{k}-{point[k]}" for k in sorted(point))
            run_dir = base / f"run_{index:03d}_{tag}"
            for name, payload in render_outputs(results).items():
                payloads[run_dir / name] = payload
    merged = {"points": [r["sweep_point"] for r in all_results], "runs": all_results}
    if base is not None:
        payloads[base / "sweep_summary.csv"] = summary_csv(all_results)
        _write_all(payloads)
    return merged


def load_results(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def emit_report(results: dict, kinds, out_dir) -> list:
    """Re-render outputs of a loaded ResultsFile; returns written paths."""
    base = Path(out_dir)
    if "runs" in results:
        payloads = {}
        for index, run in enumerate(results["runs"]):
            point = run.get("sweep_point", {})
            tag = "_".join(f"{k}-{point[k]}" for k in sorted(point))
            run_dir = base / f"run_{index:03d}_{tag}"
            for name, payload in render_outputs(run, kinds).items():
                payloads[run_dir / name] = payload
        if "csv" in kinds:
            payloads[base / "sweep_summary.csv"] = summary_csv(results["runs"])
        _write_all(payloads)
        return sorted(payloads)
    payloads = {base / name: payload for name, payload in render_outputs(results, kinds).items()}
    _write_all(payloads)
    return sorted(payloads)
