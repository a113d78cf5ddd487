"""End-to-end experiment orchestration and results emission.

``run_experiment`` builds the dataset, partitions it per the configured
setting, initializes one zero-shot model that every client trains in turn,
runs the communication rounds, and assembles a results dictionary that
serializes to a canonical JSON ResultsFile. After each round the new global
vector is forwarded once over the run's test rows, and that round's report
is built from those logits; the final base/new breakdown and the
temperature sweep reuse the last round's logits. Re-running the same config
reproduces every numeric field byte for byte; wall-clock metadata lives in
a ``meta`` section that comparisons strip.

The dataset is authoritative for embedding dimension and class count; the
model section adopts them.

Output files per run: ``results.json``, ``summary.csv`` (percent
convention, two decimals), and reliability diagrams for the final round.
Sweep configs write one run directory per grid point plus a merged
comparison CSV. The partition audit (``point_plans`` and ``plan_outputs``)
draws each point's plan as its run does and puts it in the same directory.
Every verb writes through ``write_outputs``: all file payloads are built in
memory before anything is written, and a failed write sweeps up whatever it
had already put on disk.

A run makes each row once: the plan is drawn from the dataset's labels,
domain and split tags before any row exists, then ``client_views``
allocates the training and the test ``RowSplit`` and writes each block of
rows straight into its client-ordered positions, so no dataset matrix sits
beside the splits. A client is an index into both: its training rows are a
slice of the training split, and its test view a slice of the test split,
which holds base-to-new's shared new-class rows once and which evaluation
slices into blocks. FedDyn's per-client duals live on the server.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibration import apply_temperature, reliability_csv, reliability_svg
from .config import ExperimentConfig, config_echo, expand_sweep
from .datagen import generate_synthetic, load_embeddings
from .errors import ConfigError, FormatError, InvalidInputError
from .federation import (
    RowSplit,
    evaluate_base_new,
    init_server,
    personalized_evaluate,
    run_round,
    split_logits,
)
from .model import ModelConfig, zero_shot_init
from .numerics import RngStream, softmax_rows
from .partition import (
    LabeledDataset,
    PartitionPlan,
    base_to_new_split,
    canonical_json as results_json,
    client_entropy,
    dirichlet_partition,
    domain_partition,
    heterogeneity_stats,
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
    return base_to_new_split(data, spec.num_clients, rng)


def client_views(data: LabeledDataset, plan: PartitionPlan) -> tuple:
    """The training and the test rows as two ``RowSplit``s: every client's own
    rows in client order, then, for the test rows, the plan's shared rows.
    Both splits are allocated first; each block of ``data.rows()`` is then
    written once, straight into the positions its rows hold in them."""
    splits, where = [], np.full((2, data.sample_count), -1)  # a row's position in each split, or -1
    for dest, per_client, shared in zip(where, (plan.train_indices, plan.test_indices), ((), plan.shared_test)):
        ix = np.concatenate([np.asarray(part, dtype=np.int64) for part in [*per_client, shared]])
        dest[ix] = np.arange(len(ix))
        sizes = np.array([len(part) for part in per_client])
        splits.append(RowSplit(np.empty((len(ix), data.dim)), data.labels[ix], sizes, len(shared)))
    for start, block in data.rows():
        for dest, split in zip(where[:, start : start + len(block)], splits):
            kept = dest >= 0
            split.x[dest[kept]] = block[kept]
    return tuple(splits)


def _reconcile_model(config: ExperimentConfig, data: LabeledDataset) -> ModelConfig:
    return replace(config.model, embed_dim=data.dim, class_count=data.class_count)


def _temperature_rows(logits: np.ndarray, split: RowSplit, temperatures, bins, scheme) -> list:
    """Per-tau client-averaged metrics of ``logits``, one row per row of ``split``."""
    return [
        {"temperature": float(tau),
         "mean": personalized_evaluate(apply_temperature(logits, tau), split, bins, scheme)["mean"]}
        for tau in temperatures
    ]


def _data_and_plan(config: ExperimentConfig, rng: RngStream) -> tuple:
    """Dataset, text prototypes and partition plan of one run, drawn from
    ``rng``'s ``data`` and ``partition`` streams; no synthetic row is made.
    Domain generalization needs at least 2 domains in the loaded data,
    synthetic or read from files."""
    data, text_protos = build_data(config, rng.child("data"))
    if config.setting == "domain_generalization" and data.domain_count() < 2:
        raise ConfigError(f"domain_generalization needs data with at least 2 domains, got {data.domain_count()}")
    return data, text_protos, build_plan(config, data, rng.child("partition"))


def _set_up(config: ExperimentConfig, rng: RngStream) -> tuple:
    """Plan, reconciled model config, model, training split and test split of
    one run. The plan needs no row, and ``client_views`` makes each row once,
    in place in the splits; the dataset is dropped on return, so the splits
    hold the run's only copy of the rows."""
    data, text_protos, plan = _data_and_plan(config, rng)
    if not any(map(len, [*plan.test_indices, plan.shared_test])):
        raise ConfigError("no client holds a test sample, so no round can be evaluated "
                          "(synthetic data needs samples_per_class >= 2 for a test split)")
    if config.loss.aux_kind == "mdca" and data.class_count < 2:
        raise ConfigError(f"loss.aux_kind 'mdca' needs at least 2 classes, the data has {data.class_count}")
    model_config = _reconcile_model(config, data)
    model = zero_shot_init(model_config, text_protos, rng.child("init"))
    return (plan, model_config, model, *client_views(data, plan))


def run_single(config: ExperimentConfig) -> dict:
    """Run one (non-sweep) experiment and return its results dictionary."""
    started = time.time()
    rng = RngStream(config.seed)
    plan, model_config, model, train, split = _set_up(config, rng)
    server = init_server(model.initial, plan.num_clients)

    bins, scheme = config.metrics.bins, config.metrics.scheme
    round_stream = rng.child("rounds")
    round_rows = []
    for t in range(config.federation.rounds):
        logits = probs = None  # the previous round's arrays are not held through training
        participants, norms = run_round(
            model, server, train, config.federation, config.aggregator, config.loss, t, round_stream
        )
        vector = server.global_vector
        logits = split_logits(model, vector, split)
        probs = softmax_rows(logits)
        evaluation = personalized_evaluate(probs, split, bins, scheme)
        round_rows.append(
            {
                "round": t,
                "participants": participants,
                "excluded": evaluation["excluded"],
                "update_norms": norms,
                "mean": evaluation["mean"],
                "per_client": evaluation["per_client"],
                "global_vector_sha256": hashlib.sha256(vector.tobytes()).hexdigest(),
                "global_vector_l2": float(np.linalg.norm(vector)),
            }
        )

    # the last round's logits and report are the final global vector's
    final: dict = {
        "mean": dict(evaluation["mean"]),
        "per_client": evaluation["per_client"],
        "excluded": list(evaluation["excluded"]),
        "pooled_bins": evaluation["pooled_bins"],
    }
    if config.setting == "base_to_new":
        final.update(evaluate_base_new(probs, split, bins, scheme))

    results = {
        "config": config_echo(replace(config, model=model_config)),
        "method": config.method_name(),
        "plan": {
            "histograms": plan.histograms.tolist(),
            "client_entropy": client_entropy(plan.histograms).tolist(),
            "kind": plan.metadata.get("kind"),
        },
        "rounds": round_rows,
        "final": final,
        "final_global_vector": server.global_vector.tolist(),
        "meta": {"wall_clock_seconds": time.time() - started},
    }
    if config.metrics.temperatures:
        results["temperature_sweep"] = _temperature_rows(logits, split, config.metrics.temperatures, bins, scheme)
    return results


def summary_csv(results_list, axes=()) -> str:
    """Percent-convention summary table, one row per (method, setting) line;
    after the setting, one column per sweep axis in ``axes`` with each run's
    value from its ``sweep_point``."""
    lines = [",".join(["method", "setting", *axes, "acc", "ece", "mce", "ace", "brier", "nll"])]

    def row(method, setting, scalars):
        cells = [method, setting, *point] + [
            f"{scalars[k] * 100:.2f}" for k in ("accuracy", "ece", "mce", "ace", "brier", "nll")
        ]
        return ",".join(cells)

    for results in results_list:
        method = results["method"]
        setting = results["config"]["setting"]
        point = [f"{results['sweep_point'][axis]}" for axis in axes]
        final = results["final"]
        if final.get("harmonic_mean"):
            lines.append(row(method, f"{setting}:base", final["base"]))
            lines.append(row(method, f"{setting}:new", final["new"]))
            lines.append(row(method, f"{setting}:hm", final["harmonic_mean"]))
        else:
            lines.append(row(method, setting, final["mean"]))
    return "\n".join(lines) + "\n"


def _run_dir(index: int, point: dict) -> str:
    """Directory of sweep point ``index``'s outputs, ``run_{index:03d}_{tag}``,
    where the tag lists the point's axis values by axis name; a name that
    is not one plain path component is an ``InvalidInputError``."""
    name = f"run_{index:03d}_" + "_".join(f"{k}-{point[k]}" for k in sorted(point))
    if any(char in name for char in "/\\\0"):
        raise InvalidInputError(f"sweep point {point} names run directory {name!r}, not one plain path component")
    return name


def render_outputs(results: dict, kinds=("json", "csv", "svg")) -> dict:
    """Map of relative path -> payload for the outputs of one run, or of a
    sweep's merged results: each point's outputs in its ``_run_dir``, plus
    ``sweep_summary.csv`` with a column per sweep axis, sorted by name as in
    ``_run_dir``."""
    out = {}
    if "runs" in results:
        for index, run in enumerate(results["runs"]):
            directory = _run_dir(index, run.get("sweep_point", {}))
            for name, payload in render_outputs(run, kinds).items():
                out[f"{directory}/{name}"] = payload
        if "csv" in kinds:
            axes = sorted({axis for run in results["runs"] for axis in run.get("sweep_point", {})})
            out["sweep_summary.csv"] = summary_csv(results["runs"], axes)
        return out
    if "json" in kinds:
        out["results.json"] = results_json(results)
    if "csv" in kinds:
        out["summary.csv"] = summary_csv([results])
    if "svg" in kinds:
        bins = results["final"]["pooled_bins"]
        title = f"{results['method']} ({results['config']['setting']})"
        out["reliability.svg"] = reliability_svg(bins, title=title)
        out["reliability.csv"] = reliability_csv(bins)
    return out


def point_plans(config: ExperimentConfig) -> dict:
    """The partition plan of each point that ``run_experiment`` runs, keyed by
    the prefix of that point's output paths: "" for a plain config, else the
    point's run directory and a slash."""
    return {
        f"{_run_dir(index, point)}/" if config.sweep else "": _data_and_plan(sub, RngStream(sub.seed))[2]
        for index, (point, sub) in enumerate(expand_sweep(config))
    }


def plan_outputs(plans: dict) -> dict:
    """Map of relative path -> payload of each plan's ``plan.json`` and its
    ``plan_audit.json``: per-client entropy, class overlap and proportions,
    and train and test-view sizes (a test view counts the shared rows)."""
    out = {}
    for prefix, plan in plans.items():
        audit = {name: stat.tolist() for name, stat in heterogeneity_stats(plan).items()}
        audit["train_sizes"] = [len(ix) for ix in plan.train_indices]
        audit["test_sizes"] = [len(ix) + len(plan.shared_test) for ix in plan.test_indices]
        out[f"{prefix}plan.json"] = plan.to_json()
        out[f"{prefix}plan_audit.json"] = results_json(audit)
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


def write_outputs(payloads: dict, out_dir) -> list:
    """Write each relative path's payload under ``out_dir``, all or none;
    returns the written paths, sorted."""
    by_path = {Path(out_dir) / path: payload for path, payload in payloads.items()}
    _write_all(by_path)
    return sorted(by_path)


def _keep_step_memory() -> None:
    """Have glibc serve arrays below 4 MiB from its heap and keep up to 8 MiB of
    it freed (no-op without glibc). Its defaults rise only once a large array
    is freed; a set-up that frees none leaves each step's ~1 MB of temporaries
    to be returned and faulted back every step (train_heavy: 360k faults)."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run a config and optionally write its outputs.

    Returns the results dict of a plain config, or for a sweep a dict whose
    ``runs`` list holds each point's results, in ``expand_sweep`` order, each
    with its ``sweep_point``.
    """
    _keep_step_memory()
    if not config.sweep:
        results = run_single(config)
    else:
        results = {"runs": [{**run_single(sub), "sweep_point": point} for point, sub in expand_sweep(config)]}
    if out_dir is not None:
        write_outputs(render_outputs(results), out_dir)
    return results


def load_results(path) -> dict:
    """The ResultsFile at ``path``: a run's object with a ``final`` object, or a
    sweep's with a ``runs`` list of them, that ``render_outputs`` can render;
    else ``FormatError`` naming the file."""
    with open(path) as fh:
        try:
            results = json.load(fh)
        except ValueError as err:  # not JSON, or not UTF-8
            raise FormatError(f"{path}: not a JSON file ({err})") from err
    runs = results.get("runs", [results]) if isinstance(results, dict) else None
    if not isinstance(runs, list) or not all(isinstance(r, dict) and isinstance(r.get("final"), dict) for r in runs):
        raise FormatError(f"{path}: not a ResultsFile (expected an object with a 'final' object or a 'runs' list)")
    try:
        render_outputs(results, ("csv", "svg"))  # the json kind reads no key
    except (LookupError, TypeError, ValueError) as err:
        raise FormatError(f"{path}: not a ResultsFile ({err.__class__.__name__} {err} when rendering it)") from err
    return results
