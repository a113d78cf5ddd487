"""Experiment configuration: JSON schema, validation, defaults, sweeps.

A config file is a JSON object with optional sections ``model``,
``federation``, ``aggregator``, ``loss``, ``partition``, ``metrics``,
``data`` and ``sweep`` plus top-level ``seed`` and ``setting``. Every key
is validated and unknown keys are rejected with the offending path. An
empty object yields the reference defaults: LoRA rank 2 with dropout 0.25,
SGD at 1e-3 with warm-up 1e-5, 50 rounds of local epoch 1 at batch 32,
Dirichlet alpha 0.5, and 15 equal-width calibration bins.

Client-count defaults follow the setting: 100 clients at 10% participation
in distribution, 2 clients per domain at full participation for domain
generalization, and 10 clients at full participation for base-to-new.

Sweep axes (``alpha``, ``rounds``, ``rank``, ``head_kind``,
``participation``) expand into a cross-product of runs, each with a seed
derived from the base seed and the grid point. Temperature sweeps are an
evaluation-time axis configured under ``metrics.temperatures``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .federation import AGGREGATOR_KINDS, AggregatorConfig, FederationConfig
from .losses import AUX_KINDS, LossSpec
from .model import HEAD_KINDS, ModelConfig
from .datagen import SyntheticSpec
from .numerics import derive_id

SETTINGS = ("in_distribution", "domain_generalization", "base_to_new")
PARTITION_KINDS = ("dirichlet", "sort_partition", "base_to_new", "domain")
BIN_SCHEMES = ("equal_width", "equal_mass")
SWEEP_AXES = ("alpha", "rounds", "rank", "head_kind", "participation")


@dataclass(frozen=True)
class PartitionSpec:
    kind: str = "dirichlet"
    alpha: float = 0.5
    num_clients: int = 100
    classes_per_client: int = 2
    clients_per_domain: int = 2

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise ConfigError(f"partition.kind must be one of {PARTITION_KINDS}, got {self.kind!r}")
        if self.kind in ("dirichlet", "domain") and self.alpha <= 0:
            raise ConfigError(f"partition.alpha must be positive, got {self.alpha}")
        if self.num_clients < 1:
            raise ConfigError("partition.num_clients must be at least 1")
        if self.clients_per_domain < 1:
            raise ConfigError("partition.clients_per_domain must be at least 1")


@dataclass(frozen=True)
class MetricConfig:
    bins: int = 15
    scheme: str = "equal_width"
    temperatures: tuple = ()

    def __post_init__(self):
        if self.bins < 1:
            raise ConfigError("metrics.bins must be at least 1")
        if self.scheme not in BIN_SCHEMES:
            raise ConfigError(f"metrics.scheme must be one of {BIN_SCHEMES}, got {self.scheme!r}")
        for tau in self.temperatures:
            if not tau > 0:
                raise ConfigError(f"metrics.temperatures entries must be positive, got {tau}")


@dataclass(frozen=True)
class DataSource:
    synthetic: SyntheticSpec | None = None
    embedding_files: dict | None = None  # {"train":, "test":, "prototypes":}

    def __post_init__(self):
        if (self.synthetic is None) == (self.embedding_files is None):
            raise ConfigError("exactly one data source (synthetic or embedding_files) is required")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    setting: str = "in_distribution"
    model: ModelConfig = field(default_factory=ModelConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    loss: LossSpec = field(default_factory=LossSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    metrics: MetricConfig = field(default_factory=MetricConfig)
    data: DataSource = field(default_factory=lambda: DataSource(synthetic=SyntheticSpec()))
    sweep: dict = field(default_factory=dict)

    def method_name(self) -> str:
        if self.loss.aux_kind == "none":
            return self.model.head_kind
        return f"{self.model.head_kind}+{self.loss.aux_kind}"


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a JSON object")


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")


def _get(obj, key, kinds, path, predicate=None, constraint=""):
    value = obj[key]
    if kinds is bool:
        ok = isinstance(value, bool)
    elif kinds is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        value = float(value) if ok else value
    elif kinds is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kinds)
    if not ok:
        raise ConfigError(f"'{path}.{key}' must be {constraint or kinds}")
    if predicate is not None and not predicate(value):
        raise ConfigError(f"'{path}.{key}' violates constraint: {constraint}")
    return value


def _parse_model(obj, defaults: ModelConfig) -> ModelConfig:
    path = "model"
    _require_mapping(obj, path)
    allowed = {
        "embed_dim", "class_count", "encoder_widths", "head_kind", "lora_rank",
        "lora_alpha", "lora_dropout", "logit_scale", "prompt_length",
    }
    _check_keys(obj, allowed, path)
    kw = {}
    if "embed_dim" in obj:
        kw["embed_dim"] = _get(obj, "embed_dim", int, path, lambda v: v >= 2, "an integer >= 2")
    if "class_count" in obj:
        kw["class_count"] = _get(obj, "class_count", int, path, lambda v: v >= 1, "an integer >= 1")
    if "encoder_widths" in obj:
        widths = _get(obj, "encoder_widths", list, path, constraint="a list of positive integers")
        if not all(isinstance(w, int) and not isinstance(w, bool) and w >= 1 for w in widths):
            raise ConfigError("'model.encoder_widths' must be a list of positive integers")
        kw["encoder_widths"] = tuple(widths)
    if "head_kind" in obj:
        kw["head_kind"] = _get(obj, "head_kind", str, path, lambda v: v in HEAD_KINDS, f"one of {HEAD_KINDS}")
    if "lora_rank" in obj:
        kw["lora_rank"] = _get(obj, "lora_rank", int, path, lambda v: v >= 1, "an integer >= 1")
    if "lora_alpha" in obj:
        kw["lora_alpha"] = _get(obj, "lora_alpha", float, path, lambda v: v > 0, "a positive number")
    if "lora_dropout" in obj:
        kw["lora_dropout"] = _get(obj, "lora_dropout", float, path, lambda v: 0 <= v < 1, "in [0, 1)")
    if "logit_scale" in obj:
        kw["logit_scale"] = _get(obj, "logit_scale", float, path, lambda v: v > 0, "a positive number")
    if "prompt_length" in obj:
        kw["prompt_length"] = _get(obj, "prompt_length", int, path, lambda v: v >= 1, "an integer >= 1")
    merged = {**_dataclass_kwargs(defaults), **kw}
    return ModelConfig(**merged)


def _dataclass_kwargs(dc) -> dict:
    return {f: getattr(dc, f) for f in dc.__dataclass_fields__}


def _parse_federation(obj, defaults: FederationConfig) -> FederationConfig:
    path = "federation"
    _require_mapping(obj, path)
    allowed = {"rounds", "local_epochs", "batch_size", "learning_rate", "warmup_lr", "participation_rate"}
    _check_keys(obj, allowed, path)
    kw = {}
    if "rounds" in obj:
        kw["rounds"] = _get(obj, "rounds", int, path, lambda v: v >= 1, "an integer >= 1")
    if "local_epochs" in obj:
        kw["local_epochs"] = _get(obj, "local_epochs", int, path, lambda v: v >= 0, "an integer >= 0")
    if "batch_size" in obj:
        kw["batch_size"] = _get(obj, "batch_size", int, path, lambda v: v >= 1, "an integer >= 1")
    if "learning_rate" in obj:
        kw["learning_rate"] = _get(obj, "learning_rate", float, path, lambda v: v > 0, "a positive number")
    if "warmup_lr" in obj:
        kw["warmup_lr"] = _get(obj, "warmup_lr", float, path, lambda v: v > 0, "a positive number")
    if "participation_rate" in obj:
        kw["participation_rate"] = _get(obj, "participation_rate", float, path, lambda v: 0 < v <= 1, "in (0, 1]")
    return FederationConfig(**{**_dataclass_kwargs(defaults), **kw})


def _parse_aggregator(obj, defaults: AggregatorConfig) -> AggregatorConfig:
    path = "aggregator"
    _require_mapping(obj, path)
    _check_keys(obj, {"kind", "mu_prox", "alpha_dyn"}, path)
    kw = {}
    if "kind" in obj:
        kw["kind"] = _get(obj, "kind", str, path, lambda v: v in AGGREGATOR_KINDS, f"one of {AGGREGATOR_KINDS}")
    if "mu_prox" in obj:
        kw["mu_prox"] = _get(obj, "mu_prox", float, path, lambda v: v > 0, "a positive number")
    if "alpha_dyn" in obj:
        kw["alpha_dyn"] = _get(obj, "alpha_dyn", float, path, lambda v: v > 0, "a positive number")
    return AggregatorConfig(**{**_dataclass_kwargs(defaults), **kw})


def _parse_loss(obj, defaults: LossSpec) -> LossSpec:
    path = "loss"
    _require_mapping(obj, path)
    _check_keys(obj, {"aux_kind", "aux_weight"}, path)
    kw = {}
    if "aux_kind" in obj:
        kw["aux_kind"] = _get(obj, "aux_kind", str, path, lambda v: v in AUX_KINDS, f"one of {AUX_KINDS}")
    if "aux_weight" in obj:
        kw["aux_weight"] = _get(obj, "aux_weight", float, path, lambda v: v >= 0, "a non-negative number")
    return LossSpec(**{**_dataclass_kwargs(defaults), **kw})


def _parse_partition(obj, defaults: PartitionSpec) -> PartitionSpec:
    path = "partition"
    _require_mapping(obj, path)
    _check_keys(obj, {"kind", "alpha", "num_clients", "classes_per_client", "clients_per_domain"}, path)
    kw = {}
    if "kind" in obj:
        kw["kind"] = _get(obj, "kind", str, path, lambda v: v in PARTITION_KINDS, f"one of {PARTITION_KINDS}")
    if "alpha" in obj:
        kw["alpha"] = _get(obj, "alpha", float, path, lambda v: v > 0, "a positive number")
    if "num_clients" in obj:
        kw["num_clients"] = _get(obj, "num_clients", int, path, lambda v: v >= 1, "an integer >= 1")
    if "classes_per_client" in obj:
        kw["classes_per_client"] = _get(obj, "classes_per_client", int, path, lambda v: v >= 1, "an integer >= 1")
    if "clients_per_domain" in obj:
        kw["clients_per_domain"] = _get(obj, "clients_per_domain", int, path, lambda v: v >= 1, "an integer >= 1")
    return PartitionSpec(**{**_dataclass_kwargs(defaults), **kw})


def _parse_metrics(obj, defaults: MetricConfig) -> MetricConfig:
    path = "metrics"
    _require_mapping(obj, path)
    _check_keys(obj, {"bins", "scheme", "temperatures"}, path)
    kw = {}
    if "bins" in obj:
        kw["bins"] = _get(obj, "bins", int, path, lambda v: v >= 1, "an integer >= 1")
    if "scheme" in obj:
        kw["scheme"] = _get(obj, "scheme", str, path, lambda v: v in BIN_SCHEMES, f"one of {BIN_SCHEMES}")
    if "temperatures" in obj:
        taus = _get(obj, "temperatures", list, path, constraint="a list of positive numbers")
        if not all(isinstance(t, (int, float)) and not isinstance(t, bool) and t > 0 for t in taus):
            raise ConfigError("'metrics.temperatures' must be a list of positive numbers")
        kw["temperatures"] = tuple(float(t) for t in taus)
    return MetricConfig(**{**_dataclass_kwargs(defaults), **kw})


def _parse_synthetic(obj) -> SyntheticSpec:
    path = "data.synthetic"
    _require_mapping(obj, path)
    allowed = {"class_count", "dim", "samples_per_class", "noise_sigma", "domain_count", "train_fraction"}
    _check_keys(obj, allowed, path)
    kw = {}
    if "class_count" in obj:
        kw["class_count"] = _get(obj, "class_count", int, path, lambda v: v >= 1, "an integer >= 1")
    if "dim" in obj:
        kw["dim"] = _get(obj, "dim", int, path, lambda v: v >= 2, "an integer >= 2")
    if "samples_per_class" in obj:
        kw["samples_per_class"] = _get(obj, "samples_per_class", int, path, lambda v: v >= 1, "an integer >= 1")
    if "noise_sigma" in obj:
        kw["noise_sigma"] = _get(obj, "noise_sigma", float, path, lambda v: v > 0, "a positive number")
    if "domain_count" in obj:
        kw["domain_count"] = _get(obj, "domain_count", int, path, lambda v: v >= 1, "an integer >= 1")
    if "train_fraction" in obj:
        kw["train_fraction"] = _get(obj, "train_fraction", float, path, lambda v: 0 < v < 1, "in (0, 1)")
    return SyntheticSpec(**kw)


def _parse_data(obj, setting: str) -> DataSource:
    path = "data"
    _require_mapping(obj, path)
    _check_keys(obj, {"synthetic", "embedding_files"}, path)
    if "synthetic" in obj and "embedding_files" in obj:
        raise ConfigError("'data' must name exactly one source, got both")
    if "embedding_files" in obj:
        files = obj["embedding_files"]
        _require_mapping(files, "data.embedding_files")
        _check_keys(files, {"train", "test", "prototypes"}, "data.embedding_files")
        for key in ("train", "test", "prototypes"):
            if key not in files:
                raise ConfigError(f"'data.embedding_files.{key}' is required")
            if not isinstance(files[key], str):
                raise ConfigError(f"'data.embedding_files.{key}' must be a path string")
        return DataSource(embedding_files=dict(files))
    synth = obj.get("synthetic", {})
    spec = _parse_synthetic(synth)
    if "domain_count" not in synth and setting == "domain_generalization":
        spec = SyntheticSpec(**{**_dataclass_kwargs(spec), "domain_count": 4})
    return DataSource(synthetic=spec)


def _parse_sweep(obj) -> dict:
    path = "sweep"
    _require_mapping(obj, path)
    _check_keys(obj, set(SWEEP_AXES), path)
    sweep = {}
    for axis in SWEEP_AXES:
        if axis not in obj:
            continue
        values = obj[axis]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"'sweep.{axis}' must be a non-empty list")
        if axis == "head_kind":
            if not all(v in HEAD_KINDS for v in values):
                raise ConfigError(f"'sweep.head_kind' entries must be one of {HEAD_KINDS}")
        elif axis in ("rounds", "rank"):
            if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in values):
                raise ConfigError(f"'sweep.{axis}' entries must be integers >= 1")
        else:
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in values):
                raise ConfigError(f"'sweep.{axis}' entries must be positive numbers")
            if axis == "participation" and not all(v <= 1 for v in values):
                raise ConfigError("'sweep.participation' entries must be in (0, 1]")
        sweep[axis] = list(values)
    return sweep


def _setting_defaults(setting: str) -> tuple:
    """(partition kind, num_clients, participation) reference defaults."""
    if setting == "in_distribution":
        return "dirichlet", 100, 0.1
    if setting == "domain_generalization":
        return "domain", 100, 1.0  # client count comes from domains x clients_per_domain
    return "base_to_new", 10, 1.0


def parse_config(payload: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig."""
    _require_mapping(payload, "config")
    allowed = {"seed", "setting", "model", "federation", "aggregator", "loss",
               "partition", "metrics", "data", "sweep"}
    _check_keys(payload, allowed, "")
    setting = payload.get("setting", "in_distribution")
    if setting not in SETTINGS:
        raise ConfigError(f"'setting' must be one of {SETTINGS}, got {setting!r}")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("'seed' must be a non-negative integer")

    part_kind, default_clients, default_rate = _setting_defaults(setting)
    partition_defaults = PartitionSpec(kind=part_kind, num_clients=default_clients)
    federation_defaults = FederationConfig(participation_rate=default_rate)

    model = _parse_model(payload.get("model", {}), ModelConfig())
    federation = _parse_federation(payload.get("federation", {}), federation_defaults)
    aggregator = _parse_aggregator(payload.get("aggregator", {}), AggregatorConfig())
    loss = _parse_loss(payload.get("loss", {}), LossSpec())
    partition = _parse_partition(payload.get("partition", {}), partition_defaults)
    metrics = _parse_metrics(payload.get("metrics", {}), MetricConfig())
    data = _parse_data(payload.get("data", {}), setting)
    sweep = _parse_sweep(payload.get("sweep", {}))

    if setting == "base_to_new" and partition.kind != "base_to_new":
        raise ConfigError("setting 'base_to_new' requires partition.kind 'base_to_new'")
    if setting == "domain_generalization" and partition.kind != "domain":
        raise ConfigError("setting 'domain_generalization' requires partition.kind 'domain'")
    if setting == "in_distribution" and partition.kind not in ("dirichlet", "sort_partition"):
        raise ConfigError("setting 'in_distribution' requires partition.kind 'dirichlet' or 'sort_partition'")
    if data.embedding_files is None and data.synthetic.domain_count < 2 and setting == "domain_generalization":
        raise ConfigError("domain_generalization needs data with at least 2 domains")

    return ExperimentConfig(
        seed=seed, setting=setting, model=model, federation=federation,
        aggregator=aggregator, loss=loss, partition=partition, metrics=metrics,
        data=data, sweep=sweep,
    )


def read_config_json(path):
    """Read a JSON experiment config file without validating its schema."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config file."""
    return parse_config(read_config_json(path))


def config_echo(config: ExperimentConfig) -> dict:
    """Canonical JSON-ready dict echoing every effective setting."""
    model = _dataclass_kwargs(config.model)
    model["encoder_widths"] = list(config.model.hidden_widths())
    model["lora_alpha"] = config.model.lora_scale
    data: dict = {}
    if config.data.synthetic is not None:
        data["synthetic"] = _dataclass_kwargs(config.data.synthetic)
    else:
        data["embedding_files"] = dict(config.data.embedding_files)
    return {
        "seed": config.seed,
        "setting": config.setting,
        "model": model,
        "federation": _dataclass_kwargs(config.federation),
        "aggregator": _dataclass_kwargs(config.aggregator),
        "loss": _dataclass_kwargs(config.loss),
        "partition": _dataclass_kwargs(config.partition),
        "metrics": {**_dataclass_kwargs(config.metrics),
                    "temperatures": list(config.metrics.temperatures)},
        "data": data,
        "sweep": {k: list(v) for k, v in config.sweep.items()},
    }


def _apply_point(config: ExperimentConfig, point: dict) -> ExperimentConfig:
    model = config.model
    federation = config.federation
    partition = config.partition
    if "rank" in point:
        model = ModelConfig(**{**_dataclass_kwargs(model), "lora_rank": point["rank"]})
    if "head_kind" in point:
        model = ModelConfig(**{**_dataclass_kwargs(model), "head_kind": point["head_kind"]})
    fed_kw = _dataclass_kwargs(federation)
    if "rounds" in point:
        fed_kw["rounds"] = point["rounds"]
    if "participation" in point:
        fed_kw["participation_rate"] = float(point["participation"])
    federation = FederationConfig(**fed_kw)
    if "alpha" in point:
        partition = PartitionSpec(**{**_dataclass_kwargs(partition), "alpha": float(point["alpha"])})
    derived_seed = derive_id("sweep", config.seed, json.dumps(point, sort_keys=True)) % (2**63)
    return ExperimentConfig(
        seed=derived_seed, setting=config.setting, model=model, federation=federation,
        aggregator=config.aggregator, loss=config.loss, partition=partition,
        metrics=config.metrics, data=config.data, sweep={},
    )


def expand_sweep(config: ExperimentConfig) -> list:
    """Cross-product of sweep axes as (point, derived ExperimentConfig) pairs."""
    if not config.sweep:
        return [({}, config)]
    axes = sorted(config.sweep.keys())
    out = []
    for combo in itertools.product(*(config.sweep[a] for a in axes)):
        point = dict(zip(axes, combo))
        out.append((point, _apply_point(config, point)))
    return out
