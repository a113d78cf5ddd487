"""Experiment configuration: JSON schema, validation, defaults, sweeps.

A config file is a JSON object with optional sections ``model``,
``federation``, ``aggregator``, ``loss``, ``partition``, ``metrics``,
``data`` and ``sweep`` plus top-level ``seed`` and ``setting``. An empty
object yields the reference defaults: LoRA rank 2 with dropout 0.25, SGD
at 1e-3 with warm-up 1e-5, 50 rounds of local epoch 1 at batch 32,
Dirichlet alpha 0.5, and 15 equal-width calibration bins.

Each section is read by one field-driven reader, ``_section``: its keys
must name fields of the section's dataclass and its values must have the
JSON type of the field's annotation. Bounds live in each dataclass's
``__post_init__`` only. Every error is a ConfigError naming the JSON path
of the offending key.

Client-count defaults follow the setting: 100 clients at 10% participation
in distribution, 2 clients per domain at full participation for domain
generalization, and 10 clients at full participation for base-to-new.

Sweep axes (``alpha``, ``rounds``, ``rank``, ``head_kind``,
``participation``) each replace one section field and expand into a
cross-product of runs, each with a seed derived from the base seed and the
grid point. Temperature sweeps are an evaluation-time axis configured under
``metrics.temperatures``.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .federation import AggregatorConfig, FederationConfig
from .losses import LossSpec
from .model import ModelConfig
from .datagen import SyntheticSpec
from .numerics import derive_id

# setting -> (allowed partition kinds, the first being the default; default
# num_clients; default participation rate)
SETTINGS = {
    "in_distribution": (("dirichlet", "sort_partition"), 100, 0.1),
    # client count comes from domains x clients_per_domain
    "domain_generalization": (("domain",), 100, 1.0),
    "base_to_new": (("base_to_new",), 10, 1.0),
}
PARTITION_KINDS = ("dirichlet", "sort_partition", "base_to_new", "domain")
BIN_SCHEMES = ("equal_width", "equal_mass")
# sweep axis -> (section, field) it replaces
SWEEP_AXES = {
    "alpha": ("partition", "alpha"),
    "rounds": ("federation", "rounds"),
    "rank": ("model", "lora_rank"),
    "head_kind": ("model", "head_kind"),
    "participation": ("federation", "participation_rate"),
}


@dataclass(frozen=True)
class PartitionSpec:
    kind: str = "dirichlet"
    alpha: float = 0.5
    num_clients: int = 100
    classes_per_client: int = 2
    clients_per_domain: int = 2

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise ConfigError(f"kind must be one of {PARTITION_KINDS}, got {self.kind!r}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.num_clients < 1:
            raise ConfigError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.classes_per_client < 1:
            raise ConfigError(f"classes_per_client must be >= 1, got {self.classes_per_client}")
        if self.clients_per_domain < 1:
            raise ConfigError(f"clients_per_domain must be >= 1, got {self.clients_per_domain}")


@dataclass(frozen=True)
class MetricConfig:
    bins: int = 15
    scheme: str = "equal_width"
    temperatures: tuple[float, ...] = ()

    def __post_init__(self):
        if self.bins < 1:
            raise ConfigError(f"bins must be >= 1, got {self.bins}")
        if self.scheme not in BIN_SCHEMES:
            raise ConfigError(f"scheme must be one of {BIN_SCHEMES}, got {self.scheme!r}")
        for tau in self.temperatures:
            if not tau > 0:
                raise ConfigError(f"temperatures entries must be positive, got {tau}")


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


def _check_object(obj, allowed, path):
    """Reject ``obj`` unless it is a JSON object whose keys are all in ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}


def _json_value(value, hint, path):
    """``value`` as the annotated type ``hint``: ints become floats, lists tuples.

    ``X | None`` also takes null; a bool is never an int or a float, and a
    float must be finite (Python's ``json`` reads ``Infinity`` and ``NaN``).
    """
    args = get_args(hint)
    if type(None) in args:
        return None if value is None else _json_value(value, args[0], path)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return tuple(_json_value(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        raise ConfigError(f"{path} must be {_JSON_TYPES[hint]}, got {value!r}")
    if hint is not float:
        return value
    if not abs(value) <= sys.float_info.max:  # also false for NaN and for an int beyond the float range
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _section(obj, cls, path: str, **defaults):
    """Build the section dataclass ``cls`` from JSON object ``obj`` over ``defaults``.

    Bounds are left to ``cls.__post_init__``, whose messages start with the
    field name; its ConfigError is re-raised prefixed with ``path``.
    """
    hints = get_type_hints(cls)
    _check_object(obj, hints, path)
    kw = {**defaults, **{key: _json_value(value, hints[key], f"{path}.{key}") for key, value in obj.items()}}
    try:
        return cls(**kw)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _parse_data(obj, setting: str) -> DataSource:
    _check_object(obj, {"synthetic", "embedding_files"}, "data")
    if "synthetic" in obj and "embedding_files" in obj:
        raise ConfigError("'data' must name exactly one source, got both")
    if "embedding_files" in obj:
        files = obj["embedding_files"]
        _check_object(files, {"train", "test", "prototypes"}, "data.embedding_files")
        for key in ("train", "test", "prototypes"):
            if key not in files:
                raise ConfigError(f"'data.embedding_files.{key}' is required")
            if not isinstance(files[key], str):
                raise ConfigError(f"'data.embedding_files.{key}' must be a path string")
        return DataSource(embedding_files=dict(files))
    domains = {"domain_count": 4} if setting == "domain_generalization" else {}
    return DataSource(synthetic=_section(obj.get("synthetic", {}), SyntheticSpec, "data.synthetic", **domains))


def _parse_sweep(obj, config: ExperimentConfig) -> dict:
    """Sweep lists as given, each value checked by applying it to ``config``."""
    _check_object(obj, SWEEP_AXES, "sweep")
    for axis, values in obj.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{axis} must be a non-empty list")
        for value in values:
            try:
                _apply_point(config, {axis: value})
            except ConfigError as exc:
                raise ConfigError(f"sweep.{axis} entry {value!r}: {exc}") from None
    return {axis: list(obj[axis]) for axis in SWEEP_AXES if axis in obj}


def parse_config(payload: dict) -> ExperimentConfig:
    """Validate a parsed JSON object into an ExperimentConfig."""
    _check_object(payload, {f.name for f in fields(ExperimentConfig)}, "")
    setting = payload.get("setting", "in_distribution")
    if setting not in SETTINGS:
        raise ConfigError(f"'setting' must be one of {tuple(SETTINGS)}, got {setting!r}")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("'seed' must be a non-negative integer")

    part_kinds, default_clients, default_rate = SETTINGS[setting]
    config = ExperimentConfig(
        seed=seed,
        setting=setting,
        model=_section(payload.get("model", {}), ModelConfig, "model"),
        federation=_section(payload.get("federation", {}), FederationConfig, "federation",
                            participation_rate=default_rate),
        aggregator=_section(payload.get("aggregator", {}), AggregatorConfig, "aggregator"),
        loss=_section(payload.get("loss", {}), LossSpec, "loss"),
        partition=_section(payload.get("partition", {}), PartitionSpec, "partition",
                           kind=part_kinds[0], num_clients=default_clients),
        metrics=_section(payload.get("metrics", {}), MetricConfig, "metrics"),
        data=_parse_data(payload.get("data", {}), setting),
    )
    for i, tau in enumerate(config.metrics.temperatures):
        # a logit is logit_scale times a cosine; the factor 2 is headroom for its rounding
        if not 2.0 * config.model.logit_scale / tau <= sys.float_info.max:
            raise ConfigError(f"metrics.temperatures[{i}] {tau!r} is too small: logits / tau would overflow")
    if config.partition.kind not in part_kinds:
        raise ConfigError(f"setting {setting!r} requires partition.kind in {part_kinds}")
    return replace(config, sweep=_parse_sweep(payload.get("sweep", {}), config))


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
    echo = asdict(config)
    echo["model"].update(encoder_widths=list(config.model.hidden_widths()), lora_alpha=config.model.lora_scale)
    echo["metrics"]["temperatures"] = list(config.metrics.temperatures)
    echo["data"] = {k: v for k, v in echo["data"].items() if v is not None}
    return echo


def _apply_point(config: ExperimentConfig, point: dict) -> ExperimentConfig:
    """The config of one sweep grid point: each axis value replaces its field."""
    derived_seed = derive_id("sweep", config.seed, json.dumps(point, sort_keys=True)) % (2**63)
    for axis, value in point.items():
        section, name = SWEEP_AXES[axis]
        base = getattr(config, section)
        config = replace(config, **{section: _section({name: value}, type(base), section, **asdict(base))})
    return replace(config, seed=derived_seed, sweep={})


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
