"""Tests for the experiment config schema, defaults, and sweep expansion."""

import json
import math
import re
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest

from fedcalib.config import (
    ExperimentConfig,
    expand_sweep,
    config_echo,
    load_config,
    parse_config,
)
from fedcalib.errors import ConfigError


class TestDefaults:
    def test_empty_object_gives_reference_defaults(self):
        cfg = parse_config({})
        assert cfg.setting == "in_distribution"
        assert cfg.model.lora_rank == 2
        assert cfg.model.lora_dropout == 0.25
        assert cfg.model.lora_scale == pytest.approx(0.5)
        assert cfg.federation.rounds == 50
        assert cfg.federation.local_epochs == 1
        assert cfg.federation.batch_size == 32
        assert cfg.federation.learning_rate == pytest.approx(1e-3)
        assert cfg.federation.warmup_lr == pytest.approx(1e-5)
        assert cfg.partition.alpha == pytest.approx(0.5)
        assert cfg.metrics.bins == 15
        # in-distribution mirrors the 100-client, 10%-participation setup
        assert cfg.partition.num_clients == 100
        assert cfg.federation.participation_rate == pytest.approx(0.1)
        assert cfg.data.synthetic is not None

    def test_setting_dependent_defaults(self):
        b2n = parse_config({"setting": "base_to_new"})
        assert b2n.partition.kind == "base_to_new"
        assert b2n.partition.num_clients == 10
        assert b2n.federation.participation_rate == 1.0
        dg = parse_config({"setting": "domain_generalization"})
        assert dg.partition.kind == "domain"
        assert dg.partition.clients_per_domain == 2
        assert dg.data.synthetic.domain_count == 4

    def test_method_name(self):
        cfg = parse_config({"model": {"head_kind": "lora_both"}, "loss": {"aux_kind": "mdca"}})
        assert cfg.method_name() == "lora_both+mdca"
        assert parse_config({}).method_name() == "zero_shot"


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'optimizer'"):
            parse_config({"optimizer": {}})

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigError, match="model.width"):
            parse_config({"model": {"width": 3}})

    def test_zero_rank_rejected_with_constraint(self):
        with pytest.raises(ConfigError, match="lora_rank.*>= 1"):
            parse_config({"model": {"lora_rank": 0}})

    def test_both_data_sources_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(
                {"data": {"synthetic": {}, "embedding_files": {"train": "a", "test": "b", "prototypes": "c"}}}
            )

    def test_missing_embedding_file_key(self):
        with pytest.raises(ConfigError, match="embedding_files.test"):
            parse_config({"data": {"embedding_files": {"train": "a", "prototypes": "c"}}})

    def test_setting_partition_consistency(self):
        with pytest.raises(ConfigError, match="base_to_new"):
            parse_config({"setting": "base_to_new", "partition": {"kind": "dirichlet"}})
        with pytest.raises(ConfigError, match="domain"):
            parse_config({"setting": "domain_generalization", "partition": {"kind": "dirichlet"}})

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": "abc"})
        with pytest.raises(ConfigError, match="rounds"):
            parse_config({"federation": {"rounds": 1.5}})
        with pytest.raises(ConfigError, match="temperatures"):
            parse_config({"metrics": {"temperatures": [1.0, -2.0]}})

    def test_bad_setting_rejected(self):
        with pytest.raises(ConfigError, match="setting"):
            parse_config({"setting": "offline"})


class TestLoadConfig:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 7, "model": {"head_kind": "prompt"}}))
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.model.head_kind == "prompt"

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="broken.json"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


class TestEcho:
    def test_echo_is_json_serializable_and_complete(self):
        cfg = parse_config({"seed": 3, "metrics": {"temperatures": [0.5, 2.0]}})
        echo = config_echo(cfg)
        text = json.dumps(echo, sort_keys=True)
        back = json.loads(text)
        assert back["seed"] == 3
        assert back["model"]["lora_rank"] == 2
        assert back["metrics"]["temperatures"] == [0.5, 2.0]
        assert back["federation"]["rounds"] == 50


class TestShippedConfigs:
    def test_all_reference_configs_parse(self):
        from pathlib import Path

        config_dir = Path(__file__).resolve().parents[1] / "configs"
        paths = sorted(config_dir.glob("*.json"))
        assert len(paths) >= 8
        for path in paths:
            cfg = load_config(path)
            assert cfg.federation.rounds >= 1


class TestSweep:
    def test_no_sweep_single_point(self):
        cfg = parse_config({})
        points = expand_sweep(cfg)
        assert len(points) == 1
        assert points[0][0] == {}
        assert points[0][1] is cfg

    def test_cross_product_and_derived_seeds(self):
        cfg = parse_config({"sweep": {"alpha": [0.1, 1.0], "rank": [2, 4]}})
        points = expand_sweep(cfg)
        assert len(points) == 4
        seeds = {sub.seed for _, sub in points}
        assert len(seeds) == 4  # every grid point gets its own derived seed
        for point, sub in points:
            assert sub.partition.alpha == point["alpha"]
            assert sub.model.lora_rank == point["rank"]
            assert sub.sweep == {}

    def test_derived_seeds_reproducible(self):
        a = expand_sweep(parse_config({"sweep": {"rounds": [5, 10]}}))
        b = expand_sweep(parse_config({"sweep": {"rounds": [5, 10]}}))
        assert [sub.seed for _, sub in a] == [sub.seed for _, sub in b]

    def test_head_kind_and_participation_axes(self):
        cfg = parse_config({"sweep": {"head_kind": ["prompt", "lora_both"], "participation": [0.5, 1.0]}})
        points = expand_sweep(cfg)
        assert len(points) == 4
        heads = {sub.model.head_kind for _, sub in points}
        assert heads == {"prompt", "lora_both"}

    def test_bad_sweep_values(self):
        with pytest.raises(ConfigError, match="sweep.alpha"):
            parse_config({"sweep": {"alpha": []}})
        with pytest.raises(ConfigError, match="sweep.rank"):
            parse_config({"sweep": {"rank": [0]}})
        with pytest.raises(ConfigError, match="participation"):
            parse_config({"sweep": {"participation": [1.5]}})
        with pytest.raises(ConfigError, match="unknown key 'sweep.sigma'"):
            parse_config({"sweep": {"sigma": [0.1]}})


# One row per bound, type error and sweep axis: (payload, JSON path the error names).
REJECTIONS = [
    # field bounds
    ([], "config"),
    ({"seed": -1}, "seed"),
    ({"setting": "offline"}, "setting"),
    ({"model": {"embed_dim": 0}}, "model.embed_dim"),
    ({"model": {"class_count": 0}}, "model.class_count"),
    ({"model": {"encoder_widths": [64, 0]}}, "model.encoder_widths"),
    ({"model": {"head_kind": "mlp"}}, "model.head_kind"),
    ({"model": {"lora_rank": 0}}, "model.lora_rank"),
    ({"model": {"lora_alpha": 0}}, "model.lora_alpha"),
    ({"model": {"lora_alpha": -0.5}}, "model.lora_alpha"),
    ({"model": {"lora_dropout": 1.0}}, "model.lora_dropout"),
    ({"model": {"lora_dropout": -0.1}}, "model.lora_dropout"),
    ({"model": {"logit_scale": 0}}, "model.logit_scale"),
    ({"model": {"prompt_length": 0}}, "model.prompt_length"),
    ({"federation": {"rounds": 0}}, "federation.rounds"),
    ({"federation": {"local_epochs": -1}}, "federation.local_epochs"),
    ({"federation": {"batch_size": 0}}, "federation.batch_size"),
    ({"federation": {"learning_rate": 0}}, "federation.learning_rate"),
    ({"federation": {"warmup_lr": -1e-5}}, "federation.warmup_lr"),
    ({"federation": {"participation_rate": 0}}, "federation.participation_rate"),
    ({"federation": {"participation_rate": 1.5}}, "federation.participation_rate"),
    ({"aggregator": {"kind": "fedsgd"}}, "aggregator.kind"),
    ({"aggregator": {"mu_prox": 0}}, "aggregator.mu_prox"),
    ({"aggregator": {"kind": "fedprox", "mu_prox": 0}}, "aggregator.mu_prox"),
    ({"aggregator": {"alpha_dyn": -1}}, "aggregator.alpha_dyn"),
    ({"aggregator": {"kind": "feddyn", "alpha_dyn": 0}}, "aggregator.alpha_dyn"),
    ({"loss": {"aux_kind": "focal"}}, "loss.aux_kind"),
    ({"loss": {"aux_weight": -1}}, "loss.aux_weight"),
    ({"partition": {"kind": "iid"}}, "partition.kind"),
    ({"partition": {"alpha": 0}}, "partition.alpha"),
    ({"partition": {"kind": "sort_partition", "alpha": -1}}, "partition.alpha"),
    ({"partition": {"num_clients": 0}}, "partition.num_clients"),
    ({"partition": {"classes_per_client": 0}}, "partition.classes_per_client"),
    ({"partition": {"clients_per_domain": 0}}, "partition.clients_per_domain"),
    ({"metrics": {"bins": 0}}, "metrics.bins"),
    ({"metrics": {"scheme": "quantile"}}, "metrics.scheme"),
    ({"metrics": {"temperatures": [1.0, 0]}}, "metrics.temperatures"),
    ({"data": {"synthetic": {"class_count": 0}}}, "data.synthetic.class_count"),
    ({"data": {"synthetic": {"dim": 1}}}, "data.synthetic.dim"),
    ({"data": {"synthetic": {"samples_per_class": 0}}}, "data.synthetic.samples_per_class"),
    ({"data": {"synthetic": {"noise_sigma": 0}}}, "data.synthetic.noise_sigma"),
    ({"data": {"synthetic": {"domain_count": 0}}}, "data.synthetic.domain_count"),
    ({"data": {"synthetic": {"train_fraction": 0}}}, "data.synthetic.train_fraction"),
    ({"data": {"synthetic": {"train_fraction": 1}}}, "data.synthetic.train_fraction"),
    # NaN (which json.loads accepts) fails every bound
    ({"federation": {"learning_rate": float("nan")}}, "federation.learning_rate"),
    ({"model": {"logit_scale": float("nan")}}, "model.logit_scale"),
    ({"data": {"synthetic": {"noise_sigma": float("nan")}}}, "data.synthetic.noise_sigma"),
    # type errors
    ({"seed": True}, "seed"),
    ({"federation": {"rounds": True}}, "federation.rounds"),
    ({"federation": {"learning_rate": True}}, "federation.learning_rate"),
    ({"model": {"lora_alpha": False}}, "model.lora_alpha"),
    ({"model": {"lora_rank": 1.5}}, "model.lora_rank"),
    ({"partition": {"num_clients": 2.0}}, "partition.num_clients"),
    ({"federation": {"learning_rate": "0.1"}}, "federation.learning_rate"),
    ({"model": {"logit_scale": "big"}}, "model.logit_scale"),
    ({"model": {"head_kind": 3}}, "model.head_kind"),
    ({"model": {"lora_rank": None}}, "model.lora_rank"),
    ({"federation": {"learning_rate": None}}, "federation.learning_rate"),
    ({"metrics": {"scheme": None}}, "metrics.scheme"),
    ({"model": {"encoder_widths": 64}}, "model.encoder_widths"),
    ({"metrics": {"temperatures": 1.0}}, "metrics.temperatures"),
    ({"model": {"encoder_widths": [64, "a"]}}, "model.encoder_widths"),
    ({"model": {"encoder_widths": [64, True]}}, "model.encoder_widths"),
    ({"model": {"encoder_widths": [1.5]}}, "model.encoder_widths"),
    ({"metrics": {"temperatures": [1.0, "x"]}}, "metrics.temperatures"),
    ({"metrics": {"temperatures": [True]}}, "metrics.temperatures"),
    ({"model": []}, "model"),
    ({"data": {"synthetic": 3}}, "data.synthetic"),
    # unknown keys
    ({"federation": {"epochs": 1}}, "federation.epochs"),
    ({"data": {"synthetic": {"sigma": 0.1}}}, "data.synthetic.sigma"),
    # sweep axes
    ({"sweep": {"alpha": 0.5}}, "sweep.alpha"),
    ({"sweep": {"alpha": [0.5, 0]}}, "sweep.alpha"),
    ({"sweep": {"alpha": ["a"]}}, "sweep.alpha"),
    ({"sweep": {"alpha": [True]}}, "sweep.alpha"),
    ({"sweep": {"rounds": []}}, "sweep.rounds"),
    ({"sweep": {"rounds": [0]}}, "sweep.rounds"),
    ({"sweep": {"rounds": [1.5]}}, "sweep.rounds"),
    ({"sweep": {"rank": [2, 0]}}, "sweep.rank"),
    ({"sweep": {"rank": [None]}}, "sweep.rank"),
    ({"sweep": {"head_kind": ["prompt", "mlp"]}}, "sweep.head_kind"),
    ({"sweep": {"head_kind": [3]}}, "sweep.head_kind"),
    ({"sweep": {"participation": [0]}}, "sweep.participation"),
    ({"sweep": {"participation": [1.5]}}, "sweep.participation"),
    ({"sweep": {"sigma": [0.1]}}, "sweep.sigma"),
]


class TestRejectionTable:
    @pytest.mark.parametrize(
        "payload,path", REJECTIONS, ids=[f"{path}:{json.dumps(p)}" for p, path in REJECTIONS]
    )
    def test_rejected_with_json_path(self, payload, path):
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(payload)

    @pytest.mark.parametrize("loss", [{"aux_kind": "focal"}, {"aux_weight": -1}])
    def test_loss_section_error_exits_config(self, tmp_path, capsys, loss):
        from fedcalib.cli import EXIT_CONFIG, main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"loss": loss}))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "loss." in capsys.readouterr().err


def float_fields(cls=ExperimentConfig, path=""):
    """(JSON path, type hint) of every float field of every config section, from the dataclass type hints."""
    for name, hint in get_type_hints(cls).items():
        here = f"{path}.{name}" if path else name
        section = [arg for arg in (hint, *get_args(hint)) if is_dataclass(arg)]
        if section:
            yield from float_fields(section[0], here)
        elif float in (hint, *get_args(hint)):
            yield here, hint


FLOAT_FIELDS = list(float_fields())


def payload_at(path: str, value) -> dict:
    """The config object that sets only the field at the dotted JSON ``path`` to ``value``."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


class TestNonFiniteFloats:
    def test_every_section_is_walked(self):
        paths = {path for path, _ in FLOAT_FIELDS}
        assert {"model.lora_alpha", "federation.learning_rate", "aggregator.alpha_dyn", "loss.aux_weight",
                "partition.alpha", "metrics.temperatures", "data.synthetic.noise_sigma"} <= paths

    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["Infinity", "-Infinity"])
    @pytest.mark.parametrize("path,hint", FLOAT_FIELDS, ids=[path for path, _ in FLOAT_FIELDS])
    def test_rejected_with_json_path(self, path, hint, value):
        # Python's json reads Infinity; a tuple entry is named by its index
        listed = get_origin(hint) is tuple
        named = f"{path}[1]" if listed else path
        with pytest.raises(ConfigError, match=re.escape(f"{named} must be a finite number")):
            parse_config(payload_at(path, [1.0, value] if listed else value))

    def test_int_beyond_the_float_range_is_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("partition.alpha must be a finite number")):
            parse_config({"partition": {"alpha": 10**400}})


class TestTemperatureBound:
    def test_tau_whose_scaled_logits_overflow_is_rejected(self):
        # logits reach +-logit_scale, and logits / tau overflowed after training
        with pytest.raises(ConfigError, match=re.escape("metrics.temperatures[1]")):
            parse_config({"metrics": {"temperatures": [1.0, 1e-310]}})
        with pytest.raises(ConfigError, match=re.escape("metrics.temperatures[0]")):
            parse_config({"model": {"logit_scale": 1e10}, "metrics": {"temperatures": [1e-299]}})

    def test_bound_scales_with_logit_scale(self):
        assert parse_config({"metrics": {"temperatures": [1e-305]}}).metrics.temperatures == (1e-305,)
        small_scale = {"model": {"logit_scale": 1.0}, "metrics": {"temperatures": [1e-307]}}
        assert parse_config(small_scale).metrics.temperatures == (1e-307,)


class TestNullableAndDiscardedFields:
    """Values that are in range although they look odd: null and a discarded embed_dim."""

    def test_lora_alpha_null_means_one_over_rank(self):
        cfg = parse_config({"model": {"lora_alpha": None, "lora_rank": 4}})
        assert cfg.model.lora_alpha is None
        assert cfg.model.lora_scale == pytest.approx(0.25)

    def test_embed_dim_one_accepted(self):
        # the data's dimension replaces it before a model is built
        assert parse_config({"model": {"embed_dim": 1}}).model.embed_dim == 1


REPO = Path(__file__).resolve().parents[1]


class TestDocumentedAndShippedConfigs:
    def test_readme_configuration_block_is_the_defaults(self):
        readme = (REPO / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
        payload = json.loads(re.sub(r"//.*", "", block))
        assert parse_config(payload) == parse_config({})

    @pytest.mark.parametrize(
        "path",
        sorted(REPO.glob("configs/*.json")) + sorted(REPO.glob("perfbench/workloads/*.json")),
        ids=lambda p: f"{p.parent.name}/{p.name}",
    )
    def test_echo_is_a_fixed_point(self, path):
        echo = config_echo(load_config(path))
        assert config_echo(parse_config(echo)) == echo

    def test_alpha_sweep_keeps_integer_values_in_derived_seeds(self):
        cfg = load_config(REPO / "configs" / "alpha_sweep.json")
        assert config_echo(cfg)["sweep"]["alpha"] == [0.01, 0.1, 0.5, 1, 100]
        points = expand_sweep(cfg)
        assert [json.dumps(point) for point, _ in points] == [
            '{"alpha": 0.01}', '{"alpha": 0.1}', '{"alpha": 0.5}', '{"alpha": 1}', '{"alpha": 100}'
        ]
        assert [sub.seed for _, sub in points] == [
            465119521542864663, 1349451143231976295, 7072009171866943447,
            600027817967928428, 3214385969514011561,
        ]
        assert [repr(sub.partition.alpha) for _, sub in points] == ["0.01", "0.1", "0.5", "1.0", "100.0"]
