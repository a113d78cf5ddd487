"""Desk-scale deterministic federated-learning simulator with a full
calibration-measurement suite.

Subpackage map:

- ``numerics``    deterministic RNG streams and stable vector primitives
- ``model``       frozen dual-encoder classifier with pluggable trainable heads
- ``losses``      cross-entropy plus DCA/MDCA calibration regularizers
- ``calibration`` binning, ECE/MCE/ACE/Brier/NLL, one temperature-scaling path
- ``partition``   non-IID client dataset construction
- ``federation``  communication rounds, aggregation strategies, evaluation
- ``datagen``     synthetic embedding datasets and embedding-file ingestion
- ``config``      experiment configuration schema
- ``runner``      end-to-end experiment orchestration and report emission
- ``cli``         command-line entry point
"""

__version__ = "0.1.0"

from .calibration import (  # noqa: E402
    CalibrationReport,
    ProbBatch,
    apply_temperature,
    calibration_report,
    fit_temperature,
    harmonic_mean,
)
from .config import ExperimentConfig, load_config, parse_config  # noqa: E402
from .datagen import SyntheticSpec, generate_synthetic, load_embeddings  # noqa: E402
from .federation import AggregatorConfig, FederationConfig  # noqa: E402
from .losses import LossSpec  # noqa: E402
from .model import ModelConfig, zero_shot_init  # noqa: E402
from .numerics import RngStream, derive_id  # noqa: E402
from .runner import run_experiment, run_single  # noqa: E402

__all__ = [
    "AggregatorConfig",
    "CalibrationReport",
    "ExperimentConfig",
    "FederationConfig",
    "LossSpec",
    "ModelConfig",
    "ProbBatch",
    "RngStream",
    "SyntheticSpec",
    "apply_temperature",
    "calibration_report",
    "derive_id",
    "fit_temperature",
    "generate_synthetic",
    "harmonic_mean",
    "load_config",
    "load_embeddings",
    "parse_config",
    "run_experiment",
    "run_single",
    "zero_shot_init",
    "__version__",
]
