"""Directional trend benchmark: the expected-ordering checks on synth-20.

Runs the reference comparison (10 clients, Dirichlet alpha 0.5, 30 rounds,
5 seeds) and reports whether the simulator reproduces the qualitative
findings it was built to study:

1. LoRA on both encoders beats the prompt head on accuracy AND mean ECE.
2. Adding DCA to the prompt head lowers its ECE.
3. The LoRA head's ECE moves less than the prompt head's across the
   Dirichlet concentration sweep {0.1, 0.5, 1, 100}.

These are trend checks, not confidence intervals: the runs are
deterministic per seed and the suite passes when the seed-averaged
orderings match.
"""

from __future__ import annotations

import numpy as np

from .config import parse_config
from .runner import run_single

TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_ROUNDS = 30
TREND_CLIENTS = 10
TREND_ALPHAS = (0.1, 0.5, 1.0, 100.0)


def _trend_config(head: str, seed: int, aux: str = "none", alpha: float = 0.5):
    return parse_config(
        {
            "seed": seed,
            "model": {"head_kind": head},
            "loss": {"aux_kind": aux},
            "federation": {"rounds": TREND_ROUNDS, "participation_rate": 1.0},
            "partition": {"num_clients": TREND_CLIENTS, "alpha": alpha},
        }
    )


def run_trend_suite(progress=None) -> list:
    """Run the three directional checks; returns (name, passed, detail) rows.

    Results are cached per (head, aux, alpha, seed) cell so the alpha sweep
    reuses the alpha = 0.5 runs.
    """
    cache = {}

    def cell(head, seed, aux="none", alpha=0.5):
        key = (head, aux, alpha, seed)
        if key not in cache:
            if progress is not None:
                progress(f"running {head}{'+' + aux if aux != 'none' else ''} alpha={alpha} seed={seed}")
            results = run_single(_trend_config(head, seed, aux, alpha))
            cache[key] = results["final"]["mean"]
        return cache[key]

    def seed_mean(head, aux="none", alpha=0.5, metric="ece"):
        return float(np.mean([cell(head, s, aux, alpha)[metric] for s in TREND_SEEDS]))

    rows = []

    lora_acc = seed_mean("lora_both", metric="accuracy")
    lora_ece = seed_mean("lora_both", metric="ece")
    prompt_acc = seed_mean("prompt", metric="accuracy")
    prompt_ece = seed_mean("prompt", metric="ece")
    rows.append(
        (
            "lora_both beats prompt on accuracy and ECE",
            lora_acc > prompt_acc and lora_ece < prompt_ece,
            f"acc {lora_acc:.4f} vs {prompt_acc:.4f}, ece {lora_ece:.4f} vs {prompt_ece:.4f}",
        )
    )

    prompt_dca_ece = seed_mean("prompt", aux="dca", metric="ece")
    rows.append(
        (
            "DCA reduces the prompt head's ECE",
            prompt_dca_ece < prompt_ece,
            f"ece {prompt_ece:.4f} -> {prompt_dca_ece:.4f}",
        )
    )

    ranges = {}
    for head in ("lora_both", "prompt"):
        means = [seed_mean(head, alpha=a, metric="ece") for a in TREND_ALPHAS]
        ranges[head] = max(means) - min(means)
    rows.append(
        (
            "lora_both ECE is more stable across the alpha sweep",
            ranges["lora_both"] < ranges["prompt"],
            f"ece range {ranges['lora_both']:.4f} vs {ranges['prompt']:.4f}",
        )
    )
    return rows
