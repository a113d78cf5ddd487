"""Command-line entry point.

Verbs:

- ``partition``  build the configured partition plan, write it as JSON with
  heterogeneity statistics for audit
- ``run``        run an experiment or sweep, writing results.json,
  summary.csv and reliability diagrams
- ``report``     re-render CSV/SVG/JSON outputs from an existing ResultsFile
- ``bench``      run the directional trend suite and print one line per check

Exit codes: 0 success, 2 configuration error, 3 data-format error,
4 numeric failure, 5 I/O error, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import run_trend_suite
from .config import parse_config, read_config_json
from .errors import ConfigError, FormatError, NumericError
from .numerics import RngStream
from .partition import canonical_json, heterogeneity_stats
from .runner import build_data, build_plan, emit_report, load_results, run_experiment

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _load(args):
    payload = {} if args.config is None else read_config_json(args.config)
    if args.seed is not None and isinstance(payload, dict):
        payload["seed"] = args.seed
    return parse_config(payload)


def _cmd_partition(args) -> int:
    config = _load(args)
    rng = RngStream(config.seed)
    data, _ = build_data(config, rng.child("data"))
    plan = build_plan(config, data, rng.child("partition"))
    stats = heterogeneity_stats(plan)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "plan.json").write_text(plan.to_json())
    audit = {
        "entropy": stats["entropy"].tolist(),
        "overlap": stats["overlap"].tolist(),
        "proportions": stats["proportions"].tolist(),
        "train_sizes": [len(ix) for ix in plan.train_indices],
        "test_sizes": [len(ix) for ix in plan.test_indices],
    }
    (out_dir / "plan_audit.json").write_text(canonical_json(audit))
    print(f"wrote {out_dir / 'plan.json'} ({plan.num_clients} clients, {plan.total_assigned()} train samples)")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load(args)
    run_experiment(config, out_dir=args.out_dir)
    print(f"wrote results under {args.out_dir}")
    return EXIT_OK


def _cmd_report(args) -> int:
    results = load_results(args.results)
    kinds = tuple(args.kind) if args.kind else ("json", "csv", "svg")
    paths = emit_report(results, kinds, args.out_dir)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    progress = (lambda msg: print(f"  .. {msg}", file=sys.stderr)) if args.verbose else None
    rows = run_trend_suite(progress=progress)
    failed = 0
    for name, passed, detail in rows:
        print(f"{'PASS' if passed else 'FAIL'}  {name}  [{detail}]")
        failed += 0 if passed else 1
    return EXIT_OK if failed == 0 else EXIT_OTHER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcalib",
        description="deterministic federated-learning calibration simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out-dir", required=True, help="output directory")

    p_part = sub.add_parser("partition", help="emit and audit a partition plan")
    common(p_part)
    p_part.set_defaults(fn=_cmd_partition)

    p_run = sub.add_parser("run", help="run an experiment or sweep")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="re-render outputs from a ResultsFile")
    p_rep.add_argument("--results", required=True, help="path to results.json")
    p_rep.add_argument("--out-dir", required=True)
    p_rep.add_argument(
        "--kind", action="append", choices=["csv", "json", "svg"],
        help="output kinds (default: all)",
    )
    p_rep.set_defaults(fn=_cmd_report)

    p_bench = sub.add_parser("bench", help="run the directional trend suite")
    p_bench.add_argument("--verbose", action="store_true")
    p_bench.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
