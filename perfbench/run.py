"""fedcalib benchmark: closed-loop runs of four workloads through the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, both modes
    python3 perfbench/run.py --self-check                     # tiny config, fast
    python3 perfbench/run.py --record-reference 0-31          # store reference outputs

One generator process starts one child process per run (``child.py``) and
starts the next run only after the previous one has returned: a closed
loop with a single caller. It keeps starting runs until ``--seconds`` have
passed, so an invocation lasts ``--seconds`` plus at most one run. Each
child runs ``load_config`` -> ``run_experiment`` with an output directory,
the work of ``fedcalib run``, with the default ``threads=1``; the workload
seed replaces the config's ``seed`` before the program sees the config.

With ``--trace 0`` the runs are untraced and the end-to-end metrics are the
medians over them. With ``--trace 1`` each untraced run is followed by a
traced run; the per-layer metrics are medians over the traced runs, and
``trace.overhead_ratio`` compares the two kinds.

Every run is checked: it must not raise, its canonical bytes (each
``results.json`` with ``meta`` stripped) must hash the same as the first run
of the invocation, traced or not, and its final mean metrics must match the
stored reference for the seed (``reference.json``) within 1e-12. Seeds
without a stored reference are checked for determinism across the runs and
for finite metrics. The last stdout line is the JSON result; the full record,
with seed, canonical sha256 and library versions, is written to
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
TOLERANCE = 1e-12
# an invocation must end within 180 s, whatever --seconds asks for
INVOCATION_LIMIT_S = 170
CHILD_ENV = {
    # one BLAS thread: the matrices are small, and idle BLAS threads spinning
    # on a 2-core machine only add noise
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def workload_config(name: str) -> Path:
    if name == "selfcheck":
        return BENCH / "selfcheck.json"
    return BENCH / "workloads" / f"{name}.json"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_child(config: Path, out_dir: Path, run_id: str, spans: Path | None, timeout: float) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(BENCH / "child.py"), str(config), str(out_dir), run_id]
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"run_id": run_id, "error": f"run exceeded the {timeout:.0f} s left to the invocation"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"run_id": run_id, "error": f"child exited {proc.returncode} without a report"}
    if "error" in report:
        sys.stderr.write(proc.stderr)
    return report


def finals_diff(got: list, want: list) -> float:
    """Largest absolute difference between two final-metric lists; inf if shapes differ."""
    if len(got) != len(want):
        return math.inf
    worst = 0.0
    for g, w in zip(got, want):
        if g.keys() != w.keys():
            return math.inf
        for part in g:
            if g[part].keys() != w[part].keys():
                return math.inf
            for key, value in g[part].items():
                worst = max(worst, abs(value - w[part][key]))
    return worst


def check_runs(runs: list, reference: dict | None) -> None:
    """Mark each run with the problems its output check found."""
    first = next((r for r in runs if "error" not in r), None)
    for run in runs:
        problems = []
        if "error" in run:
            problems.append(run["error"])
        else:
            if run["sha256"] != first["sha256"]:
                problems.append("canonical bytes differ between runs of one seed")
            want = reference["finals"] if reference else first["finals"]
            diff = finals_diff(run["finals"], want)
            if not diff <= TOLERANCE:
                problems.append(f"final metrics differ from the reference by {diff}")
            if not all(math.isfinite(v) for f in run["finals"] for part in f.values() for v in part.values()):
                problems.append("non-finite final metric")
        run["problems"] = problems


def median_of(runs: list, key: str) -> float:
    values = [r[key] for r in runs]
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return the checked record."""
    work = OUT / workload
    work.mkdir(parents=True, exist_ok=True)
    with open(workload_config(workload)) as fh:
        payload = json.load(fh)
    payload["seed"] = seed
    config = work / f"config-seed{seed}.json"
    config.write_text(json.dumps(payload, indent=2) + "\n")
    out_dir = work / "run"
    spans = work / f"spans-seed{seed}.jsonl"

    untraced, traced = [], []
    started = time.monotonic()
    while True:
        index = len(untraced)
        untraced.append(run_child(config, out_dir, f"{workload}:{seed}:{index}", None,
                                  INVOCATION_LIMIT_S - (time.monotonic() - started)))
        if trace:
            traced.append(run_child(config, out_dir, f"{workload}:{seed}:{index}:traced", spans,
                                    INVOCATION_LIMIT_S - (time.monotonic() - started)))
        elapsed = time.monotonic() - started
        if elapsed >= seconds or elapsed * (index + 2) / (index + 1) > INVOCATION_LIMIT_S:
            break

    references = {}
    if REFERENCE.is_file():
        with open(REFERENCE) as fh:
            references = json.load(fh)
    reference = references.get(workload, {}).get(str(seed))
    runs = untraced + traced
    check_runs(runs, reference)
    failed = sum(1 for r in runs if r["problems"])
    ok_untraced = [r for r in untraced if not r["problems"]]
    ok_traced = [r for r in traced if not r["problems"]]

    if trace:
        metrics = {}
        for key in (ok_traced[0]["layers"] if ok_traced else {}):
            values = [r["layers"][key] for r in ok_traced]
            # counts stay whole numbers
            exact = all(isinstance(v, int) for v in values)
            metrics[key] = statistics.median_low(values) if exact else statistics.median(values)
        base = median_of(ok_untraced, "run_s")
        metrics["trace.overhead_ratio"] = median_of(ok_traced, "run_s") / base if base else 0.0
    else:
        metrics = {
            "run_s": median_of(ok_untraced, "run_s"),
            "setup_s": median_of(ok_untraced, "setup_s"),
            "rounds_per_s": statistics.median(
                [r["rounds"] / (r["run_s"] - r["setup_s"]) for r in ok_untraced] or [0.0]
            ),
            "peak_rss_mb": median_of(ok_untraced, "peak_rss_mb"),
            "passed_run_share": (len(runs) - failed) / len(runs),
        }
    first = next((r for r in runs if "error" not in r), {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "load": "closed loop, one caller, one run at a time",
        "seconds": seconds,
        "attempted": len(runs),
        "failed": failed,
        "failed_run_share": failed / len(runs),
        "sha256": first.get("sha256"),
        "reference_sha256": reference["sha256"] if reference else None,
        "sha_matches_reference": bool(reference) and first.get("sha256") == reference["sha256"],
        "versions": first.get("versions"),
        "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k not in ("layers", "versions")} for r in runs],
    }


def with_units(record: dict, spec: dict) -> dict:
    """The record's metrics for its mode, in BENCHMARK.json order, with units."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return {m["name"]: {"value": record["metrics"].get(m["name"]), "unit": m["unit"]} for m in wanted}


def save(record: dict) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")


def print_problems(record: dict) -> None:
    for run in record["runs"]:
        for problem in run["problems"]:
            print(f"FAILED {run['run_id']}: {problem}")


def describe(record: dict) -> str:
    info = {k: record[k] for k in ("workload", "seed", "trace", "load", "attempted", "failed",
                                    "failed_run_share", "sha256", "sha_matches_reference", "versions")}
    return json.dumps(info)


def run_one(args, spec) -> int:
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    save(record)
    metrics = with_units(record, spec)
    for name, m in metrics.items():
        print(f"{record['workload']}  {name} = {m['value']} {m['unit']}")
    print_problems(record)
    print(describe(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["failed"] == 0 else 1


def run_all(args, spec) -> int:
    """Every workload untraced then traced; one table row per workload."""
    rows, failed = [], 0
    for workload in [w["name"] for w in spec["workloads"]]:
        row = {}
        for trace in (False, True):
            record = measure(workload, args.seed, args.seconds, trace)
            save(record)
            row.update(with_units(record, spec))
            failed += record["failed"]
            print_problems(record)
        rows.append((workload, row))
    names = list(rows[0][1])
    print("\t".join(["workload"] + [f"{n} [{rows[0][1][n]['unit']}]" for n in names]))
    for workload, row in rows:
        print("\t".join([workload] + [str(row[n]["value"]) for n in names]))
    print(f"seed {args.seed}; {failed} failed run(s)")
    return 0 if failed == 0 else 1


def self_check(spec) -> int:
    """Tiny config: every named metric present with a unit, traced bytes equal untraced."""
    problems = []
    records = [measure("selfcheck", 0, 0, trace) for trace in (False, True)]
    for record in records:
        save(record)
        metrics = with_units(record, spec)
        for name, m in metrics.items():
            if not isinstance(m["value"], (int, float)) or not m["unit"]:
                problems.append(f"metric {name} missing or without a unit")
        for name in record["metrics"].keys() - metrics.keys():
            problems.append(f"metric {name} is not named in BENCHMARK.json")
        problems += [p for run in record["runs"] for p in run["problems"]]
    shas = {run["sha256"] for record in records for run in record["runs"] if "sha256" in run}
    if len(shas) != 1:
        problems.append(f"traced and untraced canonical bytes differ: {sorted(shas)}")
    for problem in problems:
        print(f"self-check: {problem}")
    print("self-check ok" if not problems else "self-check FAILED")
    return 0 if not problems else 1


def record_reference(seeds: range, workloads: list) -> int:
    """Store each workload's final metrics and canonical sha256 per seed."""
    references = {}
    if REFERENCE.is_file():
        with open(REFERENCE) as fh:
            references = json.load(fh)
    for workload in workloads:
        for seed in seeds:
            record = measure(workload, seed, 0, False)
            run = record["runs"][0]
            if record["failed"]:
                print(f"{workload} seed {seed}: {run['problems']}", file=sys.stderr)
                return 1
            references.setdefault(workload, {})[str(seed)] = {"sha256": run["sha256"], "finals": run["finals"]}
            REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {run['sha256']}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", metavar="FIRST-LAST")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedcalib" / "__init__.py").is_file():
        print(f"fedcalib sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.self_check:
        return self_check(spec)
    if args.record_reference:
        first, _, last = args.record_reference.partition("-")
        chosen = [args.workload] if args.workload else names
        return record_reference(range(int(first), int(last or first) + 1), chosen)
    if args.all:
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
