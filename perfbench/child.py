"""One measured run of a workload, in a fresh process.

Usage: python3 perfbench/child.py CONFIG OUT_DIR RUN_ID [SPANS_PATH]

Imports fedcalib, then times ``load_config`` -> ``run_experiment`` with
``OUT_DIR`` as output directory, the work of ``fedcalib run``. The set-up
time of each ``run_single`` is the gap between its entry and its first
``run_round`` call, summed over sweep points. With SPANS_PATH the run is
traced: every layer boundary records a span, the spans are written to
SPANS_PATH when the run ends, and per-layer metrics are computed from them.

The last stdout line is one JSON object: timings, peak RSS, the sha256 of
the canonical bytes of every ``results.json`` written (``meta`` stripped),
the final mean metrics of each run, and the library versions. A run that
raises reports ``error`` instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from fedcalib import config as fc_config
from fedcalib import runner

import tracer as tracing

FINAL_KEYS = ("mean", "base", "new", "harmonic_mean")


class SetupProbe:
    """Two boundary timestamps per ``run_single``: entry and first round."""

    def __init__(self):
        self.setup_s = 0.0
        self.rounds = 0
        self._entered = None
        self._saved = []

    def install(self):
        run_single, run_round = runner.run_single, runner.run_round

        def probed_single(*args, **kwargs):
            self._entered = time.perf_counter()
            return run_single(*args, **kwargs)

        def probed_round(*args, **kwargs):
            if self._entered is not None:
                self.setup_s += time.perf_counter() - self._entered
                self._entered = None
            self.rounds += 1
            return run_round(*args, **kwargs)

        self._saved = [("run_single", run_single), ("run_round", run_round)]
        runner.run_single, runner.run_round = probed_single, probed_round

    def uninstall(self):
        for attr, original in self._saved:
            setattr(runner, attr, original)


def canonical_outputs(out_dir: Path) -> tuple:
    """(sha256, final metrics per run, bytes written) of a run's output files."""
    digest = hashlib.sha256()
    finals = []
    for path in sorted(out_dir.rglob("results.json")):
        with open(path) as fh:
            results = json.load(fh)
        results.pop("meta", None)
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        digest.update(json.dumps(results, sort_keys=True, indent=2).encode() + b"\0")
        final = results["final"]
        finals.append({k: final[k] for k in FINAL_KEYS if final.get(k)})
    written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    return digest.hexdigest(), finals, written


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return "unknown"


def main(argv) -> int:
    config_path, out_dir, run_id = argv[0], Path(argv[1]), argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    probe = SetupProbe()
    probe.install()
    tracer = None
    if spans_path:
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    report = {"run_id": run_id, "traced": tracer is not None}
    try:
        started = time.perf_counter()
        config = fc_config.load_config(config_path)
        runner.run_experiment(config, out_dir=out_dir)
        report["run_s"] = time.perf_counter() - started
    except Exception:
        traceback.print_exc()
        report["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        print(json.dumps(report))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.uninstall()
    report["setup_s"] = probe.setup_s
    report["rounds"] = probe.rounds
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["sha256"], report["finals"], written = canonical_outputs(out_dir)
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer, report["run_s"], written)
        tracer.write(spans_path)
    report["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
