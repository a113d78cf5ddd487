"""Print a sha256 for every output file of every shipped config and benchmark workload.

Usage (from the repository root; pytest does not collect this file):

    python3 tests/digests.py [--src SRC] [--seeds 0 7] > digests.txt

Runs ``fedcalib run`` and ``fedcalib partition`` on each ``configs/*.json``
and ``perfbench/workloads/*.json``, at each seed, in a child process with
``PYTHONPATH=SRC`` (default: this tree's ``src``) and one BLAS thread. Prints
one line per output file, ``<sha256>  <config>/seed<N>/<command>/<path>``,
sorted; ``results.json`` is hashed without its ``meta`` (wall-clock times),
re-serialized with sorted keys. Two trees give the same lines exactly when
every output keeps its bytes: run the script once with each tree's ``--src``
and ``diff`` the two listings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("perfbench/workloads/*.json")])
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def file_digest(path: Path) -> str:
    if path.name != "results.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    results = json.loads(path.read_text())
    results.pop("meta", None)
    return hashlib.sha256(json.dumps(results, sort_keys=True, indent=2).encode()).hexdigest()


def digests(src: Path, config: Path, seed: int, command: str) -> list:
    """``(sha256, label)`` of each file one command writes for ``config`` at ``seed``."""
    env = dict(os.environ, **ENV, PYTHONPATH=str(src))
    label = f"{config.parent.name}/{config.stem}/seed{seed}/{command}"
    with tempfile.TemporaryDirectory() as out:
        subprocess.run([sys.executable, "-m", "fedcalib.cli", command, "--config", str(config),
                        "--seed", str(seed), "--out-dir", out], env=env, check=True, stdout=subprocess.DEVNULL)
        return [(file_digest(path), f"{label}/{path.relative_to(out)}")
                for path in sorted(Path(out).rglob("*")) if path.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the fedcalib source tree to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    args = parser.parse_args(argv)
    lines = [line for config in CONFIGS for seed in args.seeds for command in ("run", "partition")
             for line in digests(args.src.resolve(), config, seed, command)]
    for sha, label in sorted(lines, key=lambda line: line[1]):
        print(f"{sha}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
