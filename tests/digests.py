"""Print a sha256 for every output file of every shipped config and benchmark workload.

Usage (from the repository root; pytest does not collect this file):

    python3 tests/digests.py [--src SRC] [--seeds 0 7] > digests.txt
    python3 tests/digests.py [--src SRC] --against OTHER_SRC

Runs ``fedcalib run`` and ``fedcalib partition`` on each ``configs/*.json``
and ``perfbench/workloads/*.json``, at each seed, in a child process with
``PYTHONPATH=SRC`` (default: this tree's ``src``) and one BLAS thread. Prints
one line per output file, ``<sha256>  <config>/seed<N>/<command>/<path>``,
sorted; ``results.json`` is hashed without its ``meta`` (wall-clock times),
re-serialized with sorted keys. Two trees give the same lines exactly when
every output keeps its bytes. With ``--against OTHER_SRC`` the script runs
both trees and prints only the labels whose sha256 differ (or that only one
tree writes), and exits 1 if there is any.
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


def listing(src: Path, seeds: list) -> dict:
    """sha256 of every output file of every config at every seed, by label."""
    return {label: sha for config in CONFIGS for seed in seeds for command in ("run", "partition")
            for sha, label in digests(src.resolve(), config, seed, command)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the fedcalib source tree to run")
    parser.add_argument("--against", type=Path,
                        help="a second source tree: print only the labels whose sha256 differ, exit 1 if any")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    args = parser.parse_args(argv)
    ours = listing(args.src, args.seeds)
    if args.against is None:
        for label in sorted(ours):
            print(f"{ours[label]}  {label}")
        return 0
    theirs = listing(args.against, args.seeds)
    differ = sorted(label for label in ours.keys() | theirs.keys() if ours.get(label) != theirs.get(label))
    for label in differ:
        print(label)
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} outputs differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
