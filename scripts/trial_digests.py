"""Check the SHA-256 of trials.csv for nine fixed-seed benchmark runs.

Runs ``gpbo bench`` on quadratic1d, branin2d and groupweights3d at seeds
0, 1 and 2, each in a fresh interpreter with one BLAS thread, against the
``src/`` of the checkout this script belongs to.  Prints one
``<benchmark>-<seed> <sha256>`` line per run, then compares the lines
with ``trial_digests.txt`` next to this script and exits 1, naming each
run that differs, if any does.

A refactor that claims to keep behaviour must leave all nine lines
unchanged.  A deliberate rounding change rewrites ``trial_digests.txt``
in the same commit.  The digests are tied to the numpy, scipy and BLAS
build of the machine that recorded them: another build may round
differently and change every line.

Usage:
    python scripts/trial_digests.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARKS = ("quadratic1d", "branin2d", "groupweights3d")
SEEDS = (0, 1, 2)
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RECORDED = HERE / "trial_digests.txt"


def main() -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    recorded = dict(line.split() for line in RECORDED.read_text().splitlines() if line.strip())
    differ = []
    with tempfile.TemporaryDirectory() as out:
        for name in BENCHMARKS:
            for seed in SEEDS:
                run = f"{name}-{seed}"
                run_dir = Path(out) / run
                subprocess.run(
                    [sys.executable, "-m", "gpbo", "bench", name,
                     "--seed", str(seed), "--out-dir", str(run_dir)],
                    env=env, check=True, stdout=subprocess.DEVNULL,
                )
                digest = hashlib.sha256((run_dir / "trials.csv").read_bytes()).hexdigest()
                print(f"{run} {digest}", flush=True)
                if recorded.get(run) != digest:
                    differ.append(run)
    if differ:
        print(f"differs from {RECORDED.name}: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
