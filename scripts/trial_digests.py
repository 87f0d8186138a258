"""Print the SHA-256 of trials.csv for nine fixed-seed benchmark runs.

Runs ``gpbo bench`` on quadratic1d, branin2d and groupweights3d at seeds
0, 1 and 2, each in a fresh interpreter with one BLAS thread, against the
``src/`` of the checkout this script belongs to.  Prints one
``<benchmark>-<seed> <sha256>`` line per run.  A refactor that claims to
keep behaviour must leave all nine lines unchanged.

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
SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as out:
        for name in BENCHMARKS:
            for seed in SEEDS:
                run_dir = Path(out) / f"{name}-{seed}"
                subprocess.run(
                    [sys.executable, "-m", "gpbo", "bench", name,
                     "--seed", str(seed), "--out-dir", str(run_dir)],
                    env=env, check=True, stdout=subprocess.DEVNULL,
                )
                digest = hashlib.sha256((run_dir / "trials.csv").read_bytes()).hexdigest()
                print(f"{name}-{seed} {digest}", flush=True)


if __name__ == "__main__":
    main()
