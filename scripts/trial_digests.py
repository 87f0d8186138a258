"""Check the SHA-256 of trials.csv for fifteen fixed-seed benchmark runs.

Runs ``gpbo bench`` on quadratic1d, branin2d, groupweights3d and
hartmann6, and ``gpbo run`` on groupweights3d with ``noise_sd`` 0.01 (a
config this script writes, so every observation carries a sem and the GP
takes its fixed-noise fit), each at seeds 0, 1 and 2, each in a fresh
interpreter with one BLAS thread, against the ``src/`` of the checkout
this script belongs to.  Prints one ``<run>-<seed> <sha256>`` line per
run, then compares the lines with ``trial_digests.txt`` next to this
script and exits 1, naming each run that differs, if any does.

A refactor that claims to keep behaviour must leave all fifteen lines
unchanged.  A deliberate rounding change rewrites ``trial_digests.txt``
in the same commit.  The digests are tied to the numpy, scipy and BLAS
build of the machine that recorded them: another build may round
differently and change every line.

Usage:
    python scripts/trial_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARKS = ("quadratic1d", "branin2d", "groupweights3d", "hartmann6")
SEEDS = (0, 1, 2)
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RECORDED = HERE / "trial_digests.txt"

NOISY_RUN = "groupweights3d-noisy"
NOISY_CONFIG = {
    "space": [
        {"name": w, "kind": "range-float", "lower": 0.0, "upper": 1.0}
        for w in ("w_fg", "w_rg", "w_ccg")
    ],
    "objective": {"builtin": {"name": "groupweights3d", "noise_sd": 0.01}},
}


def main() -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    recorded = dict(line.split() for line in RECORDED.read_text().splitlines() if line.strip())
    differ = []
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / f"{NOISY_RUN}.json"
        config.write_text(json.dumps(NOISY_CONFIG))
        commands = [(name, ["bench", name]) for name in BENCHMARKS]
        commands.append((NOISY_RUN, ["run", str(config)]))
        for name, command in commands:
            for seed in SEEDS:
                run = f"{name}-{seed}"
                run_dir = Path(out) / run
                subprocess.run(
                    [sys.executable, "-m", "gpbo", *command,
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
