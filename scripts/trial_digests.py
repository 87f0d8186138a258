"""Check the SHA-256 of trials.csv for eighteen fixed-seed benchmark runs.

Runs ``gpbo bench`` on quadratic1d, branin2d, groupweights3d and
hartmann6; ``gpbo run`` on groupweights3d with ``noise_sd`` 0.01 (so
every observation carries a sem and the GP takes its fixed-noise fit);
and ``gpbo run`` on the README's example space (a log-scaled float, an
int, a choice and a fixed value) with ``example_evaluator.py`` as its
command, which covers the child protocol and the decoding of every
parameter kind.  The two configs are written by this script.  Each run
is at seeds 0, 1 and 2, in a fresh interpreter with one BLAS thread,
against the ``src/`` of the checkout this script belongs to.  Prints one
``<run>-<seed> <sha256>`` line per run, then compares the lines with
``trial_digests.txt`` next to this script and exits 1, naming each run
that differs, if any does.

A refactor that claims to keep behaviour must leave all eighteen lines
unchanged.  A deliberate rounding change rewrites ``trial_digests.txt``
in the same commit.  The digests are tied to the numpy, scipy and BLAS
build of the machine that recorded them: another build may round
differently and change every line.

Usage:
    python scripts/trial_digests.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
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

EXTERNAL_RUN = "example-evaluator"
EXTERNAL_CONFIG = {
    "space": [
        {"name": "lr", "kind": "range-float", "lower": 1e-4, "upper": 1.0, "log_scale": True},
        {"name": "layers", "kind": "range-int", "lower": 1, "upper": 8},
        {"name": "act", "kind": "choice", "options": ["relu", "tanh"]},
        {"name": "tag", "kind": "fixed", "value": "demo"},
    ],
    "objective": {"command": shlex.join([sys.executable, str(HERE / "example_evaluator.py")])},
}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    recorded = dict(line.split() for line in RECORDED.read_text().splitlines() if line.strip())
    differ = []
    with tempfile.TemporaryDirectory() as out:
        commands = [(name, ["bench", name]) for name in BENCHMARKS]
        for name, doc in ((NOISY_RUN, NOISY_CONFIG), (EXTERNAL_RUN, EXTERNAL_CONFIG)):
            config = Path(out) / f"{name}.json"
            config.write_text(json.dumps(doc))
            commands.append((name, ["run", str(config)]))
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
