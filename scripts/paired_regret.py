"""Paired-seed quality verdict: the regret of two checkouts on the same seeds.

For each workload, runs this checkout and the one ``--against`` names on
the same seeds, and pairs their per-seed regrets:

* ``branin-long`` and ``groupweights-cli``: ``perfbench/run.py --workload W
  --seeds S`` in each checkout, read from its ``# W seed s: ... regret r``
  lines.  perfbench's own checks still run, and a failed one stops the
  script;
* ``hartmann6``: ``gpbo.optimize`` on the builtin hartmann6 (d = 6) for
  30 trials, against each checkout's ``src/``.  Regret is the best observed
  value minus the global minimum, -3.32236801141551.  Each run's wall
  seconds are recorded too, so the verdict comes with the d = 6 speed.

Both checkouts run at once, each in its own interpreter with one BLAS
thread; regret does not depend on timing, and on a host with fewer than
two free CPUs the two sides' seconds slow each other alike.  Per workload
it prints how many seeds the change wins (lower regret), loses and ties,
the median paired difference (change minus parent) and the two-sided
Wilcoxon signed-rank p (``scipy.stats.wilcoxon``, zero differences
dropped), and for hartmann6 each side's median wall seconds per run.  The
last line is the same verdict as JSON, with every per-seed regret.

Usage:
    python scripts/paired_regret.py --against ../parent-checkout
    python scripts/paired_regret.py --against ../parent-checkout --seeds 200-247 \\
        --workloads hartmann6
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.stats import wilcoxon

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_WORKLOADS = ("branin-long", "groupweights-cli")
WORKLOADS = (*PERFBENCH_WORKLOADS, "hartmann6")
HARTMANN6_TRIALS = 30
HARTMANN6_MIN = -3.32236801141551
REGRET_LINE = re.compile(r"^# (\S+) seed (\d+): .* regret (\S+)$", re.MULTILINE)

HARTMANN6_RUNS = f"""
import sys, time
from gpbo import optimize
from gpbo.benchmarks import default_space, make_builtin
for seed in map(int, sys.argv[1:]):
    t0 = time.perf_counter()
    best, _ = optimize(default_space("hartmann6"), make_builtin("hartmann6", {{}}),
                       total_trials={HARTMANN6_TRIALS}, seed=seed)
    seconds = time.perf_counter() - t0
    print(seed, repr(best.observed_objective - ({HARTMANN6_MIN!r})), seconds)
"""


def parse_seeds(text: str) -> list[int]:
    """``a-b`` (inclusive) or a comma-separated list."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def start(checkout: Path, workload: str, seeds: list[int]) -> subprocess.Popen:
    """One checkout's runs of one workload, started in the background."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if workload in PERFBENCH_WORKLOADS:
        command = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seeds", ",".join(map(str, seeds))]
    else:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                          env.get("PYTHONPATH")]))
        command = [sys.executable, "-c", HARTMANN6_RUNS, *map(str, seeds)]
    return subprocess.Popen(command, cwd=checkout, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def regrets(proc: subprocess.Popen, checkout: Path,
            workload: str) -> tuple[dict[int, float], list[float]]:
    """Seed -> regret from a finished run, and the wall seconds of each
    hartmann6 run (none for the perfbench workloads); exits if the run
    failed."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"{workload} in {checkout} exited {proc.returncode}:\n{err}")
    if workload in PERFBENCH_WORKLOADS:
        return {int(seed): float(r) for name, seed, r in REGRET_LINE.findall(out)
                if name == workload}, []
    rows = [line.split() for line in out.splitlines()]
    return {int(seed): float(r) for seed, r, _ in rows}, [float(s) for *_, s in rows]


def verdict(change: dict[int, float], parent: dict[int, float]) -> dict:
    """Wins, losses and ties of the change, the median paired difference and
    the signed-rank p over the seeds both sides ran."""
    seeds = sorted(change.keys() & parent.keys())
    diff = np.array([change[s] - parent[s] for s in seeds])
    nonzero = diff[diff != 0.0]
    p = float(wilcoxon(nonzero).pvalue) if nonzero.size else 1.0
    return {
        "seeds": len(seeds),
        "wins": int(np.sum(diff < 0)),
        "losses": int(np.sum(diff > 0)),
        "ties": int(np.sum(diff == 0)),
        "median_diff": float(np.median(diff)),
        "median_change": float(np.median([change[s] for s in seeds])),
        "median_parent": float(np.median([parent[s] for s in seeds])),
        "wilcoxon_p": round(p, 4),
        "regret": {"seeds": seeds, "change": [change[s] for s in seeds],
                   "parent": [parent[s] for s in seeds]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True, metavar="PATH",
                        help="the parent checkout to pair with this one")
    parser.add_argument("--seeds", default="100-147",
                        help="seed block, 'a-b' inclusive or comma-separated (default 100-147)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help=f"comma-separated subset of {', '.join(WORKLOADS)}")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    parent = args.against.resolve()
    if not (parent / "src" / "gpbo").is_dir():
        parser.error(f"{parent} has no src/gpbo")
    checkouts = {"change": ROOT, "parent": parent}
    report = {"seeds": args.seeds, "parent": str(parent), "workloads": {}}
    for workload in args.workloads.split(","):
        if workload not in WORKLOADS:
            parser.error(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        procs = {side: start(path, workload, seeds) for side, path in checkouts.items()}
        found = {side: regrets(procs[side], path, workload) for side, path in checkouts.items()}
        row = verdict(found["change"][0], found["parent"][0])
        timing = ""
        if found["change"][1]:
            row["median_run_s"] = {side: round(float(np.median(found[side][1])), 3)
                                   for side in checkouts}
            timing = (f"; median s per run {row['median_run_s']['parent']:.3f} -> "
                      f"{row['median_run_s']['change']:.3f}")
        report["workloads"][workload] = row
        print(f"{workload}: {row['wins']} better, {row['losses']} worse, {row['ties']} tied "
              f"of {row['seeds']}; median regret {row['median_parent']:.4g} -> "
              f"{row['median_change']:.4g}, median paired difference "
              f"{row['median_diff']:+.3g}, Wilcoxon p = {row['wilcoxon_p']}{timing}", flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
