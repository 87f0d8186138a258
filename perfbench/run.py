"""gpbo benchmark: ask latency, run time and regret on two workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload branin-long --seed 0 --seconds 54 --trace 0

One run measures one workload.  It first times fresh interpreters that
import gpbo and open an experiment (``setup_s``), then runs whole BO runs
over a block of seeds until ``--seconds`` would be exceeded (at least the
workload's minimum number of runs), checks every run, and prints one JSON
object as its last line of output.  ``--trace 1`` runs each seed twice,
untraced and then traced, and prints the per-layer metrics instead.

The seed block is ``seed * 1000, seed * 1000 + 1, ...``; ``--seeds`` names
it explicitly (every listed seed runs, whatever ``--seconds`` says), so a
claim can be checked on seeds that were not used to make it.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the measurements do not depend on how many cores are idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# One CPU for the benchmark and every process it starts, so that the host
# probe (see workloads.PROBE_REF_S) runs on the CPU whose speed it scales by.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SEED_STRIDE = 1000
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ask_ms_p50": "ms",
    "ask_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}

# gpbo comes from this checkout's src/ and nowhere else: without it there is
# nothing to measure, so exit 2 before printing any result.
sys.path[:0] = [str(HERE), str(SRC)]
try:
    import gpbo
except ImportError as exc:
    print(f"error: cannot import gpbo from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if SRC.resolve() not in Path(gpbo.__file__).resolve().parents:
    print(f"error: gpbo was imported from {gpbo.__file__}, not from {SRC}", file=sys.stderr)
    sys.exit(2)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from evaluator import host_probe  # noqa: E402


def measure_setup(space: list, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing gpbo and opening
    an experiment on the workload's space (which loads the Sobol table),
    scaled like every timing by ``host_probe`` runs in between."""
    code = "\n".join(
        [
            "import json, sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            "import gpbo",
            inspect.getsource(workloads.build_space),
            "gpbo.new_experiment(build_space(json.loads(sys.argv[1])))",
        ]
    )
    times, probes = [], [host_probe()]
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, json.dumps(space)], check=True)
        times.append(time.perf_counter() - began)
        probes.append(host_probe())
    ref = workloads.PROBE_REF_S
    return statistics.median(t * 2 * ref / (a + b) for t, a, b in zip(times, probes, probes[1:]))


def seed_block(args) -> tuple:
    """The seeds to run, and whether all of them must run."""
    if args.seeds:
        return [int(s) for s in args.seeds.split(",")], True
    return itertools.count(args.seed * SEED_STRIDE), False


def run_block(args, min_runs: int, one_seed) -> list:
    """Call ``one_seed`` over the block: at least ``min_runs`` times, then
    while another call is expected to end within ``args.seconds``."""
    seeds, run_all = seed_block(args)
    results = []
    began = time.perf_counter()
    for seed in seeds:
        results.append(one_seed(seed))
        elapsed = time.perf_counter() - began
        done = len(results)
        if run_all or done < min_runs:
            continue
        if elapsed + elapsed / done > args.seconds:
            break
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", help="comma-separated seed block (overrides --seed)")
    parser.add_argument("--short", action="store_true", help="one BO run, one set-up sample")
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    if args.short:
        w = dataclasses.replace(w, min_runs=1)
        args.seconds = 0.0
    failures = workloads.check_objectives()

    if args.trace:
        metrics, records, failures_run = traced(w, args)
    else:
        metrics, records, failures_run = untraced(w, args)
    failures += failures_run
    failures += [f for r in records for f in workloads.check_run(w, r)]
    failures += workloads.check_block(w, records)

    for r in records:
        print(
            f"# {w.name} seed {r.seed}: run_s {r.run_s:.3f} before scaling, "
            f"host_probe {1e3 * statistics.fmean(r.probe_s):.3f} ms on average, "
            f"regret {workloads.regret(w, r.best_arm):.6g}",
        )
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    attempted = sum(len(r.statuses) for r in records)
    failed = sum(s == "FAILED" for r in records for s in r.statuses)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def untraced(w, args):
    setup_s = measure_setup(w.space, 1 if args.short else SETUP_REPEATS)
    records = run_block(args, w.min_runs, lambda seed: workloads.run_once(w, seed, OUT))
    steps = [r.scaled_steps_s() for r in records]
    gaps = [1e3 * g for s in steps for g in s[workloads.gap_steps(w.trials)]]
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(float(np.sum(s)) for s in steps),
        "ask_ms_p50": statistics.median(gaps),
        "ask_ms_tail": float(np.percentile(gaps, w.tail_percentile)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, records, []


def traced(w, args):
    failures = []

    def pair(seed):
        plain = workloads.run_once(w, seed, OUT)
        with tracing.Tracer() as tracer:
            record = workloads.run_once(w, seed, OUT)
        tracer.require_calls(w.kind, w.name)
        where = f"{w.name} seed {seed}"
        failures.extend(tracer.check_fits(where))
        if (plain.arms, plain.objectives) != (record.arms, record.objectives):
            failures.append(f"{where}: the traced run took another path than the untraced one")
        return plain, record, tracer.layer_metrics(record.generators)

    pairs = run_block(args, 1, pair)
    records = [record for _, record, _ in pairs]
    metrics = {
        name: {"value": statistics.median(layers[name] for _, _, layers in pairs), "unit": unit}
        for name, unit in tracing.LAYER_UNITS.items()
    }
    overhead = statistics.median(np.sum(r.scaled_steps_s()) for r in records) - statistics.median(
        np.sum(plain.scaled_steps_s()) for plain, _, _ in pairs
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["regret"] = {
        "value": statistics.median(workloads.regret(w, r.best_arm) for r in records),
        "unit": "objective",
    }
    return metrics, records, failures


if __name__ == "__main__":
    sys.exit(main())
