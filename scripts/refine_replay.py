"""Replay every acquisition of fixed-seed runs against each start refined alone.

Records every ``maximize_acquisition`` call that the loop makes in:

* ``branin-long`` and ``groupweights-cli``, seeds 0-2, each run through
  perfbench's ``workloads.run_once`` (imported, never modified);
* ``hartmann6`` (d = 6), 30 trials through ``gpbo.optimize``, seeds 0-5.

For each acquisition it rebuilds the Sobol scatter, takes its top
``REFINE_COUNT`` starts with EI > 0, and refines each alone with
``scipy.optimize.minimize(..., jac=True, method="L-BFGS-B")`` on its
-log EI at scipy's default tolerances (``maxiter`` 200).  The reference
is the best EI of those points and of the scatter; the shortfall of the
checkout's answer is (reference - answer) / reference, relative EI.

Per workload it prints the acquisitions replayed; the shortfalls beyond
1e-4 and beyond 1e-2, and the worst one; the refine's batched steps and
the rows they evaluated during the recorded runs; and the share of
refine evaluations spent in L-BFGS-B runs that ended on a failed line
search (ABNORMAL), all read from the refines' row results as
``scripts/layer_bench.py`` reads them.  A second line gives the median
and 93rd percentile of lockstep steps per refine (the longest row of
each refine sets its steps) and the rows that ended on a failed line
search, with how many of them took how many evaluations after their
last iterate was evaluated (each result's ``tail``): the evaluations
spent in the line searches that failed.  The last line is the same table
as JSON.

``--src DIR`` replays the gpbo package under DIR instead of this
checkout's, for example a parent checkout's ``src/``.

Usage:
    python scripts/refine_replay.py
    python scripts/refine_replay.py --src ../parent-checkout/src
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from layer_bench import SRC, refine_counts, refines  # also pins BLAS to one thread

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"branin-long": range(3), "groupweights-cli": range(3), "hartmann6": range(6)}
HARTMANN6_TRIALS = 30
THRESHOLDS = (1e-4, 1e-2)


def record(name: str, seed: int, out_root: Path) -> list:
    """(model, incumbent, seed, value) of every acquisition of one run."""
    import gpbo.loop

    calls = []
    original = gpbo.loop.maximize_acquisition

    def recorded(model, incumbent, acq_seed):
        x, value = original(model, incumbent, acq_seed)
        calls.append((model, incumbent, acq_seed, value))
        return x, value

    gpbo.loop.maximize_acquisition = recorded
    try:
        if name == "hartmann6":
            from gpbo.benchmarks import default_space, make_builtin

            gpbo.optimize(default_space(name), make_builtin(name, {}),
                          total_trials=HARTMANN6_TRIALS, seed=seed)
        else:
            import workloads

            workloads.run_once(workloads.WORKLOADS[name], seed, out_root)
    finally:
        gpbo.loop.maximize_acquisition = original
    return calls


def reference(model, incumbent: float, seed: int) -> float:
    """Best EI of the scatter and of each top start refined alone by scipy."""
    from scipy.optimize import minimize

    from gpbo import SobolEngine, ei, posterior
    from gpbo.acqopt import CANDIDATE_COUNT, REFINE_COUNT
    from gpbo.acquisition import log_ei
    from gpbo.gp import posterior_score

    d = model.d
    candidates = SobolEngine(d).fast_forward(seed % 4096).next(CANDIDATE_COUNT)
    values = ei(posterior(model, candidates), incumbent)
    values = np.where(np.isfinite(values), values, -np.inf)
    order = np.argsort(-values, kind="stable")
    best = float(values[order[0]])

    def objective(x):
        values, grads = posterior_score(
            model, x[None], lambda means, variances: log_ei(means, variances, incumbent)
        )
        return -float(values[0]), -grads[0]

    for idx in order[:REFINE_COUNT]:
        if values[idx] > 0:
            res = minimize(objective, candidates[idx], jac=True, method="L-BFGS-B",
                           bounds=[(0.0, 1.0)] * d, options={"maxiter": 200})
            x = np.clip(res.x, 0.0, 1.0)[None]
            best = max(best, float(ei(posterior(model, x), incumbent)[0]))
    return best


def replay(name: str, out_root: Path) -> dict:
    """One workload's shortfalls and refine counts over its seeds."""
    import gpbo.acqopt

    calls = []
    with refines(gpbo.acqopt) as log:
        for seed in SEEDS[name]:
            calls += record(name, seed, out_root)
    shortfalls = []
    for model, incumbent, seed, value in calls:
        ref = reference(model, incumbent, seed)
        shortfalls.append(max(0.0, (ref - value) / ref) if ref > 0 else 0.0)
    counts = refine_counts(log)
    evals = counts["refine_evals"]
    steps = [max(res.nfev for res in results) for _, results in log]
    failed_tails = [res.tail for _, results in log for res in results
                    if res.end == "line_search_failed"]
    steps_median, steps_p93 = np.percentile(steps, [50, 93]) if steps else (0, 0)
    return {
        "seeds": list(SEEDS[name]),
        "acquisitions": len(calls),
        **{f"beyond_{t:g}": sum(s > t for s in shortfalls) for t in THRESHOLDS},
        "worst_shortfall": max(shortfalls, default=0.0),
        **counts,
        "abnormal_share": round(evals["line_search_failed"] / max(sum(evals.values()), 1), 4),
        "steps_per_refine": {"median": float(steps_median), "p93": float(steps_p93)},
        "failed_rows": len(failed_tails),
        # evaluations after the last iterate -> rows that ended so
        "failed_row_tails": dict(sorted(Counter(failed_tails).items())),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=SRC, metavar="DIR",
                        help="replay the gpbo package under DIR (default: this checkout's src/)")
    args = parser.parse_args()
    if not (args.src / "gpbo").is_dir():
        parser.error(f"{args.src} has no gpbo package")
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    report = {"src": str(args.src.resolve()), "workloads": {}}
    with tempfile.TemporaryDirectory() as out_root:
        for name in SEEDS:
            row = replay(name, Path(out_root))
            report["workloads"][name] = row
            print(f"{name}: {row['acquisitions']} acquisitions; shortfall beyond 1e-4 in "
                  f"{row['beyond_0.0001']}, beyond 1e-2 in {row['beyond_0.01']}, worst "
                  f"{row['worst_shortfall']:.3g}; {row['refine_steps']} refine steps "
                  f"on {row['refine_rows']} rows; ABNORMAL share of refine evaluations "
                  f"{row['abnormal_share']:.1%}", flush=True)
            tails = ", ".join(f"{count} after {evals}"
                              for evals, count in row["failed_row_tails"].items())
            steps = row["steps_per_refine"]
            print(f"  lockstep steps per refine: median {steps['median']:g}, p93 "
                  f"{steps['p93']:g}; {row['failed_rows']} rows ended on a failed line "
                  f"search, by evaluations after their last iterate: {tails or 'none'}",
                  flush=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
