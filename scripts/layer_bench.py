"""Time gpbo's inner layers one by one, with fixed seeds.

Each layer is timed as the median (with quartiles) of ``REPEATS`` calls
on fixed inputs, in one process pinned to one CPU with one BLAS thread,
against the ``src/`` of the checkout this script belongs to (or the one
``--src`` names):

* ``mll_grad_us``: one ``mll_grad``, at (N, d) = (60, 2) and (60, 6)
  with fitted noise and at (30, 5) with a fixed ``noise_diag``, each at
  the hyperparameters a fit picks on its data;
* ``fit_ms``: one ``fit`` warm-started from the fit on the history one
  observation shorter, as the loop fits, on the same three datasets.
  It runs the Sobol starts only if that warm start is in doubt (see
  ``gpbo.gp.fit``); otherwise it scores the default and warm starts and
  times one L-BFGS-B run from the better of the two;
* ``fit_cold_ms``: one ``fit`` with no warm start, which always runs the
  default start and the Sobol starts, on the same three datasets;
* ``mll_core_ms``, beside each ``fit_ms`` and ``fit_cold_ms`` case: the
  time one such ``fit`` spends inside ``gpbo.gp._mll_core``, timed in a
  separate pass, so the rest of ``fit_ms`` is the fit's own work;
* ``posterior_256_us``: one 256-point ``posterior`` on the fitted
  models, the size of one chunk of the acquisition's Sobol scatter;
* ``refine_eval_us``: one evaluation of the objective that the
  acquisition refine hands ``gpbo.lbfgsb.minimize_rows`` (-log EI and its
  gradient in x) on 8 points, and beside it (``one_row``) on 1 point:
  most lockstep steps evaluate only a few of the 8 starts;
* ``maximize_ms``: one ``maximize_acquisition`` on the fitted models;
* ``sobol_1024_ms``: one 1024-point draw from a fresh 5-dimensional engine;
* ``lbfgsb_us_per_eval``: one ``gpbo.gp.minimize`` run on a fixed 6-d box
  quadratic, whose evaluations cost a few microseconds, divided by its
  number of evaluations (``nfev``, reported beside it): the optimizer's
  own cost per evaluation, apart from any objective.

Next to each ``fit`` timing are its numbers of ``_mll_core`` calls
(``mll_core_calls``: the scoring calls and the runs' ``nfev`` in the
model's ``fit_record``) and of L-BFGS-B runs (``lbfgs_runs``).  Next to
each ``maximize_acquisition`` timing are the refine's batched steps
(``refine_steps``: its longest row's ``nfev``), the rows they evaluate
(``refine_rows``: all rows' ``nfev``), and how each L-BFGS-B run ended
(``refine_ends``, its result's ``end``), with its evaluations
(``refine_evals``).  The counts are deterministic, so unlike the timings
they do not move with host drift.

Prints one JSON line with the timings, ``nproc`` and the Python, numpy
and scipy versions.

``--against PATH`` compares this checkout with another one instead.  It
runs the script ``ROUNDS`` times per side in fresh interpreters,
alternating which side goes first, against this checkout's ``src/`` and
``PATH/src``.  Host drift moves both sides of a round alike, so for each
layer it prints the median over rounds per side and the median and range
of the per-round change/parent ratio; a range that stays on one side of
1 is a change the host's drift cannot explain.  The last line is the
same table as JSON.

Usage:
    python scripts/layer_bench.py
    python scripts/layer_bench.py --against ../parent-checkout
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 51
ROUNDS = 10
COUNT_KEYS = ("mll_core_calls", "lbfgs_runs", "refine_steps", "refine_rows",
              "refine_ends", "refine_evals", "nfev")
REFINE_ENDS = ("converged", "line_search_failed", "maxiter")


def quartiles(times) -> dict:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def timed(call, scale: float) -> dict:
    """Median and quartiles of REPEATS calls, in units of 1/scale seconds."""
    call()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        times.append((time.perf_counter() - t0) * scale)
    return quartiles(times)


def timed_inside(module, name: str, call, scale: float) -> dict:
    """Median and quartiles over REPEATS calls of ``call`` of the time spent
    inside ``module.name``, in units of 1/scale seconds."""
    original = getattr(module, name)
    spent = 0.0

    def wrapper(*args, **kwargs):
        nonlocal spent
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spent += time.perf_counter() - t0

    setattr(module, name, wrapper)
    try:
        call()
        times = []
        for _ in range(REPEATS):
            spent = 0.0
            call()
            times.append(spent * scale)
    finally:
        setattr(module, name, original)
    return quartiles(times)


@contextlib.contextmanager
def refines(acqopt):
    """While open, list the objective and the row results of each
    acquisition refine, as ``maximize_acquisition`` hands them to and gets
    them from ``acqopt.minimize_rows``.  ``acqopt`` is the ``gpbo.acqopt``
    module."""
    original, log = acqopt.minimize_rows, []

    def capture(fun, *args, **kwargs):
        log.append((fun, original(fun, *args, **kwargs)))
        return log[-1][1]

    acqopt.minimize_rows = capture
    try:
        yield log
    finally:
        acqopt.minimize_rows = original


def refine_counts(log) -> dict:
    """The lockstep steps of the refines in ``log`` (each refine's longest
    row's ``nfev``), the rows they evaluate (all rows' ``nfev``), and each
    L-BFGS-B run's end with its evaluations."""
    counts = {"refine_steps": 0, "refine_rows": 0,
              "refine_ends": dict.fromkeys(REFINE_ENDS, 0),
              "refine_evals": dict.fromkeys(REFINE_ENDS, 0)}
    for _, results in log:
        counts["refine_steps"] += max(res.nfev for res in results)
        counts["refine_rows"] += sum(res.nfev for res in results)
        for res in results:
            counts["refine_ends"][res.end] += 1
            counts["refine_evals"][res.end] += res.nfev
    return counts


def dataset(n: int, d: int, seed: int, fixed_noise: bool):
    """A smooth noisy objective on n uniform random points, standardized."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    f = np.sin(6.0 * X[:, 0]) + np.sum((X - 0.4) ** 2, axis=1)
    y = f + 0.1 * rng.standard_normal(n)
    y = (y - y.mean()) / y.std()
    noise_diag = np.full(n, 0.01) if fixed_noise else None
    return X, y, noise_diag


def optimizer_cost(minimize) -> dict:
    """Microseconds per evaluation of one ``minimize`` run on a 6-d box
    quadratic, with the run's ``nfev``."""
    weights, centre = np.logspace(0.0, 3.0, 6), np.linspace(-0.5, 1.5, 6)

    def quadratic(x):
        r = x - centre
        return float(weights @ (r * r)), 2.0 * weights * r

    def run_once():
        return minimize(quadratic, np.zeros(6), bounds=[(-1.0, 1.0)] * 6,
                        options={"maxiter": 200})

    nfev = run_once().nfev
    return dict(timed(run_once, 1e6 / nfev), nfev=nfev)


def measure(src: Path) -> dict:
    """Every layer's timing against the gpbo under ``src``."""
    sys.path.insert(0, str(src))
    import scipy

    import gpbo.acqopt
    import gpbo.gp
    from gpbo import SobolEngine, fit, incumbent_value, maximize_acquisition
    from gpbo.gp import mll_grad, posterior

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cases = {"n60_d2_fitted_noise": (60, 2, False), "n30_d5_fixed_noise": (30, 5, True),
             "n60_d6_fitted_noise": (60, 6, False)}
    out = {"mll_grad_us": {}, "fit_ms": {}, "fit_cold_ms": {}, "posterior_256_us": {},
           "refine_eval_us": {}, "maximize_ms": {}}
    for name, (n, d, fixed_noise) in cases.items():
        X, y, nd = dataset(n, d, seed=n + d, fixed_noise=fixed_noise)
        warm = fit(X[:-1], y[:-1], seed=1, noise_diag=None if nd is None else nd[:-1]).theta
        model = fit(X, y, seed=2, noise_diag=nd, start=warm)
        out["mll_grad_us"][name] = timed(lambda: mll_grad(model.theta, X, y, nd), 1e6)

        for layer, start in (("fit_ms", warm), ("fit_cold_ms", None)):
            def fit_once(start=start):
                return fit(X, y, seed=2, noise_diag=nd, start=start)

            record = fit_once().fit_record
            out[layer][name] = dict(
                timed(fit_once, 1e3),
                mll_core_ms=timed_inside(gpbo.gp, "_mll_core", fit_once, 1e3),
                mll_core_calls=record.scored + sum(run.nfev for run in record.runs),
                lbfgs_runs=len(record.runs),
            )
        queries = np.random.default_rng(4).random((256, d))
        out["posterior_256_us"][name] = timed(lambda: posterior(model, queries), 1e6)
        incumbent = incumbent_value(model)

        def maximize_once():
            maximize_acquisition(model, incumbent, seed=3)

        with refines(gpbo.acqopt) as log:
            maximize_once()
        objective = log[0][0]
        out["refine_eval_us"][name] = dict(timed(lambda: objective(queries[:8]), 1e6),
                                           one_row=timed(lambda: objective(queries[:1]), 1e6))
        out["maximize_ms"][name] = dict(timed(maximize_once, 1e3), **refine_counts(log))
    out["sobol_1024_ms"] = timed(lambda: SobolEngine(5).next(1024), 1e3)
    out["lbfgsb_us_per_eval"] = optimizer_cost(gpbo.gp.minimize)
    out.update(
        repeats=REPEATS,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
    )
    return out


def layers(result: dict) -> dict:
    """``layer.case`` -> the result's entry for it, timings and counts; a
    timing inside an entry (``mll_core_ms``, ``one_row``) follows it as
    ``layer.case.name``."""
    flat = {}
    for layer, value in result.items():
        if isinstance(value, dict) and "median" in value:
            flat[layer] = value
        elif isinstance(value, dict):
            for case, entry in value.items():
                flat[f"{layer}.{case}"] = entry
                for name, inner in entry.items():
                    if isinstance(inner, dict) and "median" in inner:
                        flat[f"{layer}.{case}.{name}"] = inner
    return flat


def compare(parent: Path) -> dict:
    """Alternate ROUNDS fresh runs per side; per layer, the median per side
    and the median and range of the per-round change/parent ratio."""
    sides = {"change": SRC, "parent": parent / "src"}
    runs = {"change": [], "parent": []}
    for r in range(ROUNDS):
        for side in (("change", "parent") if r % 2 == 0 else ("parent", "change")):
            proc = subprocess.run(
                [sys.executable, __file__, "--src", str(sides[side])],
                capture_output=True, text=True, check=True,
            )
            runs[side].append(layers(json.loads(proc.stdout.splitlines()[-1])))
    table = {}
    for key in [key for key in runs["change"][0] if key in runs["parent"][0]]:
        change = [run[key]["median"] for run in runs["change"]]
        base = [run[key]["median"] for run in runs["parent"]]
        ratios = [c / p for c, p in zip(change, base)]
        row = {
            "change": round(float(np.median(change)), 3),
            "parent": round(float(np.median(base)), 3),
            "ratio_median": round(float(np.median(ratios)), 3),
            "ratio_range": [round(min(ratios), 3), round(max(ratios), 3)],
        }
        for count in COUNT_KEYS:
            if count in runs["change"][0][key]:
                row[count] = {"change": runs["change"][0][key][count],
                              "parent": runs["parent"][0][key][count]}
        table[key] = row
    return {"rounds": ROUNDS, "repeats": REPEATS, "parent": str(parent), "layers": table}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="compare with the checkout at PATH, over alternating rounds")
    parser.add_argument("--src", type=Path, default=SRC, metavar="DIR",
                        help="time the gpbo package under DIR (default: this checkout's src/)")
    args = parser.parse_args()
    if args.against is None:
        print(json.dumps(measure(args.src)))
        return 0
    if not (args.against / "src" / "gpbo").is_dir():
        parser.error(f"{args.against} has no src/gpbo")
    report = compare(args.against.resolve())
    print(f"{'layer':40} {'parent':>10} {'change':>10} {'ratio':>7}  range")
    for key, row in report["layers"].items():
        low, high = row["ratio_range"]
        print(f"{key:40} {row['parent']:10.3f} {row['change']:10.3f} "
              f"{row['ratio_median']:7.3f}  {low:.3f}-{high:.3f}")
        for count in COUNT_KEYS:
            if count in row:
                print(f"  {count}: parent {row[count]['parent']}, change {row[count]['change']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
