"""Time gpbo's inner layers one by one, with fixed seeds.

Each layer is timed as the median (with quartiles) of ``REPEATS`` calls
on fixed inputs, in one process pinned to one CPU with one BLAS thread,
against the ``src/`` of the checkout this script belongs to:

* ``mll_grad_us``: one ``_mll_core`` with gradient, at (N, d) = (60, 2)
  with fitted noise and at (30, 5) with a fixed ``noise_diag``, each at
  the hyperparameters a fit picks on its data;
* ``fit_ms``: one ``fit`` with 3 restarts plus a warm start from the fit
  on the history one observation shorter, on the same two datasets;
* ``maximize_ms``: one ``maximize_acquisition`` on the two fitted models;
* ``sobol_1024_ms``: one 1024-point draw from a fresh 5-dimensional engine.

Next to each ``fit`` timing is its number of ``_mll_core`` calls
(``mll_core_calls``), and next to each ``maximize_acquisition`` timing its
number of ``posterior_grad`` calls (``posterior_grad_calls``).  The
counts are deterministic, so unlike the timings they do not move with
host drift.

Prints one JSON line with the timings, ``nproc`` and the Python, numpy
and scipy versions.

Usage:
    python scripts/layer_bench.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gpbo.acqopt  # noqa: E402
import gpbo.gp  # noqa: E402
from gpbo import SobolEngine, fit, incumbent_value, maximize_acquisition  # noqa: E402
from gpbo.gp import _mll_core, _sq_diffs  # noqa: E402

REPEATS = 51
FIT_RESTARTS = 3


def timed(call, scale: float) -> dict:
    """Median and quartiles of REPEATS calls, in units of 1/scale seconds."""
    call()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        times.append((time.perf_counter() - t0) * scale)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def counted(module, name: str, call) -> int:
    """How many times one ``call`` calls ``module.name``."""
    original = getattr(module, name)
    calls = 0

    def wrapper(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        call()
    finally:
        setattr(module, name, original)
    return calls


def dataset(n: int, d: int, seed: int, fixed_noise: bool):
    """A smooth noisy objective on n uniform random points, standardized."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    f = np.sin(6.0 * X[:, 0]) + np.sum((X - 0.4) ** 2, axis=1)
    y = f + 0.1 * rng.standard_normal(n)
    y = (y - y.mean()) / y.std()
    noise_diag = np.full(n, 0.01) if fixed_noise else None
    return X, y, noise_diag


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cases = {"n60_d2_fitted_noise": (60, 2, False), "n30_d5_fixed_noise": (30, 5, True)}
    out = {"mll_grad_us": {}, "fit_ms": {}, "maximize_ms": {}}
    for name, (n, d, fixed_noise) in cases.items():
        X, y, nd = dataset(n, d, seed=n + d, fixed_noise=fixed_noise)
        warm = fit(X[:-1], y[:-1], restarts=FIT_RESTARTS, seed=1,
                   noise_diag=None if nd is None else nd[:-1]).theta
        model = fit(X, y, restarts=FIT_RESTARTS, seed=2, noise_diag=nd, start=warm)
        spec = model.theta.kernel
        diff2 = _sq_diffs(X)
        out["mll_grad_us"][name] = timed(lambda: _mll_core(
            diff2, y, spec.family, spec.lengthscales, spec.signal_variance,
            model.theta.noise_variance, model.theta.mean.constant, nd, True,
        ), 1e6)
        def fit_once():
            fit(X, y, restarts=FIT_RESTARTS, seed=2, noise_diag=nd, start=warm)

        out["fit_ms"][name] = dict(
            timed(fit_once, 1e3), mll_core_calls=counted(gpbo.gp, "_mll_core", fit_once))
        incumbent = incumbent_value(model)

        def maximize_once():
            maximize_acquisition(model, incumbent, seed=3)

        out["maximize_ms"][name] = dict(
            timed(maximize_once, 1e3),
            posterior_grad_calls=counted(gpbo.acqopt, "posterior_grad", maximize_once),
        )
    out["sobol_1024_ms"] = timed(lambda: SobolEngine(5).next(1024), 1e3)
    out.update(
        repeats=REPEATS,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
