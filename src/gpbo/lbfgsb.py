"""Bounded L-BFGS-B: scipy's core driven without its ``minimize`` wrapper.

:func:`minimize` runs scipy's L-BFGS-B routine (``setulb``) in the
reverse-communication loop that ``scipy.optimize.minimize(fun, x0,
jac=True, method="L-BFGS-B", ...)`` runs, with the same arguments, so it
takes the same steps bit for bit.  It leaves out what gpbo never uses:
unbounded coordinates, finite differences, callbacks and the inverse
Hessian of the result.  At gpbo's sizes scipy's per-evaluation wrapper
(its scalar-function memo and the per-iteration result objects) cost
about as much as the objective itself.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .scipy_cores import setulb

MAXCOR = 10
MAXLS = 20
# scipy's option defaults.
GTOL = 1e-5
FTOL = 2.220446049250313e-09


class LbfgsbResult(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool


def minimize(fun, x0, bounds, options) -> LbfgsbResult:
    """Minimize ``fun`` over the finite box ``bounds`` from ``x0``.

    ``fun(x)`` returns the value and its gradient at a copy of ``x``, and
    is never called twice in a row at one point.  ``bounds`` is one
    ``(lo, hi)`` pair per coordinate; ``x0`` is clipped into them and
    evaluated before the first step.  ``options`` must give ``maxiter``
    and may give ``gtol`` and ``ftol``.  ``success`` is set exactly when
    a tolerance stopped the run, not ``maxiter`` or a failed line search.
    """
    # scipy's maxfun (15000) is left out: an iteration evaluates about
    # 2 * MAXLS points at most (a line search, and one more after a failed
    # one clears the memory), so it cannot bind at gpbo's maxiter of 200.
    maxiter = options["maxiter"]
    gtol = options.get("gtol", GTOL)
    factr = options.get("ftol", FTOL) / np.finfo(float).eps
    lo, hi = np.array(bounds, dtype=float).T.copy()
    x = np.clip(np.asarray(x0, dtype=float).ravel(), lo, hi)
    n = x.size
    seen_x = x.copy()
    seen_f, seen_g = fun(x.copy())
    nfev, nit = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    nbd = np.full(n, 2, np.int32)
    wa = np.zeros(2 * MAXCOR * n + 5 * n + 11 * MAXCOR * MAXCOR + 8 * MAXCOR)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    while True:
        setulb(MAXCOR, x, lo, hi, nbd, f, g, factr, gtol, wa, iwa, task,
               lsave, isave, dsave, MAXLS, ln_task)
        if task[0] == 3:  # wants f and g at x
            if not np.array_equal(x, seen_x):
                seen_x = x.copy()
                seen_f, seen_g = fun(x.copy())
                nfev += 1
            # A fresh copy each time, as scipy passes: setulb may write g.
            f, g = seen_f, np.array(seen_g, dtype=np.float64)
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= maxiter:
                task[0], task[1] = 5, 504
        else:
            break
    return LbfgsbResult(x, f, nfev, nit, bool(task[0] == 4))
