"""Bounded L-BFGS-B: scipy's core driven without its ``minimize`` wrapper.

:func:`minimize_rows` runs scipy's L-BFGS-B routine (``setulb``) from k
starts at once, in the reverse-communication loop that
``scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", ...)``
runs, with the same arguments.  Each start (a row) has its own ``setulb``
state: its own memory, line search, tolerance test and memo of the last
point evaluated.  The rows are stepped in lockstep: each step evaluates
every row that waits for a value in one call of the objective.  An
objective whose rows do not depend on each other therefore sends each row
along the path of a lone scipy run from its start, bit for bit.
:func:`minimize` is the one-row case.

It leaves out what gpbo never uses: unbounded coordinates, finite
differences, callbacks and the inverse Hessian of the result.  At gpbo's
sizes scipy's per-evaluation wrapper (its scalar-function memo and the
per-iteration result objects) cost about as much as the objective itself.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .scipy_cores import setulb

# scipy's option defaults.
MAXCOR = 10
MAXLS = 20
GTOL = 1e-5
FTOL = 2.220446049250313e-09


class LbfgsbResult(NamedTuple):
    """One run's last iterate ``x`` and its work.  ``end`` is ``"converged"``,
    ``"maxiter"`` or ``"line_search_failed"``, and ``tail`` counts the
    evaluations made after ``x`` was evaluated as the last iterate (the
    start is the first): the failed line searches' evaluations, else 0."""

    x: np.ndarray
    end: str
    nfev: int
    nit: int
    tail: int

    @property
    def success(self) -> bool:
        return self.end == "converged"


class _Row:
    """One start's ``setulb`` state, its last evaluation and its counts."""

    __slots__ = ("x", "f", "g", "task", "args", "seen_x", "seen_f", "seen_g", "nfev", "nit",
                 "iterate_nfev")

    def __init__(self, x, f, g, shared, work):
        self.x, self.seen_x, self.seen_f, self.seen_g = x, x.tolist(), f, g
        self.nfev, self.nit, self.iterate_nfev = 1, 0, 1
        self.f = np.array(0.0)
        self.g, wa, iwa, self.task, lsave, isave, dsave, ln_task = work
        # setulb's arguments, in its order.  f and g are overwritten in
        # place with each value and gradient handed to setulb.
        lo, hi, nbd, factr, gtol, maxls = shared
        self.args = (MAXCOR, x, lo, hi, nbd, self.f, self.g, factr, gtol, wa, iwa,
                     self.task, lsave, isave, dsave, maxls, ln_task)


def minimize_rows(fun, x0, bounds, options) -> list[LbfgsbResult]:
    """Minimize each row of ``fun`` over the finite box ``bounds``, from
    the matching row of ``x0``.

    ``fun(X)`` takes a (k, n) array of points, one per row still running,
    and returns their values (k,) and gradients (k, n); row i of the
    answer must depend on row i of ``X`` alone.  A row is never handed
    the point it was last evaluated at.  ``bounds`` is one ``(lo, hi)``
    pair per coordinate, shared by every row; ``x0`` is clipped into them
    and evaluated in one call before the first step.  ``options`` must
    give ``maxiter`` and may give ``gtol``, ``ftol`` and ``maxls`` (the
    most evaluations one line search may take, scipy's 20 by default),
    which apply to each row alone.  A row's ``end`` names scipy's
    ``status``: 0 converged, 1 maxiter and 2 line_search_failed.
    """
    # scipy's maxfun (15000) is left out: an iteration evaluates about
    # 2 * maxls points at most (a line search, and one more after a failed
    # one clears the memory), 40 at scipy's default, so it cannot bind at
    # gpbo's maxiter of 200.
    maxiter = options["maxiter"]
    gtol = options.get("gtol", GTOL)
    factr = options.get("ftol", FTOL) / np.finfo(float).eps
    lo, hi = np.array(bounds, dtype=float).T.copy()
    X = np.clip(np.array(x0, dtype=float, ndmin=2), lo, hi)
    k, n = X.shape
    shared = lo, hi, np.full(n, 2, np.int32), factr, gtol, options.get("maxls", MAXLS)
    # Each row's setulb work arrays are one row of these.
    work = zip(
        np.zeros((k, n)), np.zeros((k, 2 * MAXCOR * n + 5 * n + 11 * MAXCOR * MAXCOR + 8 * MAXCOR)),
        np.zeros((k, 3 * n), np.int32), np.zeros((k, 2), np.int32), np.zeros((k, 4), np.int32),
        np.zeros((k, 44), np.int32), np.zeros((k, 29)), np.zeros((k, 2), np.int32),
    )
    F, G = fun(X.copy())
    rows = [_Row(*row, shared, next(work)) for row in zip(X, F, G)]
    running = rows
    while running:
        waiting = []
        for row in running:
            task, args = row.task, row.args
            while True:
                setulb(*args)
                state = task[0]
                if state == 3:  # wants f and g at x
                    # A list compares as scipy's np.array_equal memo does.
                    x = row.x.tolist()
                    if x != row.seen_x:
                        row.seen_x = x
                        waiting.append(row)
                        break
                    # setulb may write g, so it gets a fresh copy each time.
                    row.f[()] = row.seen_f
                    row.g[:] = row.seen_g
                elif state == 1:  # a new iterate, evaluated last
                    row.nit += 1
                    row.iterate_nfev = row.nfev
                    if row.nit >= maxiter:
                        task[0], task[1] = 5, 504
                else:
                    break
        if not waiting:
            break
        F, G = fun(np.array([row.x for row in waiting]))
        for row, f, g in zip(waiting, F, G):
            row.seen_f, row.seen_g = f, g
            row.f[()] = f
            row.g[:] = g
            row.nfev += 1
        running = waiting
    # setulb's task 4 is CONVERGENCE and 5 the STOP set at maxiter; on a
    # finite box it ends otherwise only ABNORMAL, on a failed line search.
    ends = {4: "converged", 5: "maxiter"}
    return [LbfgsbResult(row.x, ends.get(int(row.task[0]), "line_search_failed"), row.nfev,
                         row.nit, row.nfev - row.iterate_nfev)
            for row in rows]


def minimize(fun, x0, bounds, options) -> LbfgsbResult:
    """Minimize ``fun`` over the finite box ``bounds`` from ``x0``: the
    one-row case of :func:`minimize_rows`.

    ``fun(x)`` returns the value and its gradient at a copy of ``x``, and
    is never called twice in a row at one point.
    """
    def one_row(X):
        f, g = fun(X[0])
        return (f,), (g,)

    return minimize_rows(one_row, x0, bounds, options)[0]
