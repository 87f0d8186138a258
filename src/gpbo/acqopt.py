"""Inner proxy optimization: x_next = argmax EI(x) over [0, 1]^d.

Deterministic multi-start search: score a Sobol scatter of 256 candidates
by expected improvement, then locally refine the best 8 by coordinate-wise
quadratic-fit ascent.  Each coordinate move fits a parabola through three
stencil values (a numerical-derivative Newton step), keeps every iterate
clamped inside the box, and only ever accepts strict improvements, so
refinement never loses to the initial scatter.  Ties break toward the
lowest candidate index.

The starts are refined in lockstep.  Each start is a generator that
yields the points it wants scored next and receives their scores; every
round, the driver concatenates all live starts' requests into one scorer
call and hands each start its slice.  Because ``posterior`` is
batch-invariant, this returns bitwise what refining the starts one at a
time would.
"""

from __future__ import annotations

import numpy as np

from .acquisition import ei
from .errors import NumericalError
from .gp import GpModel, posterior
from .sobol import SobolEngine

CANDIDATE_COUNT = 256
REFINE_COUNT = 8
MAX_SWEEPS = 100
TOL = 1e-9


def _quadratic_vertex(ts, fs):
    """Stationary point of the parabola through three (t, f) pairs.

    Divided differences: p(t) = f0 + d1 (t - t0) + a (t - t0)(t - t1),
    concave iff a < 0, vertex at (t0 + t1)/2 - d1 / (2a).
    """
    t0, t1, t2 = ts
    d1 = (fs[1] - fs[0]) / (t1 - t0)
    d2 = (fs[2] - fs[1]) / (t2 - t1)
    a = (d2 - d1) / (t2 - t0)
    if not np.isfinite(a) or a >= 0:
        return None
    vertex = 0.5 * (t0 + t1) - d1 / (2.0 * a)
    return vertex if np.isfinite(vertex) else None


def _refine(x0: np.ndarray, v0: float):
    """Coordinate-wise quadratic-fit ascent, clamped to the unit box.

    A generator: it yields each batch of points it needs scored, expects
    their scores sent back, and returns the final (x, value).

    Any strict improvement is kept (so refinement never loses), but only
    improvements beyond a tolerance-scaled threshold keep the step size
    from shrinking; otherwise identical-to-rounding values would stall
    the sweep loop at its iteration cap.
    """
    x = x0.copy()
    v = v0
    d = x.shape[0]
    h = 0.125
    for _ in range(MAX_SWEEPS):
        significant = False
        for j in range(d):
            lo = max(0.0, x[j] - h)
            hi = min(1.0, x[j] + h)
            if hi - lo < TOL:
                continue
            ts = sorted({lo, x[j], hi})
            if len(ts) < 3:
                ts = sorted({lo, 0.5 * (lo + hi), hi})
            pts = np.repeat(x[None, :], len(ts), axis=0)
            pts[:, j] = ts
            known = dict(zip(ts, (yield pts)))
            vertex = _quadratic_vertex(ts, [known[t] for t in ts])
            trials = [lo, hi]
            if vertex is not None:
                trials.append(min(1.0, max(0.0, vertex)))
            missing = [t for t in trials if t not in known]
            if missing:
                pts = np.repeat(x[None, :], len(missing), axis=0)
                pts[:, j] = missing
                for t, f in zip(missing, (yield pts)):
                    known[t] = f
            t_best = max(known, key=lambda t: (known[t], -abs(t - x[j])))
            gain = known[t_best] - v
            if gain > 0:
                x[j] = t_best
                v = known[t_best]
            if gain > TOL * max(1.0, abs(v)):
                significant = True
        if not significant:
            h *= 0.125
            if h < TOL:
                break
    return x, v


def _lockstep(score, starts: list) -> list:
    """Run refinement generators together, one scorer call per round.

    Returns each generator's (x, value), in the order given.
    """
    results = [None] * len(starts)
    pending = {}

    def advance(i, scores):
        try:
            pending[i] = starts[i].send(scores)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(starts)):
        advance(i, None)
    while pending:
        live = list(pending.items())
        pending.clear()
        scores = score(np.concatenate([pts for _, pts in live]))
        offset = 0
        for i, pts in live:
            advance(i, scores[offset:offset + len(pts)])
            offset += len(pts)
    return results


def maximize_acquisition(
    model: GpModel, incumbent: float, seed: int
) -> tuple[np.ndarray, float]:
    """Best point in [0, 1]^d under EI below the incumbent, with its value.

    Fully deterministic for fixed (model, incumbent, seed): the Sobol
    scatter is seeded by ``seed``, refinement is exact arithmetic, and
    ties go to the lowest-index candidate.
    """

    def score(pts):
        return ei(posterior(model, pts), incumbent)

    candidates = SobolEngine(model.d).fast_forward(seed % 4096).next(CANDIDATE_COUNT)
    values = np.asarray(score(candidates), dtype=float)
    values = np.where(np.isfinite(values), values, -np.inf)
    if not np.any(values > -np.inf):
        raise NumericalError("acquisition is non-finite at every candidate")
    order = np.argsort(-values, kind="stable")[:REFINE_COUNT]
    top = [idx for idx in order if values[idx] > -np.inf]
    refined = _lockstep(score, [_refine(candidates[idx], values[idx]) for idx in top])
    best_x, best_v, best_idx = None, -np.inf, None
    for idx, (x, v) in zip(top, refined):
        if v > best_v or (v == best_v and best_idx is not None and idx < best_idx):
            best_x, best_v, best_idx = x, v, idx
    return best_x, float(best_v)
