"""Inner proxy optimization: x_next = argmax acquisition(x) over [0, 1]^d.

Deterministic multi-start search: score a Sobol scatter of candidates,
then locally refine the best few by coordinate-wise quadratic-fit ascent.
Each coordinate move fits a parabola through three stencil values (a
numerical-derivative Newton step), keeps every iterate clamped inside the
box, and only ever accepts strict improvements, so refinement never loses
to the initial scatter.  Ties break toward the lowest candidate index.

The starts are refined in lockstep.  Each start is a generator that
yields the points it wants scored next and receives their scores; every
round, the driver concatenates all live starts' requests into one scorer
call and hands each start its slice.  Because ``posterior`` is
batch-invariant, this returns bitwise what refining the starts one at a
time would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import EI, PI, AcquisitionSpec, ei, pi, ucb
from .errors import NumericalError, SpaceError, UsageError
from .gp import GpModel, posterior
from .sobol import SobolEngine


@dataclass(frozen=True)
class AcqOptConfig:
    candidate_count: int = 256
    refine_count: int = 8
    max_local_iters: int = 100
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.candidate_count < 1 or self.refine_count < 1 or self.max_local_iters < 1:
            raise UsageError("acquisition-optimizer counts must all be >= 1")
        if self.refine_count > self.candidate_count:
            raise UsageError("refine_count must not exceed candidate_count")
        if not self.tol > 0:
            raise UsageError("tol must be positive")


def _make_scorer(model: GpModel, spec: AcquisitionSpec):
    if spec.kind == EI:
        return lambda pts: ei(posterior(model, pts), spec.incumbent)
    if spec.kind == PI:
        return lambda pts: pi(posterior(model, pts), spec.incumbent)
    return lambda pts: ucb(posterior(model, pts), spec.beta)


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


def _refine(x0: np.ndarray, v0: float, cfg: AcqOptConfig):
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
    for _ in range(cfg.max_local_iters):
        significant = False
        for j in range(d):
            lo = max(0.0, x[j] - h)
            hi = min(1.0, x[j] + h)
            if hi - lo < cfg.tol:
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
            if gain > cfg.tol * max(1.0, abs(v)):
                significant = True
        if not significant:
            h *= 0.125
            if h < cfg.tol:
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
    model: GpModel, spec: AcquisitionSpec, d: int, cfg: AcqOptConfig
) -> tuple[np.ndarray, float]:
    """Best point in [0, 1]^d under the acquisition, with its value.

    Fully deterministic for fixed (model, spec, cfg): the Sobol scatter is
    seeded by cfg.seed, refinement is exact arithmetic, and ties go to the
    lowest-index candidate.
    """
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    if model.d != d:
        raise SpaceError(f"model has {model.d} input dimensions, expected {d}")
    engine = SobolEngine(d).fast_forward(cfg.seed % 4096)
    candidates = engine.next(cfg.candidate_count)
    score = _make_scorer(model, spec)
    values = np.asarray(score(candidates), dtype=float)
    values = np.where(np.isfinite(values), values, -np.inf)
    if not np.any(values > -np.inf):
        raise NumericalError("acquisition is non-finite at every candidate")
    order = np.argsort(-values, kind="stable")[: cfg.refine_count]
    top = [idx for idx in order if values[idx] > -np.inf]
    refined = _lockstep(score, [_refine(candidates[idx], values[idx], cfg) for idx in top])
    best_x, best_v, best_idx = None, -np.inf, None
    for idx, (x, v) in zip(top, refined):
        if v > best_v or (v == best_v and best_idx is not None and idx < best_idx):
            best_x, best_v, best_idx = x, v, idx
    return best_x, float(best_v)
