"""Exact Gaussian-process regression on the unit cube.

Everything here works in the normalized view: inputs in [0, 1]^d, targets
standardized by the caller.  The model is

    f ~ GP(m, k),    y_i = f(x_i) + eps_i,   eps_i ~ N(0, sigma2)

with a constant mean m and a stationary Matern-5/2 ARD kernel.  Inference
is dense.  One routine builds K + sigma2*I, factorizes it through the one
jitter ladder (:func:`factorize`, which escalates a diagonal jitter for
near-singular covariances such as duplicate inputs), and returns, every
time, the mll, its gradient, the Cholesky factor, the factor's inverse
(formed once, for the gradient) and alpha.  Fitting, :func:`mll`,
:func:`mll_grad` and :func:`make_model` all make that one evaluation; a
model keeps the inverse and alpha found at its hyperparameters, and
:func:`posterior` answers every query from them.

Hyperparameters theta = (lengthscales, signal variance, noise variance,
mean) are chosen by maximizing, from the default theta and an optional warm
start, the log marginal likelihood

    log p(y | X, theta) = -1/2 (y-m)' (K+sigma2 I)^{-1} (y-m)
                          - sum_i log L_ii - N/2 log(2 pi)

using the analytic gradient over log-parameters and a bounded quasi-Newton
local method (L-BFGS-B: scipy's core, driven by
:func:`gpbo.lbfgsb.minimize` without scipy's ``minimize`` wrapper).
When the warm start is in doubt (there is none, or it has a lengthscale or
the signal variance on a bound), ``FIT_RESTARTS - 1`` Sobol starts join
those two and every start is refined.  Otherwise the default and the warm
start are scored once each, and only the one with the larger mll is
refined.  The fit keeps the best hyperparameters, factor and alpha that any
evaluation reached, so nothing is re-scored after the runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, NumericsWarning, SpaceError, UsageError
from .lbfgsb import LbfgsbResult, minimize
from .scipy_cores import dpotrf, dpotrs, dtrtri
from .sobol import MAX_DIMENSION, SobolEngine

MATERN52 = "matern52"

LENGTHSCALE_BOUNDS = (1e-3, 1e3)
SIGNAL_VARIANCE_BOUNDS = (1e-4, 1e4)
NOISE_VARIANCE_BOUNDS = (1e-8, 1.0)
MEAN_BOUNDS = (-2.0, 2.0)

# Cold starts of a fit whose warm start is in doubt, all refined: the
# default hyperparameters first, then FIT_RESTARTS - 1 Sobol points.  A
# trusted warm start instead makes one run, from it or the default (see fit).
FIT_RESTARTS = 3

# Relative jitter ladder; scaled by the mean diagonal of K when factorizing.
JITTER_LADDER = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

_SQRT5 = math.sqrt(5.0)
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Matern-5/2 ARD kernel: per-dimension lengthscales and amplitude.

    ``family`` names the kernel and must be ``"matern52"``.
    """

    family: str
    lengthscales: np.ndarray
    signal_variance: float

    def __post_init__(self):
        if self.family != MATERN52:
            raise UsageError(f"unknown kernel family {self.family!r}")
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise UsageError("lengthscales must be strictly positive and finite")
        if not (np.isfinite(self.signal_variance) and self.signal_variance > 0):
            raise UsageError("signal_variance must be strictly positive and finite")


@dataclass(frozen=True)
class MeanSpec:
    """Constant prior mean."""

    constant: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.constant):
            raise UsageError("mean constant must be finite")


@dataclass(frozen=True, eq=False)
class GpHyperparams:
    kernel: KernelSpec
    mean: MeanSpec
    noise_variance: float

    def __post_init__(self):
        if not (np.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise UsageError("noise_variance must be finite and >= 0")


def default_hyperparams(d: int) -> GpHyperparams:
    """A sane starting model for unit-cube inputs and standardized targets."""
    return GpHyperparams(
        kernel=KernelSpec(MATERN52, np.full(d, 0.5), 1.0),
        mean=MeanSpec(0.0),
        noise_variance=1e-4,
    )


class FitRecord(NamedTuple):
    """The work of one :func:`fit`: ``runs`` holds each L-BFGS-B run's
    result, in start order, and ``scored`` counts the mll evaluations made
    outside them (the losing start's score when one run is made, else 0)."""

    scored: int
    runs: tuple[LbfgsbResult, ...]


@dataclass(frozen=True, eq=False)
class GpModel:
    """A GP on a nonempty history with its cached factorization.

    With L the lower Cholesky factor of K + noise + jitter I (the noise is
    ``theta.noise_variance`` I, or a fixed per-observation diagonal in its
    place), ``chol_inv`` is L^{-1}, computed once so that each posterior
    query is a matrix product, and ``alpha`` solves (L L') alpha = y - m.
    ``fit_record`` is the work of the :func:`fit` that chose ``theta``,
    or None for a model built at given hyperparameters.
    """

    X: np.ndarray
    theta: GpHyperparams
    chol_inv: np.ndarray
    alpha: np.ndarray
    jitter_used: float
    fit_record: FitRecord | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @cached_property
    def _query_invariants(self) -> tuple[np.ndarray, np.ndarray]:
        """(X / l)' as contiguous rows, one per dimension, and 1 / l: what
        every posterior query of this model shares."""
        inv_ls = 1.0 / self.theta.kernel.lengthscales
        return np.ascontiguousarray((self.X * inv_ls).T), inv_ls


@dataclass(frozen=True, eq=False)
class PosteriorSummary:
    """Predictive mean and variance per query point."""

    means: np.ndarray
    variances: np.ndarray


def _kernel_from_r2(s2: float, r2: np.ndarray, with_radial: bool = True):
    """Matern-5/2 k on scaled squared distances r2, and its radial factor
    -2 dk/d(r2) (None unless ``with_radial``).

    Overwrites r2, which becomes k.  One sqrt and one exp: with
    a = 1 + sqrt5 r and e = s2 exp(-sqrt5 r), k = (5/3 r2 + a) e and the
    radial factor is 5/3 a e.
    """
    a = np.sqrt(r2)
    e = np.multiply(a, -_SQRT5)
    np.exp(e, out=e)
    e *= s2
    a *= _SQRT5
    a += 1.0
    r2 *= 5.0 / 3.0
    r2 += a
    r2 *= e
    if not with_radial:
        return r2, None
    a *= e
    a *= 5.0 / 3.0
    return r2, a


def _jitters(K: np.ndarray):
    """Zero, then JITTER_LADDER scaled by the mean diagonal of K.

    The scale is computed only once the jitter-free attempt has failed.
    """
    yield 0.0
    scale = float(np.mean(np.diag(K)))
    if not np.isfinite(scale) or scale <= 0:
        scale = 1.0
    for step in JITTER_LADDER:
        yield step * scale


def factorize(K: np.ndarray, noise):
    """Cholesky of K + diag(noise) + jitter I with an escalating jitter ladder.

    ``noise`` is one variance for every observation or an (N,) array of
    per-observation variances.  Every factorization in the package goes
    through here.  Jitter starts at zero and escalates through
    JITTER_LADDER scaled by the mean diagonal of K (a proxy for the signal
    variance).  Returns (lower factor, jitter actually used).
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    loaded = K.diagonal() + noise
    previous = 0.0
    for jitter in _jitters(K):
        if jitter != previous:
            loaded += jitter - previous
            previous = jitter
        # The one copy of K per attempt: dpotrf factors it in place, read
        # through its transpose (Fortran order, the same symmetric matrix).
        A = K.copy()
        A.reshape(-1)[:: n + 1] = loaded
        L, info = dpotrf(A.T, lower=1, overwrite_a=1)
        if info == 0:
            return L, jitter
    A = K.copy()
    A.reshape(-1)[:: n + 1] = loaded - previous
    eigs = np.linalg.eigvalsh(A)
    raise NumericalError(
        "covariance not positive definite at maximum jitter",
        diagnostics={
            "min_eigenvalue": float(eigs.min()),
            "max_eigenvalue": float(eigs.max()),
            "max_jitter": previous,
        },
    )


class _MllParts(NamedTuple):
    value: float
    grad: np.ndarray
    chol: np.ndarray
    chol_inv: np.ndarray
    alpha: np.ndarray
    jitter: float


def _sq_diffs(X: np.ndarray) -> np.ndarray:
    """Squared input differences per dimension, shape (d, N, N), built one
    dimension at a time."""
    n, d = X.shape
    out = np.empty((d, n, n))
    for j, plane in enumerate(out):
        np.subtract.outer(X[:, j], X[:, j], out=plane)
        np.multiply(plane, plane, out=plane)
    return out


def _mll_core(diff2, y, lengthscales, s2, noise, m) -> _MllParts:
    """The one marginal-likelihood evaluation, behind fit, mll, mll_grad and
    make_model.

    Takes natural hyperparameters on precomputed squared differences
    (:func:`_sq_diffs`) and returns the mll, its gradient in the layout of
    :func:`_pack`, the Cholesky factor, its inverse (the gradient's, which
    a model keeps), alpha and the jitter used.  ``noise`` is the fitted
    noise variance, a float with a slot in the gradient, or a fixed (N,)
    diagonal without one.  A multi-start fit makes thousands of calls, so
    it stays on raw LAPACK.
    Raises NumericalError when the jitter ladder is exhausted.
    """
    d, n, _ = diff2.shape
    ls2 = 1.0 / (lengthscales * lengthscales)
    K, radial = _kernel_from_r2(s2, (ls2 @ diff2.reshape(d, -1)).reshape(n, n))
    L, jitter = factorize(K, noise)
    r = y - m
    alpha = dpotrs(L, r, lower=1)[0]
    value = (
        -0.5 * float(r @ alpha)
        - float(np.log(L.diagonal()).sum())
        - 0.5 * n * _LOG_2PI
    )
    # dL/dtheta = 1/2 tr(P dK~/dtheta) with P = alpha alpha' - K~^{-1}, and
    # dK/dlog l_j = radial * ls2_j * diff2_j.  K~^{-1} = W'W with W = L^{-1}
    # from dtrtri; numpy forms W'W by one symmetric rank-k update, so it is
    # exactly symmetric.  (dpotri's product step rounds differently with
    # more than one OpenBLAS thread, which would break thread-count replay.)
    W = dtrtri(L, lower=1)[0]
    P = alpha[:, None] * alpha
    P -= W.T @ W
    # The ladder's jitter is proportional to the mean diagonal of K, which
    # is s2, so it moves with log s2 as well: dK~/dlog s2 = K + jitter I.
    trace = float(P.trace())
    fitted_noise = np.ndim(noise) == 0
    grad = np.empty(d + (3 if fitted_noise else 2))
    grad[:d] = 0.5 * ls2 * (diff2.reshape(d, -1) @ (P * radial).ravel())
    grad[d] = 0.5 * (float(np.vdot(P, K)) + jitter * trace)
    if fitted_noise:
        grad[d + 1] = 0.5 * noise * trace
    grad[-1] = float(np.sum(alpha))
    return _MllParts(value, grad, L, W, alpha, jitter)


def _dataset(X, y, noise_diag):
    """The history as float arrays X (N, d), y (N,) and noise_diag (N,) or
    None, with N >= 1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if y.shape != (n,):
        raise SpaceError(f"y must have shape ({n},), one entry per row of X, got {y.shape}")
    if n < 1:
        raise UsageError("a GP needs at least one observation")
    if noise_diag is None:
        return X, y, None
    nd = np.asarray(noise_diag, dtype=float)
    if nd.shape != (n,):
        raise SpaceError(f"noise_diag must have shape ({n},), got {nd.shape}")
    return X, y, nd


def _evaluate(theta: GpHyperparams, X, y, noise_diag) -> tuple[np.ndarray, _MllParts]:
    """The history's X from :func:`_dataset` and the core routine run at
    theta on it."""
    X, y, nd = _dataset(X, y, noise_diag)
    spec = theta.kernel
    if X.shape[1] != spec.lengthscales.shape[0]:
        raise SpaceError(
            f"inputs have {X.shape[1]} columns, kernel has "
            f"{spec.lengthscales.shape[0]} lengthscales"
        )
    return X, _mll_core(
        _sq_diffs(X), y, spec.lengthscales, spec.signal_variance,
        theta.noise_variance if nd is None else nd, theta.mean.constant,
    )


def mll(theta: GpHyperparams, X: np.ndarray, y: np.ndarray, noise_diag=None) -> float:
    """Log marginal likelihood of the targets under theta."""
    return _evaluate(theta, X, y, noise_diag)[1].value


def mll_grad(theta: GpHyperparams, X: np.ndarray, y: np.ndarray, noise_diag=None) -> np.ndarray:
    """Analytic gradient of :func:`mll` over the fitting parameterization.

    One entry per coordinate of ``_pack(theta, noise_diag is None)``, in
    that order: the noise has one only when it is fitted rather than given
    as ``noise_diag``.  Uses the standard trace identity
    dL/dtheta = 1/2 tr((alpha alpha' - K~^{-1}) dK~/dtheta).
    """
    return _evaluate(theta, X, y, noise_diag)[1].grad


def make_model(X, y, theta: GpHyperparams, noise_diag=None) -> GpModel:
    """Assemble a GpModel for given hyperparameters (no fitting), N >= 1."""
    X, parts = _evaluate(theta, X, y, noise_diag)
    return GpModel(X, theta, parts.chol_inv, parts.alpha, parts.jitter)


def _pack(theta: GpHyperparams, with_noise: bool) -> np.ndarray:
    """theta as the fit's point z, the one statement of its layout: log
    lengthscale_j (j = 1..d), log signal variance, log noise variance only
    ``with_noise`` (fitted, not given), then the mean constant raw."""
    z = list(np.log(theta.kernel.lengthscales))
    z.append(math.log(theta.kernel.signal_variance))
    if with_noise:
        z.append(math.log(theta.noise_variance))
    z.append(theta.mean.constant)
    return np.asarray(z)


def _natural(z: np.ndarray, d: int, noise_diag):
    """The inverse of :func:`_pack`: (lengthscales, signal variance, noise,
    mean) at z, where the noise is the variance z holds or, when given,
    ``noise_diag`` in its place.

    The fit's objective and :func:`_unpack` both convert here, so
    ``make_model`` at the fitted theta reproduces the fitted model bitwise.
    """
    noise = math.exp(z[d + 1]) if noise_diag is None else noise_diag
    return np.exp(z[:d]), math.exp(z[d]), noise, float(z[-1])


def _unpack(z: np.ndarray, d: int, with_noise: bool) -> GpHyperparams:
    ls, s2, noise, m = _natural(z, d, None if with_noise else 0.0)
    return GpHyperparams(KernelSpec(MATERN52, ls, s2), MeanSpec(m), noise)


class _Box(NamedTuple):
    """The box L-BFGS-B searches for one (d, noise mode), packed like any
    theta, with the default start clipped into it.  ``edges`` and ``tol``
    are what :func:`_on_edge` compares with."""

    lo: np.ndarray
    hi: np.ndarray
    bounds: np.ndarray
    default: np.ndarray
    edges: np.ndarray
    tol: np.ndarray


@lru_cache(maxsize=None)
def _box(d: int, with_noise: bool) -> _Box:
    """The fit's box and default start, packed once per (d, noise mode)
    and read-only."""
    lo, hi = (
        _pack(GpHyperparams(KernelSpec(MATERN52, np.full(d, ls), s2), MeanSpec(m), v), with_noise)
        for ls, s2, v, m in zip(
            LENGTHSCALE_BOUNDS, SIGNAL_VARIANCE_BOUNDS, NOISE_VARIANCE_BOUNDS, MEAN_BOUNDS
        )
    )
    default = np.clip(_pack(default_hyperparams(d), with_noise), lo, hi)
    edges = np.concatenate([lo[: d + 1], hi[: d + 1]])
    box = _Box(lo, hi, np.column_stack([lo, hi]), default, edges,
               1e-9 * np.maximum(1.0, np.abs(edges)))
    for array in box:
        array.setflags(write=False)
    return box


def _on_edge(z: np.ndarray, box: _Box, d: int) -> bool:
    """Whether a log-lengthscale or the log signal variance of z lies on an
    edge of the box, within 1e-9 relative.  The mean on its bound and the
    noise on its floor do not count."""
    return bool(np.any(np.abs(np.tile(z[: d + 1], 2) - box.edges) <= box.tol))


def _start_points(lo, hi, seed: int, given: list, cold: int) -> list[np.ndarray]:
    """The given starts, then ``cold`` Sobol points over the box [lo, hi],
    or uniform draws from ``default_rng(seed)`` past Sobol's dimensions."""
    if cold == 0:
        return list(given)
    k = len(lo)
    if k <= MAX_DIMENSION:
        u = SobolEngine(k).fast_forward(seed % 4096).next(cold)
    else:
        u = np.random.default_rng(seed).random((cold, k))
    return list(given) + [lo + row * (hi - lo) for row in u]


def fit(X, y, seed: int = 0, noise_diag=None, start: GpHyperparams | None = None) -> GpModel:
    """Fit hyperparameters by maximum marginal likelihood from a few starts.

    A refined start runs bounded L-BFGS-B (:func:`gpbo.lbfgsb.minimize`,
    which takes scipy's steps bit for bit; max 200 iterations, projected
    gradient tolerance 1e-6, relative-reduction tolerance ``ftol`` 1e-7
    against scipy's default of about 2.2e-9) on the negative mll over
    log-parameters.  The objective keeps the best point it has evaluated,
    with its factor and alpha, so the largest mll any evaluation reached
    wins, ties going to the earliest; nothing is re-scored afterwards.  The
    default hyperparameters are always start 0 and a warm ``start``
    (typically the previous fit's theta on a history one observation
    shorter), clipped into the bounds, is start 1.  Both are evaluated, so
    the fitted mll is never worse than either's.

    The warm start is in doubt when no ``start`` is given, or when the
    clipped start has a lengthscale or the signal variance on a bound
    (within 1e-9 relative in log space); a mean on its bound or a noise
    variance on its floor is no doubt.  Then ``FIT_RESTARTS - 1`` Sobol
    starts follow, and every start is refined.  Otherwise the default and
    the warm start are scored once each and only the one with the larger
    mll is refined, the default on a tie; its score is the run's first
    evaluation, so no point is evaluated twice.  The returned model keeps
    the factorization computed at the winning hyperparameters, which
    ``make_model(X, y, model.theta, noise_diag)`` reproduces bitwise, and
    the fit's work as ``model.fit_record``.

    When ``noise_diag`` is given (per-observation noise variances), the
    noise is fixed rather than fitted.  A ``start`` from such a fit has
    noise variance 0; warming a fitted-noise fit from it uses the default
    noise variance for that coordinate.

    Parameters
    ----------
    X : (N, d) array of unit-cube inputs, N >= 1
    y : (N,) array of standardized targets
    seed : offsets the Sobol stream the cold starts are drawn from, or,
        past Sobol's 21 dimensions (d >= 19 with fitted noise, d >= 20
        with ``noise_diag``), seeds the ``np.random.default_rng`` that
        draws them uniformly from the box
    start : optional hyperparameters used as one extra start; unless it is
        in doubt, the Sobol starts are skipped and only the better of it
        and the default is refined
    """
    X, y, nd = _dataset(X, y, noise_diag)
    d = X.shape[1]
    with_noise = nd is None
    box = _box(d, with_noise)
    lo, hi = box.lo, box.hi
    given = [box.default]
    cold = FIT_RESTARTS - 1
    if start is not None:
        if start.kernel.lengthscales.shape != (d,):
            raise SpaceError(
                f"start has {start.kernel.lengthscales.shape[0]} lengthscales, "
                f"inputs have {d} columns"
            )
        if with_noise and start.noise_variance == 0.0:
            start = GpHyperparams(
                start.kernel, start.mean, default_hyperparams(d).noise_variance
            )
        given.append(np.clip(_pack(start, with_noise), lo, hi))
        if not _on_edge(given[-1], box, d):
            cold = 0
    diff2 = _sq_diffs(X)
    failed = (1e25, np.zeros(len(lo)))
    best_z, best = None, None

    def objective(z):
        nonlocal best_z, best
        try:
            parts = _mll_core(diff2, y, *_natural(z, d, nd))
        except NumericalError:
            return failed
        if not math.isfinite(parts.value):
            return failed
        # Every start is evaluated (scored, or first in its run) before any
        # step, so keeping the largest mll makes the fit never worse than
        # any start.
        if best is None or parts.value > best.value:
            best_z, best = np.array(z), parts
        return -parts.value, -parts.grad

    failures, runs, scored = [], [], 0
    starts, scores = _start_points(lo, hi, seed, given, cold), []
    if cold == 0:
        # A trusted warm start: score it and the default, and refine only
        # the larger mll (a tie goes to the default).  Its score is the
        # run's first evaluation, so no point is evaluated twice.
        try:
            scores = [objective(z) for z in given]
        except (np.linalg.LinAlgError, ValueError) as exc:
            failures.append(f"scoring: {exc}")
            starts = []
        else:
            pick = int(scores[1][0] < scores[0][0])
            starts, scores, scored = [given[pick]], [scores[pick]], 1
    for idx, z0 in enumerate(starts):
        try:
            runs.append(minimize(
                lambda z: scores.pop() if scores else objective(z),
                z0,
                bounds=box.bounds,
                options={"maxiter": 200, "gtol": 1e-6, "ftol": 1e-7},
            ))
        except (np.linalg.LinAlgError, ValueError) as exc:
            failures.append(f"restart {idx}: {exc}")
    if best is None:
        raise NumericalError(
            "every fit restart failed numerically", diagnostics={"failures": failures}
        )
    return GpModel(
        X, _unpack(best_z, d, with_noise), best.chol_inv, best.alpha, best.jitter,
        FitRecord(scored, tuple(runs)),
    )


def _queries(model: GpModel, Xq) -> np.ndarray:
    """Xq as a (q, d) float array whose d is the model's."""
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    d = model.theta.kernel.lengthscales.shape[0]
    if Xq.shape[1] != d:
        raise SpaceError(f"query points have {Xq.shape[1]} columns, model expects {d}")
    return Xq


def _posterior_parts(model: GpModel, Xq: np.ndarray, score=None):
    """The one posterior path, behind posterior and posterior_score, at
    (q, d) float query points Xq.

    Without ``score``, returns the means and the variances (clamped at
    zero).  With it, ``score(means, variances)`` returns values and their
    partials a in the mean and b in the variance, each of shape (q,); this
    returns the values and their gradients in x, a d mu/dx + b d sigma2/dx,
    of shape (q, d).
    """
    spec = model.theta.kernel
    m = model.theta.mean.constant
    # Explicit differences of scaled inputs (not the a^2+b^2-2ab trick), so
    # that coincident points give exactly zero, laid out as one contiguous
    # (q, N) plane per dimension.  Queries sit on rows, and every row is
    # reduced either by einsum or by one BLAS call of the same shape per
    # row (a stacked matmul), never by a batched gemm, whose kernels round
    # a row differently depending on how many rows share the call.
    Xt, inv_ls = model._query_invariants
    diff = (Xq * inv_ls).T[:, :, None] - Xt[:, None, :]
    kq, radial = _kernel_from_r2(
        spec.signal_variance, np.einsum("jqi,jqi->qi", diff, diff), score is not None
    )
    v = np.matmul(kq[:, None, :], model.chol_inv.T)[:, 0]
    means = m + np.einsum("qi,i->q", kq, model.alpha)
    variances = spec.signal_variance - np.einsum("qk,qk->q", v, v)
    worst = variances.min()
    if worst < 0.0:
        if worst < -1e-8:
            warnings.warn(
                f"posterior variance {worst} below the rounding floor", NumericsWarning
            )
        variances = np.maximum(variances, 0.0)
    if score is None:
        return means, variances
    values, a, b = score(means, variances)
    # dk_i/dx_j = -radial_i diff_ij / l_j, and L^{-T} v = K~^{-1} k*, so each
    # gradient sums diff_ij / l_j radial_i (2 b (K~^{-1} k*)_i - a alpha_i)
    # over i: one (d, N) by (N, 1) product per row.
    weights = (2.0 * b)[:, None, None] * np.matmul(v[:, None, :], model.chol_inv)
    weights -= a[:, None, None] * model.alpha
    weights *= radial[:, None, :]
    grads = np.matmul(diff.transpose(1, 0, 2), weights.transpose(0, 2, 1))[:, :, 0]
    grads *= inv_ls
    return values, grads


def posterior(model: GpModel, Xq) -> PosteriorSummary:
    """Predictive mean and variance of the latent function at query points.

    mu(x)     = m + k*' alpha
    sigma2(x) = k(x, x) - || L^{-1} k* ||^2   (clamped at zero)

    Batch-invariant: each point's mean and variance are bitwise the same
    however many other points share the call, so scores computed one
    point at a time and in batches can be compared exactly.

    Computed variances below -1e-8 are a numerics bug, not rounding, and
    emit a NumericsWarning.
    """
    return PosteriorSummary(*_posterior_parts(model, _queries(model, Xq)))


def posterior_score(model: GpModel, Xq: np.ndarray, score):
    """A score of the posterior and its gradient in x, in one pass.

    ``score(means, variances)`` takes the posterior at the (q, d) float
    array Xq, which is not checked, and returns per point a value and its
    partials a in the mean and b in the variance, each of shape (q,).
    Returns the values and their gradients a d mu/dx + b d sigma2/dx,
    shape (q, d), where

        d mu/dx_j     =    sum_i dk_i/dx_j alpha_i
        d sigma2/dx_j = -2 sum_i dk_i/dx_j (K~^{-1} k*)_i

    with dk/dx_j = -(5/3) s2 (1 + sqrt5 r) exp(-sqrt5 r) (x_j - z_j) / l_j^2,
    which has no singularity at r = 0.  Neither gradient is formed on its
    own.  The variance's gradient ignores its clamp at zero.
    Batch-invariant like :func:`posterior`.
    """
    return _posterior_parts(model, Xq, score)
