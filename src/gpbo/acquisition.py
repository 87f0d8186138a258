"""Expected improvement scored on GP posterior summaries.

The whole engine minimizes internally, so "improvement" always means
dropping below the incumbent.  With gamma(x) = (incumbent - mu(x)) / sigma(x):

    EI(x) = sigma(x) * (gamma * Phi(gamma) + phi(gamma))

At sigma below 1e-12 EI degenerates to its continuous limit, the hinge
max(incumbent - mu(x), 0).  The incumbent is the smallest posterior mean
over the training inputs.

EI underflows to 0 from gamma ~ -38 on, and is flat long before, so the
acquisition optimizer ascends :func:`log_ei` instead (Ament et al. 2023,
"Unexpected improvements to expected improvement"), which stays finite.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .gp import GpModel, PosteriorSummary, posterior
from .scipy_cores import erfcx, ndtr

_SIGMA_FLOOR = 1e-12
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_SQRT_HALF_PI = np.sqrt(0.5 * np.pi)
_SQRT2 = np.sqrt(2.0)
# Below -_FAR, 1 - |gamma| Phi(gamma)/phi(gamma) loses more digits to
# cancellation (eps gamma^2 relative) than the truncated series drops.
_FAR = 100.0


def _pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density.  Its CDF is scipy's ``ndtr``, which switches
    to erfc below zero, so Phi(-10) ~ 7.6e-24 keeps its digits."""
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def _tail(gamma):
    """r = Phi/phi and h/phi = 1 - |gamma| r at |gamma| clamped to >= 1.

    Both go through erfcx, so neither cancels in the left tail where
    gamma Phi + phi does.  Below gamma = -_FAR (-100), h/phi is replaced by
    its asymptotic series (1 - 3/g^2 + 15/g^4 - 105/g^6) / g^2.  Only the
    entries with gamma <= -1 are meant to be read.
    """
    x = np.maximum(-gamma, 1.0)
    r = _SQRT_HALF_PI * erfcx(x / _SQRT2)
    # x r >= 0.65 for x >= 1, so 1 - x r is exact.
    ratio = 1.0 - x * r
    far = x > _FAR
    if far.any():
        xf2 = x[far] ** -2
        ratio[far] = xf2 * (1.0 - xf2 * (3.0 - xf2 * (15.0 - 105.0 * xf2)))
    return r, ratio


def ei(summary: PosteriorSummary, incumbent: float) -> np.ndarray:
    """Closed-form expected improvement below the incumbent, per point.

    For gamma <= -1 the bracket is evaluated as phi(gamma) (h/phi) through
    :func:`_tail`, which keeps full relative accuracy until EI underflows.
    """
    mu = summary.means
    sigma = np.sqrt(summary.variances)
    degenerate = sigma < _SIGMA_FLOOR
    safe_sigma = np.where(degenerate, 1.0, sigma)
    gamma = (incumbent - mu) / safe_sigma
    pdf = _pdf(gamma)
    # Most scored points lie in the left tail, so the tail form is taken
    # everywhere and gamma Phi + phi only where gamma > -1.
    h = pdf * _tail(gamma)[1]
    near = gamma > -1.0
    h[near] = gamma[near] * ndtr(gamma[near]) + pdf[near]
    limit = np.maximum(incumbent - mu, 0.0)
    return np.maximum(np.where(degenerate, limit, safe_sigma * h), 0.0)


def log_ei(summary: PosteriorSummary, incumbent: float):
    """log EI with its partial derivatives in the mean and the variance, per point.

    log EI = log sigma + log h(gamma) with h = gamma Phi + phi, finite
    wherever sigma is above the floor, including deep in the left tail
    where :func:`ei` underflows to 0.  Below the floor sigma is clamped to
    it, which keeps log EI finite and, where the hinge is positive, equal
    to its log up to rounding.  h' = Phi, so d log h / d gamma = Phi / h.
    For gamma <= -1 both go through :func:`_tail`: log h is
    -gamma^2/2 - log sqrt(2 pi) + log(h/phi) and d log h / d gamma is
    r / (h/phi).  d/dsigma = (1 - gamma d log h / d gamma) / sigma, and
    d/dvariance = d/dsigma / (2 sigma), with sigma clamped as above.
    Returns (values, d/dmu, d/dvariance).
    """
    sigma = np.maximum(np.sqrt(summary.variances), _SIGMA_FLOOR)
    gamma = (incumbent - summary.means) / sigma
    near = np.maximum(gamma, -1.0)
    cdf = ndtr(near)
    h = near * cdf + _pdf(near)
    r, ratio = _tail(gamma)
    tail = gamma <= -1.0
    log_h = np.where(tail, -0.5 * gamma * gamma - _HALF_LOG_2PI + np.log(ratio), np.log(h))
    dlog_h = np.where(tail, r / ratio, cdf / h)
    d_sigma = (1.0 - gamma * dlog_h) / sigma
    return np.log(sigma) + log_h, -dlog_h / sigma, d_sigma / (2.0 * sigma)


def incumbent_value(model: GpModel) -> float:
    """Plug-in incumbent: smallest posterior mean over the training inputs.

    Under observation noise this shrinks lucky draws toward the model's
    belief; with zero noise it equals the best observed target.
    """
    if model.n == 0:
        raise UsageError("no incumbent exists for an empty model")
    return float(posterior(model, model.X).means.min())
