"""Expected improvement scored on GP posterior summaries.

The whole engine minimizes internally, so "improvement" always means
dropping below the incumbent.  With gamma(x) = (incumbent - mu(x)) / sigma(x):

    EI(x) = sigma(x) h(gamma),    h = gamma Phi(gamma) + phi(gamma)

At sigma below 1e-12 EI degenerates to its continuous limit, the hinge
max(incumbent - mu(x), 0).  The incumbent is the smallest posterior mean
over the training inputs.

h is evaluated in one form for every gamma: h/phi = 1 + gamma r with
r = Phi/phi = sqrt(pi/2) erfcx(-gamma/sqrt2), which does not cancel in
the left tail where gamma Phi + phi does.  Below gamma = -_FAR (-100),
h/phi is replaced by its asymptotic series, and above gamma = _CAP (8),
where Phi(gamma) = 1 and phi(gamma) < 1e-14, h is gamma to double
precision.

EI underflows to 0 from gamma ~ -38 on, and is flat long before, so the
acquisition optimizer ascends :func:`log_ei` instead (Ament et al. 2023,
"Unexpected improvements to expected improvement"), which stays finite.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .gp import GpModel, PosteriorSummary, posterior
from .scipy_cores import erfcx

_SIGMA_FLOOR = 1e-12
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_SQRT_HALF_PI = np.sqrt(0.5 * np.pi)
_SQRT2 = np.sqrt(2.0)
# Below -_FAR, 1 - |gamma| Phi(gamma)/phi(gamma) loses more digits to
# cancellation (eps gamma^2 relative) than the truncated series drops.
_FAR = 100.0
# Above _CAP, gamma Phi + phi rounds to gamma, and past gamma ~ 37.7 erfcx
# of -gamma/sqrt2 would overflow.
_CAP = 8.0


def _pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density."""
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def _ratio(gamma):
    """r = Phi/phi and h/phi = 1 + gamma r, at gamma clamped to <= _CAP.

    With x = -gamma, r = sqrt(pi/2) erfcx(x/sqrt2) and h/phi = 1 - x r,
    which is exact for x >= 1 (x r >= 0.65 there) and cancels by at most
    a factor 3 on (-1, 0).  Below gamma = -_FAR (-100), h/phi is replaced
    by its asymptotic series (1 - 3/x^2 + 15/x^4 - 105/x^6) / x^2.
    """
    x = -np.minimum(gamma, _CAP)
    r = _SQRT_HALF_PI * erfcx(x / _SQRT2)
    ratio = 1.0 - x * r
    far = x > _FAR
    if far.any():
        xf2 = x[far] ** -2
        ratio[far] = xf2 * (1.0 - xf2 * (3.0 - xf2 * (15.0 - 105.0 * xf2)))
    return r, ratio


def ei(summary: PosteriorSummary, incumbent: float) -> np.ndarray:
    """Closed-form expected improvement below the incumbent, per point.

    h is phi(gamma) (h/phi) from :func:`_ratio`, which keeps full relative
    accuracy until EI underflows, and gamma itself above the cap.
    """
    mu = summary.means
    sigma = np.sqrt(summary.variances)
    degenerate = sigma < _SIGMA_FLOOR
    safe_sigma = np.where(degenerate, 1.0, sigma)
    gamma = (incumbent - mu) / safe_sigma
    h = _pdf(gamma) * _ratio(gamma)[1]
    above = gamma > _CAP
    if above.any():
        h[above] = gamma[above]
    limit = np.maximum(incumbent - mu, 0.0)
    return np.maximum(np.where(degenerate, limit, safe_sigma * h), 0.0)


def log_ei(means: np.ndarray, variances: np.ndarray, incumbent: float):
    """log EI with its partial derivatives in the mean and the variance, per point.

    log EI = log sigma + log h(gamma), finite wherever sigma is above the
    floor, including deep in the left tail where :func:`ei` underflows to
    0.  Below the floor sigma is clamped to it, which keeps log EI finite
    and, where the hinge is positive, equal to its log up to rounding.
    Through :func:`_ratio`, log h is -gamma^2/2 - log sqrt(2 pi) +
    log(h/phi), and since h' = Phi, d log h / d gamma = Phi/h = r / (h/phi);
    above the cap they are log gamma and 1/gamma.  d/dsigma =
    (1 - gamma d log h / d gamma) / sigma, and d/dvariance = d/dsigma /
    (2 sigma), with sigma clamped as above.
    Returns (values, d/dmu, d/dvariance).
    """
    sigma = np.maximum(np.sqrt(variances), _SIGMA_FLOOR)
    gamma = (incumbent - means) / sigma
    r, ratio = _ratio(gamma)
    log_h = -0.5 * gamma * gamma - _HALF_LOG_2PI + np.log(ratio)
    dlog_h = r / ratio
    above = gamma > _CAP
    if above.any():
        log_h[above] = np.log(gamma[above])
        dlog_h[above] = 1.0 / gamma[above]
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
