"""Expected improvement scored on GP posterior summaries.

The whole engine minimizes internally, so "improvement" always means
dropping below the incumbent.  With gamma(x) = (incumbent - mu(x)) / sigma(x):

    EI(x) = sigma(x) * (gamma * Phi(gamma) + phi(gamma))

At sigma below 1e-12 EI degenerates to its continuous limit, the hinge
max(incumbent - mu(x), 0).  The incumbent is the smallest posterior mean
over the training inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import UsageError
from .gp import GpModel, PosteriorSummary, posterior

_SIGMA_FLOOR = 1e-12
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def std_normal_pdf(z):
    """Standard normal density."""
    z = np.asarray(z, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def std_normal_cdf(z):
    """Standard normal CDF via the erf identity (max error well under 1e-12)."""
    z = np.asarray(z, dtype=float)
    return 0.5 * (1.0 + erf(z / _SQRT2))


def ei(summary: PosteriorSummary, incumbent: float) -> np.ndarray:
    """Closed-form expected improvement below the incumbent, per point."""
    mu = summary.means
    sigma = np.sqrt(summary.variances)
    degenerate = sigma < _SIGMA_FLOOR
    safe_sigma = np.where(degenerate, 1.0, sigma)
    gamma = (incumbent - mu) / safe_sigma
    values = safe_sigma * (gamma * std_normal_cdf(gamma) + std_normal_pdf(gamma))
    limit = np.maximum(incumbent - mu, 0.0)
    return np.maximum(np.where(degenerate, limit, values), 0.0)


def incumbent_value(model: GpModel) -> float:
    """Plug-in incumbent: smallest posterior mean over the training inputs.

    Under observation noise this shrinks lucky draws toward the model's
    belief; with zero noise it equals the best observed target.
    """
    if model.n == 0:
        raise UsageError("no incumbent exists for an empty model")
    return float(posterior(model, model.X).means.min())
