"""Acquisition functions scored on GP posterior summaries.

The whole engine minimizes internally, so "improvement" always means
dropping below the incumbent.  With gamma(x) = (incumbent - mu(x)) / sigma(x):

    EI(x)  = sigma(x) * (gamma * Phi(gamma) + phi(gamma))
    PI(x)  = Phi(gamma)
    UCB(x) = -(mu(x) - beta * sigma(x))     (returned as a maximize-me score)

At sigma below 1e-12 each formula degenerates to its continuous limit.
The Monte-Carlo EI estimate averages max(incumbent - sample, 0) over
seeded posterior draws; it exists to cross-check the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import UsageError
from .gp import GpModel, PosteriorSummary, posterior, rsample

_SIGMA_FLOOR = 1e-12
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

EI = "ei"
PI = "pi"
UCB = "ucb"


@dataclass(frozen=True)
class AcquisitionSpec:
    """Which acquisition to score and the constants it needs.

    ``incumbent`` is the current best value in standardized minimization
    units (required by ei and pi); ``beta`` is the ucb trade-off.
    """

    kind: str
    incumbent: float | None = None
    beta: float = 2.0

    def __post_init__(self):
        if self.kind not in (EI, PI, UCB):
            raise UsageError(f"unknown acquisition kind {self.kind!r}")
        if self.kind in (EI, PI) and self.incumbent is None:
            raise UsageError(f"{self.kind} requires an incumbent value")
        if self.kind == UCB and not self.beta > 0:
            raise UsageError(f"ucb requires beta > 0, got {self.beta}")


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


def pi(summary: PosteriorSummary, incumbent: float) -> np.ndarray:
    """Probability of improvement below the incumbent, per point."""
    mu = summary.means
    sigma = np.sqrt(summary.variances)
    degenerate = sigma < _SIGMA_FLOOR
    safe_sigma = np.where(degenerate, 1.0, sigma)
    values = std_normal_cdf((incumbent - mu) / safe_sigma)
    limit = (mu < incumbent).astype(float)
    return np.where(degenerate, limit, values)


def ucb(summary: PosteriorSummary, beta: float) -> np.ndarray:
    """Lower confidence bound in minimization form, negated into a score."""
    if not beta > 0:
        raise UsageError(f"ucb requires beta > 0, got {beta}")
    return -(summary.means - beta * np.sqrt(summary.variances))


def mc_ei_from_posterior(
    summary: PosteriorSummary, incumbent: float, n: int, seed: int
) -> np.ndarray:
    """Sample-average EI from a posterior summary; deterministic per seed.

    The estimate at point q depends on (seed, q), so values are stable for
    a fixed batch of query points but not across reorderings.
    """
    samples = rsample(summary, n, seed)
    return np.mean(np.maximum(incumbent - samples, 0.0), axis=0)


def mc_ei(model: GpModel, points, incumbent: float, n: int, seed: int) -> np.ndarray:
    """Monte-Carlo EI at query points of a model."""
    return mc_ei_from_posterior(posterior(model, points), incumbent, n, seed)


def incumbent_value(model: GpModel) -> float:
    """Plug-in incumbent: smallest posterior mean over the training inputs.

    Under observation noise this shrinks lucky draws toward the model's
    belief; with zero noise it equals the best observed target.
    """
    if model.n == 0:
        raise UsageError("no incumbent exists for an empty model")
    return float(posterior(model, model.X).means.min())
