"""Inner proxy optimization: x_next = argmax EI(x) over [0, 1]^d.

Deterministic multi-start search in the raw-samples-then-restarts pattern
of BoTorch's ``optimize_acqf``: score a Sobol scatter of 1024 candidates
by expected improvement, then refine the best 8 (those with EI > 0), each
by its own bounded L-BFGS-B run on its log-EI, using the analytic gradient
of the posterior.  The runs are stepped in lockstep
(:func:`gpbo.lbfgsb.minimize_rows`): each step scores every start that
waits for a value in one :func:`gpbo.gp.posterior_score` call, which
returns -log EI and its gradient in x in one pass.  The posterior is
batch-invariant, so each start takes the path of its lone run.  log-EI
(Ament et al. 2023) stays finite and informative where EI is flat or
underflows to 0.  A run stops after 200 iterations or once a step raises
its log-EI by less than 1e-5 of its magnitude (``ftol``).  Near a noisy
optimum the posterior variance is about 1e-6 and log-EI carries about
1e-5 of rounding noise, so a tighter ``ftol`` spends its steps in line
searches that end on that noise.  For the same reason one line search
takes at most 8 evaluations (``maxls``, scipy's 20 by default).  Almost
every accepted step takes 1 to 7.  A search that needs more is mostly
lost in the noise: L-BFGS-B then clears its memory and tries one more,
and the run ends on a failed line search.  At 20 such a start spent
about 30 evaluations past its last iterate, and every lockstep step of
its refine waited for it.

A refined point replaces the best so far only if its EI, scored through
the same :func:`posterior` path as the scatter, is strictly larger, so
the result is never below the scatter.  Ties break toward the lowest
candidate index, so a flat EI returns the first Sobol point.
"""

from __future__ import annotations

import numpy as np

from .acquisition import ei, log_ei
from .errors import NumericalError
from .gp import GpModel, posterior, posterior_score
from .lbfgsb import minimize_rows
from .sobol import SobolEngine

CANDIDATE_COUNT = 1024
# Scored in chunks, which keeps peak memory where a 256-point scatter left
# it; posterior is batch-invariant, so the values are those of one call.
SCORE_CHUNK = 256
REFINE_COUNT = 8


def maximize_acquisition(
    model: GpModel, incumbent: float, seed: int
) -> tuple[np.ndarray, float]:
    """Best point in [0, 1]^d under EI below the incumbent, with its value.

    Fully deterministic for fixed (model, incumbent, seed): the Sobol
    scatter is seeded by ``seed``, the refinement runs deterministic
    L-BFGS-B, and ties go to the lowest-index candidate.
    """
    d = model.d
    candidates = SobolEngine(d).fast_forward(seed % 4096).next(CANDIDATE_COUNT)
    values = np.concatenate([
        ei(posterior(model, chunk), incumbent)
        for chunk in np.split(candidates, CANDIDATE_COUNT // SCORE_CHUNK)
    ])
    values = np.where(np.isfinite(values), values, -np.inf)
    if not np.any(values > -np.inf):
        raise NumericalError("acquisition is non-finite at every candidate")
    order = np.argsort(-values, kind="stable")
    best_x, best_v = candidates[order[0]], values[order[0]]
    top = [idx for idx in order[:REFINE_COUNT] if values[idx] > 0]
    if not top:
        return best_x, float(best_v)

    def neg_log_ei(means, variances):
        values, d_mu, d_var = log_ei(means, variances, incumbent)
        return -values, -d_mu, -d_var

    def objective(Z):
        return posterior_score(model, Z, neg_log_ei)

    runs = minimize_rows(
        objective, candidates[top], bounds=[(0.0, 1.0)] * d,
        options={"maxiter": 200, "ftol": 1e-5, "maxls": 8},
    )
    refined = np.clip([run.x for run in runs], 0.0, 1.0)
    for x, v in zip(refined, ei(posterior(model, refined), incumbent)):
        if v > best_v:
            best_x, best_v = x, v
    return best_x, float(best_v)
