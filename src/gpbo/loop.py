"""The sequential optimization loop: experiments, trials, and optimize().

One experiment owns one search space and an ordered list of trials, each
evaluating a single arm.  A trial opens RUNNING when :func:`suggest`
creates it and closes through :func:`complete_trial` or :func:`fail_trial`.
Generation is Sobol for the first ``INIT_ARMS`` completed trials and GP-EI
afterwards: fit the surrogate on the completed history (encoded inputs,
standardized outputs, always minimizing internally) warm-started from the
previous trial's hyperparameters (cold, from Sobol starts as well, after
a failed fit or when that warm start is in doubt; see :func:`gpbo.gp.fit`),
take the smallest posterior mean at an observed point as the incumbent,
and propose the EI maximizer.  Degenerate proposals and fit failures fall
back to the next Sobol point rather than aborting.

Maximization is handled entirely at this boundary by negating objectives
on the way in and back out, so every inner computation minimizes.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .acqopt import maximize_acquisition
from .acquisition import incumbent_value
from .errors import EvaluatorFault, NumericalError, UsageError
from .gp import GpHyperparams, GpModel, fit as fit_gp, posterior
from .sobol import SobolEngine
from .space import (
    Arm,
    Observation,
    SearchSpace,
    Standardizer,
    decode,
    encode,
    fit_standardizer,
    validate_space,
)

logger = logging.getLogger("gpbo.loop")

DUPLICATE_TOLERANCE = 1e-9
INIT_ARMS = 5


class NoCompletedTrialsError(UsageError):
    """Every trial failed; carries the experiment for post-mortem logging."""

    def __init__(self, experiment: "Experiment"):
        super().__init__("no completed trials")
        self.experiment = experiment


class TrialStatus(str, Enum):
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"


class GeneratorKind(str, Enum):
    SOBOL = "SOBOL"
    GPEI = "GPEI"


@dataclass
class Trial:
    """One evaluation of one arm.

    ``encoded`` is the arm on the unit cube, computed once when the trial
    is created.  ``theta`` holds the hyperparameters of the GP fitted when
    the trial was suggested, also when its proposal fell back to Sobol as
    a duplicate; it is None when no fit ran or the fit failed.  The next
    fit starts from it.
    """

    index: int
    arm: Arm
    status: TrialStatus
    generator: GeneratorKind
    encoded: np.ndarray = field(repr=False, compare=False)
    observation: Observation | None = None
    metadata: dict = field(default_factory=dict)
    theta: GpHyperparams | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class BestResult:
    """The winning arm with its raw observation and model prediction."""

    arm: Arm
    observed_objective: float
    predicted_mean: float
    predicted_sd: float


@dataclass
class Experiment:
    """Bookkeeping for one optimization run; single-writer, sequential."""

    space: SearchSpace
    minimize: bool
    seed: int
    trials: list[Trial] = field(default_factory=list)

    def __post_init__(self):
        self._sobol = SobolEngine(self.space.d)

    def completed(self) -> list[Trial]:
        return [t for t in self.trials if t.status == TrialStatus.COMPLETED]


def _derive_seed(base: int, stream: str, k: int) -> int:
    digest = hashlib.blake2b(f"{base}/{stream}/{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (1 << 31)


def new_experiment(space: SearchSpace, minimize: bool = True, seed: int = 0) -> Experiment:
    """Validate the space and open an empty experiment."""
    report = validate_space(space)
    if not report.ok:
        details = "; ".join(map(str, report.violations))
        raise UsageError(f"invalid search space: {details}")
    for warning in report.warnings:
        logger.warning("%s", warning)
    return Experiment(space=space, minimize=minimize, seed=seed)


def _get_trial(experiment: Experiment, index: int) -> Trial:
    if not 0 <= index < len(experiment.trials):
        raise UsageError(f"no trial with index {index}")
    return experiment.trials[index]


def _decoded(u: np.ndarray, experiment: Experiment, index: int) -> tuple[Arm, np.ndarray]:
    """The arm a unit-cube point decodes to, with that arm's encoding."""
    arm = decode(u, experiment.space, name=f"trial_{index}")
    return arm, encode(arm, experiment.space)


def _near_existing(x: np.ndarray, experiment: Experiment) -> bool:
    """Whether an encoded arm lies within DUPLICATE_TOLERANCE of a trial's arm.

    Callers pass the encoding of a decoded arm, so two unit-cube points
    that round to the same integers and choices count as the same arm.
    """
    if not experiment.trials:
        return False
    gaps = np.abs(np.stack([t.encoded for t in experiment.trials]) - x).max(axis=1)
    return bool(gaps.min() <= DUPLICATE_TOLERANCE)


def _next_sobol_arm(experiment: Experiment, index: int) -> tuple[Arm, np.ndarray]:
    # The engine only moves forward, so repeated fallbacks cannot loop on
    # the same point; the retry guards against collisions with earlier arms.
    for _ in range(100):
        arm, x = _decoded(experiment._sobol.next(1)[0], experiment, index)
        if not _near_existing(x, experiment):
            break
    return arm, x


def _history_model(
    experiment: Experiment, completed: list[Trial], stream: str, k: int
) -> tuple[GpModel, Standardizer]:
    """Fit the surrogate on completed trials, minimizing internally.

    The fit is warm-started from the theta of the previous trial: unless a
    lengthscale or the signal variance of that theta sits on a bound, the
    fit refines only the better-scoring of it and the default theta.
    After a failed fit that theta is None, so the next fit starts cold and
    refines the default and the Sobol starts.
    """
    X = np.stack([t.encoded for t in completed])
    y_raw = np.array([t.observation.objective for t in completed])
    y_internal = y_raw if experiment.minimize else -y_raw
    standardizer = fit_standardizer(y_internal)
    y_std = standardizer.apply(y_internal)
    sems = [t.observation.sem for t in completed]
    if all(s is not None for s in sems):
        noise_diag = (np.asarray(sems, dtype=float) / standardizer.scale) ** 2
    else:
        # A partially-noisy history has no fixed-noise representation;
        # fall back to fitting one homoscedastic noise level.
        noise_diag = None
    model = fit_gp(
        X,
        y_std,
        seed=_derive_seed(experiment.seed, stream, k),
        noise_diag=noise_diag,
        start=experiment.trials[-1].theta,
    )
    return model, standardizer


def suggest(experiment: Experiment, total_trials: int = 20) -> Trial:
    """Open the next trial as RUNNING: Sobol while fewer than ``INIT_ARMS``
    trials have completed, then GP-EI.

    Raises UsageError while another trial is open, or once ``total_trials``
    trials have been opened, failed ones included.  A GP-EI proposal whose
    decoded arm lies within 1e-9 (max norm, encoded) of an existing arm,
    or a failed GP fit, falls back to the next Sobol point.
    """
    if any(t.status == TrialStatus.RUNNING for t in experiment.trials):
        raise UsageError("an open trial exists; complete or fail it before suggesting")
    if len(experiment.trials) >= total_trials:
        raise UsageError(f"trial budget of {total_trials} exhausted")
    index = len(experiment.trials)
    completed = experiment.completed()
    generator = GeneratorKind.SOBOL
    metadata: dict = {}
    theta = None
    if len(completed) < INIT_ARMS:
        arm, x = _next_sobol_arm(experiment, index)
    else:
        try:
            model, _ = _history_model(experiment, completed, "fit", index)
            u, _ = maximize_acquisition(
                model, incumbent_value(model), _derive_seed(experiment.seed, "acqopt", index)
            )
            arm, x = _decoded(u, experiment, index)
            if _near_existing(x, experiment):
                arm, x = _next_sobol_arm(experiment, index)
                metadata["fallback"] = "duplicate-proposal"
            else:
                generator = GeneratorKind.GPEI
            theta = model.theta
        except NumericalError as exc:
            logger.warning("GP fit failed (%s); falling back to Sobol", exc)
            arm, x = _next_sobol_arm(experiment, index)
            metadata["fallback"] = "gp-fit-failure"
    trial = Trial(
        index=index,
        arm=arm,
        status=TrialStatus.RUNNING,
        generator=generator,
        encoded=x,
        metadata=metadata,
        theta=theta,
    )
    experiment.trials.append(trial)
    return trial


def complete_trial(experiment: Experiment, index: int, observation: Observation) -> Trial:
    """Store an observation; a non-finite objective fails the trial instead.

    Anything that is not an Observation is taken as its objective, so a
    bare number completes the trial and any other value fails it.
    """
    trial = _get_trial(experiment, index)
    if trial.status != TrialStatus.RUNNING:
        raise UsageError(f"trial {index} is {trial.status.value}; cannot complete")
    if not isinstance(observation, Observation):
        observation = Observation(observation)
    if not observation.is_finite:
        trial.status = TrialStatus.FAILED
        trial.metadata["fault"] = "non-finite-objective"
        trial.metadata["detail"] = f"objective={observation.objective!r}"
    else:
        trial.status = TrialStatus.COMPLETED
        trial.observation = observation
    return trial


def fail_trial(experiment: Experiment, index: int, kind: str, detail: str = "") -> Trial:
    """Mark an open trial FAILED, recording the fault kind."""
    trial = _get_trial(experiment, index)
    if trial.status != TrialStatus.RUNNING:
        raise UsageError(f"trial {index} is {trial.status.value}; cannot fail")
    trial.status = TrialStatus.FAILED
    trial.metadata["fault"] = kind
    if detail:
        trial.metadata["detail"] = detail
    return trial


def best_result(experiment: Experiment) -> BestResult:
    """Pick the winner among completed trials.

    When every completed trial reports a sem of exactly 0 the best raw
    observation wins.  Otherwise, under reported or unreported noise, the
    completed arm with the best posterior mean under a freshly fitted
    model wins.  Predictions are reported in raw objective units either
    way.
    """
    completed = experiment.completed()
    if not completed:
        raise UsageError("no completed trials")
    model, standardizer = _history_model(
        experiment, completed, "final", len(experiment.trials)
    )
    summary = posterior(model, model.X)
    if all(t.observation.sem == 0 for t in completed):
        objectives = np.array([t.observation.objective for t in completed])
        best = int(np.argmin(objectives) if experiment.minimize else np.argmax(objectives))
    else:
        best = int(np.argmin(summary.means))
    mean_internal = float(standardizer.invert(summary.means[best]))
    predicted_mean = mean_internal if experiment.minimize else -mean_internal
    predicted_sd = float(np.sqrt(summary.variances[best]) * standardizer.scale)
    winner = completed[best]
    return BestResult(
        arm=winner.arm,
        observed_objective=winner.observation.objective,
        predicted_mean=predicted_mean,
        predicted_sd=predicted_sd,
    )


def optimize(
    space: SearchSpace,
    evaluate,
    minimize: bool = True,
    total_trials: int = 20,
    seed: int = 0,
) -> tuple[BestResult, Experiment]:
    """Run the full loop and return the best configuration found.

    Parameters
    ----------
    space : the feasible set; must validate cleanly
    evaluate : callable(Arm) -> Observation (a bare number also works)
    minimize : direction of optimization
    total_trials : evaluation budget; failed trials consume it
    seed : master seed for every stochastic component of the run

    Evaluator exceptions, non-finite objectives and returns that are
    neither an Observation nor a real number become FAILED trials; the
    loop only errors out if nothing completes at all.
    """
    experiment = new_experiment(space, minimize=minimize, seed=seed)
    for _ in range(total_trials):
        trial = suggest(experiment, total_trials)
        try:
            observation = evaluate(trial.arm)
        except EvaluatorFault as fault:
            fail_trial(experiment, trial.index, fault.kind, fault.detail)
        except Exception as exc:  # evaluator bugs are data, not loop aborts
            fail_trial(experiment, trial.index, "evaluator-exception", repr(exc))
        else:
            complete_trial(experiment, trial.index, observation)
    if not experiment.completed():
        raise NoCompletedTrialsError(experiment)
    return best_result(experiment), experiment
