"""Bayesian optimization with an exact GP surrogate and EI acquisition.

Typical use::

    from gpbo import ParameterSpec, SearchSpace, optimize

    space = SearchSpace([ParameterSpec.range_float("lr", 1e-5, 1e-1, log_scale=True)])
    best, experiment = optimize(space, my_evaluator, minimize=True, total_trials=20, seed=0)

The root exports what the README documents and what the benchmark reads;
everything else is imported from its module (``gpbo.space``, ``gpbo.gp``,
``gpbo.loop``, ``gpbo.errors``, ...).
"""

from .acqopt import maximize_acquisition
from .acquisition import ei, incumbent_value
from .errors import UsageError
from .gp import (
    GpHyperparams,
    KernelSpec,
    MeanSpec,
    default_hyperparams,
    fit,
    mll,
    posterior,
)
from .loop import (
    Trial,
    complete_trial,
    fail_trial,
    new_experiment,
    optimize,
    suggest,
)
from .sobol import SobolEngine
from .space import Observation, ParameterSpec, SearchSpace
from .version import __version__

__all__ = [
    "GpHyperparams",
    "KernelSpec",
    "MeanSpec",
    "Observation",
    "ParameterSpec",
    "SearchSpace",
    "SobolEngine",
    "Trial",
    "UsageError",
    "complete_trial",
    "default_hyperparams",
    "ei",
    "fail_trial",
    "fit",
    "incumbent_value",
    "maximize_acquisition",
    "mll",
    "new_experiment",
    "optimize",
    "posterior",
    "suggest",
    "__version__",
]
