"""Bayesian optimization with an exact GP surrogate and EI acquisition.

Typical use::

    from gpbo import ParameterSpec, SearchSpace, optimize

    space = SearchSpace([ParameterSpec.range_float("lr", 1e-5, 1e-1, log_scale=True)])
    best, experiment = optimize(space, my_evaluator, minimize=True, total_trials=20, seed=0)
"""

from .acqopt import maximize_acquisition
from .acquisition import ei, incumbent_value
from .errors import (
    ConfigError,
    ConfigFileError,
    ConfigParseError,
    ConfigSchemaError,
    DomainError,
    EvaluatorFault,
    GpboError,
    NumericalError,
    NumericsWarning,
    SpaceError,
    UsageError,
)
from .gp import (
    GpHyperparams,
    GpModel,
    KernelSpec,
    MeanSpec,
    PosteriorSummary,
    default_hyperparams,
    factorize,
    fit,
    make_model,
    mll,
    mll_grad,
    posterior,
)
from .loop import (
    BestResult,
    Experiment,
    GeneratorKind,
    NoCompletedTrialsError,
    Trial,
    TrialStatus,
    best_result,
    complete_trial,
    fail_trial,
    new_experiment,
    optimize,
    suggest,
)
from .sobol import SobolEngine
from .space import (
    Arm,
    Observation,
    ParameterSpec,
    SearchSpace,
    Standardizer,
    decode,
    encode,
    fit_standardizer,
    validate_space,
)
from .version import __version__

__all__ = [
    "Arm",
    "BestResult",
    "ConfigError",
    "ConfigFileError",
    "ConfigParseError",
    "ConfigSchemaError",
    "DomainError",
    "EvaluatorFault",
    "Experiment",
    "GeneratorKind",
    "GpboError",
    "GpHyperparams",
    "GpModel",
    "KernelSpec",
    "MeanSpec",
    "NoCompletedTrialsError",
    "NumericalError",
    "NumericsWarning",
    "Observation",
    "ParameterSpec",
    "PosteriorSummary",
    "SearchSpace",
    "SobolEngine",
    "SpaceError",
    "Standardizer",
    "Trial",
    "TrialStatus",
    "UsageError",
    "best_result",
    "complete_trial",
    "decode",
    "default_hyperparams",
    "ei",
    "encode",
    "fail_trial",
    "factorize",
    "fit",
    "fit_standardizer",
    "incumbent_value",
    "make_model",
    "maximize_acquisition",
    "mll",
    "mll_grad",
    "new_experiment",
    "optimize",
    "posterior",
    "suggest",
    "validate_space",
    "__version__",
]
