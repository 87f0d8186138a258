"""The public surface that the benchmark and the README depend on."""

import importlib
import sys
from pathlib import Path

import gpbo
import gpbo.loop

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EXPORTS = [
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
    "GpHyperparams",
    "GpModel",
    "GpboError",
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
    "__version__",
    "best_result",
    "complete_trial",
    "decode",
    "default_hyperparams",
    "ei",
    "encode",
    "factorize",
    "fail_trial",
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
    "rsample",
    "std_normal_cdf",
    "std_normal_pdf",
    "suggest",
    "validate_space",
]


def test_exports_are_exactly_the_documented_surface():
    assert sorted(gpbo.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(gpbo, name), name


def test_benchmark_tracer_finds_every_entry_point(monkeypatch):
    # Entering a Tracer resolves every entry point it wraps and raises
    # TraceError for one that was removed or moved; leaving restores them.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    suggest = gpbo.loop.suggest
    with tracing.Tracer():
        assert gpbo.loop.suggest is not suggest
    assert gpbo.loop.suggest is suggest
