"""The public surface that the benchmark and the README depend on."""

import csv
import importlib
import sys
from pathlib import Path

import gpbo
import gpbo.cli
import gpbo.loop

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
ASK_TELL_HEAD = "from gpbo import complete_trial, fail_trial, new_experiment, suggest\n"

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


def test_readme_ask_tell_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = [b for b in readme.split("```python\n")[1:] if b.startswith(ASK_TELL_HEAD)]
    assert len(blocks) == 1
    example = blocks[0].split("```")[0]
    space = gpbo.SearchSpace([gpbo.ParameterSpec.range_float("x", 0.0, 1.0)])
    scope = {
        "space": space,
        "evaluate": lambda arm: gpbo.Observation((arm.values["x"] - 0.3) ** 2),
    }
    exec(example, scope)
    trials = scope["experiment"].trials
    assert len(trials) == 20
    assert [t.generator for t in trials[:5]] == [gpbo.GeneratorKind.SOBOL] * 5
    assert all(t.status == gpbo.TrialStatus.COMPLETED for t in trials)


def test_readme_config_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Config schema")[1]
    config = tmp_path / "config.json"
    config.write_text(section.split("```json\n")[1].split("```")[0])
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    assert gpbo.cli.main(["run", str(config), "--trials", "6", "--out-dir", str(out)]) == 0
    with (out / "trials.csv").open(newline="") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    assert statuses == ["COMPLETED"] * 6
