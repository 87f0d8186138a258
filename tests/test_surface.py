"""The public surface that the benchmark and the README depend on."""

import csv
import importlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpbo
import gpbo.cli
import gpbo.gp
import gpbo.loop

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
ASK_TELL_HEAD = "from gpbo import complete_trial, fail_trial, new_experiment, suggest\n"

EXPORTS = [
    "GpHyperparams",
    "KernelSpec",
    "MeanSpec",
    "Observation",
    "ParameterSpec",
    "SearchSpace",
    "SobolEngine",
    "Trial",
    "UsageError",
    "__version__",
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
]

# Names that live only in their modules, not in the package root.
MODULE_ONLY = {
    "gpbo.errors": ["ConfigError", "ConfigFileError", "ConfigParseError", "ConfigSchemaError",
                    "DomainError", "EvaluatorFault", "GpboError", "NumericalError",
                    "NumericsWarning", "SpaceError"],
    "gpbo.gp": ["FitRecord", "GpModel", "PosteriorSummary", "factorize", "make_model",
                "mll_grad"],
    "gpbo.loop": ["BestResult", "Experiment", "GeneratorKind", "NoCompletedTrialsError",
                  "TrialStatus", "best_result"],
    "gpbo.space": ["Arm", "Standardizer", "decode", "encode", "fit_standardizer",
                   "validate_space"],
}

SCRIPTS = ["layer_bench.py", "paired_regret.py", "refine_replay.py", "trial_digests.py"]


def test_exports_are_exactly_the_documented_surface():
    assert sorted(gpbo.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(gpbo, name), name


def test_every_export_is_documented_or_read_by_the_benchmark():
    # A root name is one the README names in code, or one perfbench reads
    # as gpbo.<name>; anything else belongs in its module.
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```[^\n]*\n(.*?)```", readme, re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    documented = {word for text in blocks + spans
                  for word in re.findall(r"[A-Za-z_]\w*", text)}
    read = {name for path in PERFBENCH.glob("*.py")
            for name in re.findall(r"\bgpbo\.(\w+)", path.read_text())}
    for name in gpbo.__all__:
        if name != "__version__":
            assert name in documented or name in read, name


def test_module_only_names_import_from_their_modules():
    assert sum(map(len, MODULE_ONLY.values())) == 28
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert name not in gpbo.__all__, name
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_help_runs_in_a_fresh_interpreter(script):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_benchmark_tracer_finds_every_entry_point(monkeypatch):
    # Entering a Tracer resolves every entry point it wraps and raises
    # TraceError for one that was removed or moved; leaving restores them.
    # Inside, a warm fit's L-BFGS-B runs read as the tracer reads them
    # (nfev and success) as they do in the fit's own record.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    suggest = gpbo.loop.suggest
    rng = np.random.default_rng(7)
    X = rng.random((20, 2))
    y = np.sin(5.0 * X[:, 0]) + X[:, 1] + 0.1 * rng.standard_normal(20)
    y = (y - y.mean()) / y.std()
    warm = gpbo.gp.fit(X[:-1], y[:-1]).theta
    with tracing.Tracer() as tracer:
        assert gpbo.loop.suggest is not suggest
        model = gpbo.gp.fit(X, y, start=warm)
    assert gpbo.loop.suggest is suggest
    assert (model.fit_record.scored, len(model.fit_record.runs)) == (1, 1)
    assert [(nfev, success) for nfev, success, _ in tracer.lbfgs] == [
        (run.nfev, run.success) for run in model.fit_record.runs]


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
    assert [t.generator for t in trials[:5]] == [gpbo.loop.GeneratorKind.SOBOL] * 5
    assert all(t.status == gpbo.loop.TrialStatus.COMPLETED for t in trials)


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
