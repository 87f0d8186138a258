"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gpbo  # noqa: E402
import gpbo.loop  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DETERMINISM_TRIALS = 10


def _bench(*args) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_mode_runs_the_workload_checks(name):
    code, result, output = _bench("--workload", name, "--short", "--seeds", "3")
    assert code == 0, output
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[name].trials
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert "seed 3:" in output


def test_short_traced_run_reports_every_layer_metric():
    code, result, output = _bench("--workload", "groupweights-cli", "--short", "--trace", "1")
    assert code == 0, output
    assert set(result["metrics"]) == set(tracing.LAYER_UNITS) | {"trace.overhead_s", "regret"}
    assert result["metrics"]["external.calls"]["value"] == workloads.WORKLOADS["groupweights-cli"].trials


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_arms_and_objectives(name, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], trials=DETERMINISM_TRIALS)
    first = workloads.run_once(w, 4, tmp_path)
    second = workloads.run_once(w, 4, tmp_path)
    for field in ("arms", "objectives", "generators", "statuses", "best_arm"):
        assert getattr(first, field) == getattr(second, field), field


def test_seed_block_is_a_command_line_argument():
    explicit = argparse.Namespace(seeds="17,5", seed=0)
    assert run.seed_block(explicit)[0] == [17, 5]
    derived, run_all = run.seed_block(argparse.Namespace(seeds=None, seed=2))
    assert next(iter(derived)) == 2 * run.SEED_STRIDE and not run_all


def test_objectives_reproduce_their_published_optima():
    assert workloads.check_objectives() == []


def test_run_checks_catch_bad_records():
    w = workloads.WORKLOADS["groupweights-cli"]
    best, _ = workloads.groupweights_optimum()
    arms = [dict(best, tiers=2.5)] + [dict(best)] * (w.trials - 1)
    record = workloads.RunRecord(
        seed=0,
        arms=arms,
        objectives=[0.0] * w.trials,
        generators=["GPEI"] + ["SOBOL"] * (w.trials - 1),
        statuses=["FAILED"] + ["COMPLETED"] * (w.trials - 1),
        best_arm=dict(best, lr=1.0),
        stamps=[0.0, 1.0],
        probe_s=[0.005],
    )
    failures = " | ".join(workloads.check_run(w, record))
    for expected in ("not COMPLETED", "first trials", "not an integer", "outside its bounds",
                     "never evaluated"):
        assert expected in failures


def test_steps_are_scaled_by_the_nearby_probes():
    ref = workloads.PROBE_REF_S
    # Two trials: 1 s before the first, evaluations of 2 s and 3 s (probe
    # included), a 4 s gap, 5 s after the last.
    stamps = list(np.cumsum([0.0, 1.0, 2.0, 4.0, 3.0, 5.0]))
    record = workloads.RunRecord(
        seed=0, arms=[], objectives=[], generators=[], statuses=[], best_arm={},
        stamps=stamps, probe_s=[ref, ref],
    )
    assert record.run_s == pytest.approx(15.0 - 2 * ref)
    assert record.scaled_steps_s() == pytest.approx([1.0, 2.0 - ref, 4.0, 3.0 - ref, 5.0])
    slow = dataclasses.replace(record, probe_s=[2 * ref, 2 * ref])
    assert slow.scaled_steps_s() == pytest.approx([0.5, 1.0 - ref, 2.0, 1.5 - ref, 2.5])


def test_dense_mll_matches_gpbo():
    rng = np.random.default_rng(0)
    X, y = rng.random((9, 3)), rng.standard_normal(9)
    theta = gpbo.GpHyperparams(gpbo.KernelSpec("matern52", [0.3, 0.7, 1.1], 1.7), gpbo.MeanSpec(0.2), 0.01)
    ours = tracing.dense_mll(X, y, [0.3, 0.7, 1.1], 1.7, 0.01, 0.2)
    assert ours == pytest.approx(gpbo.mll(theta, X, y), rel=1e-10)


def test_missing_entry_point_is_named(monkeypatch):
    suggest = gpbo.loop.suggest
    monkeypatch.delattr(gpbo.loop, "fit_gp")
    with pytest.raises(tracing.TraceError, match="gpbo.loop.fit_gp no longer exists"):
        with tracing.Tracer():
            pass
    assert gpbo.loop.suggest is suggest  # wrapped before the failure, then restored


def test_entry_point_never_called_is_named():
    with tracing.Tracer() as tracer:
        pass
    with pytest.raises(tracing.TraceError, match="gpbo.loop.suggest was never called"):
        tracer.require_calls("optimize", "branin-long")
    assert gpbo.loop.fit_gp is gpbo.gp.fit  # the tracer restored what it wrapped


def test_without_the_program_the_benchmark_fails(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branin-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
