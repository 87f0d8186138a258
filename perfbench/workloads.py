"""The two benchmark workloads, their objectives and their checks.

Everything a check compares against is computed here, apart from gpbo: the
objectives, their known optima, the noise-free value at the arm gpbo
returns, and a seeded uniform random search with the same budget.  gpbo is
driven only through its public entry points, ``gpbo.optimize`` and
``gpbo.cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shlex
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gpbo
import gpbo.cli

import evaluator as groupweights
from evaluator import host_probe

HERE = Path(__file__).resolve().parent

SOBOL_TRIALS = 5  # gpbo's default number of initial Sobol trials
# Timings are reported as on a host where host_probe takes this long; see
# RunRecord.scaled_steps_s.
PROBE_REF_S = 0.005
PROBE_WINDOW = 5  # evaluations on each side of a step whose probes scale it
RS_REPLICATES = 32  # random-search runs per seed of the block
NOISE_STREAM = 7
RS_STREAM = 11

# --- Branin on its conventional domain (Surjanovic & Bingham, Virtual
# Library of Simulation Experiments); three global minimisers.
BRANIN_OPTIMUM = 0.397887357729738
BRANIN_MINIMISERS = ((-math.pi, 12.275), (math.pi, 2.275), (9.42478, 2.475))
BRANIN_NOISE_SD = 0.1


def branin(values: dict) -> float:
    x1, x2 = float(values["x1"]), float(values["x2"])
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x1) + 10.0


# --- The paper workload: its optimum from the stationarity conditions.
def groupweights_optimum() -> tuple[dict, float]:
    """Minimiser and minimum of ``evaluator.noise_free`` in closed form.

    d/dw_fg and d/dw_rg vanish where
        2 C_fg (w_fg - T_fg) + COUPLING w_rg = 0
        2 C_rg (w_rg - T_rg) + COUPLING w_fg = 0,
    a 2x2 linear system solved by Cramer's rule; w_ccg = T_ccg and
    log10(lr) = LOG10_LR_PEAK.  The tiers term is a parabola in an integer,
    minimised at the integer nearest its peak.
    """
    (c1, c2, _), (t1, t2, t3) = groupweights.CURVATURE, groupweights.TARGETS
    g = groupweights.COUPLING
    det = 4.0 * c1 * c2 - g * g
    w_fg = (2.0 * c1 * t1 * 2.0 * c2 - g * 2.0 * c2 * t2) / det
    w_rg = (2.0 * c1 * 2.0 * c2 * t2 - g * 2.0 * c1 * t1) / det
    values = {
        "w_fg": w_fg,
        "w_rg": w_rg,
        "w_ccg": t3,
        "tiers": int(math.floor(groupweights.TIER_PEAK + 0.5)),
        "lr": 10.0**groupweights.LOG10_LR_PEAK,
    }
    return values, groupweights.noise_free(values)


def check_objectives() -> list[str]:
    """The objectives here reproduce their published optima."""
    failures = []
    for x1, x2 in BRANIN_MINIMISERS:
        if abs(branin({"x1": x1, "x2": x2}) - BRANIN_OPTIMUM) > 1e-9:
            failures.append(f"branin({x1}, {x2}) is not the published minimum")
    best, f_star = groupweights_optimum()
    c1, c2 = groupweights.CURVATURE[:2]
    t1, t2 = groupweights.TARGETS[:2]
    g = groupweights.COUPLING
    residual = (
        2 * c1 * (best["w_fg"] - t1) + g * best["w_rg"],
        2 * c2 * (best["w_rg"] - t2) + g * best["w_fg"],
    )
    if max(abs(r) for r in residual) > 1e-12 or 4 * c1 * c2 <= g * g:
        failures.append("groupweights optimum does not solve its stationarity conditions")
    for tiers in range(1, 7):
        if groupweights.noise_free({**best, "tiers": tiers}) < f_star:
            failures.append(f"groupweights tiers={tiers} beats the closed-form optimum")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "optimize" or "cli"
    space: list  # parameters in gpbo's config-file schema
    trials: int
    noise_free: Callable[[dict], float]
    optimum: float
    min_runs: int  # BO runs per untraced benchmark run
    noise_sd: float = 0.0

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile of the ask gaps of ``min_runs`` runs
        with at least ten gaps beyond it; the median under 40 gaps."""
        gaps = self.min_runs * (self.trials - SOBOL_TRIALS)
        return 50 if gaps < 40 else math.floor(100 * (1 - 10 / gaps))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="branin-long",
            kind="optimize",
            space=[
                {"name": "x1", "kind": "range-float", "lower": -5.0, "upper": 10.0},
                {"name": "x2", "kind": "range-float", "lower": 0.0, "upper": 15.0},
            ],
            trials=60,
            noise_free=branin,
            optimum=BRANIN_OPTIMUM,
            min_runs=3,
            noise_sd=BRANIN_NOISE_SD,
        ),
        Workload(
            name="groupweights-cli",
            kind="cli",
            space=[
                {"name": "w_fg", "kind": "range-float", "lower": 0.0, "upper": 1.0},
                {"name": "w_rg", "kind": "range-float", "lower": 0.0, "upper": 1.0},
                {"name": "w_ccg", "kind": "range-float", "lower": 0.0, "upper": 1.0},
                {"name": "tiers", "kind": "range-int", "lower": 1, "upper": 6},
                {
                    "name": "lr",
                    "kind": "range-float",
                    "lower": 1e-4,
                    "upper": 1e-1,
                    "log_scale": True,
                },
            ],
            trials=30,
            noise_free=groupweights.noise_free,
            optimum=groupweights_optimum()[1],
            min_runs=3,
            noise_sd=groupweights.NOISE_SD,
        ),
    )
}


def build_space(params: list) -> gpbo.SearchSpace:
    specs = []
    for p in params:
        if p["kind"] == "range-int":
            specs.append(gpbo.ParameterSpec.range_int(p["name"], p["lower"], p["upper"]))
        else:
            specs.append(
                gpbo.ParameterSpec.range_float(
                    p["name"], p["lower"], p["upper"], p.get("log_scale", False)
                )
            )
    return gpbo.SearchSpace(specs)


@dataclass
class RunRecord:
    """What one BO run produced, as the benchmark reads it back."""

    seed: int
    arms: list  # parameter dicts, in trial order
    objectives: list
    generators: list
    statuses: list
    best_arm: dict
    # On one clock: the run's start, each evaluation's start and end in
    # trial order, and the run's end.
    stamps: list
    probe_s: list  # host_probe's time inside each evaluation
    checks: list = field(default_factory=list)  # failures found while reading

    @property
    def run_s(self) -> float:
        """Wall time of the run, less the time host_probe took in it."""
        return self.stamps[-1] - self.stamps[0] - sum(self.probe_s)

    def scaled_steps_s(self) -> np.ndarray:
        """``steps_s`` without host_probe's time, each step scaled to a host
        on which host_probe takes PROBE_REF_S.

        The host's speed drifts within a run as well as between runs, so a
        step is scaled by the mean of the probes of the PROBE_WINDOW
        evaluations on either side of it.
        """
        probes = np.asarray(self.probe_s)
        steps = self.steps_s.copy()
        steps[1::2] -= probes
        n = len(probes)
        local = np.array([probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW].mean() for i in range(n)])
        trial = np.minimum(np.arange(len(steps)) // 2, n - 1)
        return steps * PROBE_REF_S / local[trial]

    @property
    def steps_s(self) -> np.ndarray:
        """Durations between consecutive stamps: before the first
        evaluation, then each evaluation and each ask gap in turn, then
        after the last evaluation."""
        return np.diff(self.stamps)


def gap_steps(trials: int) -> list:
    """Indices into ``RunRecord.steps_s`` of the ask gaps: the evaluator's
    idle time from one evaluation's end to the next one's start, for every
    trial after the Sobol phase."""
    return [2 * i for i in range(SOBOL_TRIALS, trials)]


def _run_optimize(w: Workload, seed: int) -> RunRecord:
    space = build_space(w.space)
    rng = np.random.default_rng([seed, NOISE_STREAM])
    stamps, probes = [], []

    def evaluate(arm):
        stamps.append(time.perf_counter())
        y = w.noise_free(arm.values)
        if w.noise_sd:
            y += w.noise_sd * float(rng.standard_normal())
        probes.append(host_probe())
        stamps.append(time.perf_counter())
        return gpbo.Observation(y)

    stamps.append(time.perf_counter())
    best, experiment = gpbo.optimize(space, evaluate, minimize=True, total_trials=w.trials, seed=seed)
    stamps.append(time.perf_counter())
    trials = experiment.trials
    return RunRecord(
        seed=seed,
        arms=[dict(t.arm.values) for t in trials],
        objectives=[None if t.observation is None else t.observation.objective for t in trials],
        generators=[t.generator.value for t in trials],
        statuses=[t.status.value for t in trials],
        best_arm=dict(best.arm.values),
        stamps=stamps,
        probe_s=probes,
    )


def _parse_cell(param: dict, cell: str):
    if param["kind"] == "range-int":
        return int(cell)  # a non-integral cell raises ValueError
    return float(cell)


def _evaluator_command(seed: int, stamps: Path) -> str:
    # sys.executable, not "python3": a version-manager shim in front of the
    # interpreter would add its own start-up to every spawn.
    argv = [sys.executable, str(HERE / "evaluator.py"), "--seed", str(seed), "--stamps", str(stamps)]
    return " ".join(shlex.quote(a) for a in argv)


def _run_cli(w: Workload, seed: int, out_root: Path) -> RunRecord:
    run_dir = out_root / f"{w.name}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    stamps = run_dir / "stamps.txt"
    config = {
        "space": w.space,
        "objective": {"command": {"command": _evaluator_command(seed, stamps), "timeout": 60}},
        "minimize": True,
        "total_trials": w.trials,
        "seed": seed,
        "out_dir": str(run_dir / "out"),
    }
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    # time.monotonic: the clock the child evaluator stamps with.
    began = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        code = gpbo.cli.main(["run", str(config_path)])
    finished = time.monotonic()
    if code != 0:
        raise RuntimeError(f"gpbo run exited {code} on {w.name} seed {seed}")

    checks = []
    with (run_dir / "out" / "trials.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    report = json.loads((run_dir / "out" / "report.json").read_text())
    arms, objectives = [], []
    for row in rows:
        try:
            arms.append({p["name"]: _parse_cell(p, row[p["name"]]) for p in w.space})
        except ValueError as exc:
            checks.append(f"trials.csv row {row['trial_index']}: {exc}")
            arms.append({})
        objectives.append(float(row["objective"]) if row["objective"] else None)
    if len(rows) != w.trials or report["n_trials"] != w.trials:
        checks.append(f"trials.csv has {len(rows)} rows, report {report['n_trials']} trials")
    best_rows = [i for i, a in enumerate(arms) if a == report["best_arm"]]
    if not best_rows:
        checks.append("report.json best_arm is not a row of trials.csv")
    elif any(objectives[i] != report["observed_objective"] for i in best_rows):
        checks.append("trials.csv objective at the best arm differs from report.json")

    child = [[float(t) for t in line.split()] for line in stamps.read_text().splitlines()]
    if len(child) != w.trials:
        checks.append(f"{len(child)} evaluator stamps for {w.trials} trials")
    return RunRecord(
        seed=seed,
        arms=arms,
        objectives=objectives,
        generators=[row["generator"] for row in rows],
        statuses=[row["status"] for row in rows],
        best_arm=dict(report["best_arm"]),
        stamps=[began, *(t for start, end, _ in child for t in (start, end)), finished],
        probe_s=[probe for _, _, probe in child],
        checks=checks,
    )


def run_once(w: Workload, seed: int, out_root: Path) -> RunRecord:
    """One complete BO run of a workload at one seed."""
    if w.kind == "cli":
        return _run_cli(w, seed, out_root)
    return _run_optimize(w, seed)


def regret(w: Workload, values: dict) -> float:
    return w.noise_free(values) - w.optimum


def check_run(w: Workload, record: RunRecord) -> list[str]:
    """Per-run checks: budget, schedule, bounds, integrality, regret sign."""
    where = f"{w.name} seed {record.seed}"
    failures = [f"{where}: {c}" for c in record.checks]
    if len(record.statuses) != w.trials:
        failures.append(f"{where}: {len(record.statuses)} trials for a budget of {w.trials}")
    if any(s != "COMPLETED" for s in record.statuses):
        failures.append(f"{where}: trials not COMPLETED: {sorted(set(record.statuses))}")
    if record.generators[:SOBOL_TRIALS] != ["SOBOL"] * SOBOL_TRIALS:
        failures.append(f"{where}: first trials were {record.generators[:SOBOL_TRIALS]}")
    for i, arm in enumerate(record.arms + [record.best_arm]):
        for p in w.space:
            v = arm.get(p["name"])
            if v is None or not p["lower"] <= v <= p["upper"]:
                failures.append(f"{where}: arm {i} {p['name']}={v!r} outside its bounds")
            elif p["kind"] == "range-int" and (not isinstance(v, int) or isinstance(v, bool)):
                failures.append(f"{where}: arm {i} {p['name']}={v!r} is not an integer")
    if record.best_arm not in record.arms:
        failures.append(f"{where}: the returned arm was never evaluated")
    r = regret(w, record.best_arm)
    if not r >= 0.0:
        failures.append(f"{where}: regret {r!r} is negative")
    return failures


def random_search_regrets(w: Workload, seed: int) -> list[float]:
    """Regret of seeded uniform random search with the workload's budget.

    Each replicate draws ``w.trials`` arms uniformly on the encoded cube
    (log-uniform for log-scaled ranges), observes them with the workload's
    noise, and returns the arm with the best observation.
    """
    out = []
    for r in range(RS_REPLICATES):
        rng = np.random.default_rng([seed, RS_STREAM, r])
        best_y, best_arm = math.inf, None
        for _ in range(w.trials):
            arm = {}
            for p in w.space:
                lo, hi = p["lower"], p["upper"]
                if p["kind"] == "range-int":
                    arm[p["name"]] = int(rng.integers(lo, hi + 1))
                elif p.get("log_scale"):
                    arm[p["name"]] = math.exp(math.log(lo) + rng.random() * math.log(hi / lo))
                else:
                    arm[p["name"]] = lo + rng.random() * (hi - lo)
            y = w.noise_free(arm)
            if w.kind == "cli":
                y += groupweights.noise(seed, arm)
            elif w.noise_sd:
                y += w.noise_sd * float(rng.standard_normal())
            if y < best_y:
                best_y, best_arm = y, arm
        out.append(regret(w, best_arm))
    return out


def check_block(w: Workload, records: list) -> list[str]:
    """The block's median regret beats random search with the same budget."""
    bo = statistics.median(regret(w, r.best_arm) for r in records)
    rs = statistics.median(x for r in records for x in random_search_regrets(w, r.seed))
    if not bo < rs:
        return [f"{w.name}: median regret {bo:.4g} does not beat random search's {rs:.4g}"]
    return []
