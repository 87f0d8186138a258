"""Command-line surface: run, validate, and bench subcommands.

Exit codes: 0 success, 1 no trial completed, 2 configuration error
(an output that cannot be written included).  A run writes ``trials.csv``
(always, once the loop has started) and ``report.json`` (on success) into
the output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .benchmarks import BUILTIN_NAMES, default_space, make_builtin
from .config import BuiltinObjective, RunConfig, parse_config
from .errors import ConfigError, UsageError
from .external import make_command_evaluator
from .loop import NoCompletedTrialsError, TrialStatus, optimize
from .space import ValidationReport, validate_space
from .trial_log import write_trial_log

EXIT_OK = 0
EXIT_NO_COMPLETED = 1
EXIT_CONFIG = 2


def _make_evaluator(config: RunConfig):
    if isinstance(config.objective, BuiltinObjective):
        return make_builtin(config.objective.name, config.objective.params)
    return make_command_evaluator(config.objective.command, config.objective.timeout)


def _print_violations(report: ValidationReport) -> int:
    for v in report.violations:
        print(f"error: {v}", file=sys.stderr)
    return EXIT_CONFIG


def _write_outputs(experiment, out_dir: Path, summary: dict | None) -> bool:
    """Write ``trials.csv``, then ``report.json`` when there is a summary.

    Prints the error and returns False if either cannot be written.
    """
    report = out_dir / "report.json"
    try:
        write_trial_log(experiment, out_dir / "trials.csv")
        if summary is not None:
            report.write_text(json.dumps(summary, indent=2) + "\n")
    except UsageError as exc:  # write_trial_log's, naming its file
        print(f"error: {exc}", file=sys.stderr)
        return False
    except OSError as exc:
        print(f"error: cannot write report to {report}: {exc}", file=sys.stderr)
        return False
    return True


def run(config: RunConfig) -> int:
    """Execute a configured optimization run and persist its outputs."""
    report = validate_space(config.space)
    if not report.ok:
        return _print_violations(report)
    evaluator = _make_evaluator(config)
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    began = time.perf_counter()
    try:
        best, experiment = optimize(
            config.space,
            evaluator,
            minimize=config.minimize,
            total_trials=config.total_trials,
            seed=config.seed,
        )
    except NoCompletedTrialsError as exc:
        if not _write_outputs(exc.experiment, out_dir, None):
            return EXIT_CONFIG
        print("error: no completed trials", file=sys.stderr)
        return EXIT_NO_COMPLETED
    wall_ms = int((time.perf_counter() - began) * 1000)
    n_failed = sum(1 for t in experiment.trials if t.status == TrialStatus.FAILED)
    summary = {
        "best_arm": dict(best.arm.values),
        "observed_objective": best.observed_objective,
        "predicted_mean": best.predicted_mean,
        "predicted_sd": best.predicted_sd,
        "n_trials": len(experiment.trials),
        "n_failed": n_failed,
        "seed": config.seed,
        "wall_ms": wall_ms,
    }
    if not _write_outputs(experiment, out_dir, summary):
        return EXIT_CONFIG
    direction = "minimum" if config.minimize else "maximum"
    print(f"best configuration ({direction} over {len(experiment.trials)} trials):")
    for name, value in best.arm.values.items():
        print(f"  {name} = {value}")
    print(f"observed objective: {best.observed_objective}")
    print(f"model prediction: {best.predicted_mean} +- {best.predicted_sd}")
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = parse_config(args.config).override(
        out_dir=args.out_dir, seed=args.seed, total_trials=args.trials
    )
    return run(config)


def _cmd_validate(args) -> int:
    config = parse_config(args.config)
    report = validate_space(config.space)
    for warning in report.warnings:
        print(f"warning: {warning}")
    if not report.ok:
        return _print_violations(report)
    kind = (
        f"builtin '{config.objective.name}'"
        if isinstance(config.objective, BuiltinObjective)
        else f"command {config.objective.command!r}"
    )
    print(
        f"ok: {len(config.space.params)} parameter(s), d={config.space.d}, "
        f"objective {kind}, {config.total_trials} trial(s), seed {config.seed}"
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    # Built before the space, so that an unknown name is a ConfigError.
    objective = BuiltinObjective(name=args.name, params={})
    config = RunConfig(
        space=default_space(args.name), objective=objective, out_dir=f"bench_{args.name}"
    ).override(out_dir=args.out_dir, seed=args.seed, total_trials=args.trials)
    return run(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpbo",
        description="Sequential Bayesian optimization over a JSON-configured search space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an optimization from a config file")
    p_run.add_argument("config", help="path to a JSON run configuration")
    p_run.add_argument("--out-dir", help="override the config's output directory")
    p_run.add_argument("--seed", type=int, help="override the config's seed")
    p_run.add_argument("--trials", type=int, help="override the config's total_trials")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and validate a config without running")
    p_val.add_argument("config", help="path to a JSON run configuration")
    p_val.set_defaults(func=_cmd_validate)

    p_bench = sub.add_parser("bench", help="run a built-in benchmark with defaults")
    p_bench.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    p_bench.add_argument("--out-dir", help="output directory (default bench_<name>)")
    p_bench.add_argument("--seed", type=int, help="run seed (default 0)")
    p_bench.add_argument("--trials", type=int, help="trial budget (default 20)")
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    # The one place a configuration error, wherever it is found, becomes exit 2.
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
