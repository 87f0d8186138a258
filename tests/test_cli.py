"""Config parsing, builtin objectives, the wire protocol, logs, exit codes."""

import csv
import json
import sys

import numpy as np
import pytest

from gpbo import Observation, UsageError, complete_trial, new_experiment, suggest
from gpbo.benchmarks import BUILTIN_PARAMS, GROUP_WEIGHT_NAMES, default_space, make_builtin
from gpbo.cli import main, run
from gpbo.config import BuiltinObjective, CommandObjective, RunConfig, parse_config
from gpbo.errors import ConfigFileError, ConfigParseError, ConfigSchemaError, EvaluatorFault
from gpbo.external import subprocess_evaluate
from gpbo.space import Arm
from gpbo.trial_log import TrialLogRecord, read_trial_log, write_trial_log

from oracles import branin_grid_minimum


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "space": [{"name": "x", "kind": "range-float", "lower": 0.0, "upper": 1.0}],
    "objective": {"builtin": {"name": "quadratic1d"}},
}


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL))
        assert config.total_trials == 20
        assert config.minimize is True
        assert config.seed == 0
        assert isinstance(config.objective, BuiltinObjective)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigFileError):
            parse_config(tmp_path / "nowhere.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigParseError):
            parse_config(path)

    def test_unknown_top_level_key_named(self, tmp_path):
        doc = dict(MINIMAL, trails=20)
        with pytest.raises(ConfigSchemaError, match="trails"):
            parse_config(write_config(tmp_path, doc))

    def test_both_objective_kinds_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["objective"] = {
            "builtin": {"name": "quadratic1d"},
            "command": {"command": "true"},
        }
        with pytest.raises(ConfigSchemaError, match="exactly one"):
            parse_config(write_config(tmp_path, doc))

    def test_unknown_param_key(self, tmp_path):
        doc = dict(MINIMAL)
        doc["space"] = [dict(doc["space"][0], lowr=0)]
        with pytest.raises(ConfigSchemaError, match="lowr"):
            parse_config(write_config(tmp_path, doc))

    def test_unknown_builtin_name(self, tmp_path):
        doc = dict(MINIMAL)
        doc["objective"] = {"builtin": {"name": "rosenbrock"}}
        with pytest.raises(ConfigSchemaError, match="rosenbrock"):
            parse_config(write_config(tmp_path, doc))

    def test_unknown_builtin_param(self, tmp_path):
        doc = dict(MINIMAL)
        doc["objective"] = {"builtin": {"name": "quadratic1d", "target": 0.5}}
        with pytest.raises(ConfigSchemaError, match="target"):
            parse_config(write_config(tmp_path, doc))

    def test_command_shorthand_string(self, tmp_path):
        doc = dict(MINIMAL)
        doc["objective"] = {"command": "python3 eval.py"}
        config = parse_config(write_config(tmp_path, doc))
        assert isinstance(config.objective, CommandObjective)
        assert config.objective.timeout == 60.0

    def test_full_space_kinds_parse(self, tmp_path):
        doc = {
            "space": [
                {"name": "lr", "kind": "range-float", "lower": 1e-4, "upper": 1.0, "log_scale": True},
                {"name": "layers", "kind": "range-int", "lower": 1, "upper": 8},
                {"name": "act", "kind": "choice", "options": ["relu", "tanh"]},
                {"name": "tag", "kind": "fixed", "value": "demo"},
            ],
            "objective": {"command": {"command": "true", "timeout": 5}},
            "minimize": False,
            "total_trials": 3,
            "seed": 11,
            "out_dir": "somewhere",
        }
        config = parse_config(write_config(tmp_path, doc))
        assert config.space.d == 3
        assert config.minimize is False
        assert config.out_dir == "somewhere"

    def test_override_applies_only_non_none(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL))
        updated = config.override(seed=5, out_dir=None, total_trials=None)
        assert updated.seed == 5
        assert updated.out_dir == config.out_dir


def run_config(**kwargs):
    defaults = {"space": default_space("quadratic1d"), "objective": BuiltinObjective("quadratic1d", {})}
    return RunConfig(**{**defaults, **kwargs})


class TestConfigObjects:
    @pytest.mark.parametrize(
        "build, kwargs, message",
        [
            (run_config, {"seed": "x"}, "'seed' must be an integer"),
            (run_config, {"out_dir": ""}, "'out_dir' must be a nonempty string"),
            (run_config, {"minimize": 1}, "'minimize' must be a boolean"),
            (run_config, {"objective": "quadratic1d"}, "'objective' must be"),
            (CommandObjective, {"command": "true", "timeout": 10**400},
             "'timeout' must be a positive number"),
            (CommandObjective, {"command": "true", "timeout": float("inf")},
             "'timeout' must be a positive number"),
            (CommandObjective, {"command": "   "}, "'command' must be a nonempty string"),
            (BuiltinObjective, {"name": "nope", "params": {}}, "unknown builtin objective 'nope'"),
            (BuiltinObjective, {"name": "quadratic1d", "params": {"noise_sd": 0.5}},
             "unknown key"),
        ],
        ids=["seed", "out_dir", "minimize", "objective", "huge-timeout", "inf-timeout",
             "blank-command", "builtin-name", "builtin-key"],
    )
    def test_bad_value_raises_on_construction(self, build, kwargs, message):
        with pytest.raises(ConfigSchemaError, match=message):
            build(**kwargs)

    def test_override_is_checked_like_the_file(self):
        config = run_config()
        with pytest.raises(ConfigSchemaError, match="'out_dir' must be a nonempty string"):
            config.override(out_dir="")

    def test_integer_timeout_is_held_as_float(self):
        timeout = CommandObjective("true", 5).timeout
        assert type(timeout) is float and timeout == 5.0


class TestBuiltinObjectives:
    def test_quadratic_minimum(self):
        obs = make_builtin("quadratic1d", {})(Arm("a", {"x": 0.3}))
        assert obs.objective == 0.0
        assert obs.sem is None

    def test_groupweights_residual_at_targets(self):
        arm = Arm("a", dict(zip(GROUP_WEIGHT_NAMES, (0.25, 0.6, 0.4))))
        obs = make_builtin("groupweights3d", {})(arm)
        assert obs.objective == pytest.approx(0.1 * 0.25 * 0.6, abs=1e-15)
        assert obs.sem is None

    def test_groupweights_noise_is_deterministic_per_arm(self):
        objective = make_builtin("groupweights3d", {"noise_sd": 0.05})
        arm = Arm("a", {"w_fg": 0.2, "w_rg": 0.4, "w_ccg": 0.6})
        other = Arm("b", {"w_fg": 0.2, "w_rg": 0.4, "w_ccg": 0.61})
        first = objective(arm)
        again = make_builtin("groupweights3d", {"noise_sd": 0.05})(arm)
        assert first.objective == again.objective
        assert first.sem == 0.05
        assert objective(other).objective != first.objective

    @pytest.mark.parametrize(
        "w_fg, bits",
        [(0.1, "0x1.134455add75cep-4"), (0.2, "0x1.87f14cf8dac75p-4"),
         (0.77, "0x1.c1b32f1461fe0p-2")],
    )
    def test_groupweights_noise_bits_are_pinned(self, w_fg, bits):
        # The noise seed is fixed, so these values hold across versions.
        arm = Arm("a", {"w_fg": w_fg, "w_rg": 0.4, "w_ccg": 0.6})
        obs = make_builtin("groupweights3d", {"noise_sd": 0.05})(arm)
        assert obs.objective == float.fromhex(bits)

    def test_branin_grid_minimum_is_reachable(self):
        # The mapped-domain minimum matches the classical value, and the
        # builtin hits it at a known optimum (x1 = pi, x2 = 2.275).
        assert branin_grid_minimum(1000) == pytest.approx(0.397887, abs=2e-3)
        arm = Arm("a", {"u1": (np.pi + 5) / 15, "u2": 2.275 / 15})
        obs = make_builtin("branin2d", {})(arm)
        assert obs.objective == pytest.approx(0.397887, abs=1e-5)

    def test_hartmann6_global_minimum(self):
        x_star = (0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573)
        arm = Arm("a", {f"x{i}": v for i, v in enumerate(x_star, start=1)})
        assert arm.values.keys() == {p.name for p in default_space("hartmann6").params}
        obs = make_builtin("hartmann6", {})(arm)
        assert obs.objective == pytest.approx(-3.32237, abs=1e-5)
        assert obs.sem is None

    def test_unknown_name(self):
        valid = "quadratic1d, branin2d, groupweights3d, hartmann6"
        with pytest.raises(UsageError, match=f"'nope'; choose from {valid}"):
            make_builtin("nope", {})
        with pytest.raises(UsageError, match="nope"):
            default_space("nope")
        with pytest.raises(UsageError, match=r"\['x'\]"):
            make_builtin(["x"], {})

    @pytest.mark.parametrize(
        "name, key",
        [("quadratic1d", "noise_sd"), ("quadratic1d", "targets"), ("branin2d", "targets"),
         ("groupweights3d", "targets"), ("hartmann6", "targets")],
    )
    def test_unknown_keys_rejected_for_every_builtin(self, name, key):
        with pytest.raises(UsageError, match=rf"unknown key\(s\) \['{key}'\] for builtin '{name}'"):
            make_builtin(name, {key: 0.5})

    def test_groupweights_requires_named_weights(self):
        objective = make_builtin("groupweights3d", {})
        with pytest.raises(UsageError, match="w_fg"):
            objective(Arm("a", {"a": 1, "b": 2, "c": 3}))

    def test_positional_builtins_check_the_arm_size(self):
        objective = make_builtin("branin2d", {})
        with pytest.raises(UsageError, match="exactly 2 parameter"):
            objective(Arm("a", {"x": 0.5}))
        # Values are read in order, whatever their names.
        assert objective(Arm("a", {"p": 0.5, "q": 0.5})) == objective(
            Arm("b", {"u1": 0.5, "u2": 0.5})
        )

    def test_bench_validation(self):
        assert BUILTIN_PARAMS["groupweights3d"] == {"noise_sd"}
        for noise_sd in (-1.0, float("nan"), float("inf"), "abc", True, 10**400):
            with pytest.raises(UsageError, match="noise_sd"):
                make_builtin("groupweights3d", {"noise_sd": noise_sd})

    @pytest.mark.parametrize("name", ["quadratic1d", "branin2d", "groupweights3d", "hartmann6"])
    def test_default_space_is_unit_floats(self, name):
        space = default_space(name)
        assert all(
            p.kind == "range-float" and (p.lower, p.upper) == (0.0, 1.0) and not p.log_scale
            for p in space.params
        )
        if name == "groupweights3d":
            assert tuple(p.name for p in space.params) == GROUP_WEIGHT_NAMES


def child(code):
    return f"{sys.executable} -c \"{code}\""


class TestSubprocessEvaluate:
    ARM = Arm("t", {"x": 0.5, "k": 3})

    def test_echo_observation(self):
        cmd = child("import json,sys; json.load(sys.stdin); print(json.dumps({'objective': 1.0}))")
        obs = subprocess_evaluate(cmd, 30, self.ARM)
        assert obs == Observation(1.0)

    def test_sem_passthrough(self):
        cmd = child(
            "import json,sys; json.load(sys.stdin); print(json.dumps({'objective': 1.0, 'sem': 0.1}))"
        )
        assert subprocess_evaluate(cmd, 30, self.ARM) == Observation(1.0, sem=0.1)

    def test_parameters_reach_the_child(self):
        cmd = child(
            "import json,sys; p=json.load(sys.stdin)['parameters'];"
            " print(json.dumps({'objective': p['x'] + p['k']}))"
        )
        assert subprocess_evaluate(cmd, 30, self.ARM).objective == 3.5

    def test_malformed_output(self):
        cmd = child("print('oops')")
        with pytest.raises(EvaluatorFault) as excinfo:
            subprocess_evaluate(cmd, 30, self.ARM)
        assert excinfo.value.kind == "malformed-output"

    def test_nonzero_exit(self):
        cmd = child("import sys; sys.exit(3)")
        with pytest.raises(EvaluatorFault) as excinfo:
            subprocess_evaluate(cmd, 30, self.ARM)
        assert excinfo.value.kind == "nonzero-exit"

    def test_timeout(self):
        cmd = child("import time; time.sleep(20)")
        with pytest.raises(EvaluatorFault) as excinfo:
            subprocess_evaluate(cmd, 0.5, self.ARM)
        assert excinfo.value.kind == "timeout"

    def test_spawn_failure(self):
        with pytest.raises(EvaluatorFault) as excinfo:
            subprocess_evaluate("no_such_binary_anywhere", 5, self.ARM)
        assert excinfo.value.kind == "spawn-failure"

    @pytest.mark.parametrize("target", ["directory", "non-executable-file"])
    def test_unrunnable_path_is_spawn_failure(self, tmp_path, target):
        # execve refuses both with EACCES (PermissionError), not ENOENT.
        path = tmp_path / "evaluator"
        if target == "directory":
            path.mkdir()
        else:
            path.write_text("#!/bin/sh\necho '{\"objective\": 1.0}'\n")
            path.chmod(0o644)
        with pytest.raises(EvaluatorFault) as excinfo:
            subprocess_evaluate(str(path), 5, self.ARM)
        assert excinfo.value.kind == "spawn-failure"

    def test_non_numeric_objective(self):
        cmd = child("import json; print(json.dumps({'objective': 'low'}))")
        with pytest.raises(EvaluatorFault) as excinfo:
            subprocess_evaluate(cmd, 30, self.ARM)
        assert excinfo.value.kind == "malformed-output"

    @pytest.mark.parametrize(
        "response",
        ["{'objective': 1.0, 'sem': -1}", "{'objective': 1.0, 'sem': float('nan')}",
         "{'objective': 10 ** 400}"],
        ids=["negative-sem", "nan-sem", "objective-beyond-float-range"],
    )
    def test_unusable_number_is_malformed_output(self, response):
        cmd = child(f"import json; print(json.dumps({response}))")
        with pytest.raises(EvaluatorFault) as excinfo:
            subprocess_evaluate(cmd, 30, self.ARM)
        assert excinfo.value.kind == "malformed-output"


def tiny_experiment(n=3, with_sem=False, fail_last=False):
    from gpbo import ParameterSpec, SearchSpace

    space = SearchSpace(
        [
            ParameterSpec.range_float("x", 0.0, 1.0),
            ParameterSpec.range_int("k", 0, 10),
            ParameterSpec.choice("act", ["relu", "tanh"]),
            ParameterSpec.fixed("tag", "demo"),
        ]
    )
    exp = new_experiment(space, seed=0)
    for i in range(n):
        t = suggest(exp)
        if fail_last and i == n - 1:
            complete_trial(exp, t.index, Observation(float("nan")))
        else:
            obs = Observation(1.0 / (i + 3), sem=0.01 if with_sem else None)
            complete_trial(exp, t.index, obs)
    return exp


class TestTrialLog:
    def test_empty_experiment_header_only(self, tmp_path):
        exp = new_experiment(default_space("quadratic1d"), seed=0)
        path = tmp_path / "trials.csv"
        write_trial_log(exp, path)
        assert path.read_text() == "trial_index,generator,x,objective,sem,status\n"

    def test_round_trip_records(self, tmp_path):
        exp = tiny_experiment(4, with_sem=True)
        path = tmp_path / "trials.csv"
        write_trial_log(exp, path)
        assert read_trial_log(path, exp.space) == [
            TrialLogRecord(
                trial_index=t.index,
                generator=t.generator.value,
                params=t.arm.values,
                objective=t.observation.objective,
                sem=t.observation.sem,
                status=t.status.value,
            )
            for t in exp.trials
        ]

    def test_failed_rows_have_empty_objective_and_sem(self, tmp_path):
        exp = tiny_experiment(3, fail_last=True)
        path = tmp_path / "trials.csv"
        write_trial_log(exp, path)
        rows = list(csv.reader(path.open()))
        assert rows[-1][-3] == "" and rows[-1][-2] == ""
        assert rows[-1][-1] == "FAILED"

    def test_reals_keep_17_significant_digits(self, tmp_path):
        exp = new_experiment(default_space("quadratic1d"), seed=0)
        t = suggest(exp)
        value = 0.1234567890123456789
        complete_trial(exp, t.index, Observation(value))
        path = tmp_path / "trials.csv"
        write_trial_log(exp, path)
        back = read_trial_log(path, exp.space)
        assert back[0].objective == value  # lossless float64 round trip

    def test_truncated_last_row_names_its_line(self, tmp_path):
        # A run that stops mid-write leaves a partial last row.
        space = default_space("quadratic1d")
        path = tmp_path / "trials.csv"
        path.write_text(
            "trial_index,generator,x,objective,sem,status\n"
            "0,SOBOL,0.5,0.04,,COMPLETED\n"
            "1,SOBOL,0.2"
        )
        with pytest.raises(UsageError, match=r"line 3: 3 cells, expected 6"):
            read_trial_log(path, space)

    def test_non_numeric_real_cell_names_its_line(self, tmp_path):
        space = default_space("quadratic1d")
        path = tmp_path / "trials.csv"
        path.write_text(
            "trial_index,generator,x,objective,sem,status\n"
            "0,SOBOL,0.5,abc,,COMPLETED\n"
        )
        with pytest.raises(UsageError, match=r"line 2: could not convert string to float: 'abc'"):
            read_trial_log(path, space)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,SOBLO,0.5,0.04,,COMPLETED"], r"line 2: unknown generator 'SOBLO'"),
            (["0,SOBOL,0.5,0.04,,DONE"], r"line 2: unknown status 'DONE'"),
            (["0,SOBOL,0.5,0.04,,COMPLETED", "0,SOBOL,0.2,0.09,,COMPLETED"],
             r"line 3: trial_index 0, expected 1"),
            (["1,SOBOL,0.5,0.04,,COMPLETED"], r"line 2: trial_index 1, expected 0"),
            (["0,SOBOL,0.5,,,COMPLETED"], r"line 2: COMPLETED row has no objective"),
            (["0,SOBOL,0.5,0.04,,FAILED"], r"line 2: FAILED row has an objective or a sem"),
            (["0,SOBOL,0.5,,0.01,FAILED"], r"line 2: FAILED row has an objective or a sem"),
        ],
        ids=["unknown-generator", "unknown-status", "repeated-index", "out-of-order-index",
             "completed-without-objective", "failed-with-objective", "failed-with-sem"],
    )
    def test_row_no_run_writes_names_its_line(self, tmp_path, rows, message):
        space = default_space("quadratic1d")
        path = tmp_path / "trials.csv"
        path.write_text("\n".join(["trial_index,generator,x,objective,sem,status", *rows]) + "\n")
        with pytest.raises(UsageError, match=rf"trial log .*trials\.csv {message}"):
            read_trial_log(path, space)

    def test_column_order_fixed_by_space(self, tmp_path):
        exp = tiny_experiment(1)
        path = tmp_path / "trials.csv"
        write_trial_log(exp, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["trial_index", "generator", "x", "k", "act", "tag",
                          "objective", "sem", "status"]


class TestRun:
    def config(self, tmp_path, **overrides):
        doc = {
            "space": [
                {"name": "w_fg", "kind": "range-float", "lower": 0.0, "upper": 1.0},
                {"name": "w_rg", "kind": "range-float", "lower": 0.0, "upper": 1.0},
                {"name": "w_ccg", "kind": "range-float", "lower": 0.0, "upper": 1.0},
            ],
            "objective": {"builtin": {"name": "groupweights3d", "noise_sd": 0.01}},
            "total_trials": 6,
            "seed": 3,
            "out_dir": str(tmp_path / "out"),
        }
        doc.update(overrides)
        return parse_config(write_config(tmp_path, doc))

    def test_successful_run_writes_outputs(self, tmp_path, capsys):
        config = self.config(tmp_path)
        assert run(config) == 0
        out_dir = tmp_path / "out"
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report) == {
            "best_arm", "observed_objective", "predicted_mean", "predicted_sd",
            "n_trials", "n_failed", "seed", "wall_ms",
        }
        assert report["n_trials"] == 6
        assert all(0.0 <= v <= 1.0 for v in report["best_arm"].values())
        lines = (out_dir / "trials.csv").read_text().splitlines()
        assert len(lines) == 7  # header + one row per trial
        assert "best configuration" in capsys.readouterr().out

    def test_default_budget_yields_21_log_lines(self, tmp_path):
        config = self.config(tmp_path, total_trials=20, out_dir=str(tmp_path / "out20"))
        assert run(config) == 0
        lines = (tmp_path / "out20" / "trials.csv").read_text().splitlines()
        assert len(lines) == 21

    def test_always_faulting_command_exits_1_with_failed_log(self, tmp_path):
        doc = {
            "space": [{"name": "x", "kind": "range-float", "lower": 0.0, "upper": 1.0}],
            "objective": {"command": {"command": child("print('junk')"), "timeout": 30}},
            "total_trials": 4,
            "out_dir": str(tmp_path / "outf"),
        }
        config = parse_config(write_config(tmp_path, doc))
        assert run(config) == 1
        rows = (tmp_path / "outf" / "trials.csv").read_text().splitlines()
        assert len(rows) == 5
        assert all("FAILED" in row for row in rows[1:])
        assert not (tmp_path / "outf" / "report.json").exists()

    def test_invalid_space_exits_2_without_files(self, tmp_path):
        doc = {
            "space": [{"name": "x", "kind": "range-float", "lower": 1.0, "upper": 0.0}],
            "objective": {"builtin": {"name": "quadratic1d"}},
            "out_dir": str(tmp_path / "never"),
        }
        config = parse_config(write_config(tmp_path, doc))
        assert run(config) == 2
        assert not (tmp_path / "never").exists()

    def test_space_beyond_sobol_dimensions_exits_2_without_files(self, tmp_path, capsys):
        doc = {
            "space": [
                {"name": f"x{i}", "kind": "range-float", "lower": 0.0, "upper": 1.0}
                for i in range(22)
            ],
            "objective": {"command": "true"},
            "out_dir": str(tmp_path / "never"),
        }
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "at most 21" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_repeat_runs_byte_identical_logs(self, tmp_path):
        a = self.config(tmp_path, out_dir=str(tmp_path / "a"))
        b = self.config(tmp_path, out_dir=str(tmp_path / "b"))
        assert run(a) == 0
        assert run(b) == 0
        assert (tmp_path / "a" / "trials.csv").read_bytes() == (
            tmp_path / "b" / "trials.csv"
        ).read_bytes()
        ra = json.loads((tmp_path / "a" / "report.json").read_text())
        rb = json.loads((tmp_path / "b" / "report.json").read_text())
        ra.pop("wall_ms"), rb.pop("wall_ms")
        assert ra == rb


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL, trails=1))
        assert main(["validate", str(path)]) == 2
        assert "trails" in capsys.readouterr().err

    def test_run_with_flag_overrides(self, tmp_path):
        doc = dict(MINIMAL, total_trials=3, out_dir=str(tmp_path / "ignored"))
        path = write_config(tmp_path, doc)
        out = tmp_path / "flagged"
        assert main(["run", str(path), "--out-dir", str(out), "--trials", "4", "--seed", "9"]) == 0
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 5
        assert json.loads((out / "report.json").read_text())["seed"] == 9

    @pytest.mark.parametrize("command", ['python3 "eval.py', "   "])
    def test_unsplittable_command_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "never"
        doc = dict(MINIMAL, objective={"command": command}, out_dir=str(out))
        path = write_config(tmp_path, doc)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2
        assert "'command'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "space, message",
        [
            ([{"name": f"x{i}", "kind": "range-float", "lower": 0.0, "upper": 1.0}
              for i in range(22)],
             "space has 22 free dimensions; Sobol supports at most 21"),
            ([{"name": "c", "kind": "fixed", "value": 1}],
             "space must contain at least one non-fixed parameter"),
        ],
        ids=["22-parameters", "all-fixed"],
    )
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_space_wide_violation_printed_once(self, tmp_path, capsys, space, message, subcommand):
        doc = {"space": space, "objective": {"command": "true"}, "out_dir": str(tmp_path / "never")}
        assert main([subcommand, str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 1
        assert f"error: {message}\n" in err
        assert "parameter None" not in err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_parameter_violation_names_the_parameter(self, tmp_path, capsys, subcommand):
        space = [{"name": "x", "kind": "range-float", "lower": 1.0, "upper": 0.0}]
        doc = dict(MINIMAL, space=space, out_dir=str(tmp_path / "never"))
        assert main([subcommand, str(write_config(tmp_path, doc))]) == 2
        assert capsys.readouterr().err == "error: parameter 'x': lower < upper required\n"

    @pytest.mark.parametrize(
        "noise_sd", ["abc", True, -1, 1e400, 10**400],
        ids=["string", "bool", "negative", "inf", "huge-int"],
    )
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_bad_noise_sd_exits_2(self, tmp_path, capsys, noise_sd, subcommand):
        doc = {
            "space": [{"name": w, "kind": "range-float", "lower": 0.0, "upper": 1.0}
                      for w in GROUP_WEIGHT_NAMES],
            "objective": {"builtin": {"name": "groupweights3d", "noise_sd": noise_sd}},
            "out_dir": str(tmp_path / "never"),
        }
        assert main([subcommand, str(write_config(tmp_path, doc))]) == 2
        assert "'noise_sd' must be a finite number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("key, value", [("targets", [0.3, 0.7, 0.5]),
                                            ("curvature", [1.0, 1.0, 1.0]), ("seed", 3)])
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_groupweights_accepts_only_noise_sd(self, tmp_path, capsys, key, value, subcommand):
        builtin = {"name": "groupweights3d", "noise_sd": 0.01, key: value}
        doc = {
            "space": [{"name": w, "kind": "range-float", "lower": 0.0, "upper": 1.0}
                      for w in GROUP_WEIGHT_NAMES],
            "objective": {"builtin": builtin},
            "out_dir": str(tmp_path / "never"),
        }
        assert main([subcommand, str(write_config(tmp_path, doc))]) == 2
        assert f"unknown key(s) ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("argv", [["run", "config.json"], ["bench", "quadratic1d"]])
    def test_empty_out_dir_flag_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                            argv):
        write_config(tmp_path, MINIMAL)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out-dir", "", "--trials", "2"]) == 2
        assert "'out_dir' must be a nonempty string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("timeout", [10**400, float("inf")], ids=["huge-int", "inf"])
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_timeout_beyond_float_range_exits_2(self, tmp_path, capsys, timeout, subcommand):
        out = tmp_path / "never"
        doc = dict(MINIMAL, objective={"command": {"command": "true", "timeout": timeout}},
                   out_dir=str(out))
        assert main([subcommand, str(write_config(tmp_path, doc))]) == 2
        assert "'timeout' must be a positive number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, message",
        [("range-float", "error: space[0]: range bounds must be finite\n"),
         ("range-int", "error: parameter 'x': range bounds must be finite\n")],
        ids=["range-float", "range-int"],
    )
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_bound_beyond_float_range_exits_2(self, tmp_path, capsys, kind, message, subcommand):
        out = tmp_path / "never"
        space = [{"name": "x", "kind": kind, "lower": 0, "upper": 10**400}]
        doc = dict(MINIMAL, space=space, out_dir=str(out))
        assert main([subcommand, str(write_config(tmp_path, doc))]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_unhashable_builtin_name_exits_2(self, tmp_path, capsys, subcommand):
        out = tmp_path / "never"
        doc = dict(MINIMAL, objective={"builtin": {"name": ["x"]}}, out_dir=str(out))
        assert main([subcommand, str(write_config(tmp_path, doc))]) == 2
        assert "unknown builtin objective ['x']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, message",
        [([[1], [2]], "choice options must be strings, numbers, booleans or null"),
         ([1, "1"], "choice options must be distinct")],
        ids=["lists", "int-and-str"],
    )
    @pytest.mark.parametrize("subcommand", ["validate", "run"])
    def test_choice_options_that_do_not_round_trip_exit_2(self, tmp_path, capsys, options,
                                                          message, subcommand):
        out = tmp_path / "never"
        space = [{"name": "c", "kind": "choice", "options": options},
                 {"name": "x", "kind": "range-float", "lower": 0.0, "upper": 1.0}]
        doc = {"space": space, "objective": {"command": "true"}, "out_dir": str(out)}
        assert main([subcommand, str(write_config(tmp_path, doc))]) == 2
        assert capsys.readouterr().err == f"error: parameter 'c': {message}\n"
        assert not out.exists()

    def test_run_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        path = write_config(tmp_path, MINIMAL)
        assert main(["run", str(path), "--out-dir", str(taken)]) == 2
        assert "error: cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blocked, message",
        [("trials.csv", "cannot write trial log to"), ("report.json", "cannot write report to")],
    )
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, blocked, message):
        # A directory in the file's place makes the write fail after the
        # whole budget is spent; that is reported, not raised.
        out = tmp_path / "od"
        (out / blocked).mkdir(parents=True)
        code = main(["bench", "quadratic1d", "--trials", "6", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message} {out / blocked}" in err
        assert "Traceback" not in err

    def test_run_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "none.json")]) == 2

    def test_bench_unknown_name_exits_2(self, capsys):
        assert main(["bench", "mystery"]) == 2
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_run_trials_below_one_exits_2(self, tmp_path, capsys, trials):
        out = tmp_path / "never"
        path = write_config(tmp_path, MINIMAL)
        assert main(["run", str(path), "--out-dir", str(out), "--trials", trials]) == 2
        assert "'total_trials' must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_bench_trials_below_one_exits_2(self, tmp_path, capsys, trials):
        out = tmp_path / "never"
        assert main(["bench", "quadratic1d", "--trials", trials, "--out-dir", str(out)]) == 2
        assert "'total_trials' must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_runs_builtin(self, tmp_path):
        out = tmp_path / "bench_out"
        assert main(["bench", "quadratic1d", "--trials", "6", "--out-dir", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_bench_runs_hartmann6(self, tmp_path):
        out = tmp_path / "bench_out"
        assert main(["bench", "hartmann6", "--trials", "8", "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_trials"] == 8
        assert sorted(report["best_arm"]) == [f"x{i}" for i in range(1, 7)]
