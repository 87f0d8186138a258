"""Run-configuration parsing: strict JSON, no silently ignored keys."""

from __future__ import annotations

import json
import shlex
from dataclasses import dataclass, replace
from pathlib import Path

from .benchmarks import BUILTIN_NAMES, BUILTIN_PARAMS, make_builtin
from .errors import ConfigFileError, ConfigParseError, ConfigSchemaError, UsageError
from .space import CHOICE, FIXED, RANGE_FLOAT, RANGE_INT, ParameterSpec, SearchSpace

_TOP_KEYS = {"space", "objective", "minimize", "total_trials", "seed", "out_dir"}
_PARAM_KEYS = {
    RANGE_FLOAT: {"name", "kind", "lower", "upper", "log_scale"},
    RANGE_INT: {"name", "kind", "lower", "upper"},
    CHOICE: {"name", "kind", "options"},
    FIXED: {"name", "kind", "value"},
}
_COMMAND_KEYS = {"command", "timeout"}

DEFAULT_TIMEOUT = 60.0


@dataclass(frozen=True)
class BuiltinObjective:
    name: str
    params: dict


@dataclass(frozen=True)
class CommandObjective:
    command: str
    timeout: float = DEFAULT_TIMEOUT


@dataclass(frozen=True)
class RunConfig:
    space: SearchSpace
    objective: BuiltinObjective | CommandObjective
    minimize: bool = True
    total_trials: int = 20
    seed: int = 0
    out_dir: str = "bo_out"

    def __post_init__(self):
        # Here rather than in parse_config, so that --trials is held to it too.
        total = self.total_trials
        _require(
            isinstance(total, int) and not isinstance(total, bool) and total >= 1,
            "'total_trials' must be an integer >= 1",
        )

    def override(self, **kwargs) -> "RunConfig":
        """Apply non-None command-line overrides, validated like the file."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates)


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigSchemaError(f"unknown key(s) {unknown} in {where}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigSchemaError(message)


def _parse_param(entry, position: int) -> ParameterSpec:
    where = f"space[{position}]"
    _require(isinstance(entry, dict), f"{where} must be an object")
    _require("name" in entry and "kind" in entry, f"{where} requires 'name' and 'kind'")
    name, kind = entry["name"], entry["kind"]
    _require(isinstance(name, str), f"{where}: 'name' must be a string")
    _require(kind in _PARAM_KEYS, f"{where}: unknown kind {kind!r}")
    _reject_unknown(entry, _PARAM_KEYS[kind], where)
    if kind in (RANGE_FLOAT, RANGE_INT):
        _require("lower" in entry and "upper" in entry, f"{where} requires 'lower' and 'upper'")
        _require(
            all(isinstance(entry[k], (int, float)) and not isinstance(entry[k], bool)
                for k in ("lower", "upper")),
            f"{where}: bounds must be numbers",
        )
        if kind == RANGE_FLOAT:
            log_scale = entry.get("log_scale", False)
            _require(isinstance(log_scale, bool), f"{where}: 'log_scale' must be a boolean")
            return ParameterSpec.range_float(name, entry["lower"], entry["upper"], log_scale)
        return ParameterSpec.range_int(name, entry["lower"], entry["upper"])
    if kind == CHOICE:
        options = entry.get("options")
        _require(isinstance(options, list), f"{where}: 'options' must be a list")
        return ParameterSpec.choice(name, options)
    _require("value" in entry, f"{where} requires 'value'")
    return ParameterSpec.fixed(name, entry["value"])


def _parse_objective(obj) -> BuiltinObjective | CommandObjective:
    _require(isinstance(obj, dict), "'objective' must be an object")
    _reject_unknown(obj, {"builtin", "command"}, "'objective'")
    _require(
        ("builtin" in obj) != ("command" in obj),
        "'objective' must set exactly one of 'builtin' or 'command'",
    )
    if "builtin" in obj:
        block = obj["builtin"]
        _require(isinstance(block, dict), "'objective.builtin' must be an object")
        _require("name" in block, "'objective.builtin' requires 'name'")
        name = block["name"]
        _require(name in BUILTIN_NAMES, f"unknown builtin objective {name!r}")
        _reject_unknown(block, {"name", *BUILTIN_PARAMS[name]}, f"'objective.builtin' ({name})")
        params = {k: v for k, v in block.items() if k != "name"}
        try:
            make_builtin(name, params)  # make_builtin owns the config-value checks
        except UsageError as exc:
            raise ConfigSchemaError(str(exc)) from None
        return BuiltinObjective(name=name, params=params)
    block = obj["command"]
    if isinstance(block, str):
        block = {"command": block}
    _require(isinstance(block, dict), "'objective.command' must be a string or object")
    _reject_unknown(block, _COMMAND_KEYS, "'objective.command'")
    _require("command" in block, "'objective.command' requires 'command'")
    command = block["command"]
    _require(isinstance(command, str), "'command' must be a nonempty string")
    try:
        argv = shlex.split(command)
    except ValueError as exc:
        raise ConfigSchemaError(f"'command' cannot be split into arguments: {exc}") from None
    _require(bool(argv), "'command' must be a nonempty string")
    timeout = block.get("timeout", DEFAULT_TIMEOUT)
    _require(
        isinstance(timeout, (int, float)) and not isinstance(timeout, bool) and timeout > 0,
        "'timeout' must be a positive number",
    )
    return CommandObjective(command=command, timeout=float(timeout))


def parse_config(path) -> RunConfig:
    """Load and strictly validate a run configuration file.

    Distinct failures: missing file (ConfigFileError), bad JSON
    (ConfigParseError), schema violations (ConfigSchemaError, naming the
    offending key).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigFileError(f"config file not found: {path}")
    try:
        document = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config file {path} is not valid JSON: {exc}") from exc
    _require(isinstance(document, dict), "config document must be a JSON object")
    _reject_unknown(document, _TOP_KEYS, "config")
    _require("space" in document, "config requires 'space'")
    _require("objective" in document, "config requires 'objective'")
    _require(isinstance(document["space"], list) and document["space"],
             "'space' must be a nonempty list")
    params = [_parse_param(entry, i) for i, entry in enumerate(document["space"])]
    objective = _parse_objective(document["objective"])
    minimize = document.get("minimize", True)
    _require(isinstance(minimize, bool), "'minimize' must be a boolean")
    seed = document.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool), "'seed' must be an integer")
    out_dir = document.get("out_dir", "bo_out")
    _require(isinstance(out_dir, str) and out_dir != "", "'out_dir' must be a nonempty string")
    return RunConfig(
        space=SearchSpace(params),
        objective=objective,
        minimize=minimize,
        total_trials=document.get("total_trials", 20),
        seed=seed,
        out_dir=out_dir,
    )
