"""Run configuration: objects that check their own values, parsed from strict JSON.

Building a :class:`RunConfig`, :class:`BuiltinObjective` or
:class:`CommandObjective` with a bad value raises ConfigSchemaError, so
file values, command-line overrides and API callers meet the same rules.
:func:`parse_config` checks only the file, the JSON, unknown keys, the
space entries and the shape of the objective block.
"""

from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .benchmarks import make_builtin
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


@dataclass(frozen=True)
class BuiltinObjective:
    name: str
    params: dict  # the builtin's config keys besides its name

    def __post_init__(self):
        try:
            make_builtin(self.name, self.params)  # the one check of name, keys and values
        except UsageError as exc:
            raise ConfigSchemaError(str(exc)) from None


@dataclass(frozen=True)
class CommandObjective:
    command: str
    timeout: float = 60.0

    def __post_init__(self):
        _require(isinstance(self.command, str), "'command' must be a nonempty string")
        try:
            argv = shlex.split(self.command)
        except ValueError as exc:
            raise ConfigSchemaError(f"'command' cannot be split into arguments: {exc}") from None
        _require(bool(argv), "'command' must be a nonempty string")
        # The upper bound keeps float() of a huge JSON integer from overflowing.
        _require(
            _is_a(self.timeout, (int, float)) and 0 < self.timeout <= sys.float_info.max,
            "'timeout' must be a positive number",
        )
        object.__setattr__(self, "timeout", float(self.timeout))


@dataclass(frozen=True)
class RunConfig:
    space: SearchSpace
    objective: BuiltinObjective | CommandObjective
    minimize: bool = True
    total_trials: int = 20
    seed: int = 0
    out_dir: str = "bo_out"

    def __post_init__(self):
        _require(isinstance(self.objective, (BuiltinObjective, CommandObjective)),
                 "'objective' must be a BuiltinObjective or CommandObjective")
        _require(isinstance(self.minimize, bool), "'minimize' must be a boolean")
        _require(_is_a(self.total_trials, int) and self.total_trials >= 1,
                 "'total_trials' must be an integer >= 1")
        _require(_is_a(self.seed, int), "'seed' must be an integer")
        _require(isinstance(self.out_dir, str) and self.out_dir != "",
                 "'out_dir' must be a nonempty string")

    def override(self, **kwargs) -> "RunConfig":
        """Apply non-None command-line overrides, checked like the file's values."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates)


def _is_a(value, types) -> bool:
    """isinstance that does not count a bool as a number."""
    return isinstance(value, types) and not isinstance(value, bool)


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
        bounds = (entry["lower"], entry["upper"])
        _require(all(_is_a(b, (int, float)) for b in bounds), f"{where}: bounds must be numbers")
        if kind == RANGE_FLOAT:
            # float() overflows on an integer beyond float range; a float
            # there is already inf, which validate_space reports.
            _require(
                all(isinstance(b, float) or abs(b) <= sys.float_info.max for b in bounds),
                f"{where}: range bounds must be finite",
            )
            log_scale = entry.get("log_scale", False)
            _require(isinstance(log_scale, bool), f"{where}: 'log_scale' must be a boolean")
            return ParameterSpec.range_float(name, *bounds, log_scale)
        return ParameterSpec.range_int(name, *bounds)
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
        params = {k: v for k, v in block.items() if k != "name"}
        return BuiltinObjective(name=block["name"], params=params)
    block = obj["command"]
    if isinstance(block, str):
        block = {"command": block}
    _require(isinstance(block, dict), "'objective.command' must be a string or object")
    _reject_unknown(block, _COMMAND_KEYS, "'objective.command'")
    _require("command" in block, "'objective.command' requires 'command'")
    return CommandObjective(**block)


def parse_config(path) -> RunConfig:
    """Load a run configuration file into a checked :class:`RunConfig`.

    Distinct failures: missing file (ConfigFileError), bad JSON
    (ConfigParseError), schema violations (ConfigSchemaError, naming the
    offending key), whether this function or one of the config objects
    finds them.
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
    # The settings the document leaves out take the RunConfig defaults.
    settings = {k: v for k, v in document.items() if k not in ("space", "objective")}
    return RunConfig(space=SearchSpace(params), objective=objective, **settings)
