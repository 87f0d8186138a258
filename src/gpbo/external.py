"""External evaluator protocol: one subprocess per arm, JSON on stdio.

Request, written to the child's stdin as a single UTF-8 JSON document:

    {"parameters": {"<name>": <value>, ...}}

Response, read from the child's stdout, also one JSON document:

    {"objective": <number>, "sem": <finite number >= 0, optional>}

The child must exit 0.  Every failure mode (spawn, timeout, nonzero exit,
unusable output) raises EvaluatorFault with a distinct kind, which the
loop records on the FAILED trial.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess

from .errors import EvaluatorFault
from .space import Arm, Observation


def _number(value, key: str) -> float:
    """A JSON number as a float; anything else is malformed output."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise EvaluatorFault("malformed-output", f"{key!r} is not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise EvaluatorFault("malformed-output", f"{key!r} is beyond float range") from None


def subprocess_evaluate(command: str, timeout: float, arm: Arm) -> Observation:
    """Run one evaluation of ``arm`` through an external command."""
    argv = shlex.split(command)
    if not argv:
        raise EvaluatorFault("spawn-failure", "empty command")
    payload = json.dumps({"parameters": arm.values}).encode()
    try:
        proc = subprocess.run(
            argv, input=payload, capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise EvaluatorFault("timeout", f"no result within {timeout}s") from exc
    except OSError as exc:
        raise EvaluatorFault("spawn-failure", str(exc)) from exc
    if proc.returncode != 0:
        stderr = proc.stderr.decode(errors="replace").strip()
        raise EvaluatorFault(
            "nonzero-exit", f"exit code {proc.returncode}: {stderr[:500]}"
        )
    text = proc.stdout.decode(errors="replace").strip()
    try:
        response = json.loads(text)
    except json.JSONDecodeError:
        raise EvaluatorFault("malformed-output", f"not JSON: {text[:200]!r}") from None
    if not isinstance(response, dict) or "objective" not in response:
        raise EvaluatorFault("malformed-output", f"missing 'objective': {text[:200]!r}")
    objective = _number(response["objective"], "objective")
    sem = response.get("sem")
    if sem is not None:
        sem = _number(sem, "sem")
        if not (math.isfinite(sem) and sem >= 0):
            raise EvaluatorFault("malformed-output", f"'sem' must be finite and >= 0, got {sem}")
    return Observation(objective, sem)


def make_command_evaluator(command: str, timeout: float):
    """Evaluator closure over :func:`subprocess_evaluate`."""
    return lambda arm: subprocess_evaluate(command, timeout, arm)
