"""External evaluator protocol: one subprocess per arm, JSON on stdio.

Request, written to the child's stdin as a single UTF-8 JSON document:

    {"parameters": {"<name>": <value>, ...}}

Response, read from the child's stdout, also one JSON document:

    {"objective": <number>, "sem": <number, optional>}

The child must exit 0.  Every failure mode (spawn, timeout, nonzero exit,
unusable output) raises EvaluatorFault with a distinct kind, which the
loop records on the FAILED trial.
"""

from __future__ import annotations

import json
import shlex
import subprocess

from .errors import EvaluatorFault
from .space import Arm, Observation


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
    objective = response["objective"]
    if not isinstance(objective, (int, float)) or isinstance(objective, bool):
        raise EvaluatorFault("malformed-output", f"'objective' is not a number: {objective!r}")
    sem = response.get("sem")
    if sem is not None and (not isinstance(sem, (int, float)) or isinstance(sem, bool)):
        raise EvaluatorFault("malformed-output", f"'sem' is not a number: {sem!r}")
    return Observation(float(objective), None if sem is None else float(sem))


def make_command_evaluator(command: str, timeout: float):
    """Evaluator closure over :func:`subprocess_evaluate`."""
    return lambda arm: subprocess_evaluate(command, timeout, arm)
