"""Trial-log persistence: one CSV row per trial.

Columns are fixed by the space's parameter order:

    trial_index, generator, <param names...>, objective, sem, status

Reals are rendered with 17 significant digits so float64 values round-trip
losslessly.  FAILED trials have empty objective and sem cells.  Nothing
wall-clock is logged, so the file is a function of the run's config and seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .errors import UsageError
from .loop import Experiment, GeneratorKind, TrialStatus
from .space import CHOICE, FIXED, RANGE_INT, SearchSpace, format_value


@dataclass(frozen=True)
class TrialLogRecord:
    trial_index: int
    generator: str
    params: dict
    objective: float | None
    sem: float | None
    status: str


def _format_real(v: float | None) -> str:
    return "" if v is None else format(float(v), ".17g")


def write_trial_log(experiment: Experiment, path) -> None:
    """Write the experiment's trials as CSV; header row first."""
    path = Path(path)
    names = experiment.space.names
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["trial_index", "generator", *names, "objective", "sem", "status"])
            for t in experiment.trials:
                obs = t.observation
                writer.writerow(
                    [
                        t.index,
                        t.generator.value,
                        *(format_value(t.arm.values[n]) for n in names),
                        _format_real(None if obs is None else obs.objective),
                        _format_real(None if obs is None else obs.sem),
                        t.status.value,
                    ]
                )
    except OSError as exc:
        raise UsageError(f"cannot write trial log to {path}: {exc}") from exc


def _parse_param_value(cell: str, space: SearchSpace, name: str):
    p = space.param(name)
    if p.kind == RANGE_INT:
        return int(cell)
    if p.kind == CHOICE:
        for option in p.options:
            if format_value(option) == cell:
                return option
        raise UsageError(f"value {cell!r} is not an option of parameter {name!r}")
    if p.kind == FIXED:
        if format_value(p.value) == cell:
            return p.value
        raise UsageError(f"value {cell!r} does not match fixed parameter {name!r}")
    return float(cell)


def _parse_row(
    row: list[str], names: list[str], space: SearchSpace, position: int
) -> TrialLogRecord:
    if len(row) != len(names) + 5:
        raise UsageError(f"{len(row)} cells, expected {len(names) + 5}")
    index_cell, generator = row[:2]
    objective_cell, sem_cell, status = row[-3:]
    if int(index_cell) != position:
        raise UsageError(f"trial_index {index_cell}, expected {position}")
    if generator not in {kind.value for kind in GeneratorKind}:
        raise UsageError(f"unknown generator {generator!r}")
    if status == TrialStatus.COMPLETED.value:
        if not objective_cell:
            raise UsageError("COMPLETED row has no objective")
    elif status == TrialStatus.FAILED.value:
        if objective_cell or sem_cell:
            raise UsageError("FAILED row has an objective or a sem")
    else:
        raise UsageError(f"unknown status {status!r}")
    return TrialLogRecord(
        trial_index=position,
        generator=generator,
        params={name: _parse_param_value(cell, space, name) for name, cell in zip(names, row[2:])},
        objective=float(objective_cell) if objective_cell else None,
        sem=float(sem_cell) if sem_cell else None,
        status=status,
    )


def read_trial_log(path, space: SearchSpace) -> list[TrialLogRecord]:
    """Read records back, typing each parameter value by the space.

    A row that is short, long or has a cell of the wrong type raises
    UsageError naming its line, as a run that stopped mid-write leaves.
    So does a row no run writes: an unknown generator or status, a
    ``trial_index`` other than the row's position (0, 1, ...), a
    COMPLETED row without an objective or a FAILED row with an objective
    or a sem.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise UsageError(f"cannot read trial log from {path}: {exc}") from exc
    if not rows:
        raise UsageError(f"trial log {path} is empty (missing header)")
    header = rows[0][1]
    if header[:2] != ["trial_index", "generator"] or header[-3:] != ["objective", "sem", "status"]:
        raise UsageError(f"trial log {path} has an unexpected header: {header}")
    names = header[2:-3]
    records = []
    for line, row in rows[1:]:
        if not row:
            continue
        try:
            records.append(_parse_row(row, names, space, len(records)))
        except (UsageError, ValueError) as exc:
            raise UsageError(f"trial log {path} line {line}: {exc}") from exc
    return records
