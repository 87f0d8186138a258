"""Search-space definition and the transforms the optimizer operates behind.

A :class:`SearchSpace` is an ordered list of parameters, each a float range,
an integer range, an ordered choice, or a fixed constant.  The optimizer
itself only ever sees two normalized views of it:

* inputs: each non-fixed parameter mapped onto [0, 1] (:func:`encode` /
  :func:`decode`), with float ranges mapped affinely (through a natural log
  first when ``log_scale`` is set), integer ranges through the same affine
  map on their continuous relaxation, and choices embedded ordinally at
  ``index / (k - 1)``;
* outputs: raw objective values shifted and scaled to zero mean and unit
  spread (:func:`fit_standardizer`).

Integer and choice snapping happens only at :func:`decode`, so the surrogate
always works on a smooth box.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpaceError, UsageError
from .sobol import MAX_DIMENSION

RANGE_FLOAT = "range-float"
RANGE_INT = "range-int"
CHOICE = "choice"
FIXED = "fixed"

_KINDS = (RANGE_FLOAT, RANGE_INT, CHOICE, FIXED)


@dataclass(frozen=True)
class ParameterSpec:
    """One named parameter of a search space.

    Which fields are meaningful depends on ``kind``: range kinds use
    ``lower``/``upper`` (and ``log_scale`` for float ranges), choices use
    ``options``, fixed parameters use ``value``.
    """

    name: str
    kind: str
    lower: float | None = None
    upper: float | None = None
    options: tuple | None = None
    value: object = None
    log_scale: bool = False

    @staticmethod
    def range_float(name: str, lower: float, upper: float, log_scale: bool = False) -> "ParameterSpec":
        return ParameterSpec(name, RANGE_FLOAT, lower=float(lower), upper=float(upper), log_scale=log_scale)

    @staticmethod
    def range_int(name: str, lower: int, upper: int) -> "ParameterSpec":
        return ParameterSpec(name, RANGE_INT, lower=lower, upper=upper)

    @staticmethod
    def choice(name: str, options) -> "ParameterSpec":
        return ParameterSpec(name, CHOICE, options=tuple(options))

    @staticmethod
    def fixed(name: str, value) -> "ParameterSpec":
        return ParameterSpec(name, FIXED, value=value)

    @property
    def is_fixed(self) -> bool:
        return self.kind == FIXED


@dataclass(frozen=True)
class SearchSpace:
    """An ordered collection of parameters; the optimizer's feasible set."""

    params: tuple[ParameterSpec, ...]

    def __init__(self, params):
        object.__setattr__(self, "params", tuple(params))

    @property
    def d(self) -> int:
        """Number of non-fixed parameters, i.e. the dimension the GP sees."""
        return sum(1 for p in self.params if not p.is_fixed)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> ParameterSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise SpaceError(f"no parameter named {name!r} in space")


@dataclass(frozen=True)
class Arm:
    """A named, fully specified configuration: one value per parameter."""

    name: str
    values: dict

    def __init__(self, name: str, values: dict):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", dict(values))

    def __eq__(self, other):
        return isinstance(other, Arm) and self.name == other.name and self.values == other.values


@dataclass(frozen=True)
class Observation:
    """One raw objective value, optionally with its standard error.

    An objective that is not finite (NaN, an int beyond the largest float,
    a bool or anything else that is not a real number) is constructible on
    purpose: the loop turns such observations into FAILED trials.  Only
    completed trials require a finite objective.
    """

    objective: float
    sem: float | None = None

    def __post_init__(self):
        if self.sem is not None and not 0 <= self.sem <= sys.float_info.max:
            raise DomainError(f"sem must be finite and >= 0, got {self.sem}")

    @property
    def is_finite(self) -> bool:
        """Whether the objective is a real number, not a bool, within float
        range.  A numpy scalar is compared as the Python number it holds,
        since a float32 would cast the float maximum to inf and warn."""
        value = self.objective
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return False
        if isinstance(value, np.generic):
            value = value.item()
        return abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class Violation:
    """One invariant violation, tied to the parameter that caused it."""

    param: str | None
    message: str

    def __str__(self) -> str:
        return self.message if self.param is None else f"parameter {self.param!r}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_space(space: SearchSpace) -> ValidationReport:
    """Check every space invariant; violations are data, not exceptions."""
    violations: list[Violation] = []
    warnings: list[str] = []
    seen: set[str] = set()
    for p in space.params:
        if not p.name:
            violations.append(Violation(p.name, "parameter name must be nonempty"))
        if p.name in seen:
            violations.append(Violation(p.name, f"duplicate parameter name {p.name!r}"))
        seen.add(p.name)
        if p.kind not in _KINDS:
            violations.append(Violation(p.name, f"unknown parameter kind {p.kind!r}"))
            continue
        if p.kind in (RANGE_FLOAT, RANGE_INT):
            if p.lower is None or p.upper is None:
                violations.append(Violation(p.name, "range parameter requires lower and upper"))
                continue
            # Not np.isfinite, which raises TypeError on an int beyond float range.
            if not all(abs(b) <= sys.float_info.max for b in (p.lower, p.upper)):
                violations.append(Violation(p.name, "range bounds must be finite"))
                continue
            if not p.lower < p.upper:
                violations.append(Violation(p.name, "lower < upper required"))
            if p.kind == RANGE_INT:
                if float(p.lower) != int(p.lower) or float(p.upper) != int(p.upper):
                    violations.append(Violation(p.name, "integer range bounds must be integers"))
                if p.log_scale:
                    violations.append(Violation(p.name, "log_scale is only valid on float ranges"))
            if p.kind == RANGE_FLOAT and p.log_scale and not (p.lower is not None and p.lower > 0):
                violations.append(Violation(p.name, "log_scale requires lower > 0"))
        elif p.kind == CHOICE:
            if not p.options or len(p.options) < 2:
                violations.append(Violation(p.name, "choice requires at least 2 options"))
            elif not all(o is None or isinstance(o, (str, int, float, np.generic))
                         for o in p.options):
                violations.append(Violation(
                    p.name, "choice options must be strings, numbers, booleans or null"))
            elif not _distinct(p.options):
                violations.append(Violation(p.name, "choice options must be distinct"))
            if p.log_scale:
                violations.append(Violation(p.name, "log_scale is only valid on float ranges"))
        elif p.kind == FIXED:
            if p.log_scale:
                violations.append(Violation(p.name, "log_scale is only valid on float ranges"))
    if space.d < 1:
        violations.append(Violation(None, "space must contain at least one non-fixed parameter"))
    if space.d > MAX_DIMENSION:
        violations.append(
            Violation(
                None, f"space has {space.d} free dimensions; Sobol supports at most {MAX_DIMENSION}"
            )
        )
    if space.d >= 20:
        warnings.append(
            f"space has {space.d} free dimensions; surrogate optimization degrades beyond ~20"
        )
    return ValidationReport(tuple(violations), tuple(warnings))


def format_value(v) -> str:
    """A parameter value as the trial log writes it."""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _distinct(options) -> bool:
    """No two options are equal or share a trial-log cell (1 and "1" would
    read back as one option)."""
    cells = [format_value(o) for o in options]
    return len(set(cells)) == len(cells) and not any(
        a == b for i, a in enumerate(options) for b in options[i + 1:]
    )


def _check_value(p: ParameterSpec, v) -> None:
    if p.kind in (RANGE_FLOAT, RANGE_INT):
        if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
            raise SpaceError(f"parameter {p.name!r}: value {v!r} is not numeric")
        if not (p.lower <= v <= p.upper):
            raise SpaceError(f"parameter {p.name!r}: value {v!r} outside [{p.lower}, {p.upper}]")
        if p.kind == RANGE_INT and float(v) != int(v):
            raise SpaceError(f"parameter {p.name!r}: value {v!r} is not an integer")
    elif p.kind == CHOICE:
        if v not in p.options:
            raise SpaceError(f"parameter {p.name!r}: value {v!r} not among options")
    elif p.kind == FIXED:
        if v != p.value:
            raise SpaceError(f"parameter {p.name!r}: fixed value mismatch ({v!r} != {p.value!r})")


def encode(arm: Arm, space: SearchSpace) -> np.ndarray:
    """Map an arm onto the unit cube, one coordinate per non-fixed parameter.

    Boundary values map to exactly 0.0 or 1.0.  Fixed parameters are
    dropped; they carry no information.
    """
    extra = set(arm.values) - set(space.names)
    if extra:
        raise SpaceError(f"arm has values for unknown parameters: {sorted(extra)}")
    coords = []
    for p in space.params:
        if p.name not in arm.values:
            raise SpaceError(f"arm is missing a value for parameter {p.name!r}")
        v = arm.values[p.name]
        _check_value(p, v)
        if p.is_fixed:
            continue
        if p.kind == CHOICE:
            coords.append(p.options.index(v) / (len(p.options) - 1))
        elif p.log_scale:
            coords.append((math.log(v) - math.log(p.lower)) / (math.log(p.upper) - math.log(p.lower)))
        else:
            coords.append((float(v) - p.lower) / (p.upper - p.lower))
    return np.asarray(coords, dtype=float)


def decode(u: np.ndarray, space: SearchSpace, name: str = "arm") -> Arm:
    """Invert :func:`encode`.

    Integer ranges round half-up to the nearest integer and clamp into
    bounds; choices snap to the nearest ordinal index; fixed parameters are
    reinjected from their spec.  Components may stray outside [0, 1] by at
    most 1e-12 (they are clamped); anything further is a domain error.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.shape[0] != space.d:
        raise SpaceError(f"expected a length-{space.d} vector, got shape {u.shape}")
    if np.any(u < -1e-12) or np.any(u > 1 + 1e-12):
        bad = int(np.argmax((u < -1e-12) | (u > 1 + 1e-12)))
        raise DomainError(f"unit-cube component {bad} = {u[bad]!r} outside [0, 1]")
    u = np.clip(u, 0.0, 1.0)
    values = {}
    i = 0
    for p in space.params:
        if p.is_fixed:
            values[p.name] = p.value
            continue
        t = u[i]
        i += 1
        if p.kind == CHOICE:
            k = len(p.options)
            idx = min(k - 1, max(0, int(math.floor(t * (k - 1) + 0.5))))
            values[p.name] = p.options[idx]
        elif p.kind == RANGE_INT:
            raw = p.lower + t * (p.upper - p.lower)
            values[p.name] = int(min(p.upper, max(p.lower, math.floor(raw + 0.5))))
        elif p.log_scale:
            # exp(log(b)) can overshoot b by an ulp; clamp back into bounds.
            raw = math.exp(math.log(p.lower) + t * (math.log(p.upper) - math.log(p.lower)))
            values[p.name] = min(p.upper, max(p.lower, raw))
        else:
            values[p.name] = min(p.upper, max(p.lower, p.lower + t * (p.upper - p.lower)))
    return Arm(name, values)


def _exponent(magnitude: float) -> int:
    """The least e >= 0 with magnitude < 2**e: dividing by 2**e brings
    values up to ``magnitude`` into (-1, 1), exactly."""
    return max(math.frexp(magnitude)[1], 0)


@dataclass(frozen=True)
class Standardizer:
    """Affine output transform: ``apply(y) = (y - mean) / scale``.

    Standardization is finite for any finite sample.  The fit and
    :meth:`apply` work on values divided by a power of two (:func:`_exponent`
    of the sample's largest magnitude, and of the mean's and scale's), so
    neither a squared deviation nor ``y - mean`` can overflow.  Dividing by
    a power of two is exact, so an ordinary sample keeps its bits.
    """

    mean: float
    scale: float

    def apply(self, y):
        e = -_exponent(max(abs(self.mean), self.scale))
        shifted = np.ldexp(np.asarray(y, dtype=float), e) - math.ldexp(self.mean, e)
        return shifted / math.ldexp(self.scale, e)

    def invert(self, z):
        return np.asarray(z, dtype=float) * self.scale + self.mean


def fit_standardizer(ys) -> Standardizer:
    """Fit mean and spread on raw objective values.

    Uses the population (divide-by-N) standard deviation so that logs are
    bit-reproducible; constant data gets scale 1 so the transform stays
    invertible.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        raise UsageError("cannot fit a standardizer on an empty sample")
    if not np.all(np.isfinite(ys)):
        raise DomainError("standardizer input must be finite")
    e = _exponent(np.abs(ys).max())
    scaled = np.ldexp(ys, -e)
    mean = math.ldexp(float(np.mean(scaled)), e)
    scale = math.ldexp(float(np.std(scaled)), e)
    if scale < 1e-12:
        scale = 1.0
    return Standardizer(mean=mean, scale=scale)
