"""Built-in benchmark objectives for desk-scale runs of the loop.

Four objectives with known structure:

* ``quadratic1d``: (x - 0.3)^2 on one float parameter.
* ``branin2d``: the Branin function on its conventional domain
  [-5, 10] x [0, 15], driven through two unit-interval parameters.
* ``groupweights3d``: a smooth bowl over three mixing weights
  w_fg, w_rg, w_ccg in [0, 1], with per-weight curvature, a small
  interaction term, and optional seeded Gaussian noise:

      sum_k c_k (w_k - target_k)^2 + 0.1 * w_fg * w_rg + noise

* ``hartmann6``: the six-dimensional Hartmann function on [0, 1]^6,
  global minimum -3.32237 (Surjanovic & Bingham, *Virtual Library of
  Simulation Experiments*).

The noise is a deterministic function of (seed, weights), so repeated
evaluations of the same arm agree and whole runs replay bitwise.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import UsageError
from .space import Arm, Observation, ParameterSpec, SearchSpace

GROUP_WEIGHT_NAMES = ("w_fg", "w_rg", "w_ccg")


@dataclass(frozen=True)
class GroupWeightsBench:
    """Configuration of the three-weight synthetic objective."""

    targets: tuple[float, float, float] = (0.25, 0.6, 0.4)
    curvature: tuple[float, float, float] = (1.0, 2.0, 0.5)
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(float(t) for t in self.targets))
        object.__setattr__(self, "curvature", tuple(float(c) for c in self.curvature))
        if len(self.targets) != 3 or not all(0.0 <= t <= 1.0 for t in self.targets):
            raise UsageError("targets must be three weights in [0, 1]")
        if len(self.curvature) != 3 or not all(c > 0 for c in self.curvature):
            raise UsageError("curvature must be three positive reals")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise UsageError("noise_sd must be finite and >= 0")

    def value(self, weights) -> float:
        w = np.asarray(weights, dtype=float)
        residual = float(np.sum(np.asarray(self.curvature) * (w - np.asarray(self.targets)) ** 2))
        interaction = 0.1 * w[0] * w[1]
        return residual + interaction + self._noise(w)

    def _noise(self, w: np.ndarray) -> float:
        if self.noise_sd == 0.0:
            return 0.0
        digest = hashlib.blake2b(
            np.int64(self.seed).tobytes() + np.asarray(w, dtype=float).tobytes(),
            digest_size=8,
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        return self.noise_sd * float(rng.standard_normal())


# The parameters each builtin accepts besides its name.
BUILTIN_PARAMS = {
    "quadratic1d": frozenset(),
    "branin2d": frozenset(),
    "groupweights3d": frozenset(f.name for f in fields(GroupWeightsBench)),
    "hartmann6": frozenset(),
}
BUILTIN_NAMES = tuple(BUILTIN_PARAMS)


def branin(x1: float, x2: float) -> float:
    """Branin on its conventional domain; global minimum ~0.397887."""
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x1) + 10.0


_HARTMANN6_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMANN6_P = 1e-4 * np.array(
    [
        [1312.0, 1696.0, 5569.0, 124.0, 8283.0, 5886.0],
        [2329.0, 4135.0, 8307.0, 3736.0, 1004.0, 9991.0],
        [2348.0, 1451.0, 3522.0, 2883.0, 3047.0, 6650.0],
        [4047.0, 8828.0, 8732.0, 5743.0, 1091.0, 381.0],
    ]
)


def hartmann6(x) -> float:
    """Hartmann-6 on [0, 1]^6; global minimum ~-3.32237."""
    x = np.asarray(x, dtype=float)
    inner = np.sum(_HARTMANN6_A * (x - _HARTMANN6_P) ** 2, axis=1)
    return -float(np.sum(_HARTMANN6_ALPHA * np.exp(-inner)))


def _numeric_values(arm: Arm, expected: int, name: str) -> list[float]:
    values = list(arm.values.values())
    if len(values) != expected:
        raise UsageError(
            f"{name} expects an arm with exactly {expected} parameter(s), "
            f"got {len(values)}"
        )
    return [float(v) for v in values]


def builtin_objective(name: str, params: dict, arm: Arm) -> Observation:
    """Evaluate one built-in objective at an arm."""
    if name == "quadratic1d":
        (x,) = _numeric_values(arm, 1, name)
        return Observation((x - 0.3) ** 2)
    if name == "branin2d":
        u1, u2 = _numeric_values(arm, 2, name)
        return Observation(branin(15.0 * u1 - 5.0, 15.0 * u2))
    if name == "groupweights3d":
        bench = GroupWeightsBench(**params)
        try:
            weights = [float(arm.values[k]) for k in GROUP_WEIGHT_NAMES]
        except KeyError as missing:
            raise UsageError(
                f"groupweights3d expects parameters named {GROUP_WEIGHT_NAMES}, "
                f"missing {missing}"
            ) from None
        sem = bench.noise_sd if bench.noise_sd > 0 else None
        return Observation(bench.value(weights), sem=sem)
    if name == "hartmann6":
        return Observation(hartmann6(_numeric_values(arm, 6, name)))
    raise UsageError(f"unknown builtin objective {name!r}")


def make_builtin(name: str, params: dict):
    """Evaluator closure for the loop; validates the name eagerly."""
    if name not in BUILTIN_NAMES:
        raise UsageError(f"unknown builtin objective {name!r}")
    if name == "groupweights3d":
        GroupWeightsBench(**params)  # surface bad parameters before the run
    return lambda arm: builtin_objective(name, params, arm)


def default_space(name: str) -> SearchSpace:
    """The search space each built-in benchmark is defined on."""
    if name == "quadratic1d":
        return SearchSpace([ParameterSpec.range_float("x", 0.0, 1.0)])
    if name == "branin2d":
        return SearchSpace(
            [
                ParameterSpec.range_float("u1", 0.0, 1.0),
                ParameterSpec.range_float("u2", 0.0, 1.0),
            ]
        )
    if name == "groupweights3d":
        return SearchSpace(
            [ParameterSpec.range_float(w, 0.0, 1.0) for w in GROUP_WEIGHT_NAMES]
        )
    if name == "hartmann6":
        return SearchSpace([ParameterSpec.range_float(f"x{i}", 0.0, 1.0) for i in range(1, 7)])
    raise UsageError(f"unknown builtin objective {name!r}")
