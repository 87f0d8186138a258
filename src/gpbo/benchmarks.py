"""Built-in benchmark objectives for desk-scale runs of the loop.

Four objectives with known structure, each over float parameters on [0, 1]:

* ``quadratic1d``: (x - 0.3)^2 on one parameter.
* ``branin2d``: the Branin function on its conventional domain
  [-5, 10] x [0, 15], driven through two unit-interval parameters.
* ``groupweights3d``: a smooth bowl over three mixing weights
  w_fg, w_rg, w_ccg, with targets t = (0.25, 0.6, 0.4), curvature
  c = (1, 2, 0.5), a small interaction term, and optional Gaussian noise
  of sd ``noise_sd``, its only config key:

      sum_k c_k (w_k - t_k)^2 + 0.1 * w_fg * w_rg + noise

* ``hartmann6``: the six-dimensional Hartmann function on [0, 1]^6,
  global minimum -3.32237 (Surjanovic & Bingham, *Virtual Library of
  Simulation Experiments*).

The noise is a deterministic function of the weights, so repeated
evaluations of the same arm agree and whole runs replay bitwise.
"""

from __future__ import annotations

import hashlib
import math
import sys

import numpy as np

from .errors import UsageError
from .space import Arm, Observation, ParameterSpec, SearchSpace

GROUP_WEIGHT_NAMES = ("w_fg", "w_rg", "w_ccg")
GROUP_WEIGHT_TARGETS = (0.25, 0.6, 0.4)
GROUP_WEIGHT_CURVATURE = (1.0, 2.0, 0.5)
# Hashed ahead of an arm's weights to seed that arm's noise draw.
_NOISE_SEED = np.int64(0).tobytes()


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


def _groupweights3d(noise_sd=0.0):
    """The groupweights3d objective of one arm, read by name, for one noise sd."""
    if (isinstance(noise_sd, bool) or not isinstance(noise_sd, (int, float))
            or not 0 <= noise_sd <= sys.float_info.max):
        raise UsageError("'noise_sd' must be a finite number >= 0")
    targets, curvature = np.asarray(GROUP_WEIGHT_TARGETS), np.asarray(GROUP_WEIGHT_CURVATURE)
    sem = noise_sd if noise_sd > 0 else None

    def objective(arm: Arm) -> Observation:
        try:
            w = np.asarray([float(arm.values[k]) for k in GROUP_WEIGHT_NAMES])
        except KeyError as missing:
            raise UsageError(
                f"groupweights3d expects parameters named {GROUP_WEIGHT_NAMES}, "
                f"missing {missing}"
            ) from None
        value = float(np.sum(curvature * (w - targets) ** 2)) + 0.1 * w[0] * w[1]
        if sem is not None:
            digest = hashlib.blake2b(_NOISE_SEED + w.tobytes(), digest_size=8).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "little"))
            value += noise_sd * float(rng.standard_normal())
        return Observation(value, sem=sem)

    return objective


# name -> (parameter names, objective).  Every parameter is a float on
# [0, 1].  An objective with config keys (BUILTIN_PARAMS) is built from
# them and reads the arm by name; the others take its values in order.
_BUILTINS = {
    "quadratic1d": (("x",), lambda x: (x - 0.3) ** 2),
    "branin2d": (("u1", "u2"), lambda u1, u2: branin(15.0 * u1 - 5.0, 15.0 * u2)),
    "groupweights3d": (GROUP_WEIGHT_NAMES, _groupweights3d),
    "hartmann6": (tuple(f"x{i}" for i in range(1, 7)), lambda *x: hartmann6(x)),
}
BUILTIN_NAMES = tuple(_BUILTINS)
# The config keys each builtin accepts besides its name.
BUILTIN_PARAMS = {name: frozenset() for name in BUILTIN_NAMES}
BUILTIN_PARAMS["groupweights3d"] = frozenset({"noise_sd"})


def _entry(name: str):
    # A tuple test, not a dict lookup, so an unhashable name is an unknown
    # name rather than a TypeError.
    if name not in BUILTIN_NAMES:
        raise UsageError(
            f"unknown builtin objective {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        )
    return _BUILTINS[name]


def make_builtin(name: str, params: dict):
    """Evaluator of one arm for the loop; checks the name, keys and values up front."""
    names, objective = _entry(name)
    unknown = sorted(set(params) - BUILTIN_PARAMS[name])
    if unknown:
        raise UsageError(f"unknown key(s) {unknown} for builtin {name!r}")
    if BUILTIN_PARAMS[name]:
        return objective(**params)

    def evaluate(arm: Arm) -> Observation:
        values = list(arm.values.values())
        if len(values) != len(names):
            raise UsageError(
                f"{name} expects an arm with exactly {len(names)} parameter(s), "
                f"got {len(values)}"
            )
        return Observation(objective(*(float(v) for v in values)))

    return evaluate


def default_space(name: str) -> SearchSpace:
    """The search space each built-in benchmark is defined on."""
    return SearchSpace([ParameterSpec.range_float(p, 0.0, 1.0) for p in _entry(name)[0]])
