"""Unscrambled Sobol low-discrepancy sequences for dimensions 1 through 21.

Gray-code construction: each point is the previous one XORed with the
direction integer selected by the index's lowest zero bit, so a draw of n
points is one cumulative XOR over n selected direction columns.  The
direction integers come from the checked-in ``sobol_directions.txt``
table (Joe & Kuo values); the first dimension is the bit-halving
sequence 1/2, 1/4, 3/4, ...

The all-zeros point at index 0 is never emitted: the stream starts at
(0.5, ..., 0.5).  Corner points are degenerate for log-scaled decodes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import UsageError

MAX_DIMENSION = 21
_BITS = 32
_SCALE = float(1 << _BITS)

_TABLE_PATH = Path(__file__).with_name("sobol_directions.txt")
_direction_cache: dict[int, np.ndarray] = {}


def _load_table() -> list[tuple[int, int, list[int]]]:
    rows = []
    for line in _TABLE_PATH.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        nums = [int(tok) for tok in line.split()]
        s, a, ms = nums[0], nums[1], nums[2:]
        if len(ms) != s:
            raise ValueError(f"malformed direction-number row: {line!r}")
        rows.append((s, a, ms))
    return rows


def _directions(dimension: int) -> np.ndarray:
    """Direction integers V[j, k] (k = 1..32) for each of d dimensions."""
    if dimension in _direction_cache:
        return _direction_cache[dimension]
    table = _load_table()
    V = np.zeros((dimension, _BITS + 1), dtype=np.uint64)
    for k in range(1, _BITS + 1):
        V[0, k] = 1 << (_BITS - k)
    for j in range(1, dimension):
        s, a, ms = table[j - 1]
        for k in range(1, min(s, _BITS) + 1):
            V[j, k] = ms[k - 1] << (_BITS - k)
        for k in range(s + 1, _BITS + 1):
            v = int(V[j, k - s]) ^ (int(V[j, k - s]) >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    v ^= int(V[j, k - i])
            V[j, k] = v
    _direction_cache[dimension] = V
    return V


class SobolEngine:
    """Stateful generator of one Sobol stream in [0, 1)^d.

    Two engines with the same dimension emit identical streams; the state
    is just the draw counter plus the running XOR accumulator.
    """

    def __init__(self, dimension: int):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise UsageError(
                f"Sobol dimension must be in [1, {MAX_DIMENSION}], got {dimension}"
            )
        self.dimension = dimension
        self.index = 0
        self._state = np.zeros(dimension, dtype=np.uint64)
        self._v = _directions(dimension)

    def next(self, n: int = 1) -> np.ndarray:
        """Draw the next ``n`` points as an (n, d) array in [0, 1)^d."""
        if n < 1:
            raise UsageError(f"must draw at least one point, got n={n}")
        if self.index + n >= 1 << _BITS:
            raise UsageError("Sobol stream exhausted (2^32 draws)")
        # The lowest zero bit of each previous index i picks direction
        # column c, and i ^ (i + 1) = 2^c - 1 with c <= 32, so frexp of 2^c
        # gives exponent c + 1, exactly.  The running XOR over those
        # columns, seeded with the state, gives the n points in one pass.
        idx = np.arange(self.index, self.index + n, dtype=np.uint64)
        cols = np.frexp((idx ^ (idx + np.uint64(1))).astype(float) + 1.0)[1] - 1
        steps = self._v[:, cols].T
        steps[0] ^= self._state
        np.bitwise_xor.accumulate(steps, axis=0, out=steps)
        self._state = steps[-1].copy()
        self.index += n
        return steps / _SCALE

    def fast_forward(self, n: int) -> "SobolEngine":
        """Advance past n points in O(32): the state after draw n is the
        XOR of the direction integers selected by the bits of gray(n)."""
        if n < 0 or self.index + n >= 1 << _BITS:
            raise UsageError(f"cannot fast-forward by {n}")
        target = self.index + n
        gray = target ^ (target >> 1)
        state = np.zeros(self.dimension, dtype=np.uint64)
        k = 1
        while gray:
            if gray & 1:
                state ^= self._v[:, k]
            gray >>= 1
            k += 1
        self._state = state
        self.index = target
        return self

