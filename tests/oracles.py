"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's production code paths:
dense matrix inverses instead of Cholesky solves, explicit Python loops
instead of vectorized kernels, Monte-Carlo draws instead of closed forms,
and a direct XOR-of-direction-integers construction instead of the
iterative Gray-code engine.  When an oracle and the library agree, the
agreement is between two genuinely different routes to the same number.

The exception is :func:`two_branch_ei` and :func:`two_branch_log_ei`:
the library's earlier EI, kept as a reference for the one-form EI that
replaced it, which must reproduce its left tail bit for bit.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.special import erfcx, ndtr

SQRT5 = math.sqrt(5.0)


def kernel_value(lengthscales, signal_variance, u, v) -> float:
    """Scalar Matern-5/2 kernel evaluation by explicit per-coordinate loop."""
    r2 = 0.0
    for uj, vj, lj in zip(u, v, lengthscales):
        r2 += ((uj - vj) / lj) ** 2
    r = math.sqrt(r2)
    return signal_variance * (1.0 + SQRT5 * r + 5.0 * r2 / 3.0) * math.exp(-SQRT5 * r)


def kernel_matrix_loops(lengthscales, signal_variance, X, Z) -> np.ndarray:
    out = np.empty((len(X), len(Z)))
    for i, xi in enumerate(X):
        for j, zj in enumerate(Z):
            out[i, j] = kernel_value(lengthscales, signal_variance, xi, zj)
    return out


def dense_posterior(lengthscales, signal_variance, mean, noise_variance, X, y, Xq,
                    noise_diag=None):
    """Posterior mean/variance via an explicit dense inverse."""
    n = len(X)
    K = kernel_matrix_loops(lengthscales, signal_variance, X, X)
    noise = np.full(n, noise_variance) if noise_diag is None else np.asarray(noise_diag, float)
    Kinv = np.linalg.inv(K + np.diag(noise))
    ks = kernel_matrix_loops(lengthscales, signal_variance, X, Xq)
    r = np.asarray(y, float) - mean
    means = mean + ks.T @ Kinv @ r
    variances = signal_variance - np.einsum("ij,ji->i", ks.T, Kinv @ ks)
    return means, variances


def dense_mll(lengthscales, signal_variance, mean, noise_variance, X, y,
              noise_diag=None) -> float:
    """Log marginal likelihood via inverse and slogdet."""
    n = len(X)
    K = kernel_matrix_loops(lengthscales, signal_variance, X, X)
    noise = np.full(n, noise_variance) if noise_diag is None else np.asarray(noise_diag, float)
    Ky = K + np.diag(noise)
    r = np.asarray(y, float) - mean
    _, logdet = np.linalg.slogdet(Ky)
    return float(-0.5 * r @ np.linalg.inv(Ky) @ r - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi))


def rsample(summary, n: int, seed: int) -> np.ndarray:
    """n independent draws per query point of a posterior summary, mu + sigma z.

    Returns an (n, Q) array; the same seed reproduces the batch bitwise.
    """
    z = np.random.default_rng(seed).standard_normal((n, summary.means.shape[0]))
    return summary.means + np.sqrt(summary.variances) * z


def _two_branch_tail(gamma):
    """r = Phi/phi and h/phi = 1 - |gamma| r at |gamma| clamped to >= 1,
    with the asymptotic series below gamma = -100."""
    x = np.maximum(-gamma, 1.0)
    r = math.sqrt(0.5 * math.pi) * erfcx(x / math.sqrt(2.0))
    ratio = 1.0 - x * r
    far = x > 100.0
    if far.any():
        xf2 = x[far] ** -2
        ratio[far] = xf2 * (1.0 - xf2 * (3.0 - xf2 * (15.0 - 105.0 * xf2)))
    return r, ratio


def _two_branch_pdf(z):
    return (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)


def two_branch_ei(means, variances, incumbent):
    """EI with h = gamma ndtr(gamma) + phi(gamma) above gamma = -1 and
    phi(gamma) (h/phi) through erfcx at or below it."""
    sigma = np.sqrt(variances)
    degenerate = sigma < 1e-12
    safe_sigma = np.where(degenerate, 1.0, sigma)
    gamma = (incumbent - means) / safe_sigma
    pdf = _two_branch_pdf(gamma)
    h = pdf * _two_branch_tail(gamma)[1]
    near = gamma > -1.0
    h[near] = gamma[near] * ndtr(gamma[near]) + pdf[near]
    limit = np.maximum(incumbent - means, 0.0)
    return np.maximum(np.where(degenerate, limit, safe_sigma * h), 0.0)


def two_branch_log_ei(means, variances, incumbent):
    """log EI and its partials in the mean and the variance, by the same
    two branches as :func:`two_branch_ei`."""
    sigma = np.maximum(np.sqrt(variances), 1e-12)
    gamma = (incumbent - means) / sigma
    near = np.maximum(gamma, -1.0)
    cdf = ndtr(near)
    h = near * cdf + _two_branch_pdf(near)
    r, ratio = _two_branch_tail(gamma)
    tail = gamma <= -1.0
    log_h = np.where(
        tail, -0.5 * gamma * gamma - 0.5 * np.log(2.0 * np.pi) + np.log(ratio), np.log(h)
    )
    dlog_h = np.where(tail, r / ratio, cdf / h)
    d_sigma = (1.0 - gamma * dlog_h) / sigma
    return np.log(sigma) + log_h, -dlog_h / sigma, d_sigma / (2.0 * sigma)


def load_direction_table(path) -> list[tuple[int, int, list[int]]]:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        nums = [int(tok) for tok in line.split()]
        rows.append((nums[0], nums[1], nums[2:]))
    return rows


def sobol_reference(dimension: int, n: int, table_path, bits: int = 32) -> np.ndarray:
    """Points 1..n of the zero-skipping Sobol stream, computed directly.

    Point i is the XOR of the direction integers selected by the set bits
    of gray(i) = i ^ (i >> 1); no iterative state is carried between
    points, unlike the engine under test.
    """
    table = load_direction_table(table_path)
    vs = []
    for j in range(dimension):
        v = [0] * (bits + 1)
        if j == 0:
            for k in range(1, bits + 1):
                v[k] = 1 << (bits - k)
        else:
            s, a, ms = table[j - 1]
            for k in range(1, s + 1):
                v[k] = ms[k - 1] << (bits - k)
            for k in range(s + 1, bits + 1):
                acc = v[k - s] ^ (v[k - s] >> s)
                for i in range(1, s):
                    if (a >> (s - 1 - i)) & 1:
                        acc ^= v[k - i]
                v[k] = acc
        vs.append(v)
    out = np.empty((n, dimension))
    for i in range(1, n + 1):
        gray = i ^ (i >> 1)
        for j in range(dimension):
            acc = 0
            k = 1
            g = gray
            while g:
                if g & 1:
                    acc ^= vs[j][k]
                g >>= 1
                k += 1
            out[i - 1, j] = acc / float(1 << bits)
    return out


def sobol_next_loop(engine, n: int) -> np.ndarray:
    """The engine's next n points by the per-point Gray-code loop.

    Each point XORs the state with the direction column picked by the
    lowest zero bit of the previous index, one point at a time; advances
    ``engine`` exactly as ``SobolEngine.next`` does.
    """
    out = np.empty((n, engine.dimension))
    state = engine._state.copy()
    for i in range(n):
        idx = engine.index
        c = 1
        while idx & 1:
            idx >>= 1
            c += 1
        state ^= engine._v[:, c]
        out[i] = state / float(1 << 32)
        engine.index += 1
    engine._state = state
    return out


def branin_value(x1: float, x2: float) -> float:
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * math.cos(x1) + 10.0


def branin_grid_minimum(n: int = 1000) -> float:
    """Minimum of Branin over the mapped unit square on an n*n grid."""
    u = np.linspace(0.0, 1.0, n)
    u1, u2 = np.meshgrid(u, u)
    x1 = 15.0 * u1 - 5.0
    x2 = 15.0 * u2
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    f = (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * np.cos(x1) + 10.0
    return float(f.min())
