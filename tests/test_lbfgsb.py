"""gpbo.lbfgsb against scipy.optimize.minimize, bit for bit.

gpbo.lbfgsb drives scipy's L-BFGS-B core without the ``minimize`` front
end, through a private scipy symbol.  These tests run every optimizer
call of the fit and of the acquisition refine through both paths and
require the same trajectory: the same points handed to the objective, in
the same order, and bitwise the same result.  A scipy whose core or
defaults differ fails here rather than silently changing runs.
"""

import numpy as np
import pytest
import scipy.optimize

import gpbo.acqopt
import gpbo.gp
from gpbo import fit, incumbent_value, maximize_acquisition
from gpbo.gp import LENGTHSCALE_BOUNDS
from gpbo.lbfgsb import minimize

from test_acqopt import toy_model
from test_gp import random_theta


def recorded(fun, points):
    def wrapped(x):
        points.append(x.copy())
        return fun(x)

    return wrapped


def assert_same_run(fun, x0, bounds, options):
    """Run ``fun`` through gpbo.lbfgsb and through scipy; the two must agree."""
    ours, theirs = [], []
    res = minimize(recorded(fun, ours), x0, bounds=bounds, options=dict(options))
    ref = scipy.optimize.minimize(
        recorded(fun, theirs), x0, jac=True, method="L-BFGS-B", bounds=bounds,
        options=dict(options),
    )
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.fun == ref.fun
    assert (res.nfev, res.nit, res.success) == (ref.nfev, ref.nit, ref.success)
    assert len(ours) == len(theirs) == res.nfev
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs))
    assert not any(np.array_equal(a, b) for a, b in zip(ours, ours[1:]))
    return res


def twin_runs(monkeypatch, module):
    """Make ``module.minimize`` check each run against scipy; list the results."""
    results = []

    def both(fun, x0, bounds, options):
        results.append(assert_same_run(fun, x0, bounds, options))
        return results[-1]

    monkeypatch.setattr(module, "minimize", both)
    return results


@pytest.mark.parametrize("fixed_noise", [False, True], ids=["fitted-noise", "fixed-noise"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_fit_runs_match_scipy(monkeypatch, d, fixed_noise):
    # Cold fits run the default start and the Sobol starts; warm fits the
    # default and warm starts plus the Sobol starts when a lengthscale of
    # the warm start is on its bound, and otherwise one run from the better
    # scoring of the default and warm starts.
    results = twin_runs(monkeypatch, gpbo.gp)
    rng = np.random.default_rng(100 + 10 * d + fixed_noise)
    for case, n in enumerate((5, 12, 30, 60)):
        X = rng.random((n, d))
        y = np.sin(5.0 * X[:, 0]) + 0.1 * rng.standard_normal(n)
        y = (y - y.mean()) / y.std()
        noise_diag = rng.uniform(0.01, 0.2, n) if fixed_noise else None
        start = random_theta(rng, d)
        if case % 2:
            start.kernel.lengthscales[-1] = LENGTHSCALE_BOUNDS[1]
        for warm in (None, start):
            fit(X, y, seed=case, noise_diag=noise_diag, start=warm)
    assert len(results) == 4 * 3 + 2 * 1 + 2 * 4
    assert sum(res.nit for res in results) > 10 * len(results)


@pytest.mark.parametrize("d", [2, 5, 6])
def test_refine_runs_match_scipy(monkeypatch, d):
    results = twin_runs(monkeypatch, gpbo.acqopt)
    for seed in range(6):
        model = toy_model(seed, n=4 + 4 * d, d=d)
        maximize_acquisition(model, incumbent_value(model), seed)
    assert len(results) == 6
    assert sum(res.nit for res in results) > 5 * len(results)


@pytest.mark.parametrize("d", [2, 5, 6])
def test_one_posterior_grad_call_per_refine_evaluation(monkeypatch, d):
    # The refine twin of the fit's one _mll_core call per evaluation.
    real_grad, real_minimize = gpbo.acqopt.posterior_grad, gpbo.acqopt.minimize
    calls, nfevs = [], []

    def counted_grad(*args):
        calls.append(args)
        return real_grad(*args)

    def counted_minimize(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        nfevs.append(res.nfev)
        return res

    monkeypatch.setattr(gpbo.acqopt, "posterior_grad", counted_grad)
    monkeypatch.setattr(gpbo.acqopt, "minimize", counted_minimize)
    for seed in range(4):
        calls.clear()
        nfevs.clear()
        model = toy_model(seed, n=3 * d, d=d)
        maximize_acquisition(model, incumbent_value(model), seed)
        assert len(nfevs) == 1
        assert len(calls) == nfevs[0]


def rosenbrock(x):
    head, tail = x[:-1], x[1:]
    value = float(np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2))
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * head * (tail - head**2) - 2.0 * (1.0 - head)
    grad[1:] += 200.0 * (tail - head**2)
    return value, grad


def test_maxiter_stops_the_run():
    res = assert_same_run(rosenbrock, np.full(4, -1.5), [(-2.0, 2.0)] * 4, {"maxiter": 2})
    assert res.nit == 2 and not res.success


def test_start_outside_the_box_is_clipped():
    points = []
    x0 = np.array([-3.0, 0.5, 4.0])
    bounds = [(-2.0, 2.0), (0.0, 1.0), (-1.0, 3.0)]
    res = assert_same_run(recorded(rosenbrock, points), x0, bounds, {"maxiter": 200})
    assert points[0].tolist() == [-2.0, 0.5, 3.0]
    assert res.success
