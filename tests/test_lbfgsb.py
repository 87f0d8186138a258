"""gpbo.lbfgsb against scipy.optimize.minimize, bit for bit.

gpbo.lbfgsb drives scipy's L-BFGS-B core without the ``minimize`` front
end, through a private scipy symbol, and steps several starts in
lockstep.  These tests run every optimizer call of the fit and of the
acquisition refine through both paths and require the same trajectory:
each start hands the objective the same points, in the same order, as a
lone scipy run from that start, and gets bitwise the same result.  A
scipy whose core or defaults differ fails here rather than silently
changing runs.
"""

import numpy as np
import pytest
import scipy.optimize

import gpbo.acqopt
import gpbo.gp
from gpbo import fit, incumbent_value, maximize_acquisition
from gpbo.gp import LENGTHSCALE_BOUNDS
from gpbo.lbfgsb import minimize, minimize_rows

from test_acqopt import toy_model
from test_gp import random_theta


# scipy's status for each end of a run.
STATUS = {"converged": 0, "maxiter": 1, "line_search_failed": 2}


def assert_same_end(res, ref, points):
    """``res`` ended as scipy's ``ref`` did, and its ``x`` is the point
    evaluated ``tail`` evaluations before the last of ``points``."""
    assert STATUS[res.end] == ref.status
    assert res.success == ref.success
    assert points[res.nfev - 1 - res.tail].tobytes() == res.x.tobytes()


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
    assert (res.nfev, res.nit) == (ref.nfev, ref.nit)
    assert len(ours) == len(theirs) == res.nfev
    assert_same_end(res, ref, ours)
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


def lone_runs(fun, x0, bounds, options):
    """scipy's run of each row of ``fun`` alone, from that row of ``x0``,
    with the points it evaluated."""
    runs = []
    for start in np.array(x0, dtype=float, ndmin=2):
        points = []

        def one_row(x, points=points):
            points.append(x.copy())
            F, G = fun(x[None])
            return F[0], G[0]

        ref = scipy.optimize.minimize(
            one_row, start, jac=True, method="L-BFGS-B", bounds=bounds, options=dict(options),
        )
        runs.append((ref, points))
    return runs


def assert_same_rows(fun, x0, bounds, options):
    """Run the rows of ``fun`` in lockstep through gpbo.lbfgsb and each
    alone through scipy; every row must agree with its lone run."""
    batches = []

    def recorded_rows(X):
        batches.append(X.copy())
        return fun(X)

    results = minimize_rows(recorded_rows, x0, bounds=bounds, options=dict(options))
    lone = lone_runs(fun, x0, bounds, options)
    assert len(results) == len(lone)
    for res, (ref, points) in zip(results, lone):
        assert res.x.tobytes() == ref.x.tobytes()
        assert (res.nfev, res.nit) == (ref.nfev, ref.nit)
        assert len(points) == res.nfev
        assert_same_end(res, ref, points)
        assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))
    # Step s evaluates, in one call, point s of every row that has one.
    assert len(batches) == max(res.nfev for res in results)
    for s, batch in enumerate(batches):
        due = [points[s] for _, points in lone if len(points) > s]
        assert batch.tobytes() == np.array(due).tobytes()
    return results


def twin_rows(monkeypatch, module):
    """Make ``module.minimize_rows`` check each row against scipy; list the results."""
    results = []

    def both(fun, x0, bounds, options):
        results.append(assert_same_rows(fun, x0, bounds, options))
        return results[-1]

    monkeypatch.setattr(module, "minimize_rows", both)
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
    results = twin_rows(monkeypatch, gpbo.acqopt)
    for seed in range(6):
        model = toy_model(seed, n=4 + 4 * d, d=d)
        maximize_acquisition(model, incumbent_value(model), seed)
    assert len(results) == 6
    rows = [res for run in results for res in run]
    assert len(rows) > 6 * 4
    assert sum(res.nit for res in rows) > 4 * len(rows)


@pytest.mark.parametrize("d", [2, 5, 6])
def test_one_posterior_grad_call_per_refine_evaluation(monkeypatch, d):
    # The refine twin of the fit's one _mll_core call per evaluation: one
    # posterior gradient call (posterior_score, which chains -log EI
    # through the posterior's gradient) per lockstep step, on the rows
    # that wait for it.
    real_score, real_rows = gpbo.acqopt.posterior_score, gpbo.acqopt.minimize_rows
    calls, runs = [], []

    def counted_score(model, Z, score):
        calls.append(len(Z))
        return real_score(model, Z, score)

    def counted_rows(*args, **kwargs):
        runs.append(real_rows(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(gpbo.acqopt, "posterior_score", counted_score)
    monkeypatch.setattr(gpbo.acqopt, "minimize_rows", counted_rows)
    for seed in range(4):
        calls.clear()
        runs.clear()
        model = toy_model(seed, n=3 * d, d=d)
        maximize_acquisition(model, incumbent_value(model), seed)
        assert len(runs) == 1
        nfevs = [res.nfev for res in runs[0]]
        assert calls == [sum(n > s for n in nfevs) for s in range(max(nfevs))]
        assert sum(calls) == sum(nfevs)


def rosenbrock(x):
    head, tail = x[:-1], x[1:]
    value = float(np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2))
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * head * (tail - head**2) - 2.0 * (1.0 - head)
    grad[1:] += 200.0 * (tail - head**2)
    return value, grad


def rosenbrock_rows(X):
    F, G = zip(*map(rosenbrock, X))
    return np.array(F), np.array(G)


@pytest.mark.parametrize("starts", [
    [[-1.5, -1.5, -1.5, -1.5]],
    # The second row runs on after the first stops; the third starts at
    # the minimum and converges at nit 0.
    [[-1.5, -1.5, -1.5, -1.5], [0.5, 0.25, 0.0625, 0.0], [1.0, 1.0, 1.0, 1.0]],
], ids=["one-row", "three-rows"])
def test_maxiter_stops_the_run(starts):
    bounds, options = [(-2.0, 2.0)] * 4, {"maxiter": 2}
    results = assert_same_rows(rosenbrock_rows, starts, bounds, options)
    assert (results[0].nit, results[0].end, results[0].tail) == (2, "maxiter", 0)
    if len(starts) == 1:
        one = assert_same_run(rosenbrock, np.array(starts[0]), bounds, options)
        assert one.x.tobytes() == results[0].x.tobytes() and one[1:] == results[0][1:]
    else:
        assert results[1].nfev > results[0].nfev and results[1].nit == 2
        assert (results[2].nit, results[2].nfev, results[2].success) == (0, 1, True)


@pytest.mark.parametrize("starts", [
    [[-3.0, 0.5, 4.0]],
    # Only the first row is outside the box; the second starts at the
    # minimum and converges at nit 0 while the others run on.
    [[-3.0, 0.5, 4.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]],
], ids=["one-row", "three-rows"])
def test_start_outside_the_box_is_clipped(starts):
    points = []
    bounds = [(-2.0, 2.0), (0.0, 1.0), (-1.0, 3.0)]
    results = assert_same_rows(recorded(rosenbrock_rows, points), starts, bounds,
                               {"maxiter": 200})
    assert points[0].tolist() == [[-2.0, 0.5, 3.0], *starts[1:]]
    assert all(res.success for res in results)
    if len(starts) > 1:
        assert (results[1].nit, results[1].nfev) == (0, 1)
        assert min(results[0].nfev, results[2].nfev) > 1


def misled_rows(X):
    """Rosenbrock whose gradient points the wrong way where x_0 < -1."""
    F, G = rosenbrock_rows(X)
    G[X[:, 0] < -1.0] *= -1.0
    return F, G


@pytest.mark.parametrize("maxls, nfev", [(20, 20), (8, 9)], ids=["20", "8"])
def test_failed_line_search_ends_its_row_alone(maxls, nfev):
    # The second row starts where its gradient disagrees with its value, so
    # its first line search never finds a decrease and the run ends
    # ABNORMAL at nit 0 (with no memory yet there is nothing to clear and
    # retry); the first row runs on past it to convergence and the third
    # converges at its start.  maxls 20 is scipy's default, 8 the
    # acquisition refine's: at 8 the row ends after its start and 8 line
    # search evaluations, at 20 its search gives up one evaluation early.
    # Its x is its start, so every evaluation after the first is its tail.
    starts = [[0.5, 0.25, 0.0625, 0.0], [-1.5, -1.5, -1.5, -1.5], [1.0, 1.0, 1.0, 1.0]]
    bounds, options = [(-2.0, 2.0)] * 4, {"maxiter": 200}
    if maxls != 20:
        options["maxls"] = maxls
    results = assert_same_rows(misled_rows, starts, bounds, options)
    (first, _), (failed, _), _ = lone_runs(misled_rows, starts, bounds, options)
    assert failed.message.startswith("ABNORMAL") and first.success
    assert (results[1].nit, results[1].nfev, results[1].success) == (0, nfev, False)
    assert (results[1].end, results[1].tail) == ("line_search_failed", nfev - 1)
    assert results[0].nfev > results[1].nfev
    assert (results[2].nit, results[2].nfev, results[2].success) == (0, 1, True)
