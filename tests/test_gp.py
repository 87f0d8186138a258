"""GP regression against dense linear-algebra and finite-difference oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

import gpbo.gp
from gpbo import (
    GpHyperparams,
    KernelSpec,
    MeanSpec,
    UsageError,
    default_hyperparams,
    fit,
    mll,
    posterior,
)
from gpbo.errors import NumericalError, SpaceError
from gpbo.gp import (
    FIT_RESTARTS,
    LENGTHSCALE_BOUNDS,
    SIGNAL_VARIANCE_BOUNDS,
    _mll_core,
    _pack,
    _sq_diffs,
    _unpack,
    factorize,
    make_model,
    mll_grad,
    posterior_score,
)
from gpbo.sobol import MAX_DIMENSION

from oracles import dense_mll, dense_posterior, kernel_matrix_loops, kernel_value

LOG_2PI = math.log(2.0 * math.pi)


def random_theta(rng, d, noise=None):
    return GpHyperparams(
        kernel=KernelSpec("matern52", rng.uniform(0.2, 1.5, d), float(rng.uniform(0.5, 2.0))),
        mean=MeanSpec(float(rng.uniform(-0.5, 0.5))),
        noise_variance=float(rng.uniform(1e-4, 0.1)) if noise is None else noise,
    )


def layer_bench_dataset(n, d, fixed_noise):
    """A dataset of scripts/layer_bench.py: a smooth noisy objective on n
    uniform random points seeded n + d, standardized."""
    rng = np.random.default_rng(n + d)
    X = rng.random((n, d))
    f = np.sin(6.0 * X[:, 0]) + np.sum((X - 0.4) ** 2, axis=1)
    y = f + 0.1 * rng.standard_normal(n)
    y = (y - y.mean()) / y.std()
    return X, y, np.full(n, 0.01) if fixed_noise else None


def expected_runs(start):
    """L-BFGS-B runs of one fit under the start rule: the default start, the
    warm start when given, and the Sobol starts when the warm start is
    missing or has a lengthscale or the signal variance on (or past) a bound;
    otherwise one run, from whichever of the default and warm starts scores
    the larger mll."""
    if start is None:
        return FIT_RESTARTS
    ls, s2 = start.kernel.lengthscales, start.kernel.signal_variance
    in_doubt = (
        ls.min() <= LENGTHSCALE_BOUNDS[0] or ls.max() >= LENGTHSCALE_BOUNDS[1]
        or not SIGNAL_VARIANCE_BOUNDS[0] < s2 < SIGNAL_VARIANCE_BOUNDS[1]
    )
    return FIT_RESTARTS + 1 if in_doubt else 1


def recorded_runs(monkeypatch):
    """Record the start point and box of every L-BFGS-B run gpbo.gp makes."""
    real_minimize = gpbo.gp.minimize
    runs = []

    def recording_minimize(fun, x0, **kwargs):
        runs.append((np.array(x0), kwargs["bounds"]))
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(gpbo.gp, "minimize", recording_minimize)
    return runs


def core_kernel(spec, X):
    """K as _mll_core builds it, recovered from its factor as L L' - jitter I."""
    X = np.asarray(X, dtype=float)
    parts = _mll_core(
        _sq_diffs(X), np.zeros(len(X)), spec.lengthscales, spec.signal_variance,
        0.0, 0.0, False,
    )
    return parts.chol @ parts.chol.T - parts.jitter * np.eye(len(X))


class TestKernelEval:
    """The reference kernel_value, and the posterior's kernel point by point."""

    def test_self_covariance_is_signal_variance(self):
        u = np.array([0.2, 0.9])
        assert kernel_value([0.3, 0.7], 1.7, u, u) == 1.7

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        ls = rng.uniform(0.1, 2, 3)
        u, v = rng.random(3), rng.random(3)
        assert kernel_value(ls, 0.8, u, v) == kernel_value(ls, 0.8, v, u)

    def test_matches_loop_oracle(self):
        # A noise-free one-point model at u with y - m = 1 has posterior
        # mean m + k(v, u) / k(u, u) at v.
        rng = np.random.default_rng(1)
        spec = KernelSpec("matern52", rng.uniform(0.1, 2, 4), 1.3)
        theta = GpHyperparams(spec, MeanSpec(0.2), 0.0)
        for _ in range(20):
            u, v = rng.random(4), rng.random(4)
            model = make_model(u[None], [1.2], theta)
            k = 1.3 * (posterior(model, v[None]).means[0] - 0.2)
            expected = kernel_value(spec.lengthscales, 1.3, u, v)
            assert k == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(UsageError):
            KernelSpec("matern52", np.array([0.0]), 1.0)
        with pytest.raises(UsageError):
            KernelSpec("matern52", np.array([1.0]), -1.0)
        for family in ("rbf", "cubic"):
            with pytest.raises(UsageError, match="unknown kernel family"):
                KernelSpec(family, np.array([1.0]), 1.0)


class TestKernelMatrix:
    """The covariance matrix the one MLL routine builds."""

    def test_single_point(self):
        spec = KernelSpec("matern52", np.array([0.5]), 2.5)
        assert core_kernel(spec, [[0.3]])[0, 0] == pytest.approx(2.5, rel=1e-15)

    def test_duplicated_rows_give_signal_variance(self):
        spec = KernelSpec("matern52", np.array([0.5, 0.5]), 1.9)
        X = np.array([[0.2, 0.4], [0.2, 0.4], [0.8, 0.1]])
        K = core_kernel(spec, X)
        assert K[0, 1] == pytest.approx(1.9, rel=1e-12)
        np.testing.assert_allclose(np.diag(K), [1.9, 1.9, 1.9], rtol=1e-12)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        spec = KernelSpec("matern52", rng.uniform(0.2, 1.0, 3), 1.1)
        X = rng.random((5, 3))
        expected = kernel_matrix_loops(spec.lengthscales, 1.1, X, X)
        np.testing.assert_allclose(core_kernel(spec, X), expected, rtol=1e-12, atol=1e-15)

    def test_exactly_symmetric(self):
        # K is built elementwise from these differences, so their exact
        # symmetry makes K exactly symmetric.
        rng = np.random.default_rng(3)
        diff2 = _sq_diffs(rng.random((7, 2)))
        np.testing.assert_array_equal(diff2, diff2.transpose(0, 2, 1))


class TestFactorize:
    def test_identity_no_jitter(self):
        L, jitter = factorize(np.eye(4), 0.0)
        np.testing.assert_array_equal(L, np.eye(4))
        assert jitter == 0.0

    def test_duplicate_rows_need_jitter(self):
        X = np.array([[0.4], [0.4], [0.4]])
        L, jitter = factorize(kernel_matrix_loops([0.5], 1.0, X, X), 0.0)
        assert jitter > 0.0
        assert np.all(np.diag(L) > 0)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 6))
        K = A @ A.T
        noise = 0.3
        L, jitter = factorize(K, noise)
        target = K + (noise + jitter) * np.eye(6)
        err = np.linalg.norm(L @ L.T - target) / np.linalg.norm(target)
        assert err < 1e-10

    def test_jittered_reconstruction_for_singular_matrix(self):
        X = np.array([[0.1], [0.1], [0.9]])
        K = kernel_matrix_loops([0.7], 2.0, X, X)
        L, jitter = factorize(K, 0.0)
        target = K + jitter * np.eye(3)
        err = np.linalg.norm(L @ L.T - target) / np.linalg.norm(target)
        assert err < 1e-10

    def test_indefinite_matrix_raises_with_diagnostics(self):
        K = np.array([[1.0, 3.0], [3.0, 1.0]])  # eigenvalues 4 and -2
        with pytest.raises(NumericalError) as excinfo:
            factorize(K, 0.0)
        assert excinfo.value.diagnostics["min_eigenvalue"] < 0


# The four entry points that take a history (X, y).
every_entry = pytest.mark.parametrize(
    "entry",
    [
        lambda X, y: fit(X, y, seed=0),
        lambda X, y: mll(default_hyperparams(2), X, y),
        lambda X, y: mll_grad(default_hyperparams(2), X, y),
        lambda X, y: make_model(X, y, default_hyperparams(2)),
    ],
    ids=["fit", "mll", "mll_grad", "make_model"],
)


@every_entry
def test_targets_must_match_the_rows_of_x(entry):
    X = np.random.default_rng(0).random((6, 2))
    with pytest.raises(SpaceError, match=r"y must have shape \(6,\)"):
        entry(X, np.zeros(5))


@every_entry
def test_empty_history_rejected(entry):
    with pytest.raises(UsageError, match="at least one observation"):
        entry(np.empty((0, 2)), np.empty(0))


@pytest.mark.parametrize("n, duplicates", [(1, False), (5, False), (60, False), (6, True)])
def test_chol_inv_is_solve_triangular_bitwise(n, duplicates):
    """The model's inverse factor is what scipy's public LAPACK dtrtri
    returns for the same factor, bit for bit: the inverse the fit's
    gradient forms, which it keeps."""
    rng = np.random.default_rng(n)
    X = rng.random((n, 3))
    if duplicates:
        X[n // 2:] = X[: n - n // 2]
    y = rng.standard_normal(n)
    theta = random_theta(rng, 3, noise=0.0 if duplicates else None)
    model = make_model(X, y, theta)
    assert (model.jitter_used > 0.0) == duplicates
    spec = theta.kernel
    L = _mll_core(
        _sq_diffs(X), y, spec.lengthscales, spec.signal_variance, theta.noise_variance,
        theta.mean.constant, False,
    ).chol
    ref, info = scipy.linalg.lapack.dtrtri(L, lower=1)
    assert info == 0
    assert model.chol_inv.tobytes() == ref.tobytes()
    np.testing.assert_allclose(model.chol_inv @ L, np.eye(n), atol=1e-12)


class TestMll:
    def test_single_unit_variance_point(self):
        theta = GpHyperparams(KernelSpec("matern52", np.array([1.0]), 0.5), MeanSpec(1.0), 0.5)
        # K + sigma2 = 0.5 + 0.5 = 1 and y = m, so only the constant remains.
        assert mll(theta, [[0.3]], [1.0]) == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = random_theta(rng, 2)
            X = rng.random((3, 2))
            y = rng.standard_normal(3)
            expected = dense_mll(
                theta.kernel.lengthscales, theta.kernel.signal_variance,
                theta.mean.constant, theta.noise_variance, X, y,
            )
            assert mll(theta, X, y) == pytest.approx(expected, rel=1e-10)

    def test_residual_scaling_matches_oracle(self):
        rng = np.random.default_rng(6)
        theta = random_theta(rng, 1)
        X = rng.random((3, 1))
        y = rng.standard_normal(3)
        m = theta.mean.constant
        for scale in (1.0, 2.0):
            scaled = m + scale * (y - m)
            expected = dense_mll(
                theta.kernel.lengthscales, theta.kernel.signal_variance,
                m, theta.noise_variance, X, scaled,
            )
            assert mll(theta, X, scaled) == pytest.approx(expected, rel=1e-10)

    def test_fixed_noise_matches_oracle(self):
        rng = np.random.default_rng(7)
        theta = random_theta(rng, 2, noise=0.0)
        X = rng.random((4, 2))
        y = rng.standard_normal(4)
        noise_diag = rng.uniform(0.01, 0.2, 4)
        expected = dense_mll(
            theta.kernel.lengthscales, theta.kernel.signal_variance,
            theta.mean.constant, 0.0, X, y, noise_diag=noise_diag,
        )
        assert mll(theta, X, y, noise_diag=noise_diag) == pytest.approx(expected, rel=1e-10)


def finite_difference_grad(theta, X, y, with_noise=True, step=1e-5, noise_diag=None):
    d = X.shape[1]
    z0 = _pack(theta, with_noise)
    grad = np.empty_like(z0)
    for i in range(len(z0)):
        zp, zm = z0.copy(), z0.copy()
        zp[i] += step
        zm[i] -= step
        fp = mll(_unpack(zp, d, with_noise), X, y, noise_diag)
        fm = mll(_unpack(zm, d, with_noise), X, y, noise_diag)
        grad[i] = (fp - fm) / (2 * step)
    return grad


class TestMllGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, d = int(rng.integers(2, 11)), int(rng.integers(1, 4))
            theta = random_theta(rng, d)
            X = rng.random((n, d))
            y = rng.standard_normal(n)
            analytic = mll_grad(theta, X, y)
            fd = finite_difference_grad(theta, X, y)
            err = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            assert err.max() < 1e-4

    def test_mean_gradient_zero_at_centered_targets(self):
        theta = GpHyperparams(KernelSpec("matern52", np.array([0.5]), 1.0), MeanSpec(0.7), 0.01)
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.full(3, 0.7)
        assert mll_grad(theta, X, y)[-1] == pytest.approx(0.0, abs=1e-12)

    def test_mirrored_dimensions_get_equal_gradients(self):
        # Dataset invariant under swapping the two coordinates, equal
        # lengthscales: the two log-lengthscale gradients must agree.
        theta = GpHyperparams(KernelSpec("matern52", np.array([0.4, 0.4]), 1.2), MeanSpec(0.0), 0.05)
        X = np.array([[0.1, 0.1], [0.7, 0.3], [0.3, 0.7]])
        y = np.array([1.0, 2.0, 2.0])
        g = mll_grad(theta, X, y)
        assert g[0] == pytest.approx(g[1], rel=1e-12, abs=1e-12)

    def test_matches_finite_differences_under_jitter(self):
        # N = 60 from 30 noise-free duplicated rows: K is singular, so the
        # ladder adds jitter, which scales with the signal variance.  The
        # gradient must match finite differences of mll with the ladder
        # live, and, with that jitter held fixed as a noise diagonal, the
        # finite differences of the matrix that then needs no jitter.
        rng = np.random.default_rng(60)
        for _ in range(5):
            X, y = rng.random((30, 2)), rng.standard_normal(30)
            X, y = np.tile(X, (2, 1)), np.tile(y, 2)
            theta = GpHyperparams(
                KernelSpec("matern52", rng.uniform(0.1, 0.3, 2), float(rng.uniform(0.5, 2.0))),
                MeanSpec(float(rng.uniform(-0.5, 0.5))), 0.0,
            )
            zeros = np.zeros(60)
            jitter = make_model(X, y, theta, zeros).jitter_used
            assert jitter > 0.0
            analytic = mll_grad(theta, X, y, zeros)
            fd = finite_difference_grad(theta, X, y, with_noise=False, step=1e-4, noise_diag=zeros)
            assert np.abs(analytic - fd).max() < 1e-4 * np.abs(fd).max()
            held = np.full(60, jitter)
            assert make_model(X, y, theta, held).jitter_used == 0.0
            analytic = mll_grad(theta, X, y, held)
            fd = finite_difference_grad(theta, X, y, with_noise=False, step=1e-4, noise_diag=held)
            assert np.abs(analytic - fd).max() < 1e-4 * np.abs(fd).max()


class TestFit:
    def test_single_point(self):
        model = fit([[0.5]], [0.0], seed=0)
        summary = posterior(model, [[0.5]])
        assert summary.means[0] == pytest.approx(0.0, abs=0.05)

    @pytest.mark.parametrize("case", ["random", "duplicated", "fixed-noise"])
    def test_never_worse_than_default_hyperparams(self, case):
        rng = np.random.default_rng(9)
        jitters = []
        for _ in range(5):
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 3))
            X = rng.random((n, d))
            y = rng.standard_normal(n)
            noise_diag = None
            if case == "duplicated":
                # Noise-free repeats make K singular, so the ladder must add jitter.
                X, y = np.tile(X, (3, 1)), np.tile(y, 3)
                noise_diag = np.zeros(3 * n)
            elif case == "fixed-noise":
                noise_diag = rng.uniform(0.01, 0.2, n)
            model = fit(X, y, seed=1, noise_diag=noise_diag)
            baseline = mll(default_hyperparams(d), X, y, noise_diag=noise_diag)
            fitted = mll(model.theta, X, y, noise_diag=noise_diag)
            assert fitted >= baseline - 1e-9
            # fit keeps the factorization of the one core routine at the
            # winning theta; rebuilding the model there reproduces it bitwise.
            rebuilt = make_model(X, y, model.theta, noise_diag)
            np.testing.assert_array_equal(rebuilt.chol_inv, model.chol_inv)
            np.testing.assert_array_equal(rebuilt.alpha, model.alpha)
            assert rebuilt.jitter_used == model.jitter_used
            jitters.append(model.jitter_used)
        if case == "duplicated":
            assert min(jitters) > 0.0

    @pytest.mark.parametrize("fixed_noise", [False, True])
    def test_one_core_call_per_optimizer_evaluation(self, monkeypatch, fixed_noise):
        # fit keeps the best point the objective has evaluated, so it makes
        # no _mll_core call beyond the nfev of its L-BFGS-B runs, and the
        # fitted mll is bitwise the largest value the objective saw.  With
        # an interior warm start the losing start's score is the one call
        # outside the run: the winner's score is its run's first
        # evaluation.  The starts cycle through none, an interior one and
        # one with a lengthscale on its upper bound, so each run count is
        # exercised; then come scripts/layer_bench.py's datasets of this
        # noise mode, cold and warm (a warm theta's lengthscale may round to
        # just below its bound, which expected_runs would not read as doubt,
        # so its run count is not predicted).  The model's fit_record
        # reports the same work: the scoring calls and each run's result.
        real_core, real_minimize = gpbo.gp._mll_core, gpbo.gp.minimize
        calls, values, runs = [], [], []

        def core(*args):
            calls.append(args)
            parts = real_core(*args)
            values.append(parts.value)
            return parts

        def counted_minimize(*args, **kwargs):
            runs.append(real_minimize(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(gpbo.gp, "_mll_core", core)
        monkeypatch.setattr(gpbo.gp, "minimize", counted_minimize)
        rng = np.random.default_rng(19)
        cases = []
        for case in range(6):
            n, d = int(rng.integers(5, 40)), int(rng.integers(1, 4))
            X, y = rng.random((n, d)), rng.standard_normal(n)
            noise_diag = rng.uniform(0.01, 0.2, n) if fixed_noise else None
            start = None if case % 3 == 0 else random_theta(rng, d)
            if case % 3 == 2:
                start.kernel.lengthscales[0] = LENGTHSCALE_BOUNDS[1]
            cases.append((X, y, noise_diag, start, expected_runs(start)))
        for n, d in [(30, 5)] if fixed_noise else [(60, 2), (60, 6)]:
            X, y, noise_diag = layer_bench_dataset(n, d, fixed_noise)
            warm = fit(X[:-1], y[:-1], seed=1,
                       noise_diag=None if noise_diag is None else noise_diag[:-1]).theta
            cases += [(X, y, noise_diag, None, FIT_RESTARTS), (X, y, noise_diag, warm, None)]
        for X, y, noise_diag, start, expected in cases:
            for log in (calls, values, runs):
                log.clear()
            model = fit(X, y, seed=2, noise_diag=noise_diag, start=start)
            nfevs = [res.nfev for res in runs]
            assert expected is None or len(nfevs) == expected
            assert len(calls) == sum(nfevs) + (len(nfevs) == 1)
            record = model.fit_record
            assert record.scored + sum(run.nfev for run in record.runs) == len(calls)
            assert [run.nfev for run in record.runs] == nfevs
            assert all(run is res for run, res in zip(record.runs, runs))
            best = max(v for v in values if np.isfinite(v))
            assert mll(model.theta, X, y, noise_diag=noise_diag) == best
            assert make_model(X, y, model.theta, noise_diag).fit_record is None

    @pytest.mark.parametrize("fixed_noise", [False, True], ids=["fitted-noise", "fixed-noise"])
    def test_search_box_and_clipped_warm_start(self, monkeypatch, fixed_noise):
        # Every L-BFGS-B run searches the log of each bound constant (the
        # mean raw), with no noise coordinate when the noise is given, and a
        # warm start outside that box starts on its edge.
        runs = recorded_runs(monkeypatch)
        rng = np.random.default_rng(20)
        d = 2
        X, y = rng.random((6, d)), rng.standard_normal(6)
        outside = GpHyperparams(
            KernelSpec("matern52", np.array([1e-6, 1e6]), 1e8), MeanSpec(5.0), 10.0
        )
        fit(X, y, seed=0, noise_diag=np.full(6, 0.01) if fixed_noise else None, start=outside)
        logged = [gpbo.gp.LENGTHSCALE_BOUNDS] * d + [gpbo.gp.SIGNAL_VARIANCE_BOUNDS]
        if not fixed_noise:
            logged.append(gpbo.gp.NOISE_VARIANCE_BOUNDS)
        box = [(math.log(lo), math.log(hi)) for lo, hi in logged] + [gpbo.gp.MEAN_BOUNDS]
        assert len(runs) == FIT_RESTARTS + 1
        for _, bounds in runs:
            assert len(bounds) == (d + 2 if fixed_noise else d + 3)
            assert [tuple(b) for b in bounds] == box
        lo, hi = np.array(box).T
        # Start 0 is the default, start 1 the warm start: its first
        # lengthscale is below the box, everything else above it.
        np.testing.assert_array_equal(runs[1][0], np.append(lo[0], hi[1:]))

    @pytest.mark.parametrize("fixed_noise", [False, True], ids=["fitted-noise", "fixed-noise"])
    @pytest.mark.parametrize(
        "move, runs",
        [
            pytest.param({}, 1, id="interior"),
            pytest.param({"ls": 1e3}, FIT_RESTARTS + 1, id="lengthscale-on-upper-bound"),
            pytest.param({"ls": 1e3 * (1 - 1e-12)}, FIT_RESTARTS + 1,
                         id="lengthscale-within-1e-9-of-bound"),
            pytest.param({"ls": 1e3 * (1 - 1e-6)}, 1, id="lengthscale-1e-6-inside-bound"),
            pytest.param({"s2": 1e-4}, FIT_RESTARTS + 1, id="signal-variance-on-lower-bound"),
            pytest.param({"mean": 2.0}, 1, id="mean-on-bound"),
            pytest.param({"noise": 1e-8}, 1, id="noise-on-floor"),
            pytest.param(None, FIT_RESTARTS, id="no-start"),
        ],
    )
    def test_cold_starts_only_when_warm_start_in_doubt(self, monkeypatch, move, runs, fixed_noise):
        # Each case moves one coordinate of an interior warm start, or drops
        # it; the interior start itself must make one run, from the default
        # or the warm start, so every case also pins that no-doubt baseline.
        runs_made = recorded_runs(monkeypatch)
        rng = np.random.default_rng(21)
        d = 2
        X, y = rng.random((9, d)), rng.standard_normal(9)
        noise_diag = np.full(9, 0.01) if fixed_noise else None

        def theta(ls=0.7, s2=1.5, mean=0.2, noise=1e-3):
            return GpHyperparams(KernelSpec("matern52", np.array([0.3, ls]), s2), MeanSpec(mean), noise)

        fit(X, y, seed=4, noise_diag=noise_diag, start=theta())
        assert len(runs_made) == 1
        runs_made.clear()
        start = None if move is None else theta(**move)
        fit(X, y, seed=4, noise_diag=noise_diag, start=start)
        assert len(runs_made) == runs
        default = default_hyperparams(d)
        if runs == 1:
            # The one run starts from the larger-mll start, the default on a tie.
            warm_wins = mll(start, X, y, noise_diag) > mll(default, X, y, noise_diag)
            expected = start if warm_wins else default
            np.testing.assert_array_equal(runs_made[0][0], _pack(expected, not fixed_noise))
        else:
            # The default start runs first, and the warm start next.
            np.testing.assert_array_equal(runs_made[0][0], _pack(default, not fixed_noise))
            if start is not None:
                np.testing.assert_array_equal(runs_made[1][0], _pack(start, not fixed_noise))

    @pytest.mark.parametrize("fixed_noise", [False, True], ids=["fitted-noise", "fixed-noise"])
    @pytest.mark.parametrize("warm_wins", [True, False], ids=["warm-above-default", "warm-below-default"])
    def test_trusted_warm_start_refines_the_better_start_only(self, monkeypatch, warm_wins, fixed_noise):
        # An interior warm start is scored once next to the default, and
        # one L-BFGS-B run starts from the larger-mll point, taking that
        # score as its first evaluation: _mll_core sees no point twice.
        runs = recorded_runs(monkeypatch)
        real_core = gpbo.gp._mll_core
        points = []

        def core(diff2, y, ls, s2, noise, m, with_grad):
            points.append((ls.tobytes(), s2, np.ndim(noise) == 0 and noise, m))
            return real_core(diff2, y, ls, s2, noise, m, with_grad)

        rng = np.random.default_rng(22)
        d = 2
        X = rng.random((20, d))
        y = np.sin(5.0 * X[:, 0]) + X[:, 1] + 0.05 * rng.standard_normal(20)
        y = (y - y.mean()) / y.std()
        noise_diag = np.full(20, 0.01) if fixed_noise else None
        if warm_wins:
            start = fit(X, y, seed=1, noise_diag=noise_diag).theta
        else:
            start = GpHyperparams(KernelSpec("matern52", np.array([0.01, 0.02]), 0.05), MeanSpec(1.5), 1e-3)
        scores = [mll(theta, X, y, noise_diag) for theta in (default_hyperparams(d), start)]
        assert (scores[1] > scores[0]) == warm_wins
        runs.clear()
        monkeypatch.setattr(gpbo.gp, "_mll_core", core)
        model = fit(X, y, seed=5, noise_diag=noise_diag, start=start)
        monkeypatch.undo()
        assert len(runs) == 1
        winner = start if warm_wins else default_hyperparams(d)
        np.testing.assert_array_equal(runs[0][0], _pack(winner, not fixed_noise))
        assert len(points) == len(set(points))
        assert mll(model.theta, X, y, noise_diag) >= max(scores)

    @pytest.mark.parametrize("fixed_noise", [False, True])
    def test_warm_start_never_worse_than_start_or_default(self, fixed_noise):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n, d = int(rng.integers(4, 12)), int(rng.integers(1, 4))
            X = rng.random((n, d))
            y = rng.standard_normal(n)
            noise_diag = rng.uniform(0.01, 0.2, n) if fixed_noise else None
            best_cold = fit(X, y, seed=3, noise_diag=noise_diag).theta
            for theta in (random_theta(rng, d), best_cold):
                model = fit(X, y, seed=0, noise_diag=noise_diag, start=theta)
                fitted = mll(model.theta, X, y, noise_diag=noise_diag)
                assert fitted >= mll(theta, X, y, noise_diag=noise_diag) - 1e-9
                assert fitted >= mll(default_hyperparams(d), X, y, noise_diag=noise_diag) - 1e-9

    def test_fixed_noise_theta_warms_fitted_noise_fit(self):
        rng = np.random.default_rng(18)
        X = rng.random((8, 2))
        y = rng.standard_normal(8)
        fixed = fit(X, y, seed=0, noise_diag=np.full(8, 0.01)).theta
        assert fixed.noise_variance == 0.0
        model = fit(X, y, seed=0, start=fixed)
        assert model.theta.noise_variance > 0.0
        assert mll(model.theta, X, y) >= mll(default_hyperparams(2), X, y) - 1e-9

    def test_warm_start_dimension_mismatch(self):
        with pytest.raises(SpaceError):
            fit([[0.1, 0.2], [0.5, 0.9]], [0.0, 1.0], start=default_hyperparams(3))

    def test_recovers_known_lengthscale(self):
        # Data generated from a Matern-5/2 GP with l = 0.2; the fitted ARD
        # lengthscale should land near it for almost every seed.
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.random((30, 1))
            D = np.abs(X[:, None, 0] - X[None, :, 0]) / 0.2
            K = (1 + math.sqrt(5) * D + 5 * D**2 / 3) * np.exp(-math.sqrt(5) * D)
            y = np.linalg.cholesky(K + 1e-4 * np.eye(30)) @ rng.standard_normal(30)
            y = (y - y.mean()) / y.std()
            model = fit(X, y, seed=seed)
            hits += 0.1 <= model.theta.kernel.lengthscales[0] <= 0.4
        assert hits >= 18

    @pytest.mark.parametrize("d, fixed_noise", [(19, False), (20, True)],
                             ids=["fitted-noise-d19", "fixed-noise-d20"])
    def test_cold_starts_past_sobol_dimensions(self, monkeypatch, d, fixed_noise):
        # d + 3 (fitted noise) or d + 2 (fixed noise) coordinates exceed
        # Sobol's 21 dimensions, so the cold starts come from default_rng(seed).
        k = len(_pack(default_hyperparams(d), not fixed_noise))
        assert k > MAX_DIMENSION
        runs = recorded_runs(monkeypatch)
        rng = np.random.default_rng(d)
        X = rng.random((25, d))
        y = np.sin(3.0 * X[:, :3]).sum(axis=1) + 0.1 * rng.standard_normal(25)
        y = (y - y.mean()) / y.std()
        nd = rng.uniform(0.01, 0.1, 25) if fixed_noise else None
        a = fit(X, y, seed=7, noise_diag=nd)
        b = fit(X, y, seed=7, noise_diag=nd)
        for array in (a.theta.kernel.lengthscales, a.chol_inv, a.alpha):
            assert np.all(np.isfinite(array))
        np.testing.assert_array_equal(_pack(a.theta, nd is None), _pack(b.theta, nd is None))
        assert a.chol_inv.tobytes() == b.chol_inv.tobytes()
        assert a.alpha.tobytes() == b.alpha.tobytes()
        assert mll(a.theta, X, y, nd) >= mll(default_hyperparams(d), X, y, nd)
        # The default start's run wins on these data, so the cold starts
        # themselves are checked: uniform over the box from default_rng(seed).
        lo, hi = np.asarray(runs[0][1]).T
        cold = lo + np.random.default_rng(7).random((FIT_RESTARTS - 1, k)) * (hi - lo)
        starts = [x0 for x0, _ in runs]
        assert len(starts) == 2 * FIT_RESTARTS
        np.testing.assert_array_equal(starts[FIT_RESTARTS:], starts[:FIT_RESTARTS])
        np.testing.assert_array_equal(starts[1:FIT_RESTARTS], cold)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        X = rng.random((8, 2))
        y = rng.standard_normal(8)
        a = fit(X, y, seed=3)
        b = fit(X, y, seed=3)
        np.testing.assert_array_equal(a.theta.kernel.lengthscales, b.theta.kernel.lengthscales)
        assert a.theta.noise_variance == b.theta.noise_variance

    def test_alpha_solves_the_system(self):
        rng = np.random.default_rng(11)
        X = rng.random((10, 2))
        y = rng.standard_normal(10)
        model = fit(X, y, seed=0)
        spec = model.theta.kernel
        K = kernel_matrix_loops(spec.lengthscales, spec.signal_variance, X, X)
        Ky = K + (model.theta.noise_variance + model.jitter_used) * np.eye(10)
        residual = np.abs(Ky @ model.alpha - (y - model.theta.mean.constant)).max()
        assert residual < 1e-8 * (1 + np.abs(y).max())


class TestPosterior:
    def test_noise_free_interpolation(self):
        rng = np.random.default_rng(12)
        theta = GpHyperparams(KernelSpec("matern52", np.array([0.5, 0.5]), 1.0), MeanSpec(0.0), 0.0)
        X = rng.random((6, 2))
        y = rng.standard_normal(6)
        model = make_model(X, y, theta)
        summary = posterior(model, X)
        np.testing.assert_allclose(summary.means, y, atol=1e-6)
        assert summary.variances.max() < 1e-6

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            theta = random_theta(rng, d)
            X = rng.random((n, d))
            y = rng.standard_normal(n)
            Xq = rng.random((5, d))
            model = make_model(X, y, theta)
            summary = posterior(model, Xq)
            means, variances = dense_posterior(
                theta.kernel.lengthscales, theta.kernel.signal_variance,
                theta.mean.constant, theta.noise_variance, X, y, Xq,
            )
            np.testing.assert_allclose(summary.means, means, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(
                summary.variances, np.maximum(variances, 0.0), rtol=1e-8, atol=1e-10
            )

    def test_fixed_noise_diag_matches_oracle(self):
        rng = np.random.default_rng(14)
        theta = GpHyperparams(KernelSpec("matern52", np.array([0.6]), 1.0), MeanSpec(0.1), 0.0)
        X = rng.random((5, 1))
        y = rng.standard_normal(5)
        noise_diag = rng.uniform(0.01, 0.3, 5)
        model = make_model(X, y, theta, noise_diag=noise_diag)
        summary = posterior(model, X)
        means, variances = dense_posterior(
            theta.kernel.lengthscales, 1.0, 0.1, 0.0, X, y, X, noise_diag=noise_diag,
        )
        np.testing.assert_allclose(summary.means, means, rtol=1e-9)
        np.testing.assert_allclose(summary.variances, variances, rtol=1e-8, atol=1e-12)

    def test_variances_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            theta = random_theta(rng, 2)
            X = rng.random((8, 2))
            y = rng.standard_normal(8)
            model = make_model(X, y, theta)
            summary = posterior(model, rng.random((50, 2)))
            assert np.all(summary.variances >= 0.0)

    def test_information_gain_is_monotone(self):
        # Adding a noise-free observation never increases predictive
        # variance anywhere, for fixed hyperparameters.
        rng = np.random.default_rng(16)
        theta = GpHyperparams(KernelSpec("matern52", np.array([0.4]), 1.0), MeanSpec(0.0), 0.0)
        grid = np.linspace(0, 1, 41)[:, None]
        for _ in range(10):
            n = int(rng.integers(1, 7))
            X = rng.random((n, 1))
            y = rng.standard_normal(n)
            x_new = rng.random((1, 1))
            before = posterior(make_model(X, y, theta), grid).variances
            after = posterior(
                make_model(np.vstack([X, x_new]), np.append(y, rng.standard_normal()), theta),
                grid,
            ).variances
            assert np.all(after <= before + 1e-9)

    @pytest.mark.parametrize("n,d", [(5, 2), (13, 1), (24, 3), (41, 4), (60, 5), (60, 6)])
    def test_batch_invariant(self, n, d):
        # A point's answer must not depend on how many points share the
        # query: the acquisition optimizer compares scores from calls of
        # 1 to 256 points.
        rng = np.random.default_rng(n * 10 + d)
        X = rng.random((n, d))
        y = np.sin(3.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(n)
        model = fit(X, (y - y.mean()) / y.std(), seed=n)
        Q = rng.random((256, d))
        batch = posterior(model, Q)
        for size in (1, 2, 3, 24, 40):
            for start in range(0, 256 - size + 1, 43):
                part = posterior(model, Q[start:start + size])
                np.testing.assert_array_equal(part.means, batch.means[start:start + size])
                np.testing.assert_array_equal(
                    part.variances, batch.variances[start:start + size]
                )

    def test_dimension_mismatch(self):
        model = make_model([[0.5, 0.5]], [1.0], default_hyperparams(2))
        with pytest.raises(SpaceError):
            posterior(model, [[0.5]])


def fitted_model(fixed_noise, n=12, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(3.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(n)
    noise_diag = rng.uniform(0.01, 0.1, n) if fixed_noise else None
    return fit(X, (y - y.mean()) / y.std(), seed=seed, noise_diag=noise_diag)


def mean_score(means, variances):
    """The posterior mean as a score: partials 1 in the mean, 0 in the variance."""
    return means, np.ones_like(means), np.zeros_like(variances)


def variance_score(means, variances):
    """The posterior variance as a score: partials 0 and 1."""
    return variances, np.zeros_like(means), np.ones_like(variances)


def posterior_grads(model, Xq):
    """The mean, the variance and their gradients in x at (q, d) float
    points Xq, by posterior_score."""
    means, dmean = posterior_score(model, Xq, mean_score)
    variances, dvar = posterior_score(model, Xq, variance_score)
    return means, variances, dmean, dvar


class TestPosteriorGrad:
    @pytest.mark.parametrize("fixed_noise", [False, True], ids=["fitted-noise", "fixed-noise"])
    def test_matches_finite_differences(self, fixed_noise):
        for n, d in ((12, 3), (60, 6)):
            model = fitted_model(fixed_noise, n=n, d=d)
            Xq = np.random.default_rng(1).uniform(0.05, 0.95, (8, model.d))
            _, _, dmean, dvar = posterior_grads(model, Xq)
            step = 1e-6
            fd_mean, fd_var = np.empty_like(dmean), np.empty_like(dvar)
            for j in range(model.d):
                e = np.zeros(model.d)
                e[j] = step
                hi, lo = posterior(model, Xq + e), posterior(model, Xq - e)
                fd_mean[:, j] = (hi.means - lo.means) / (2 * step)
                fd_var[:, j] = (hi.variances - lo.variances) / (2 * step)
            # Relative to each gradient's largest entry, so near-zero partials
            # are not held to a relative bound they cannot meet.
            for analytic, fd in ((dmean, fd_mean), (dvar, fd_var)):
                np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-5 * np.abs(fd).max())

    def test_matern_gradient_smooth_at_training_point(self):
        # (1 + sqrt5 r) exp(-sqrt5 r) has no 1/r term, so a query on a
        # training input gets a finite gradient.
        model = fitted_model(False)
        _, _, dmean, dvar = posterior_grads(model, model.X[:3])
        assert np.all(np.isfinite(dmean)) and np.all(np.isfinite(dvar))

    def test_summary_is_posterior_bitwise(self):
        model = fitted_model(False)
        Xq = np.random.default_rng(2).random((40, model.d))
        means, variances, _, _ = posterior_grads(model, Xq)
        reference = posterior(model, Xq)
        np.testing.assert_array_equal(means, reference.means)
        np.testing.assert_array_equal(variances, reference.variances)

    @pytest.mark.parametrize("n,d", [(5, 2), (24, 3), (60, 5), (60, 6)])
    def test_batch_invariant(self, n, d):
        # The refine scores 1 to 8 points per call and the scatter 256.
        model = fitted_model(False, n=n, d=d, seed=n)
        Q = np.random.default_rng(3).random((256, d))
        means, variances, dmean, dvar = posterior_grads(model, Q)
        for size in (1, 3, 24):
            for start in range(0, 256 - size + 1, 29):
                part = slice(start, start + size)
                m, v, dm, dv = posterior_grads(model, Q[part])
                np.testing.assert_array_equal(m, means[part])
                np.testing.assert_array_equal(v, variances[part])
                np.testing.assert_array_equal(dm, dmean[part])
                np.testing.assert_array_equal(dv, dvar[part])
