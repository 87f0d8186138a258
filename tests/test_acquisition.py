"""Expected improvement: closed form, Monte-Carlo agreement, edge limits, incumbent."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbo import (
    GpHyperparams,
    KernelSpec,
    MeanSpec,
    PosteriorSummary,
    UsageError,
    ei,
    incumbent_value,
    make_model,
)

from gpbo.acquisition import _pdf, log_ei, ndtr

from oracles import normal_cdf_quadrature, rsample

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def summary(mu, sigma):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    return PosteriorSummary(mu, sigma**2)


class TestNormalFunctions:
    """The normal density and CDF (scipy's ``ndtr``) that EI is built from."""

    def test_cdf_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_pdf_at_zero(self):
        assert _pdf(np.zeros(1))[0] == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_cdf_against_quadrature_oracle(self):
        for z in (-3.0, -1.5, -0.1, 0.4, 1.0, 2.7):
            assert ndtr(z) == pytest.approx(normal_cdf_quadrature(z), abs=1e-12)

    def test_cdf_symmetry(self):
        z = np.linspace(-6, 6, 201)
        np.testing.assert_allclose(ndtr(-z), 1.0 - ndtr(z), atol=1e-12)

    def test_cdf_monotone(self):
        z = np.linspace(-8, 8, 1001)
        assert np.all(np.diff(ndtr(z)) >= 0)


class TestEi:
    def test_at_incumbent_mean_unit_sd(self):
        # gamma = 0 collapses the closed form to the density at zero.
        assert ei(summary(1.0, 1.0), incumbent=1.0)[0] == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_zero_at_noiseless_incumbent(self):
        assert ei(summary(2.0, 0.0), incumbent=2.0)[0] == 0.0

    def test_degenerate_sd_reduces_to_hinge(self):
        values = ei(summary([1.0, 3.0], [0.0, 0.0]), incumbent=2.0)
        np.testing.assert_array_equal(values, [1.0, 0.0])

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mu = float(rng.uniform(-2, 2))
            sd = float(rng.uniform(0.1, 2))
            inc = float(rng.uniform(-2, 2))
            s = summary(mu, sd)
            draws = rsample(s, 200_000, seed=int(rng.integers(1 << 30)))
            improvements = np.maximum(inc - draws, 0.0)
            bound = 3.0 * improvements.std() / math.sqrt(draws.shape[0])
            assert abs(ei(s, inc)[0] - improvements.mean()) <= max(bound, 1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(1)
        s = summary(rng.uniform(-5, 5, 100), rng.uniform(0, 2, 100))
        assert np.all(ei(s, incumbent=0.0) >= 0.0)

    @pytest.mark.parametrize(
        "gamma, log_h",
        [(-8.0, -37.122364261692645), (-10.0, -55.553122036122346), (-26.0, -345.43954672231797)],
    )
    def test_left_tail_matches_high_precision(self, gamma, log_h):
        # log(gamma Phi(gamma) + phi(gamma)) from mpmath at 50 digits.  The
        # erf identity for Phi cancels to 0 below gamma ~ -7.5 and leaves
        # EI at phi(gamma), about 100x too large at gamma = -10.
        value = ei(summary(-gamma, 1.0), incumbent=0.0)[0]
        assert math.log(value) == pytest.approx(log_h, rel=1e-10)

    @pytest.mark.parametrize(
        "gamma, h",
        [(-10.0, 7.4745602545893280366e-25), (-20.0, 1.3700124947295799431e-90),
         (-29.95, 7.3291152521118129024e-199)],
    )
    def test_far_tail_matches_high_precision(self, gamma, h):
        # gamma Phi(gamma) + phi(gamma) from mpmath at 50 digits.  Summed
        # directly it cancels by ~gamma^4 eps: 1.4e-12 relative at -10 and
        # 1.0e-10 at -29.95.
        np.testing.assert_allclose(ei(summary(-gamma, 1.0), 0.0)[0], h, rtol=1e-12)

    def test_increasing_in_sd_at_fixed_mean(self):
        # dEI/dsigma = pdf(gamma) > 0: more uncertainty, more improvement.
        for gamma in np.linspace(-3, 3, 13):
            mu = -gamma  # incumbent 0, sd 1 puts the point at this gamma
            lo = ei(summary(mu, 1.0), 0.0)[0]
            hi = ei(summary(mu, 1.01), 0.0)[0]
            assert hi > lo

    @given(st.floats(-3, 3), st.floats(0.05, 3), st.floats(-3, 3), st.floats(-5, 5))
    @settings(max_examples=100)
    def test_translation_invariance(self, mu, sd, inc, shift):
        base = ei(summary(mu, sd), inc)[0]
        moved = ei(summary(mu + shift, sd), inc + shift)[0]
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestLogEi:
    def test_exp_matches_ei(self):
        # Down to gamma = -30; ei underflows to 0 from about -38 on.
        gamma = np.linspace(-30.0, 5.0, 1401)
        for sd in (0.3, 1.0, 2.5):
            s = summary(-gamma * sd, np.full_like(gamma, sd))
            np.testing.assert_allclose(np.exp(log_ei(s, 0.0)[0]), ei(s, 0.0), rtol=1e-12)

    @pytest.mark.parametrize(
        "gamma, log_h",
        [(-29.95, -456.2225786995056), (-40.0, -808.29856835661996),
         (-99.9, -5000.1325784000638), (-100.1, -5020.1365772022327),
         (-1e3, -500014.73445209116), (-1e4, -50000019.339619307)],
    )
    def test_tail_matches_high_precision(self, gamma, log_h):
        # mpmath at 60 digits.  ei underflows to 0 from gamma ~ -38 on.
        value = log_ei(summary(-gamma, 1.0), 0.0)[0][0]
        assert value == pytest.approx(log_h, rel=1e-15, abs=1e-12)

    def test_finite_and_increasing_in_gamma(self):
        gamma = -np.logspace(4, -3, 4000)
        gamma = np.concatenate([gamma, np.linspace(0.0, 5.0, 500)])
        values = log_ei(summary(-gamma, 1.0), 0.0)[0]
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(values) > 0)

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(3)
        gamma = np.concatenate([rng.uniform(-150, 5, 200), [-100.0, -1.0, 0.0]])
        sd = rng.uniform(0.05, 3.0, gamma.shape[0])
        mu = -gamma * sd
        var = sd**2
        _, d_mu, d_var = log_ei(PosteriorSummary(mu, var), 0.0)
        step = 1e-6
        fd_mu = (log_ei(summary(mu + step * sd, sd), 0.0)[0]
                 - log_ei(summary(mu - step * sd, sd), 0.0)[0]) / (2 * step * sd)
        fd_var = (log_ei(PosteriorSummary(mu, var * (1 + step)), 0.0)[0]
                  - log_ei(PosteriorSummary(mu, var * (1 - step)), 0.0)[0]) / (2 * step * var)
        np.testing.assert_allclose(d_mu, fd_mu, rtol=1e-5)
        np.testing.assert_allclose(d_var, fd_var, rtol=1e-5, atol=1e-6)

    def test_sd_below_floor_is_clamped(self):
        # The hinge's log where it is positive, and finite where it is 0.
        values, _, _ = log_ei(summary([1.0, 3.0], [0.0, 0.0]), 2.0)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(values[1]) and values[1] < -1e20


class TestIncumbent:
    def test_noise_free_equals_min_observed(self):
        rng = np.random.default_rng(5)
        theta = GpHyperparams(KernelSpec("matern52", np.array([0.5]), 1.0), MeanSpec(0.0), 0.0)
        y = rng.standard_normal(6)
        model = make_model(rng.random((6, 1)), y, theta)
        assert incumbent_value(model) == pytest.approx(float(y.min()), abs=1e-6)

    def test_single_noisy_point_is_its_posterior_mean(self):
        from gpbo import posterior

        theta = GpHyperparams(KernelSpec("matern52", np.array([0.5]), 1.0), MeanSpec(0.0), 0.5)
        model = make_model([[0.4]], [2.0], theta)
        expected = posterior(model, [[0.4]]).means[0]
        assert incumbent_value(model) == expected
        assert incumbent_value(model) < 2.0  # shrunk toward the prior mean

    def test_matches_brute_force_scan(self):
        from gpbo import posterior

        rng = np.random.default_rng(6)
        theta = GpHyperparams(KernelSpec("matern52", np.array([0.7, 0.3]), 1.2), MeanSpec(0.1), 0.2)
        X = rng.random((9, 2))
        model = make_model(X, rng.standard_normal(9), theta)
        brute = min(posterior(model, X[i : i + 1]).means[0] for i in range(9))
        assert incumbent_value(model) == pytest.approx(brute, rel=1e-12)

    def test_empty_model_has_no_incumbent(self):
        from gpbo import default_hyperparams

        with pytest.raises(UsageError):
            incumbent_value(make_model(np.empty((0, 1)), [], default_hyperparams(1)))
