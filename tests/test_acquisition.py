"""Acquisition functions: closed forms, Monte-Carlo agreement, edge limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbo import (
    AcquisitionSpec,
    GpHyperparams,
    KernelSpec,
    MeanSpec,
    PosteriorSummary,
    UsageError,
    ei,
    incumbent_value,
    make_model,
    mc_ei,
    pi,
    rsample,
    std_normal_cdf,
    std_normal_pdf,
    ucb,
)
from gpbo.acquisition import mc_ei_from_posterior

from oracles import normal_cdf_quadrature

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def summary(mu, sigma):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    return PosteriorSummary(mu, sigma**2)


class TestNormalFunctions:
    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_cdf_against_quadrature_oracle(self):
        for z in (-3.0, -1.5, -0.1, 0.4, 1.0, 2.7):
            assert std_normal_cdf(z) == pytest.approx(normal_cdf_quadrature(z), abs=1e-12)

    def test_cdf_symmetry(self):
        z = np.linspace(-6, 6, 201)
        np.testing.assert_allclose(std_normal_cdf(-z), 1.0 - std_normal_cdf(z), atol=1e-12)

    def test_cdf_monotone(self):
        z = np.linspace(-8, 8, 1001)
        assert np.all(np.diff(std_normal_cdf(z)) >= 0)


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


class TestMcEi:
    def test_zero_variance_is_exact_hinge(self):
        s = summary([1.0, 4.0], [0.0, 0.0])
        np.testing.assert_array_equal(mc_ei_from_posterior(s, 3.0, 1000, seed=0), [2.0, 0.0])

    def test_same_seed_identical(self):
        s = summary([0.5, 1.5], [1.0, 0.4])
        a = mc_ei_from_posterior(s, 1.0, 256, seed=9)
        b = mc_ei_from_posterior(s, 1.0, 256, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_is_mean_of_rsample_improvements(self):
        s = summary([0.2], [0.7])
        draws = rsample(s, 512, seed=11)
        expected = np.maximum(1.0 - draws, 0.0).mean(axis=0)
        np.testing.assert_array_equal(mc_ei_from_posterior(s, 1.0, 512, seed=11), expected)

    def test_model_level_wrapper(self):
        rng = np.random.default_rng(2)
        theta = GpHyperparams(KernelSpec("matern52", np.array([0.5]), 1.0), MeanSpec(0.0), 0.01)
        model = make_model(rng.random((4, 1)), rng.standard_normal(4), theta)
        points = rng.random((3, 1))
        values = mc_ei(model, points, incumbent=0.0, n=64, seed=5)
        assert values.shape == (3,)
        assert np.all(values >= 0.0)

    @given(st.floats(-2, 2), st.floats(0.05, 2), st.floats(-2, 2), st.floats(-4, 4))
    @settings(max_examples=50)
    def test_translation_invariance(self, mu, sd, inc, shift):
        a = mc_ei_from_posterior(summary(mu, sd), inc, 128, seed=3)[0]
        b = mc_ei_from_posterior(summary(mu + shift, sd), inc + shift, 128, seed=3)[0]
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


class TestPi:
    def test_half_at_incumbent_mean(self):
        assert pi(summary(1.0, 1.0), incumbent=1.0)[0] == 0.5

    def test_degenerate_sd_is_indicator(self):
        values = pi(summary([1.0, 3.0], [0.0, 0.0]), incumbent=2.0)
        np.testing.assert_array_equal(values, [1.0, 0.0])

    def test_gamma_one(self):
        assert pi(summary(0.0, 1.0), incumbent=1.0)[0] == pytest.approx(
            normal_cdf_quadrature(1.0), abs=1e-12
        )

    def test_within_unit_interval_and_monotone_in_gamma(self):
        gammas = np.linspace(-4, 4, 41)
        values = pi(summary(-gammas, np.ones_like(gammas)), incumbent=0.0)
        assert np.all((values >= 0) & (values <= 1))
        assert np.all(np.diff(values) >= 0)


class TestUcb:
    def test_zero_sd_gives_negated_mean(self):
        np.testing.assert_array_equal(ucb(summary([2.0, -1.0], [0.0, 0.0]), beta=2.0), [-2.0, 1.0])

    def test_beta_linearity(self):
        s = summary(0.5, 1.0)
        assert ucb(s, beta=4.0)[0] - ucb(s, beta=2.0)[0] == pytest.approx(2.0, abs=1e-12)

    def test_argmax_matches_grid_scan(self):
        rng = np.random.default_rng(3)
        s = summary(rng.uniform(-2, 2, 200), rng.uniform(0.01, 1.5, 200))
        beta = 2.0
        scores = ucb(s, beta)
        direct = -(s.means - beta * np.sqrt(s.variances))
        assert int(np.argmax(scores)) == int(np.argmax(direct))

    def test_argmax_scale_invariant(self):
        rng = np.random.default_rng(4)
        mu = rng.uniform(-2, 2, 50)
        sd = rng.uniform(0.01, 1.5, 50)
        base = np.argmax(ucb(summary(mu, sd), 2.0))
        scaled = np.argmax(ucb(summary(3.7 * mu, 3.7 * sd), 2.0))
        assert base == scaled

    def test_requires_positive_beta(self):
        with pytest.raises(UsageError):
            ucb(summary(0.0, 1.0), beta=0.0)


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
        theta = GpHyperparams(KernelSpec("rbf", np.array([0.7, 0.3]), 1.2), MeanSpec(0.1), 0.2)
        X = rng.random((9, 2))
        model = make_model(X, rng.standard_normal(9), theta)
        brute = min(posterior(model, X[i : i + 1]).means[0] for i in range(9))
        assert incumbent_value(model) == pytest.approx(brute, rel=1e-12)

    def test_empty_model_has_no_incumbent(self):
        from gpbo import default_hyperparams

        with pytest.raises(UsageError):
            incumbent_value(make_model(np.empty((0, 1)), [], default_hyperparams(1)))


class TestAcquisitionSpec:
    def test_ei_requires_incumbent(self):
        with pytest.raises(UsageError):
            AcquisitionSpec(kind="ei")

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            AcquisitionSpec(kind="entropy")

    def test_ucb_requires_positive_beta(self):
        with pytest.raises(UsageError):
            AcquisitionSpec(kind="ucb", beta=-1.0)
