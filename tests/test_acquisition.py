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
    rsample,
    std_normal_cdf,
    std_normal_pdf,
)

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
