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
    ei,
    incumbent_value,
)
from gpbo.gp import PosteriorSummary, make_model

from gpbo.acquisition import _CAP, _pdf, log_ei

from oracles import rsample, two_branch_ei, two_branch_log_ei

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def summary(mu, sigma):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    return PosteriorSummary(mu, sigma**2)


class TestNormalFunctions:
    """The normal density that EI is built from."""

    def test_pdf_at_zero(self):
        assert _pdf(np.zeros(1))[0] == pytest.approx(INV_SQRT_2PI, abs=1e-15)


# gamma, h(gamma) = gamma Phi(gamma) + phi(gamma) and log h, from mpmath at
# 50 digits, on both sides of gamma = -1 (where the two-branch form
# switched to ndtr) and of the cap.
HIGH_PRECISION = [
    (-0.999, 0.083474246867308465059, -2.4832171154475854429),
    (-0.5, 0.19779655740130602959, -1.6205162643873199193),
    (0.0, 0.39894228040143267794, -0.91893853320467274178),
    (0.5, 0.69779655740130602959, -0.35982768374506381859),
    (2.0, 2.0084907026168296375, 0.69738354578822831219),
    (5.0, 5.0000000534616553383, 1.6094379231264313851),
    (7.99, 7.990000000000000082, 2.0781907597781833093),
    (8.01, 8.0100000000000000695, 2.0806907610802678618),
    (30.0, 30.0, 3.4011973816621553754),
    (1e3, 1000.0, 6.9077552789821370521),
]


class TestOneForm:
    """One erfcx form for every gamma, against the two-branch form it
    replaced and against mpmath."""

    def test_left_tail_is_the_two_branch_form_bitwise(self):
        rng = np.random.default_rng(7)
        gamma = np.concatenate([
            -np.logspace(0.0, 4.0, 20000), -rng.uniform(1.0, 150.0, 20000), [-1.0, -100.0],
        ])
        for sd in (1.0, 0.37):
            means, variances = -gamma * sd, np.full_like(gamma, sd * sd)
            assert ei(PosteriorSummary(means, variances), 0.0).tobytes() == (
                two_branch_ei(means, variances, 0.0).tobytes())
            for ours, theirs in zip(log_ei(means, variances, 0.0),
                                    two_branch_log_ei(means, variances, 0.0)):
                assert ours.tobytes() == theirs.tobytes()

    def test_agrees_with_the_two_branch_form_above(self):
        gamma = np.linspace(-1.0, 12.0, 5001)
        means, variances = -gamma, np.ones_like(gamma)
        np.testing.assert_allclose(ei(PosteriorSummary(means, variances), 0.0),
                                   two_branch_ei(means, variances, 0.0), rtol=1e-13)
        for ours, theirs in zip(log_ei(means, variances, 0.0),
                                two_branch_log_ei(means, variances, 0.0)):
            np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("gamma, h, log_h", HIGH_PRECISION)
    def test_matches_high_precision(self, gamma, h, log_h):
        np.testing.assert_allclose(ei(summary(-gamma, 1.0), 0.0)[0], h, rtol=1e-12)
        value = log_ei(np.array([-gamma]), np.ones(1), 0.0)[0][0]
        assert value == pytest.approx(log_h, rel=1e-15, abs=1e-12)

    def test_continuous_across_the_cap(self):
        # Below the cap h is phi (1 + gamma r), whose two exponentials cancel
        # to about 1e-14 relative; above it h is gamma.
        gamma = np.array([np.nextafter(_CAP, -np.inf), _CAP, np.nextafter(_CAP, np.inf)])
        means, variances = -gamma, np.ones(3)
        values = ei(PosteriorSummary(means, variances), 0.0)
        np.testing.assert_allclose(values, gamma, rtol=1e-14)
        log_values, d_mu, d_var = log_ei(means, variances, 0.0)
        np.testing.assert_allclose(log_values, np.log(gamma), rtol=1e-14)
        np.testing.assert_allclose(d_mu, -1.0 / gamma, rtol=1e-14)
        np.testing.assert_allclose(d_var, 0.0, atol=1e-14)


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
            np.testing.assert_allclose(np.exp(log_ei(s.means, s.variances, 0.0)[0]), ei(s, 0.0), rtol=1e-12)

    @pytest.mark.parametrize(
        "gamma, log_h",
        [(-29.95, -456.2225786995056), (-40.0, -808.29856835661996),
         (-99.9, -5000.1325784000638), (-100.1, -5020.1365772022327),
         (-1e3, -500014.73445209116), (-1e4, -50000019.339619307)],
    )
    def test_tail_matches_high_precision(self, gamma, log_h):
        # mpmath at 60 digits.  ei underflows to 0 from gamma ~ -38 on.
        value = log_ei(np.array([-gamma]), np.ones(1), 0.0)[0][0]
        assert value == pytest.approx(log_h, rel=1e-15, abs=1e-12)

    def test_finite_and_increasing_in_gamma(self):
        gamma = -np.logspace(4, -3, 4000)
        gamma = np.concatenate([gamma, np.linspace(0.0, 5.0, 500)])
        values = log_ei(-gamma, np.ones_like(gamma), 0.0)[0]
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(values) > 0)

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(3)
        gamma = np.concatenate([rng.uniform(-150, 5, 200), [-100.0, -1.0, 0.0]])
        sd = rng.uniform(0.05, 3.0, gamma.shape[0])
        mu = -gamma * sd
        var = sd**2
        _, d_mu, d_var = log_ei(mu, var, 0.0)
        step = 1e-6
        fd_mu = (log_ei(mu + step * sd, var, 0.0)[0]
                 - log_ei(mu - step * sd, var, 0.0)[0]) / (2 * step * sd)
        fd_var = (log_ei(mu, var * (1 + step), 0.0)[0]
                  - log_ei(mu, var * (1 - step), 0.0)[0]) / (2 * step * var)
        np.testing.assert_allclose(d_mu, fd_mu, rtol=1e-5)
        np.testing.assert_allclose(d_var, fd_var, rtol=1e-5, atol=1e-6)

    def test_sd_below_floor_is_clamped(self):
        # The hinge's log where it is positive, and finite where it is 0.
        values, _, _ = log_ei(np.array([1.0, 3.0]), np.zeros(2), 2.0)
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
