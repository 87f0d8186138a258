"""Acquisition maximization: grid oracles, determinism, box clamping."""

import numpy as np
import pytest

from gpbo import (
    GpHyperparams,
    KernelSpec,
    MeanSpec,
    Observation,
    ParameterSpec,
    SearchSpace,
    SobolEngine,
    ei,
    incumbent_value,
    maximize_acquisition,
    optimize,
    posterior,
)
import gpbo.acqopt
import gpbo.gp
import gpbo.loop
from gpbo.acqopt import CANDIDATE_COUNT
from gpbo.benchmarks import branin
from gpbo.gp import make_model


def toy_model(seed, n=6, d=1, noise=0.01):
    rng = np.random.default_rng(seed)
    theta = GpHyperparams(
        KernelSpec("matern52", rng.uniform(0.15, 0.6, d), 1.0), MeanSpec(0.0), noise
    )
    return make_model(rng.random((n, d)), rng.standard_normal(n), theta)


def noisy_branin_acquisitions(monkeypatch, seed):
    """(model, incumbent, seed) of each acquisition at N >= 40 in one
    60-trial ``optimize`` run on Branin with N(0, 0.1^2) noise, whose noise
    is fitted."""
    calls, original = [], gpbo.loop.maximize_acquisition

    def recorded(model, incumbent, acq_seed):
        if model.n >= 40:
            calls.append((model, incumbent, acq_seed))
        return original(model, incumbent, acq_seed)

    rng = np.random.default_rng(seed)
    space = SearchSpace([ParameterSpec.range_float("x1", -5.0, 10.0),
                         ParameterSpec.range_float("x2", 0.0, 15.0)])

    def evaluate(arm):
        value = branin(arm.values["x1"], arm.values["x2"])
        return Observation(value + 0.1 * float(rng.standard_normal()))

    with monkeypatch.context() as patch:
        patch.setattr(gpbo.loop, "maximize_acquisition", recorded)
        optimize(space, evaluate, total_trials=60, seed=seed)
    return calls


def dense_oracle_max(model, incumbent):
    """Largest EI on a 401^2 grid (d = 2) or 2^14 Sobol points (d = 5)."""
    if model.d == 2:
        g = np.linspace(0.0, 1.0, 401)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        pts = SobolEngine(model.d).next(2**14)
    return max(float(ei(posterior(model, c), incumbent).max()) for c in np.array_split(pts, 64))


class TestMaximizeAcquisition:
    def test_beats_dense_grid_in_value(self):
        # 1e5-point grid oracle: the returned value must essentially reach
        # the global maximum of EI over [0, 1].
        grid = np.linspace(0.0, 1.0, 100_001)[:, None]
        for seed in range(8):
            model = toy_model(seed)
            incumbent = incumbent_value(model)
            x, value = maximize_acquisition(model, incumbent, seed)
            grid_best = float(ei(posterior(model, grid), incumbent).max())
            assert value >= grid_best - 1e-6

    def test_argmax_location_on_fixed_instance(self):
        model = toy_model(3)
        incumbent = incumbent_value(model)
        x, value = maximize_acquisition(model, incumbent, 0)
        grid = np.linspace(0.0, 1.0, 100_001)[:, None]
        scores = ei(posterior(model, grid), incumbent)
        assert abs(x[0] - grid[int(np.argmax(scores)), 0]) < 1e-3

    def test_never_below_initial_scatter(self):
        for seed in range(5):
            model = toy_model(seed, n=8, d=2)
            incumbent = incumbent_value(model)
            _, value = maximize_acquisition(model, incumbent, seed)
            candidates = SobolEngine(2).fast_forward(seed % 4096).next(CANDIDATE_COUNT)
            scatter_best = float(ei(posterior(model, candidates), incumbent).max())
            assert value >= scatter_best - 1e-12

    def test_constant_acquisition_returns_first_candidate(self):
        # One observation in a corner with lengthscales 1e-3 leaves 1023 of
        # the 1024 scatter points at exactly the prior's mean and variance,
        # so EI is flat and the tie-break contract pins the answer to the
        # first Sobol point.
        theta = GpHyperparams(
            KernelSpec("matern52", np.array([1e-3, 1e-3]), 1.0), MeanSpec(0.0), 0.0
        )
        model = make_model([[0.05, 0.95]], [1.0], theta)
        x, _ = maximize_acquisition(model, 0.3, 0)
        first = SobolEngine(2).next(1)[0]
        np.testing.assert_array_equal(x, first)

    def test_result_stays_inside_box(self):
        # An incumbent far below every mean leaves EI significant only
        # where the variance is largest, which drives the ascent toward
        # the boundary; every iterate must stay clamped inside [0, 1]^d.
        on_boundary = 0
        for seed in range(5):
            model = toy_model(seed, n=5, d=2)
            x, _ = maximize_acquisition(model, -20.0, seed)
            assert np.all(x >= 0.0)
            assert np.all(x <= 1.0)
            on_boundary += bool(np.any((x == 0.0) | (x == 1.0)))
        assert on_boundary > 0

    def test_bitwise_deterministic(self):
        model = toy_model(7, n=7, d=3)
        incumbent = incumbent_value(model)
        x1, v1 = maximize_acquisition(model, incumbent, 11)
        x2, v2 = maximize_acquisition(model, incumbent, 11)
        np.testing.assert_array_equal(x1, x2)
        assert v1 == v2
        # The optimizer scores through the same posterior path as everyone else.
        assert v1 == ei(posterior(model, x1[None]), incumbent)[0]

    @pytest.mark.parametrize("offset", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("d", [2, 5])
    def test_reaches_dense_oracle(self, d, offset):
        # Lowering the incumbent pushes most of the box into EI's left
        # tail, where EI is flat and a search without gradients stalls.
        for seed in range(12):
            for n in (8, 4 + 3 * d):
                model = toy_model(seed, n=n, d=d)
                incumbent = incumbent_value(model) - offset
                _, value = maximize_acquisition(model, incumbent, seed)
                assert value >= (1.0 - 1e-3) * dense_oracle_max(model, incumbent)

    def test_never_calls_the_fit_optimizer(self, monkeypatch):
        # The benchmark counts calls of gpbo.gp.minimize as fit restarts.
        def refuse(*args, **kwargs):
            raise AssertionError("gpbo.gp.minimize called during acquisition")

        monkeypatch.setattr(gpbo.gp, "minimize", refuse)
        model = toy_model(2, n=10, d=3)
        incumbent = incumbent_value(model)
        x, value = maximize_acquisition(model, incumbent, 0)
        assert value == ei(posterior(model, x[None]), incumbent)[0] > 0.0

    def test_refine_tolerance_keeps_ei_of_default_tolerance(self, monkeypatch):
        # Each start's run stops at a relative reduction of 1e-5 in its
        # log-EI, and after a line search of 8 evaluations fails.  The
        # answer must be as good as runs at scipy's defaults (ftol about
        # 2.2e-9, maxls 20): within 1e-4 relative EI on random models and
        # on the fitted-noise models of a noisy Branin run at N >= 40, some
        # of whose starts end on a failed line search.
        real_rows = gpbo.acqopt.minimize_rows
        reference_runs, failed = [], []

        def capped(*args, options, **kwargs):
            assert (options["ftol"], options["maxls"]) == (1e-5, 8)
            results = real_rows(*args, options=options, **kwargs)
            failed.append(any(res.end == "line_search_failed" for res in results))
            return results

        def scipy_defaults(*args, options, **kwargs):
            options.pop("ftol", None)
            options.pop("maxls", None)
            reference_runs.append(options)
            return real_rows(*args, options=options, **kwargs)

        rng = np.random.default_rng(23)
        cases = []
        for seed in range(20):
            d, n = int(rng.choice([2, 5, 6])), int(rng.integers(10, 61))
            model = toy_model(seed, n=n, d=d)
            cases.append((model, incumbent_value(model), seed))
        random_cases = len(cases)
        cases += noisy_branin_acquisitions(monkeypatch, seed=0)
        for model, incumbent, seed in cases:
            with monkeypatch.context() as patch:
                patch.setattr(gpbo.acqopt, "minimize_rows", capped)
                _, value = maximize_acquisition(model, incumbent, seed)
                patch.setattr(gpbo.acqopt, "minimize_rows", scipy_defaults)
                _, reference = maximize_acquisition(model, incumbent, seed)
            assert abs(value - reference) <= 1e-4 * reference
        assert len(reference_runs) == len(cases) > random_cases + 10
        assert any(failed[random_cases:])
