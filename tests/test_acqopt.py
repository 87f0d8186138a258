"""Acquisition maximization: grid oracles, determinism, box clamping."""

import numpy as np
import pytest

from gpbo import (
    AcqOptConfig,
    AcquisitionSpec,
    GpHyperparams,
    KernelSpec,
    MeanSpec,
    SobolEngine,
    UsageError,
    ei,
    incumbent_value,
    make_model,
    maximize_acquisition,
    posterior,
)
from gpbo.acqopt import _refine


def toy_model(seed, n=6, d=1, noise=0.01):
    rng = np.random.default_rng(seed)
    theta = GpHyperparams(
        KernelSpec("matern52", rng.uniform(0.15, 0.6, d), 1.0), MeanSpec(0.0), noise
    )
    return make_model(rng.random((n, d)), rng.standard_normal(n), theta)


def ei_spec(model):
    return AcquisitionSpec(kind="ei", incumbent=incumbent_value(model))


def refine_one_at_a_time(model, spec, d, cfg):
    """The lockstep optimizer's reference: each start refined alone."""

    def score(pts):
        return ei(posterior(model, pts), spec.incumbent)

    candidates = SobolEngine(d).fast_forward(cfg.seed % 4096).next(cfg.candidate_count)
    values = score(candidates)
    best_x, best_v, best_idx = None, -np.inf, None
    for idx in np.argsort(-values, kind="stable")[: cfg.refine_count]:
        start = _refine(candidates[idx], values[idx], cfg)
        try:
            pts = next(start)
            while True:
                pts = start.send(score(pts))
        except StopIteration as stop:
            x, v = stop.value
        if v > best_v or (v == best_v and idx < best_idx):
            best_x, best_v, best_idx = x, v, idx
    return best_x, best_v


class TestMaximizeAcquisition:
    def test_beats_dense_grid_in_value(self):
        # 1e5-point grid oracle: the returned value must essentially reach
        # the global maximum of EI over [0, 1].
        grid = np.linspace(0.0, 1.0, 100_001)[:, None]
        for seed in range(8):
            model = toy_model(seed)
            spec = ei_spec(model)
            x, value = maximize_acquisition(model, spec, 1, AcqOptConfig(seed=seed))
            grid_best = float(ei(posterior(model, grid), spec.incumbent).max())
            assert value >= grid_best - 1e-6

    def test_argmax_location_on_fixed_instance(self):
        model = toy_model(3)
        spec = ei_spec(model)
        x, value = maximize_acquisition(model, spec, 1, AcqOptConfig(seed=0))
        grid = np.linspace(0.0, 1.0, 100_001)[:, None]
        scores = ei(posterior(model, grid), spec.incumbent)
        assert abs(x[0] - grid[int(np.argmax(scores)), 0]) < 1e-3

    def test_never_below_initial_scatter(self):
        for seed in range(5):
            model = toy_model(seed, n=8, d=2)
            spec = ei_spec(model)
            cfg = AcqOptConfig(candidate_count=64, refine_count=4, seed=seed)
            _, value = maximize_acquisition(model, spec, 2, cfg)
            engine = SobolEngine(2).fast_forward(cfg.seed % 4096)
            candidates = engine.next(cfg.candidate_count)
            scatter_best = float(ei(posterior(model, candidates), spec.incumbent).max())
            assert value >= scatter_best - 1e-12

    def test_constant_acquisition_returns_first_candidate(self):
        # A UCB score over a zero-noise constant model is flat, so the
        # tie-break contract pins the answer to the first Sobol point.
        theta = GpHyperparams(KernelSpec("rbf", np.array([0.5, 0.5]), 1.0), MeanSpec(0.0), 0.0)
        model = make_model(np.empty((0, 2)), [], theta)
        spec = AcquisitionSpec(kind="ucb", beta=2.0)
        cfg = AcqOptConfig(seed=0)
        x, _ = maximize_acquisition(model, spec, 2, cfg)
        first = SobolEngine(2).next(1)[0]
        np.testing.assert_array_equal(x, first)

    def test_result_stays_inside_box(self):
        # Incumbent far below every mean drives EI's ascent toward the
        # boundary; every iterate must stay clamped inside [0, 1]^d.
        for seed in range(5):
            model = toy_model(seed, n=5, d=2)
            spec = AcquisitionSpec(kind="ucb", beta=20.0)
            x, _ = maximize_acquisition(model, spec, 2, AcqOptConfig(seed=seed))
            assert np.all(x >= 0.0)
            assert np.all(x <= 1.0)

    def test_bitwise_deterministic(self):
        model = toy_model(7, n=7, d=3)
        spec = ei_spec(model)
        cfg = AcqOptConfig(seed=11)
        x1, v1 = maximize_acquisition(model, spec, 3, cfg)
        x2, v2 = maximize_acquisition(model, spec, 3, cfg)
        np.testing.assert_array_equal(x1, x2)
        assert v1 == v2
        # The optimizer scores through the same posterior path as everyone else.
        assert v1 == ei(posterior(model, x1[None]), spec.incumbent)[0]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_lockstep_matches_refining_each_start_alone(self, d):
        for seed in range(3):
            model = toy_model(seed, n=4 + 3 * d, d=d)
            spec = ei_spec(model)
            cfg = AcqOptConfig(seed=seed)
            x, value = maximize_acquisition(model, spec, d, cfg)
            x_ref, value_ref = refine_one_at_a_time(model, spec, d, cfg)
            np.testing.assert_array_equal(x, x_ref)
            assert value == value_ref

    def test_dimension_mismatch(self):
        model = toy_model(0, d=2)
        with pytest.raises(Exception):
            maximize_acquisition(model, ei_spec(model), 3, AcqOptConfig())

    def test_config_validation(self):
        with pytest.raises(UsageError):
            AcqOptConfig(candidate_count=4, refine_count=8)
        with pytest.raises(UsageError):
            AcqOptConfig(tol=0.0)
