"""Experiment lifecycle, the Sobol-then-GPEI schedule, optimize(), best_result()."""

import math

import numpy as np
import pytest

from gpbo import (
    Observation,
    ParameterSpec,
    SearchSpace,
    UsageError,
    complete_trial,
    fail_trial,
    new_experiment,
    optimize,
    posterior,
    suggest,
)
from gpbo.gp import make_model
from gpbo.loop import GeneratorKind, NoCompletedTrialsError, TrialStatus, best_result
from gpbo.space import encode, fit_standardizer


def unit_space(d=1):
    return SearchSpace([ParameterSpec.range_float(f"x{i}", 0.0, 1.0) for i in range(d)])


def quadratic(arm):
    return Observation((arm.values["x0"] - 0.3) ** 2)


class TestNewExperiment:
    def test_valid_space_opens_empty(self):
        exp = new_experiment(unit_space(3), minimize=True, seed=5)
        assert exp.trials == []
        assert exp.seed == 5

    def test_invalid_space_rejected_with_violations(self):
        space = SearchSpace([ParameterSpec.fixed("c", 1)])
        with pytest.raises(UsageError, match="non-fixed") as raised:
            new_experiment(space)
        assert str(raised.value) == (
            "invalid search space: space must contain at least one non-fixed parameter"
        )

    def test_equal_inputs_equal_serialized_state(self):
        a = new_experiment(unit_space(2), minimize=False, seed=9)
        b = new_experiment(unit_space(2), minimize=False, seed=9)
        assert a == b  # space, direction, seed and trials


class TestSuggest:
    def test_first_arm_is_sobol_center(self):
        exp = new_experiment(unit_space(2), seed=0)
        trial = suggest(exp)
        assert trial.generator == GeneratorKind.SOBOL
        assert trial.arm.values == {"x0": 0.5, "x1": 0.5}
        assert trial.arm.name == "trial_0"

    def test_sixth_trial_is_gpei_after_five_completions(self):
        exp = new_experiment(unit_space(), seed=0)
        for _ in range(5):
            t = suggest(exp)
            complete_trial(exp, t.index, quadratic(t.arm))
            assert t.generator == GeneratorKind.SOBOL
        sixth = suggest(exp)
        assert sixth.generator == GeneratorKind.GPEI

    def test_failed_trials_do_not_advance_init_phase(self):
        exp = new_experiment(unit_space(), seed=0)
        t0 = suggest(exp)
        complete_trial(exp, t0.index, Observation(math.nan))  # becomes FAILED
        assert exp.trials[0].status == TrialStatus.FAILED
        t1 = suggest(exp)
        assert t1.generator == GeneratorKind.SOBOL
        assert t1.arm.values != t0.arm.values  # stream advanced, not repeated

    def test_open_trial_blocks_suggest(self):
        exp = new_experiment(unit_space(), seed=0)
        suggest(exp)
        with pytest.raises(UsageError, match="open trial"):
            suggest(exp)

    def test_budget_exhaustion(self):
        exp = new_experiment(unit_space(), seed=0)
        for _ in range(2):
            t = suggest(exp, total_trials=2)
            complete_trial(exp, t.index, quadratic(t.arm))
        with pytest.raises(UsageError, match="budget"):
            suggest(exp, total_trials=2)
        with pytest.raises(UsageError):
            fail_trial(exp, 1, "synthetic")  # terminal trials stay terminal

    def test_budget_counts_failed_trials(self):
        # Every other trial fails; the budget of 4 still ends after 4 trials,
        # as it does in optimize().
        exp = new_experiment(unit_space(), seed=0)
        for i in range(4):
            t = suggest(exp, total_trials=4)
            if i % 2:
                fail_trial(exp, t.index, "synthetic")
            else:
                complete_trial(exp, t.index, quadratic(t.arm))
        with pytest.raises(UsageError, match="budget"):
            suggest(exp, total_trials=4)
        assert len(exp.trials) == 4

    def test_all_suggested_points_decode_from_unit_cube(self):
        exp = new_experiment(unit_space(2), seed=1)
        for _ in range(7):
            t = suggest(exp)
            assert all(0.0 <= v <= 1.0 for v in t.arm.values.values())
            complete_trial(exp, t.index, Observation(sum(t.arm.values.values())))

    def test_gp_fit_failure_falls_back_to_sobol(self, monkeypatch):
        from gpbo.errors import NumericalError
        import gpbo.loop

        exp = new_experiment(unit_space(), seed=0)
        for _ in range(5):
            t = suggest(exp)
            complete_trial(exp, t.index, quadratic(t.arm))

        def broken_fit(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(gpbo.loop, "fit_gp", broken_fit)
        trial = suggest(exp)
        assert trial.generator == GeneratorKind.SOBOL
        assert trial.metadata["fallback"] == "gp-fit-failure"
        assert trial.theta is None

    def test_duplicate_proposal_falls_back_to_sobol(self, monkeypatch):
        import gpbo.loop

        exp = new_experiment(unit_space(), seed=0)
        for _ in range(5):
            t = suggest(exp)
            complete_trial(exp, t.index, quadratic(t.arm))
        first_encoded = encode(exp.trials[0].arm, exp.space)

        def reproposes_first(model, incumbent, seed):
            return first_encoded.copy(), 1.0

        monkeypatch.setattr(gpbo.loop, "maximize_acquisition", reproposes_first)
        trial = suggest(exp)
        assert trial.generator == GeneratorKind.SOBOL
        assert trial.metadata["fallback"] == "duplicate-proposal"
        assert trial.theta is not None  # the fit itself succeeded
        existing = [t.arm.values for t in exp.trials[:-1]]
        assert trial.arm.values not in existing

    def test_discrete_space_spends_no_budget_on_repeats(self):
        # 6 x 3 = 18 arms in all: distinct unit-cube proposals that round
        # to an arm already tried must fall back instead of repeating it.
        space = SearchSpace(
            [ParameterSpec.range_int("k", 1, 6), ParameterSpec.choice("c", ["a", "b", "c"])]
        )
        offset = {"a": 0.5, "b": 0.0, "c": 1.0}

        def objective(arm):
            return Observation((arm.values["k"] - 3.3) ** 2 + offset[arm.values["c"]])

        _, exp = optimize(space, objective, total_trials=18, seed=0)
        arms = [(t.arm.values["k"], t.arm.values["c"]) for t in exp.trials]
        assert len(set(arms)) == 18
        assert any(t.metadata.get("fallback") == "duplicate-proposal" for t in exp.trials)

    def test_tiny_budget_stays_in_sobol_phase(self):
        _, exp = optimize(unit_space(), quadratic, total_trials=3, seed=0)
        assert [t.generator for t in exp.trials] == [GeneratorKind.SOBOL] * 3


class TestTrialTransitions:
    def test_complete_flow(self):
        exp = new_experiment(unit_space(), seed=0)
        t = suggest(exp)
        assert t.status == TrialStatus.RUNNING
        complete_trial(exp, t.index, Observation(1.25, sem=0.1))
        assert t.status == TrialStatus.COMPLETED
        assert t.observation.objective == 1.25

    def test_non_finite_objective_fails_trial(self):
        exp = new_experiment(unit_space(), seed=0)
        t = suggest(exp)
        complete_trial(exp, t.index, Observation(float("inf")))
        assert t.status == TrialStatus.FAILED
        assert t.observation is None
        assert t.metadata["fault"] == "non-finite-objective"

    def test_completing_twice_is_an_error(self):
        exp = new_experiment(unit_space(), seed=0)
        t = suggest(exp)
        complete_trial(exp, t.index, Observation(1.0))
        with pytest.raises(UsageError):
            complete_trial(exp, t.index, Observation(2.0))

    def test_unknown_index(self):
        exp = new_experiment(unit_space(), seed=0)
        with pytest.raises(UsageError):
            complete_trial(exp, 3, Observation(1.0))

    def test_bare_float_accepted(self):
        exp = new_experiment(unit_space(), seed=0)
        t = suggest(exp)
        complete_trial(exp, t.index, 0.75)
        assert t.observation == Observation(0.75)


class TestOptimize:
    def test_converges_on_quadratic(self):
        best, exp = optimize(unit_space(), quadratic, total_trials=20, seed=0)
        assert abs(best.arm.values["x0"] - 0.3) <= 0.05
        assert len(exp.trials) == 20

    def test_generator_schedule(self):
        _, exp = optimize(unit_space(), quadratic, total_trials=12, seed=2)
        generators = [t.generator for t in exp.trials]
        assert generators[:5] == [GeneratorKind.SOBOL] * 5
        assert all(g == GeneratorKind.GPEI for g in generators[5:])

    def test_best_so_far_is_monotone(self):
        _, exp = optimize(unit_space(), quadratic, total_trials=12, seed=3)
        objectives = [t.observation.objective for t in exp.trials]
        running = np.minimum.accumulate(objectives)
        assert np.all(np.diff(running) <= 0 + 1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "value, completes",
        [
            (np.float32(0.5), True),
            (np.int64(1), True),
            (np.float32("inf"), False),
            (None, False),
            ("1.0", False),
            (True, False),
            (Observation("1.0"), False),
        ],
        ids=["float32", "int64", "float32-inf", "none", "str", "bool", "observation-of-str"],
    )
    def test_any_evaluator_return_completes_or_fails_its_trial(self, value, completes):
        # An evaluator's return never aborts the run: a real number that is
        # not a bool, numpy scalars included, completes its trial (compared
        # without numpy's overflow warning), and anything else fails it as
        # a non-finite objective, with the value's repr in the detail.
        def evaluate(arm):
            return value if arm.name == "trial_0" else quadratic(arm)

        _, exp = optimize(unit_space(), evaluate, total_trials=6, seed=0)
        first = exp.trials[0]
        if completes:
            assert first.status == TrialStatus.COMPLETED
            assert first.observation.objective == value
        else:
            objective = value.objective if isinstance(value, Observation) else value
            assert first.status == TrialStatus.FAILED
            assert first.metadata == {
                "fault": "non-finite-objective", "detail": f"objective={objective!r}",
            }
        assert all(t.status == TrialStatus.COMPLETED for t in exp.trials[1:])

    def test_replay_is_bitwise_identical(self):
        _, a = optimize(unit_space(2), lambda arm: Observation(sum(arm.values.values())),
                        total_trials=9, seed=7)
        _, b = optimize(unit_space(2), lambda arm: Observation(sum(arm.values.values())),
                        total_trials=9, seed=7)
        assert a.trials == b.trials

    def test_maximize_equals_minimize_of_negation(self):
        f = quadratic
        neg = lambda arm: Observation(-f(arm).objective)
        best_min, e_min = optimize(unit_space(), f, minimize=True, total_trials=10, seed=4)
        best_max, e_max = optimize(unit_space(), neg, minimize=False, total_trials=10, seed=4)
        for t_min, t_max in zip(e_min.trials, e_max.trials):
            assert t_min.arm.values == t_max.arm.values
            assert t_max.observation.objective == -t_min.observation.objective
        assert best_max.arm.values == best_min.arm.values

    def test_evaluator_exceptions_become_failed_trials(self):
        calls = []

        def flaky(arm):
            calls.append(arm)
            if len(calls) % 2 == 0:
                raise RuntimeError("boom")
            return quadratic(arm)

        _, exp = optimize(unit_space(), flaky, total_trials=8, seed=5)
        statuses = [t.status for t in exp.trials]
        assert statuses.count(TrialStatus.FAILED) == 4
        assert all(
            exp.trials[i].metadata["fault"] == "evaluator-exception"
            for i in range(len(statuses))
            if statuses[i] == TrialStatus.FAILED
        )
        assert len(exp.trials) == 8  # failures consume budget

    @pytest.mark.parametrize("wrap", [Observation, lambda v: v], ids=["observation", "bare"])
    def test_objective_beyond_float_range_fails_the_trial(self, wrap):
        # 10**400 is an int beyond float range: the run must record it as a
        # non-finite objective and go on.
        calls = []

        def evaluate(arm):
            calls.append(arm)
            return wrap(10**400) if len(calls) == 2 else quadratic(arm)

        _, exp = optimize(unit_space(), evaluate, total_trials=6, seed=0)
        statuses = [t.status for t in exp.trials]
        assert statuses == [TrialStatus.COMPLETED, TrialStatus.FAILED] + [TrialStatus.COMPLETED] * 4
        assert exp.trials[1].metadata["fault"] == "non-finite-objective"

    def test_all_failures_raise_no_completed_trials(self):
        def always_bad(arm):
            raise RuntimeError("nope")

        with pytest.raises(NoCompletedTrialsError, match="no completed trials") as excinfo:
            optimize(unit_space(), always_bad, total_trials=6, seed=6)
        exp = excinfo.value.experiment
        assert len(exp.trials) == 6
        assert all(t.status == TrialStatus.FAILED for t in exp.trials)

    def test_gpei_trials_carry_theta(self):
        _, exp = optimize(unit_space(2), lambda arm: Observation(sum(arm.values.values())),
                          total_trials=10, seed=1)
        for t in exp.trials:
            assert (t.theta is not None) == (t.generator == GeneratorKind.GPEI)
        assert sum(t.generator == GeneratorKind.GPEI for t in exp.trials) == 5

    def test_theta_sequence_is_deterministic(self):
        def thetas():
            _, exp = optimize(unit_space(2), lambda arm: Observation(sum(arm.values.values())),
                              total_trials=10, seed=9)
            return [
                (tuple(t.theta.kernel.lengthscales), t.theta.kernel.signal_variance,
                 t.theta.noise_variance, t.theta.mean.constant)
                for t in exp.trials if t.theta is not None
            ]

        first = thetas()
        assert len(first) == 5
        assert thetas() == first

    def test_each_fit_warm_starts_from_the_latest_theta(self, monkeypatch):
        import gpbo.loop

        starts = []
        real_fit = gpbo.loop.fit_gp

        def recording_fit(X, y, **kwargs):
            starts.append(kwargs["start"])
            return real_fit(X, y, **kwargs)

        monkeypatch.setattr(gpbo.loop, "fit_gp", recording_fit)
        _, exp = optimize(unit_space(), quadratic, total_trials=9, seed=2)
        # One fit per GP-EI trial (5 to 8), then the final fit in best_result.
        thetas = [t.theta for t in exp.trials[5:]]
        assert starts[0] is None
        assert all(a is b for a, b in zip(starts[1:], thetas))
        assert len(starts) == 5


    def test_fit_after_a_failed_fit_starts_cold(self, monkeypatch):
        import gpbo.loop
        from gpbo.errors import NumericalError

        starts = []
        real_fit = gpbo.loop.fit_gp

        def failing_second_fit(X, y, **kwargs):
            starts.append(kwargs["start"])
            if len(starts) == 2:
                raise NumericalError("synthetic failure")
            return real_fit(X, y, **kwargs)

        monkeypatch.setattr(gpbo.loop, "fit_gp", failing_second_fit)
        _, exp = optimize(unit_space(), quadratic, total_trials=9, seed=2)
        assert exp.trials[6].metadata["fallback"] == "gp-fit-failure"
        # Trial 6's fit warmed from trial 5; trial 7's follows the failure
        # and gets no warm start, although trial 5 still holds a theta.
        assert starts[1] is exp.trials[5].theta is not None
        assert starts[2] is None
        assert starts[3] is exp.trials[7].theta


def noisy_quadratic_experiment(trials, rng_seed, sem):
    """``trials`` completed trials of quadratic plus N(0, 0.05^2) noise, at
    experiment seed 1, each reporting ``sem``."""
    exp = new_experiment(unit_space(), seed=1)
    rng = np.random.default_rng(rng_seed)
    for _ in range(trials):
        t = suggest(exp)
        objective = quadratic(t.arm).objective + 0.05 * rng.standard_normal()
        complete_trial(exp, t.index, Observation(objective, sem=sem))
    return exp


def best_result_and_posterior_pick(monkeypatch, exp):
    """best_result(exp), and the completed trial (minimizing) with the
    smallest posterior mean under the model rebuilt at the theta of
    best_result's one fit: on the standardized history with each sem as
    fixed noise, or with theta's fitted noise when no sem is reported."""
    import gpbo.loop

    fitted = []
    real_fit = gpbo.loop.fit_gp

    def recording_fit(X, y, **kwargs):
        fitted.append(real_fit(X, y, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(gpbo.loop, "fit_gp", recording_fit)
    result = best_result(exp)
    assert len(fitted) == 1
    theta = fitted[0].theta
    completed = exp.completed()
    X = np.stack([encode(t.arm, exp.space) for t in completed])
    objectives = [t.observation.objective for t in completed]
    standardizer = fit_standardizer(objectives)
    y_std = standardizer.apply(objectives)
    sems = [t.observation.sem for t in completed]
    noise = None if None in sems else (np.array(sems) / standardizer.scale) ** 2
    means = posterior(make_model(X, y_std, theta, noise_diag=noise), X).means
    return result, completed[int(np.argmin(means))]


class TestBestResult:
    def test_single_completed_trial(self):
        exp = new_experiment(unit_space(), seed=0)
        t = suggest(exp)
        complete_trial(exp, t.index, Observation(2.5))
        result = best_result(exp)
        assert result.arm == t.arm
        assert result.observed_objective == 2.5

    def test_noise_free_picks_best_raw_value(self):
        exp = new_experiment(unit_space(), seed=0)
        for target in (3.0, 1.0):
            t = suggest(exp)
            complete_trial(exp, t.index, Observation(target, sem=0.0))
        assert best_result(exp).observed_objective == 1.0

    def test_maximize_picks_largest(self):
        exp = new_experiment(unit_space(), minimize=False, seed=0)
        for target in (3.0, 1.0):
            t = suggest(exp)
            complete_trial(exp, t.index, Observation(target))
        assert best_result(exp).observed_objective == 3.0

    def test_noisy_winner_matches_posterior_mean_scan(self, monkeypatch):
        # Rebuild the final model from the hyperparameters of the last fit
        # and check the winner has the smallest posterior mean.
        exp = noisy_quadratic_experiment(trials=6, rng_seed=0, sem=0.05)
        result, pick = best_result_and_posterior_pick(monkeypatch, exp)
        assert result.arm == pick.arm

    def test_unreported_noise_picks_best_posterior_mean(self, monkeypatch):
        # With no sem reported the final fit estimates the noise, and the
        # arm with the smallest posterior mean wins, not the luckiest draw.
        exp = noisy_quadratic_experiment(trials=8, rng_seed=1, sem=None)
        result, pick = best_result_and_posterior_pick(monkeypatch, exp)
        raw_best = min(exp.completed(), key=lambda t: t.observation.objective)
        assert result.arm == pick.arm != raw_best.arm
        assert result.observed_objective == pick.observation.objective

    def test_no_completed_trials(self):
        exp = new_experiment(unit_space(), seed=0)
        with pytest.raises(UsageError):
            best_result(exp)
