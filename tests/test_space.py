"""Search-space transforms: validation, unit-cube encoding, standardization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbo import Observation, ParameterSpec, SearchSpace, UsageError, optimize
from gpbo.errors import DomainError, SpaceError
from gpbo.space import Arm, decode, encode, fit_standardizer, validate_space


def unit_space(*names):
    return SearchSpace([ParameterSpec.range_float(n, 0.0, 1.0) for n in names])


class TestValidateSpace:
    def test_minimal_valid_space(self):
        report = validate_space(unit_space("x"))
        assert report.ok
        assert report.warnings == ()

    def test_inverted_bounds(self):
        space = SearchSpace([ParameterSpec.range_float("x", 1.0, 0.0)])
        report = validate_space(space)
        assert not report.ok
        assert any(v.param == "x" and "lower < upper" in v.message for v in report.violations)

    def test_many_dimensions_warns(self):
        space = unit_space(*(f"x{i}" for i in range(21)))
        report = validate_space(space)
        assert report.ok
        assert len(report.warnings) == 1

    def test_beyond_sobol_dimensions_is_invalid(self):
        # d = 21 still validates (test_many_dimensions_warns).
        report = validate_space(unit_space(*(f"x{i}" for i in range(22))))
        assert not report.ok
        assert any("at most 21" in v.message for v in report.violations)

    def test_duplicate_names(self):
        space = unit_space("x", "x")
        assert not validate_space(space).ok

    def test_choice_needs_two_options(self):
        space = SearchSpace([ParameterSpec.choice("c", ["only"]), ParameterSpec.range_float("x", 0, 1)])
        report = validate_space(space)
        assert any(v.param == "c" for v in report.violations)

    @pytest.mark.parametrize(
        "options, message",
        [([[1], [2]], "choice options must be strings, numbers, booleans or null"),
         ([{"a": 1}, "b"], "choice options must be strings, numbers, booleans or null"),
         ([1, "1"], "choice options must be distinct"),
         ([1.0, "1"], "choice options must be distinct"),
         ([1, True], "choice options must be distinct"),
         (["a", "b", "a"], "choice options must be distinct")],
        ids=["lists", "dict", "int-and-str", "float-and-str", "int-and-bool", "repeat"],
    )
    def test_choice_options_must_round_trip_through_the_trial_log(self, options, message):
        space = SearchSpace([ParameterSpec.choice("c", options), ParameterSpec.range_float("x", 0, 1)])
        report = validate_space(space)
        assert [(v.param, v.message) for v in report.violations] == [("c", message)]

    def test_distinct_scalar_choice_options_are_valid(self):
        space = SearchSpace([ParameterSpec.choice("c", [2, "b", 3.5, True, None])])
        assert validate_space(space).ok

    def test_all_fixed_space_is_invalid(self):
        space = SearchSpace([ParameterSpec.fixed("c", 3)])
        report = validate_space(space)
        assert any("non-fixed" in v.message for v in report.violations)

    def test_violation_names_its_parameter_only_when_it_has_one(self):
        (named,) = validate_space(SearchSpace([ParameterSpec.range_float("x", 1.0, 0.0)])).violations
        assert str(named) == "parameter 'x': lower < upper required"
        (space_wide,) = validate_space(SearchSpace([ParameterSpec.fixed("c", 3)])).violations
        assert str(space_wide) == "space must contain at least one non-fixed parameter"

    def test_log_scale_requires_positive_lower(self):
        space = SearchSpace([ParameterSpec.range_float("x", 0.0, 1.0, log_scale=True)])
        assert not validate_space(space).ok

    @pytest.mark.parametrize("upper", [10**400, math.inf, math.nan], ids=["huge-int", "inf", "nan"])
    def test_bounds_beyond_float_range_are_a_violation(self, upper):
        space = SearchSpace([ParameterSpec.range_int("k", 0, upper)])
        (violation,) = validate_space(space).violations
        assert str(violation) == "parameter 'k': range bounds must be finite"

    def test_int_bounds_must_be_integers(self):
        space = SearchSpace([ParameterSpec(name="k", kind="range-int", lower=0.5, upper=3)])
        assert not validate_space(space).ok


class TestEncode:
    def test_midpoint(self):
        space = SearchSpace([ParameterSpec.range_float("x", 0.0, 10.0)])
        u = encode(Arm("a", {"x": 5.0}), space)
        assert u[0] == 0.5

    def test_boundaries_exact(self):
        space = SearchSpace([ParameterSpec.range_float("x", -3.0, 7.0)])
        assert encode(Arm("a", {"x": -3.0}), space)[0] == 0.0
        assert encode(Arm("b", {"x": 7.0}), space)[0] == 1.0

    def test_choice_ordinal(self):
        space = SearchSpace([ParameterSpec.choice("c", ["a", "b", "c"])])
        assert encode(Arm("a", {"c": "b"}), space)[0] == 0.5

    def test_fixed_omitted(self):
        space = SearchSpace(
            [ParameterSpec.fixed("f", "const"), ParameterSpec.range_float("x", 0, 2)]
        )
        u = encode(Arm("a", {"f": "const", "x": 1.0}), space)
        assert u.shape == (1,)
        assert u[0] == 0.5

    def test_log_scale(self):
        space = SearchSpace([ParameterSpec.range_float("lr", 1e-4, 1.0, log_scale=True)])
        assert encode(Arm("a", {"lr": 1e-2}), space)[0] == pytest.approx(0.5, abs=1e-12)

    def test_missing_value_names_parameter(self):
        space = unit_space("x", "y")
        with pytest.raises(SpaceError, match="'y'"):
            encode(Arm("a", {"x": 0.5}), space)

    def test_value_out_of_domain(self):
        space = unit_space("x")
        with pytest.raises(SpaceError, match="'x'"):
            encode(Arm("a", {"x": 1.5}), space)

    def test_range_int_affine(self):
        space = SearchSpace([ParameterSpec.range_int("k", 0, 4)])
        assert encode(Arm("a", {"k": 3}), space)[0] == 0.75


class TestDecode:
    def test_midpoint(self):
        space = SearchSpace([ParameterSpec.range_float("x", 0.0, 10.0)])
        assert decode(np.array([0.5]), space).values["x"] == 5.0

    def test_int_rounding(self):
        space = SearchSpace([ParameterSpec.range_int("k", 0, 1)])
        assert decode(np.array([0.49]), space).values["k"] == 0
        assert decode(np.array([0.51]), space).values["k"] == 1

    def test_fixed_reinjected(self):
        space = SearchSpace(
            [ParameterSpec.fixed("f", 42), ParameterSpec.range_float("x", 0, 1)]
        )
        arm = decode(np.array([0.25]), space)
        assert arm.values == {"f": 42, "x": 0.25}

    def test_out_of_cube_rejected(self):
        space = SearchSpace([ParameterSpec.range_float("x", 0, 1)])
        with pytest.raises(DomainError):
            decode(np.array([1.001]), space)

    def test_tiny_overshoot_clamped(self):
        space = SearchSpace([ParameterSpec.range_float("x", 0, 1)])
        assert decode(np.array([1.0 + 5e-13]), space).values["x"] == 1.0

    def test_wrong_length(self):
        with pytest.raises(SpaceError):
            decode(np.array([0.5, 0.5]), unit_space("x"))

    def test_choice_snaps_to_nearest(self):
        space = SearchSpace([ParameterSpec.choice("c", [10, 20, 30])])
        assert decode(np.array([0.9]), space).values["c"] == 30
        assert decode(np.array([0.3]), space).values["c"] == 20

    def test_boundary_decode_stays_in_bounds(self):
        # exp(log(10)) overshoots 10 by one ulp; decoded arms must still
        # validate against their own space.
        space = SearchSpace(
            [
                ParameterSpec.range_float("lr", 0.1, 10.0, log_scale=True),
                ParameterSpec.range_float("x", 0.1, 0.3),
            ]
        )
        for u in ([1.0, 1.0], [0.0, 0.0]):
            arm = decode(np.array(u), space)
            encode(arm, space)  # raises if any value escaped its domain
            assert 0.1 <= arm.values["lr"] <= 10.0
            assert 0.1 <= arm.values["x"] <= 0.3


@st.composite
def float_range_params(draw):
    lower = draw(st.floats(-100, 100))
    width = draw(st.floats(0.1, 200))
    return lower, lower + width


class TestEncodeProperties:
    @given(float_range_params(), st.integers(0, 64))
    @settings(max_examples=60)
    def test_components_stay_in_unit_interval(self, bounds, step):
        lower, upper = bounds
        space = SearchSpace([ParameterSpec.range_float("x", lower, upper)])
        x = lower + (upper - lower) * step / 64
        u = encode(Arm("a", {"x": x}), space)
        assert 0.0 <= u[0] <= 1.0

    @given(float_range_params(), st.integers(0, 63), st.integers(1, 64))
    @settings(max_examples=60)
    def test_strictly_monotone(self, bounds, i, gap):
        lower, upper = bounds
        space = SearchSpace([ParameterSpec.range_float("x", lower, upper)])
        j = min(64, i + gap)
        x1 = lower + (upper - lower) * i / 64
        x2 = lower + (upper - lower) * j / 64
        u1 = encode(Arm("a", {"x": x1}), space)[0]
        u2 = encode(Arm("b", {"x": x2}), space)[0]
        assert u1 < u2

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=4),
        float_range_params(),
    )
    @settings(max_examples=60)
    def test_decode_encode_roundtrip_float_spaces(self, fracs, bounds):
        lower, upper = bounds
        space = SearchSpace(
            [ParameterSpec.range_float(f"x{i}", lower, upper) for i in range(len(fracs))]
        )
        values = {f"x{i}": lower + (upper - lower) * (0.5 + f / 101) for i, f in enumerate(fracs)}
        arm = Arm("a", values)
        back = decode(encode(arm, space), space, name="a")
        for name in values:
            assert back.values[name] == pytest.approx(
                values[name], rel=1e-12, abs=1e-12 * (upper - lower)
            )


class TestStandardizer:
    def test_two_point_symmetry(self):
        s = fit_standardizer([2.0, 4.0])
        assert s.mean == 3.0
        assert s.scale == 1.0  # population convention
        np.testing.assert_allclose(s.apply([2.0, 4.0]), [-1.0, 1.0])

    def test_constant_data_guard(self):
        s = fit_standardizer([5.0, 5.0, 5.0])
        assert s.mean == 5.0
        assert s.scale == 1.0
        np.testing.assert_allclose(s.apply([5.0, 5.0, 5.0]), [0.0, 0.0, 0.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=80)
    def test_roundtrip_identity(self, ys):
        s = fit_standardizer(ys)
        back = s.invert(s.apply(ys))
        np.testing.assert_allclose(back, ys, rtol=1e-12, atol=1e-9)

    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=40))
    @settings(max_examples=80)
    def test_standardized_moments(self, ys):
        s = fit_standardizer(ys)
        z = s.apply(ys)
        assert abs(float(np.mean(z))) < 1e-10
        if np.std(ys) >= 1e-12:
            assert abs(float(np.std(z)) - 1.0) < 1e-10

    def test_empty_input(self):
        with pytest.raises(UsageError):
            fit_standardizer([])

    def test_non_finite_input(self):
        with pytest.raises(DomainError):
            fit_standardizer([1.0, math.nan])

    def test_finite_for_any_finite_sample(self):
        # Squaring a deviation above about 1.3e154, or subtracting the mean
        # from a value near the float maximum, would overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for ys in ([1e200, 0.0], [1.7e308, -1.7e308, -1.7e308]):
                s = fit_standardizer(ys)
                assert math.isfinite(s.mean) and math.isfinite(s.scale)
                z = s.apply(ys)
                assert np.all(np.isfinite(z))
                np.testing.assert_allclose(np.mean(z), 0.0, atol=1e-12)
                np.testing.assert_allclose(np.std(z), 1.0)
            best, _ = optimize(
                SearchSpace([ParameterSpec.range_float("x", 0.0, 1.0)]),
                lambda arm: 1e200 if arm.values["x"] > 0.6 else (arm.values["x"] - 0.3) ** 2,
                total_trials=10, seed=0,
            )
        assert math.isfinite(best.predicted_mean) and math.isfinite(best.predicted_sd)


class TestObservation:
    def test_negative_sem_rejected(self):
        with pytest.raises(DomainError):
            Observation(1.0, sem=-0.1)

    def test_sem_beyond_float_range_rejected(self):
        with pytest.raises(DomainError):
            Observation(1.0, sem=10**400)

    def test_nan_objective_constructible(self):
        # The loop needs to see these to turn them into FAILED trials.
        assert not Observation(math.nan).is_finite
