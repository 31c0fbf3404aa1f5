from __future__ import annotations

import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tidalecon.cost_estimation import (
    CostBasis,
    CostObservation,
    DataConsistencyWarning,
    FixedToTurbineRatio,
    RatioWindowWarning,
    fit_higgins_ratio,
    learning_rate_adjust,
    normalize_observation,
    split_from_ratio,
    split_two_points,
)


def total_obs(n_t: float, total: float, rate: float = 1.0) -> CostObservation:
    return CostObservation(n_t=n_t, cost=total, currency_rate=rate)


class TestNormalizeObservation:
    def test_usd_conversion(self):
        obs = total_obs(2, 16.8, rate=0.79)
        assert normalize_observation(obs) == pytest.approx(13.272)

    def test_per_mw_expansion(self):
        obs = CostObservation(
            n_t=100 / 1.5, cost=2.27, basis=CostBasis.PER_MW, capacity_mw=100.0
        )
        assert normalize_observation(obs) == pytest.approx(227.0)

    def test_identity_rate(self):
        assert normalize_observation(total_obs(5, 12.5)) == 12.5

    def test_per_mw_requires_capacity(self):
        with pytest.raises(ValueError):
            CostObservation(n_t=5, cost=2.0, basis=CostBasis.PER_MW)

    @pytest.mark.parametrize("field", ["n_t", "cost", "capacity_mw", "currency_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected_by_name(self, field, value):
        fields = dict(n_t=5.0, cost=2.0, basis=CostBasis.PER_MW, capacity_mw=7.5)
        with pytest.raises(ValueError, match=f"{field} must be in "):
            CostObservation(**{**fields, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("cost", -1.0, "cost must be in [0, 1e+100], got -1.0"),
        ("currency_rate", 0.0, "currency_rate must be in (0, 1e+100], got 0.0"),
    ])
    def test_out_of_range_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CostObservation(**{"n_t": 5.0, "cost": 2.0, field: value})


class TestSplitTwoPoints:
    def test_iea_capex(self):
        split = split_two_points(
            total_obs(2, 16.8, rate=0.79), total_obs(60, 297.0, rate=0.79)
        )
        assert split.per_turbine == pytest.approx(3.8165, abs=5e-4)
        assert split.fixed == pytest.approx(5.64, abs=5e-3)

    def test_iea_opex(self):
        split = split_two_points(
            total_obs(2, 1.2, rate=0.79), total_obs(60, 8.1, rate=0.79)
        )
        assert split.fixed == pytest.approx(0.760, abs=5e-4)
        assert split.per_turbine == pytest.approx(0.0940, abs=5e-5)

    def test_zero_slope(self):
        split = split_two_points(total_obs(3, 7.5), total_obs(9, 7.5))
        assert split.per_turbine == 0.0
        assert split.fixed == 7.5

    def test_equal_counts_rejected(self):
        with pytest.raises(ValueError):
            split_two_points(total_obs(4, 10.0), total_obs(4, 12.0))

    def test_negative_fixed_warns_but_returns(self):
        with pytest.warns(DataConsistencyWarning):
            split = split_two_points(total_obs(2, 1.0), total_obs(4, 10.0))
        assert split.fixed < 0

    @given(
        fixed=st.floats(min_value=0.1, max_value=50.0),
        per_turbine=st.floats(min_value=0.1, max_value=10.0),
        n1=st.integers(min_value=1, max_value=40),
        delta=st.integers(min_value=1, max_value=60),
    )
    def test_round_trip_recovers_components(self, fixed, per_turbine, n1, delta):
        n2 = n1 + delta
        split = split_two_points(
            total_obs(n1, fixed + per_turbine * n1),
            total_obs(n2, fixed + per_turbine * n2),
        )
        assert split.fixed == pytest.approx(fixed, rel=1e-9, abs=1e-9)
        assert split.per_turbine == pytest.approx(per_turbine, rel=1e-9, abs=1e-9)


class TestSplitFromRatio:
    def test_orec_lower_ratio(self):
        obs = total_obs(100 / 1.5, 227.0)
        split = split_from_ratio(obs, FixedToTurbineRatio(2.3))
        assert split.per_turbine == pytest.approx(3.29, abs=5e-3)
        assert split.fixed == pytest.approx(7.57, abs=5e-3)

    def test_black_veatch_typical(self):
        obs = CostObservation(
            n_t=10 / 1.5, cost=3.2, basis=CostBasis.PER_MW, capacity_mw=10.0
        )
        split = split_from_ratio(obs, FixedToTurbineRatio(2.3))
        assert split.fixed == pytest.approx(8.21, abs=5e-3)
        assert split.per_turbine == pytest.approx(3.57, abs=5e-3)

    def test_zero_ratio_fully_variable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RatioWindowWarning)
            split = split_from_ratio(total_obs(8, 24.0), FixedToTurbineRatio(0.0))
        assert split.fixed == 0.0
        assert split.per_turbine == pytest.approx(3.0)

    def test_ratio_outside_window_warns(self):
        with pytest.warns(RatioWindowWarning):
            FixedToTurbineRatio(8.4)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_ratio_rejected(self, value):
        with pytest.raises(ValueError, match="ratio must be in "):
            FixedToTurbineRatio(value)

    @given(
        total=st.floats(min_value=1.0, max_value=500.0),
        n_t=st.floats(min_value=0.5, max_value=100.0),
        ratio=st.floats(min_value=2.3, max_value=3.9),
    )
    def test_round_trip_reproduces_total(self, total, n_t, ratio):
        split = split_from_ratio(total_obs(n_t, total), FixedToTurbineRatio(ratio))
        assert split.fixed + split.per_turbine * n_t == pytest.approx(total, rel=1e-12)
        assert split.fixed / split.per_turbine == pytest.approx(ratio, rel=1e-12)


class TestLearningRateAdjust:
    def test_single_doubling(self):
        assert learning_rate_adjust(100.0, 0.13, 10.0, 20.0) == pytest.approx(87.0)

    def test_no_doubling_identity(self):
        assert learning_rate_adjust(100.0, 0.42, 55.0, 55.0) == 100.0

    def test_two_doublings(self):
        assert learning_rate_adjust(100.0, 0.19, 10.0, 40.0) == pytest.approx(65.61)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            learning_rate_adjust(100.0, 0.13, 0.0, 10.0)
        with pytest.raises(ValueError):
            learning_rate_adjust(100.0, 1.0, 10.0, 20.0)

    # Each NaN once returned nan.
    @pytest.mark.parametrize("args, message", [
        ((math.nan, 0.1, 10.0, 100.0), "cost must be in [0, 1e+100], got nan"),
        ((-math.inf, 0.1, 10.0, 100.0), "cost must be in [0, 1e+100], got -inf"),
        ((10.0, 0.1, math.nan, 100.0), "installed_from_mw must be in (0, 1e+100], got nan"),
        ((10.0, 0.1, 0.0, 100.0), "installed_from_mw must be in (0, 1e+100], got 0.0"),
        ((10.0, 0.1, 10.0, math.inf), "installed_to_mw must be in (0, 1e+100], got inf"),
        ((10.0, 0.1, 10.0, -5.0), "installed_to_mw must be in (0, 1e+100], got -5.0"),
    ])
    def test_non_finite_cost_or_capacity_rejected_naming_it(self, args, message):
        with pytest.raises(ValueError) as raised:
            learning_rate_adjust(*args)
        assert str(raised.value) == message

    # Inputs inside every field's window once raised OverflowError from the factor, or
    # returned a cost past the window the cost input is held to.
    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.99, 1e100, 1.0), "the factor (1 - learning rate) ** doublings is past float range"),
        ((1e100, 0.5, 1.0, 0.5), "adjusted cost must be in [0, 1e+100], got 2e+100"),
    ])
    def test_result_past_the_window_rejected(self, args, message):
        with pytest.raises(ValueError) as raised:
            learning_rate_adjust(*args)
        assert str(raised.value) == message

    def test_result_at_the_window_edge_accepted(self):
        assert learning_rate_adjust(1e100, 0.5, 1.0, 1.0) == 1e100
        assert learning_rate_adjust(0.5e100, 0.5, 1.0, 0.5) == 1e100

    @given(
        cost=st.floats(min_value=1.0, max_value=1000.0),
        rate=st.floats(min_value=0.0, max_value=0.5),
        a=st.floats(min_value=1.0, max_value=100.0),
        b=st.floats(min_value=1.0, max_value=100.0),
        c=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_multiplicative_over_composed_intervals(self, cost, rate, a, b, c):
        via_b = learning_rate_adjust(learning_rate_adjust(cost, rate, a, b), rate, b, c)
        direct = learning_rate_adjust(cost, rate, a, c)
        assert via_b == pytest.approx(direct, rel=1e-9)


class TestFitHigginsRatio:
    def test_two_exact_points_match_two_point_split(self):
        points = [(4.0, 9.2 + 3.3 * 4), (20.0, 9.2 + 3.3 * 20)]
        ratio = fit_higgins_ratio(points)
        assert ratio.ratio == pytest.approx(9.2 / 3.3, rel=1e-9)

    def test_scale_invariance(self):
        # Floating noise can push the fit a hair past the 3.9 window edge.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RatioWindowWarning)
            for k in (0.5, 1.0, 17.0):
                points = [(n, 3.9 * k + k * n) for n in (2.0, 5.0, 9.0, 30.0)]
                assert fit_higgins_ratio(points).ratio == pytest.approx(3.9, rel=1e-9)

    def test_noisy_recovery_within_five_percent(self):
        rng = random.Random(7)
        true_ratio = 3.1
        slope = 3.3
        points = [
            (n, slope * true_ratio + slope * n + rng.gauss(0.0, 0.3))
            for n in (2.0, 6.0, 10.0, 20.0, 40.0)
        ]
        fitted = fit_higgins_ratio(points)
        assert fitted.ratio == pytest.approx(true_ratio, rel=0.05)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_higgins_ratio([(4.0, 20.0)])

    def test_one_distinct_count_rejected(self):
        with pytest.raises(ValueError, match="^need at least two distinct n_t values$"):
            fit_higgins_ratio([(4.0, 20.0), (4.0, 22.0)])

    def test_counts_too_close_to_fit_rejected(self):
        # Each squared deviation underflows to 0, which once divided by zero.
        with pytest.raises(ValueError, match="^the n_t values are too close to fit a line$"):
            fit_higgins_ratio([(1e-300, 1.0), (2e-300, 2.0)])

    def test_non_positive_slope_rejected(self):
        with pytest.raises(ValueError):
            fit_higgins_ratio([(2.0, 30.0), (10.0, 10.0)])

    @pytest.mark.parametrize("point, field", [
        ((math.nan, 20.0), "n_t"),
        ((math.inf, 20.0), "n_t"),
        ((6.0, math.nan), "total"),
        ((6.0, -math.inf), "total"),
    ])
    def test_non_finite_point_rejected_by_name(self, point, field):
        with pytest.raises(ValueError, match=f"point 1: {field} must be in "):
            fit_higgins_ratio([(2.0, 12.0), point, (10.0, 40.0)])

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=8,
                        unique=True),
        fixed=st.floats(min_value=0.5, max_value=50.0),
        per_turbine=st.floats(min_value=0.1, max_value=10.0),
        noise=st.lists(st.floats(min_value=-0.01, max_value=0.01), min_size=8, max_size=8),
    )
    @settings(deadline=None)
    def test_agrees_with_numpy_polyfit(self, counts, fixed, per_turbine, noise):
        points = [(float(n), (fixed + per_turbine * n) * (1.0 + e))
                  for n, e in zip(counts, noise)]
        slope, intercept = np.polyfit(*zip(*points), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RatioWindowWarning)
            if slope <= 0 or intercept < 0:
                with pytest.raises(ValueError):
                    fit_higgins_ratio(points)
                return
            ratio = fit_higgins_ratio(points).ratio
        assert ratio == pytest.approx(intercept / slope, rel=1e-9, abs=1e-9)

    @given(
        # Thirds of a turbine, like 100 MW / 1.5 MW: fractional but never
        # so close together that the fit is ill-conditioned.
        thirds=st.lists(st.integers(min_value=1, max_value=600), min_size=2, max_size=8,
                        unique=True),
        fixed=st.floats(min_value=0.5, max_value=50.0),
        per_turbine=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_collinear_points_give_the_exact_ratio(self, thirds, fixed, per_turbine):
        points = [(k / 3, fixed + per_turbine * k / 3) for k in thirds]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RatioWindowWarning)
            ratio = fit_higgins_ratio(points).ratio
        assert ratio == pytest.approx(fixed / per_turbine, rel=1e-9)
