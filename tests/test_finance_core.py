from __future__ import annotations

import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tidalecon.cost_estimation import (
    CostBasis,
    CostObservation,
    FixedToTurbineRatio,
    RatioWindowWarning,
    fit_higgins_ratio,
    learning_rate_adjust,
)
from tidalecon.cost_model import (
    ArrayDesign,
    CostParameters,
    TariffScheme,
    build_schedule,
    capex,
    opex_year,
)
from tidalecon.finance_core import (
    MAX_AMOUNT,
    MAX_YEARS,
    MIN_RATE,
    CashFlowSchedule,
    Compounding,
    DiscountSpec,
    _discounted_sum,
    discount_factor,
    present_value,
)
from tidalecon.metrics import (
    IRR_BRACKET,
    BreakEvenSpec,
    bep_ev_functional,
    bep_from_capacity_factor,
    bep_functional,
)

from conftest import (
    exact_continuous_factor,
    exact_factor,
    exact_npv,
    pv_oracle,
    rounding_bound,
)


class TestDiscountSpec:
    def test_rejects_rate_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            DiscountSpec(annual_rate=-1.0)
        with pytest.raises(ValueError):
            DiscountSpec(annual_rate=-1.5)

    def test_discrete_compounding_is_annual_only(self):
        with pytest.raises(TypeError, match="periods_per_year"):
            DiscountSpec(annual_rate=0.1, periods_per_year=4)

    def test_continuous_mode_is_kept(self):
        spec = DiscountSpec(annual_rate=0.1, mode=Compounding.CONTINUOUS)
        assert spec.mode is Compounding.CONTINUOUS


class TestCashFlowSchedule:
    def test_rejects_non_finite_flow(self):
        with pytest.raises(ValueError):
            CashFlowSchedule(horizon=1, flows=[float("nan"), 0.0])

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            CashFlowSchedule(horizon=-1, flows=[])

    def test_dense_tuple_year_zero_first(self):
        schedule = CashFlowSchedule(3, [-10, 0.0, 4.5, 0])
        assert schedule.flows == (-10.0, 0.0, 4.5, 0.0)
        assert all(type(amount) is float for amount in schedule.flows)
        assert schedule.flows[2] == 4.5

    def test_mapping_rejected_naming_the_dense_form(self):
        # Iterating this dict would read its years 0, 1, 2 as the flows.
        with pytest.raises(TypeError, match="yearly amounts, year 0 first, not a mapping"):
            CashFlowSchedule(2, {0: -1.0, 1: 0.5, 2: 0.7})

    @pytest.mark.parametrize("flows, message", [
        ([1.0, 0.0, math.inf, 0.0], "flow for year 2 must be in [-1e+100, 1e+100], got inf"),
        ([0.0, math.nan, 0.0, math.inf], "flow for year 1 must be in [-1e+100, 1e+100], got nan"),
        ([0.0, 1.0, -math.inf, 0.0], "flow for year 2 must be in [-1e+100, 1e+100], got -inf"),
        ([0.0, 1.0, 2.0], "need 4 yearly flows, got 3"),
    ], ids=["inf", "first-in-year-order", "minus-inf", "too-few"])
    def test_rejects_bad_flows_with_a_message(self, flows, message):
        with pytest.raises(ValueError) as err:
            CashFlowSchedule(horizon=3, flows=flows)
        assert str(err.value) == message


class TestDiscountFactor:
    def test_twenty_year_reduction_at_ten_percent(self):
        # The published 85% present-value reduction at 20 years.
        spec = DiscountSpec(annual_rate=0.10)
        assert discount_factor(spec, 20) == pytest.approx(0.14864, rel=1e-4)

    def test_zero_rate_identity(self):
        for mode in Compounding:
            spec = DiscountSpec(annual_rate=0.0, mode=mode)
            assert discount_factor(spec, 7) == 1.0

    def test_continuous_matches_exponential(self):
        spec = DiscountSpec(annual_rate=0.10, mode=Compounding.CONTINUOUS)
        assert discount_factor(spec, 1) == pytest.approx(math.exp(-0.1), rel=1e-12)
        assert discount_factor(spec, 1) == pytest.approx(0.904837, rel=1e-6)

    def test_unity_at_year_zero(self):
        assert discount_factor(DiscountSpec(annual_rate=0.3), 0) == 1.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            discount_factor(DiscountSpec(annual_rate=0.1), -1)

    def test_accepts_fractional_years(self):
        spec = DiscountSpec(annual_rate=0.10)
        assert discount_factor(spec, 0.5) == pytest.approx(1.1 ** -0.5, rel=1e-12)

    @given(
        rate=st.floats(min_value=0.0, max_value=1.0),
        years=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_discrete_dominates_continuous(self, rate, years):
        discrete = discount_factor(DiscountSpec(annual_rate=rate), years)
        continuous = discount_factor(
            DiscountSpec(annual_rate=rate, mode=Compounding.CONTINUOUS), years
        )
        # At rates near machine epsilon both factors are ~1.0 and rounding
        # can flip the ordering by a few ulps, hence the absolute slack.
        assert discrete >= continuous - 1e-12
        if years == 0:
            assert discrete == continuous == 1.0

    @given(rate=st.floats(min_value=0.01, max_value=1.0))
    def test_strictly_decreasing_in_time(self, rate):
        spec = DiscountSpec(annual_rate=rate)
        factors = [discount_factor(spec, i) for i in range(30)]
        assert all(a > b for a, b in zip(factors, factors[1:]))


class TestPresentValue:
    def test_constructed_break_even(self):
        schedule = CashFlowSchedule(horizon=1, flows=[-100.0, 110.0])
        assert present_value(schedule, DiscountSpec(annual_rate=0.10)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zero_rate_is_plain_sum(self):
        schedule = CashFlowSchedule(horizon=2, flows=[-100.0, 50.0, 50.0])
        assert present_value(schedule, DiscountSpec(annual_rate=0.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_level_annuity_against_spreadsheet_oracle(self):
        flows = {0: -22.4}
        flows.update({i: 3.0 for i in range(1, 26)})
        schedule = CashFlowSchedule(horizon=25, flows=[flows[year] for year in range(26)])
        spec = DiscountSpec(annual_rate=0.10)
        expected = pv_oracle(flows, 0.10)
        assert present_value(schedule, spec) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4.83, abs=5e-3)

    def test_empty_schedule_is_zero(self):
        schedule = CashFlowSchedule(horizon=3, flows=[0.0] * 4)
        assert present_value(schedule, DiscountSpec(annual_rate=0.1)) == 0.0

    def test_rounding_bound_holds_against_exact_npvs(self):
        # 10**4 random schedules of 0..100 years, in both modes, with flows of
        # either sign over six decades; a fifth run 100 years, and a fifth at a
        # rate within 1e-3 of MIN_RATE, where factors reach 1e200.
        rng = random.Random(1302)
        worst = 0.0
        for case in range(10_000):
            horizon = MAX_YEARS if case % 5 == 0 else rng.randint(0, MAX_YEARS)
            top = MIN_RATE + 1e-3 if case % 5 == 1 else 0.5
            spec = DiscountSpec(rng.uniform(MIN_RATE, top), rng.choice(list(Compounding)))
            flows = [math.copysign(10.0 ** rng.uniform(-3.0, 3.0), rng.random() - 0.5)
                     for _ in range(horizon + 1)]
            error = abs(Fraction(present_value(CashFlowSchedule(horizon, flows), spec))
                        - exact_npv(flows, spec))
            bound = rounding_bound(flows, spec)
            assert error <= bound, (flows, spec)
            worst = max(worst, float(error) / bound)
        # The bound is tight to a small factor, not merely true.
        assert 0.05 < worst <= 1.0

    @given(
        rate=st.floats(min_value=0.0, max_value=0.5),
        a=st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
        b=st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
    )
    def test_linearity(self, rate, a, b):
        spec = DiscountSpec(annual_rate=rate)
        sched_a = CashFlowSchedule(horizon=2, flows=a)
        sched_b = CashFlowSchedule(horizon=2, flows=b)
        sched_sum = CashFlowSchedule(horizon=2, flows=[x + y for x, y in zip(a, b)])
        assert present_value(sched_sum, spec) == pytest.approx(
            present_value(sched_a, spec) + present_value(sched_b, spec), abs=1e-9
        )

    @given(
        amounts=st.lists(st.floats(min_value=-1000, max_value=1000), min_size=1, max_size=10)
    )
    def test_zero_rate_equals_arithmetic_sum(self, amounts):
        schedule = CashFlowSchedule(horizon=len(amounts) - 1, flows=amounts)
        assert present_value(schedule, DiscountSpec(annual_rate=0.0)) == pytest.approx(
            sum(amounts), abs=1e-9
        )


class TestDiscountedSumKernel:
    """The one discrete NPV kernel shared by ``present_value`` and ``irr``."""

    @given(
        rate=st.floats(min_value=-0.99, max_value=10.0),
        flows=st.dictionaries(
            st.integers(min_value=0, max_value=60),
            st.floats(min_value=-1e4, max_value=1e4),
            max_size=40,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_exactly_equals_present_value(self, rate, flows):
        schedule = CashFlowSchedule(horizon=60, flows=[flows.get(year, 0.0) for year in range(61)])
        spec = DiscountSpec(annual_rate=rate)
        kernel = _discounted_sum(schedule.flows, range(0, -61, -1), 1.0 + rate)
        per_year = 0.0  # left to right, as the kernel adds on every Python version
        for year, amount in sorted(flows.items()):
            per_year += amount * discount_factor(spec, year)
        assert kernel == present_value(schedule, spec) == per_year


def _costs(**fields) -> CostParameters:
    return CostParameters(**{"ca_f": 9.2, "ca_t": 3.3, "o_f": 0.32, "o_t": 0.15, **fields})


def _design(**fields) -> ArrayDesign:
    # One turbine of the largest rating, so any power in its window fits.
    return ArrayDesign(**{"n_t": 1, "mw_t": MAX_AMOUNT, "p_avg_mw": 1.0, "lifetime_years": 3,
                          **fields})


def _observation(**fields) -> CostObservation:
    return CostObservation(**{"n_t": 4.0, "cost": 2.0, "basis": CostBasis.PER_MW,
                              "capacity_mw": 6.0, **fields})


def _fit(points: list[tuple[float, float]]) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RatioWindowWarning)  # the fitted ratio is not under test
        fit_higgins_ratio(points)


BEP = BreakEvenSpec(p_be_mw=0.4)

# Every model field and argument with a window: the name its error gives, a call
# with that one value free, the window's ends, and whether its low end is open.
# NaN, +-inf and the float just past each end must raise one message shape.
# capex(p, nan), opex_year(p, inf), bep_functional(4.0, b, nan),
# bep_ev_functional(4.0, b, nan) and bep_from_capacity_factor(nan, 0.4) once
# returned nan or inf, and a rate, cost, tariff or rating had no upper bound.
WINDOWS = [
    pytest.param("annual_rate", DiscountSpec, MIN_RATE, MAX_AMOUNT, False, id="annual_rate"),
    *(pytest.param(name, lambda v, name=name: _costs(**{name: v}), 0, MAX_AMOUNT, False, id=name)
      for name in ("ca_f", "ca_t", "o_f", "o_t")),
    pytest.param("t_e", TariffScheme, 0, MAX_AMOUNT, True, id="t_e"),
    pytest.param("mw_t", lambda v: _design(mw_t=v, p_avg_mw=0.0), 1 / MAX_AMOUNT, MAX_AMOUNT,
                 False, id="mw_t"),
    pytest.param("p_avg_mw", lambda v: _design(p_avg_mw=v), 0, MAX_AMOUNT, False, id="p_avg_mw"),
    pytest.param("electrical_efficiency", lambda v: _design(electrical_efficiency=v), 0, 1, True,
                 id="electrical_efficiency"),
    pytest.param("availability", lambda v: _design(availability=v), 0, 1, True, id="availability"),
    pytest.param("availability in year 2", lambda v: _design(availability=[1.0, v, 1.0]), 0, 1,
                 True, id="availability-per-year"),
    pytest.param("p_be_mw", BreakEvenSpec, 0, MAX_AMOUNT, True, id="p_be_mw"),
    pytest.param("ev_mw_per_turbine", lambda v: BreakEvenSpec(0.4, v), 0, MAX_AMOUNT, False,
                 id="ev_mw_per_turbine"),
    pytest.param("years", lambda v: discount_factor(DiscountSpec(0.1), v), 0, MAX_YEARS, False,
                 id="discount_factor-years"),
    pytest.param("n_t", lambda v: capex(_costs(), v), 0, MAX_AMOUNT, False, id="capex-n_t"),
    pytest.param("n_t", lambda v: opex_year(_costs(), v), 0, MAX_AMOUNT, False, id="opex_year-n_t"),
    pytest.param("n_t", lambda v: bep_functional(4.0, BEP, v), 0, MAX_AMOUNT, False,
                 id="bep_functional-n_t"),
    pytest.param("n_t", lambda v: bep_ev_functional(4.0, BEP, v), 0, MAX_AMOUNT, False,
                 id="bep_ev_functional-n_t"),
    pytest.param("p_avg_mw", lambda v: bep_functional(v, BEP, 4), 0, MAX_AMOUNT, False,
                 id="bep_functional-p_avg_mw"),
    pytest.param("p_avg_mw", lambda v: bep_ev_functional(v, BEP, 4), 0, MAX_AMOUNT, False,
                 id="bep_ev_functional-p_avg_mw"),
    pytest.param("rating_mw", lambda v: bep_from_capacity_factor(v, 0.4), 0, MAX_AMOUNT, True,
                 id="bep_from_capacity_factor-rating_mw"),
    pytest.param("capacity_factor", lambda v: bep_from_capacity_factor(2.0, v), 0, 1, True,
                 id="bep_from_capacity_factor-capacity_factor"),
    pytest.param("flow for year 1", lambda v: CashFlowSchedule(2, [0.0, v, 0.0]),
                 -MAX_AMOUNT, MAX_AMOUNT, False, id="flow"),
    pytest.param("opex multiplier in year 2",
                 lambda v: build_schedule(_design(), _costs(), TariffScheme(150.0), [1.0, v, 1.0]),
                 0, MAX_AMOUNT, False, id="opex_multiplier"),
    pytest.param("n_t", lambda v: _observation(n_t=v), 0, MAX_AMOUNT, True, id="observation-n_t"),
    pytest.param("cost", lambda v: _observation(cost=v), 0, MAX_AMOUNT, False,
                 id="observation-cost"),
    pytest.param("capacity_mw", lambda v: _observation(capacity_mw=v), 0, MAX_AMOUNT, True,
                 id="observation-capacity_mw"),
    pytest.param("currency_rate", lambda v: _observation(currency_rate=v), 0, MAX_AMOUNT, True,
                 id="observation-currency_rate"),
    pytest.param("ratio", FixedToTurbineRatio, 0, MAX_AMOUNT, False, id="ratio"),
    pytest.param("cost", lambda v: learning_rate_adjust(v, 0.1, 10.0, 20.0), 0, MAX_AMOUNT, False,
                 id="learning_rate_adjust-cost"),
    pytest.param("installed_from_mw", lambda v: learning_rate_adjust(1.0, 0.1, v, 1.0), 0,
                 MAX_AMOUNT, True, id="learning_rate_adjust-installed_from_mw"),
    pytest.param("installed_to_mw", lambda v: learning_rate_adjust(1.0, 0.1, 1.0, v), 0,
                 MAX_AMOUNT, True, id="learning_rate_adjust-installed_to_mw"),
    pytest.param("point 1: n_t", lambda v: _fit([(1.0, 1.0), (v, v), (2.0, 2.0)]), 0, MAX_AMOUNT,
                 False, id="fit_higgins_ratio-n_t"),
    pytest.param("point 1: total",
                 lambda v: _fit([(0.0, MAX_AMOUNT / 2), (1.0, v), (2.0, MAX_AMOUNT)]), 0,
                 MAX_AMOUNT, False, id="fit_higgins_ratio-total"),
]


@pytest.mark.parametrize("name, call, low, high, open_low", WINDOWS)
def test_one_window_rule(name, call, low, high, open_low):
    for value in (math.nextafter(low, math.inf) if open_low else low, high):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(value)  # a closed end, or the float just inside an open one
        # Both ends of the ratio's window lie outside the supported ratio window.
        assert [w.category for w in caught] == [RatioWindowWarning] * (name == "ratio")
    window = f"{'(' if open_low else '['}{low}, {high}]"
    assert window in ("[0, 1e+100]", "(0, 1e+100]", "(0, 1]", "[-0.99, 1e+100]",
                      "[1e-100, 1e+100]", "[0, 100]", "[-1e+100, 1e+100]")
    past_low = float(low) if open_low else math.nextafter(low, -math.inf)
    for value in (math.nan, math.inf, -math.inf, past_low, math.nextafter(high, math.inf)):
        with pytest.raises(ValueError) as raised:
            call(value)
        assert str(raised.value) == f"{name} must be in {window}, got {value}"


class TestInputWindow:
    """The window checked where inputs enter: at most MAX_YEARS years, rates
    of at least MIN_RATE and amounts of at most MAX_AMOUNT."""

    def test_constants(self):
        assert (MAX_YEARS, MIN_RATE, MAX_AMOUNT) == (100, -0.99, 1e100)
        assert IRR_BRACKET[0] is MIN_RATE

    def test_rate_at_the_bound_accepted_below_rejected(self):
        assert DiscountSpec(MIN_RATE).annual_rate == -0.99
        below = math.nextafter(MIN_RATE, -math.inf)
        message = f"annual_rate must be in [-0.99, 1e+100], got {below}"
        with pytest.raises(ValueError, match=re.escape(message)):
            DiscountSpec(below)

    def test_horizon_at_the_bound_accepted_beyond_rejected(self):
        assert len(CashFlowSchedule(MAX_YEARS, [0.0] * 101).flows) == 101
        with pytest.raises(ValueError, match=r"horizon must be an integer in \[0, 100\], got 101"):
            CashFlowSchedule(MAX_YEARS + 1, [0.0] * 102)

    @pytest.mark.parametrize("flows", [
        [0.0, math.nextafter(MAX_AMOUNT, math.inf)], [0.0, -1e101],
    ])
    def test_flow_beyond_the_bound_rejected(self, flows):
        with pytest.raises(ValueError, match=r"flow for year 1 must be in \[-1e\+100, 1e\+100\]"):
            CashFlowSchedule(1, flows)

    # True is an int in Python, but no count.
    @pytest.mark.parametrize("record, fields, message", [
        (CashFlowSchedule, dict(horizon=True, flows=[0.0, 0.0]),
         "horizon must be an integer in [0, 100], got True"),
        (ArrayDesign, dict(n_t=True, mw_t=1.5, p_avg_mw=1.0, lifetime_years=20),
         "n_t must be an integer in [1, 1e+100], got True"),
        (ArrayDesign, dict(n_t=4, mw_t=1.5, p_avg_mw=1.0, lifetime_years=True),
         "lifetime_years must be an integer in [1, 100], got True"),
    ], ids=["horizon-true", "n_t-true", "lifetime-true"])
    def test_boolean_count_rejected(self, record, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            record(**fields)

    # One count rule for every record: an int, or an integral float or a numpy
    # integer stored as its int, so the record equals, and prints as, one built
    # from the int.
    @pytest.mark.parametrize("field, build, whole", [
        ("n_t", lambda value: ArrayDesign(value, 1.5, 1.0, 20), 4.0),
        ("lifetime_years", lambda value: ArrayDesign(4, 1.5, 1.0, value), 25.0),
        ("horizon", lambda value: CashFlowSchedule(value, [-1.0, 0.5, 0.75]), 2.0),
    ], ids=["n_t", "lifetime_years", "horizon"])
    def test_one_count_rule(self, field, build, whole):
        from_int = build(int(whole))
        for value in (whole, np.int64(whole)):
            record = build(value)
            assert type(getattr(record, field)) is int
            assert (record, hash(record), repr(record)) == (from_int, hash(from_int),
                                                            repr(from_int))
        for value, shown in ((whole + 0.5, whole + 0.5), (math.nan, "nan"), (math.inf, "inf"),
                             (True, "True"), (1e300, "an integer of 301 digits")):
            with pytest.raises(ValueError) as raised:
                build(value)
            assert re.fullmatch(rf"{field} must be an integer in \[\d+, [\de+]+\], "
                                rf"got {re.escape(str(shown))}", str(raised.value))

    # A config value of 1e300 reaches a record as a 301-digit int; echoed in
    # full it made a 300-digit error line.
    # Past Python's 4300-digit limit str() raises, so the count is given.
    @pytest.mark.parametrize("value, digits", [
        (10**400, 401), (int(1e300), 301), (10**5000, 5001), (1 - 10**5000, 5000),
    ], ids=["401-digits", "301-digits", "5001-digits", "minus-5000-digits"])
    @pytest.mark.parametrize("field, build", [
        ("n_t", lambda value: ArrayDesign(value, 1.5, 1.0, 20)),
        ("lifetime_years", lambda value: ArrayDesign(4, 1.5, 1.0, value)),
        ("horizon", lambda value: CashFlowSchedule(value, [])),
    ], ids=["n_t", "lifetime_years", "horizon"])
    def test_huge_integer_echoed_by_its_digit_count(self, field, build, value, digits):
        with pytest.raises(ValueError) as raised:
            build(value)
        message = str(raised.value)
        assert message.startswith(f"{field} must be an integer in [")
        assert message.endswith(f"], got an integer of {digits} digits")
        assert "\n" not in message and len(message) < 200

    def test_digit_count_is_exact_beside_powers_of_ten_and_of_two(self):
        # The count starts from a bound on the bit length; below the limit str() checks it.
        for k in [*range(15, 320), *range(4250, 4300)]:
            for value in (10**k - 1, 10**k, 10**k + 1, 2**k - 1, 2**k):
                if value < 10**15:
                    continue
                with pytest.raises(ValueError) as raised:
                    ArrayDesign(4, 1.5, 1.0, value)
                assert str(raised.value).endswith(f" of {len(str(value))} digits")

    @pytest.mark.parametrize("years", [-1, 100.5, math.nan])
    def test_discount_time_outside_the_window_rejected(self, years):
        with pytest.raises(ValueError, match=r"years must be in \[0, 100\]"):
            discount_factor(DiscountSpec(0.1), years)

    @pytest.mark.parametrize("spec", [
        DiscountSpec(MIN_RATE),
        DiscountSpec(MIN_RATE, mode=Compounding.CONTINUOUS),
    ], ids=["annual", "continuous"])
    def test_largest_amounts_stay_in_float_range(self, spec):
        # The largest factor is 0.01 ** -100 = 1e200 (annual), so the largest
        # NPV of 101 flows of MAX_AMOUNT is about 1.01e300.
        largest = discount_factor(spec, MAX_YEARS)
        assert largest <= 1.000001e200
        schedule = CashFlowSchedule(MAX_YEARS, [MAX_AMOUNT] * (MAX_YEARS + 1))
        assert 0 < present_value(schedule, spec) < 1.02e300

    @pytest.mark.parametrize("mode", list(Compounding), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("rate", [MIN_RATE, -0.5, 0.05, 0.1, 1.0])
    @pytest.mark.parametrize("years", [1, 30, MAX_YEARS])
    def test_factor_across_the_window_matches_the_exact_value(self, mode, rate, years):
        # Discrete: one rounding of the base 1 + r, which the exact value shares,
        # then pow's own. Continuous: the product r * years is rounded before
        # exp, an error of up to |r| * years * 2**-53 in the result.
        if mode is Compounding.DISCRETE:
            exact, bound = exact_factor(rate, years), 2 * 2.0**-53
        else:
            exact, bound = exact_continuous_factor(rate, years), (abs(rate) * years + 2) * 2.0**-53
        got = discount_factor(DiscountSpec(rate, mode), years)
        assert abs(Fraction(got) - exact) <= bound * exact
