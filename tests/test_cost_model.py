from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, strategies as st

from tidalecon.cost_model import (
    ArrayDesign,
    CostParameters,
    TariffScheme,
    build_schedule,
    capex,
    energy_year,
    hours_generating,
    opex_year,
)
from tidalecon.finance_core import MAX_AMOUNT

TYPICAL = CostParameters(ca_f=9.2, ca_t=3.3, o_f=0.32, o_t=0.15)


def design(**kwargs) -> ArrayDesign:
    base = dict(n_t=4, mw_t=1.5, p_avg_mw=3.2, lifetime_years=25, availability=0.95)
    base.update(kwargs)
    return ArrayDesign(**base)


class TestTypes:
    def test_cost_parameters_reject_negative_components(self):
        with pytest.raises(ValueError):
            CostParameters(ca_f=-1.0, ca_t=1.0, o_f=0.1, o_t=0.1)

    def test_design_rejects_power_above_rated_capacity(self):
        with pytest.raises(ValueError):
            design(p_avg_mw=7.0)  # 4 x 1.5 MW = 6 MW rated

    def test_design_rejects_bad_availability(self):
        with pytest.raises(ValueError):
            design(availability=0.0)
        with pytest.raises(ValueError):
            design(availability=[0.95] * 24)  # wrong length

    @pytest.mark.parametrize("field", ["mw_t", "p_avg_mw"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_design_rejects_non_finite_sizes(self, field, value):
        with pytest.raises(ValueError, match=field):
            design(**{field: value})

    def test_design_rejects_infinite_power_beside_an_overflowed_capacity(self):
        # n_t * mw_t was inf at a rating of 1e308, so the capacity bound alone let
        # inf through; the rating's window now stops it first.
        with pytest.raises(ValueError, match=re.escape("mw_t must be in [1e-100, 1e+100], got 1e+308")):
            ArrayDesign(n_t=10, mw_t=1e308, p_avg_mw=math.inf, lifetime_years=20)
        with pytest.raises(ValueError, match=re.escape("p_avg_mw must be in [0, 1e+100], got inf")):
            ArrayDesign(n_t=10, mw_t=MAX_AMOUNT, p_avg_mw=math.inf, lifetime_years=20)

    def test_rating_down_to_the_window_accepted_below_rejected(self):
        # Below 1 / MAX_AMOUNT a break-even capacity factor P_BE / mw_t could overflow.
        low = 1 / MAX_AMOUNT
        assert ArrayDesign(n_t=1, mw_t=low, p_avg_mw=low, lifetime_years=20).mw_t == 1e-100
        for mw_t in (math.nextafter(low, 0.0), 1e-320, 0.0, -1.5):
            with pytest.raises(ValueError, match=re.escape(
                    f"mw_t must be in [1e-100, 1e+100], got {mw_t}")):
                ArrayDesign(n_t=1, mw_t=mw_t, p_avg_mw=0.0, lifetime_years=20)

    @pytest.mark.parametrize("field, value, message", [
        ("electrical_efficiency", 0, "electrical_efficiency must be in (0, 1], got 0"),
        ("availability", [0.95] * 24 + [1.5], "availability in year 25 must be in (0, 1], got 1.5"),
        ("availability", [0.95] * 24 + [math.nan],
         "availability in year 25 must be in (0, 1], got nan"),
        ("availability", [0.0] + [0.95] * 24, "availability in year 1 must be in (0, 1], got 0.0"),
    ])
    def test_design_rejects_out_of_range_fraction(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            design(**{field: value})

    def test_per_year_availability_lookup(self):
        d = design(lifetime_years=3, availability=[0.98, 0.95, 0.90])
        assert d.availability_in_year(1) == 0.98
        assert d.availability_in_year(3) == 0.90

    def test_tariff_must_be_positive(self):
        with pytest.raises(ValueError):
            TariffScheme(t_e=0.0)


class TestCapexOpex:
    def test_typical_four_turbine_capex(self):
        assert capex(TYPICAL, 4) == pytest.approx(22.4, rel=1e-12)

    def test_zero_turbine_fixed_cost(self):
        assert capex(CostParameters(5.6, 3.8, 0.0, 0.0), 0) == 5.6

    def test_pure_linear_capex(self):
        assert capex(CostParameters(0.0, 2.4, 0.0, 0.0), 10) == pytest.approx(24.0)

    def test_typical_opex(self):
        assert opex_year(TYPICAL, 4) == pytest.approx(0.92, rel=1e-12)

    def test_opex_fixed_only(self):
        assert opex_year(CostParameters(0.0, 0.0, 0.27, 0.094), 0) == 0.27

    def test_meygen_opex_bracketed_by_parameter_range(self):
        # Reported GBP 1.4m/year for a four-turbine array sits between the
        # typical (0.92) and pessimistic (0.87 + 4 x 0.26 = 1.91) estimates.
        typical = opex_year(TYPICAL, 4)
        pessimistic = opex_year(CostParameters(14.4, 4.4, 0.87, 0.26), 4)
        assert typical == pytest.approx(0.92)
        assert pessimistic == pytest.approx(1.91)
        assert typical < 1.4 < pessimistic

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            capex(TYPICAL, -1)

    def test_negative_count_rejected_by_opex(self):
        with pytest.raises(ValueError, match=r"^n_t must be in \[0, 1e\+100\], got -1$"):
            opex_year(TYPICAL, -1)

    @given(n=st.integers(min_value=0, max_value=500))
    def test_affine_increments(self, n):
        assert capex(TYPICAL, n + 1) - capex(TYPICAL, n) == pytest.approx(3.3, rel=1e-9)
        assert opex_year(TYPICAL, n + 1) - opex_year(TYPICAL, n) == pytest.approx(
            0.15, rel=1e-9
        )

    @given(n=st.integers(min_value=1, max_value=200))
    def test_capex_per_mw_decreases_with_count(self, n):
        mw_t = 1.5
        per_mw_small = capex(TYPICAL, n) / (n * mw_t)
        per_mw_large = capex(TYPICAL, n + 1) / ((n + 1) * mw_t)
        assert per_mw_large < per_mw_small


class TestEnergyRevenue:
    def test_hours_at_95_percent_availability(self):
        assert hours_generating(design(), 1) == pytest.approx(8322.0)

    def test_hours_full_availability(self):
        assert hours_generating(design(availability=1.0), 1) == 8760.0

    def test_hours_per_year_sequence(self):
        d = design(lifetime_years=2, availability=[0.98, 0.90])
        assert hours_generating(d, 1) == pytest.approx(8584.8)

    def test_year_outside_window_rejected(self):
        with pytest.raises(ValueError):
            hours_generating(design(), 0)
        with pytest.raises(ValueError):
            energy_year(design(), 26)
        # An operating year is a count: 2.0 reads as year 2 on a per-year design,
        # where it once indexed the tuple with a float; True and 1.5 are no year.
        per_year = design(lifetime_years=3, availability=[0.98, 0.95, 0.90])
        assert per_year.availability_in_year(2.0) == per_year.availability_in_year(2) == 0.95
        with pytest.raises(ValueError, match=re.escape("year must be an integer in [1, 3], got True")):
            per_year.availability_in_year(True)
        with pytest.raises(ValueError, match=re.escape("year must be an integer in [1, 25], got 1.5")):
            hours_generating(design(), 1.5)
        with pytest.raises(ValueError, match=re.escape("year must be an integer in [1, 25], got 1.5")):
            energy_year(design(), 1.5)

    def test_energy_meygen_scale(self):
        d = design(n_t=4, mw_t=1.5, p_avg_mw=6.0, availability=0.95)
        assert energy_year(d, 1) == pytest.approx(49932.0)

    def test_energy_zero_power(self):
        assert energy_year(design(p_avg_mw=0.0), 1) == 0.0

    def test_energy_efficiency_halving(self):
        d = design(n_t=1, mw_t=1.5, p_avg_mw=1.0, availability=1.0,
                   electrical_efficiency=0.5)
        assert energy_year(d, 1) == pytest.approx(4380.0)


class TestBuildSchedule:
    def test_typical_schedule_shape(self):
        d = design()
        schedule = build_schedule(d, TYPICAL, TariffScheme(150.0))
        assert schedule.horizon == 25
        assert len(schedule.flows) == 26
        assert schedule.flows[0] == pytest.approx(-22.4)
        expected_operating = energy_year(d, 1) * 150.0 / 1e6 - 0.92
        for year in range(1, 26):
            assert schedule.flows[year] == pytest.approx(expected_operating)

    def test_low_tariff_years_negative(self):
        # Tariff near the market floor: every operating year loses money here.
        d = design(p_avg_mw=0.5)
        schedule = build_schedule(d, TYPICAL, TariffScheme(40.0))
        assert all(schedule.flows[year] < 0 for year in range(1, 26))

    def test_single_year_horizon(self):
        schedule = build_schedule(design(lifetime_years=1), TYPICAL, TariffScheme(150.0))
        assert set(dict(enumerate(schedule.flows))) == {0, 1}

    def test_opex_multipliers(self):
        d = design(lifetime_years=3)
        schedule = build_schedule(
            d, TYPICAL, TariffScheme(150.0), opex_multipliers=[1.0, 2.0, 1.0]
        )
        revenue = energy_year(d, 1) * 150.0 / 1e6
        assert schedule.flows[2] == pytest.approx(revenue - 2 * 0.92)

    # Revenue is computed only inside build_schedule, so its figures are
    # pinned here: an operating year's flow plus its OPEX is the revenue in £m.
    def test_revenue_at_strike_price(self):
        d = design(n_t=4, mw_t=1.5, p_avg_mw=6.0, availability=0.95)
        opex = opex_year(TYPICAL, 4)
        for t_e, revenue in [(150.0, 7.4898), (40.0, 1.99728)]:
            schedule = build_schedule(d, TYPICAL, TariffScheme(t_e))
            assert schedule.flows[1] + opex == pytest.approx(revenue, rel=1e-6)

    def test_revenue_zero_power(self):
        schedule = build_schedule(design(p_avg_mw=0.0), TYPICAL, TariffScheme(150.0))
        assert schedule.flows[1:] == (-opex_year(TYPICAL, 4),) * 25

    @given(scale=st.floats(min_value=0.1, max_value=2.0))
    def test_revenue_linear_in_tariff(self, scale):
        d = design()
        opex = opex_year(TYPICAL, 4)
        base = build_schedule(d, TYPICAL, TariffScheme(150.0)).flows[1] + opex
        scaled = build_schedule(d, TYPICAL, TariffScheme(150.0 * scale)).flows[1] + opex
        assert scaled == pytest.approx(base * scale, rel=1e-12)

    def test_opex_multiplier_length_checked(self):
        with pytest.raises(ValueError):
            build_schedule(design(), TYPICAL, TariffScheme(150.0), opex_multipliers=[1.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_opex_multipliers_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"opex multiplier in year 2 must be in [0, 1e+100], got {value}")):
            build_schedule(design(lifetime_years=3), TYPICAL, TariffScheme(150.0),
                           opex_multipliers=[1.0, value, 1.0])

    def test_year_zero_flow_non_positive(self):
        schedule = build_schedule(design(), CostParameters(0, 0, 0.1, 0.1),
                                  TariffScheme(150.0))
        assert schedule.flows[0] <= 0.0
