from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
import warnings
from collections import Counter
from fractions import Fraction
from functools import partial
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tidalecon import metrics as metrics_module
from tidalecon.cost_model import (
    ArrayDesign,
    CostParameters,
    TariffScheme,
    build_schedule,
    capex,
    energy_year,
)
from tidalecon.finance_core import (
    MAX_AMOUNT,
    MAX_YEARS,
    MIN_RATE,
    CashFlowSchedule,
    Compounding,
    DiscountSpec,
    _factors,
    _sum,
)
from tidalecon.metrics import (
    AmbiguousIrrWarning,
    BreakEvenSpec,
    IrrUndefinedError,
    NoIrrInRangeError,
    NoPaybackError,
    ValidityWindowWarning,
    bep_ev_functional,
    bep_from_capacity_factor,
    bep_functional,
    default_break_even,
    evaluate,
    functional_sweep,
    irr,
    lcoe,
    npv,
    payback_period,
)

from conftest import (
    IRR_NPV_TOLERANCE,
    UNIT,
    descartes_count_oracle,
    exact_continuous_factor,
    exact_factor,
    exact_npv,
    irr_bisection_oracle,
    lcoe_oracle,
    payback_exact_oracle,
    payback_scan_oracle,
    pv_oracle,
    rounding_bound,
    scan_brackets_oracle,
)

TYPICAL_COSTS = dict(ca_f=9.2, ca_t=3.3, o_f=0.32, o_t=0.15)
TYPICAL = CostParameters(**TYPICAL_COSTS)
# NPV proportional to -((1+r)-1.05)((1+r)-1.15): roots at 5% and 15%.
TWO_ROOT_FLOWS = {0: -1.0, 1: 2.2, 2: -1.2075}


def design(**kwargs) -> ArrayDesign:
    base = dict(n_t=4, mw_t=1.5, p_avg_mw=3.2, lifetime_years=25, availability=0.95)
    base.update(kwargs)
    return ArrayDesign(**base)


def schedule_of(flows: dict[int, float]) -> CashFlowSchedule:
    """The dense schedule of a year -> amount mapping; missing years are zero."""
    horizon = max(flows)
    return CashFlowSchedule(horizon, [flows.get(year, 0.0) for year in range(horizon + 1)])


class TestNpv:
    def test_constructed_break_even(self):
        assert npv(schedule_of({0: -100.0, 1: 110.0}), DiscountSpec(0.10)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_typical_design_against_oracle(self):
        d = design()
        spec = DiscountSpec(0.10)
        schedule = build_schedule(d, TYPICAL, TariffScheme(150.0))
        expected = pv_oracle(dict(enumerate(schedule.flows)), 0.10)
        assert npv(schedule, spec) == pytest.approx(expected, rel=1e-9)

    def test_zero_rate_plain_sum(self):
        flows = {0: -5.0, 1: 2.0, 2: 2.0, 3: 2.0}
        assert npv(schedule_of(flows), DiscountSpec(0.0)) == pytest.approx(1.0, rel=1e-12)

    @given(rate_pair=st.tuples(
        st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.001, max_value=0.5)
    ))
    def test_strictly_decreasing_in_rate_for_single_sign_change(self, rate_pair):
        low = rate_pair[0]
        high = low + rate_pair[1]
        schedule = schedule_of({0: -100.0, 1: 30.0, 2: 40.0, 3: 60.0})
        assert npv(schedule, DiscountSpec(low)) > npv(schedule, DiscountSpec(high))


class TestLcoe:
    def test_undiscounted_single_year_ratio(self):
        d = ArrayDesign(n_t=1, mw_t=10.0, p_avg_mw=50000.0 / 8760.0,
                        lifetime_years=1, availability=1.0)
        params = CostParameters(ca_f=10.0, ca_t=0.0, o_f=1.0, o_t=0.0)
        assert lcoe(d, params, DiscountSpec(0.0)) == pytest.approx(220.0, rel=1e-9)

    def test_mid_size_array_against_oracle(self):
        d = design(n_t=10, mw_t=1.5, p_avg_mw=8.0)
        expected = lcoe_oracle(9.2, 3.3, 0.32, 0.15, 10, 8.0, 0.95, 1.0, 25, 0.10)
        assert lcoe(d, TYPICAL, DiscountSpec(0.10)) == pytest.approx(expected, rel=1e-12)

    def test_break_even_identity(self):
        d = design()
        spec = DiscountSpec(0.10)
        tariff = TariffScheme(lcoe(d, TYPICAL, spec))
        value = npv(build_schedule(d, TYPICAL, tariff), spec)
        assert abs(value) < 1e-9 * capex(TYPICAL, d.n_t)

    def test_zero_energy_rejected(self):
        d = design(p_avg_mw=0.0)
        with pytest.raises(ValueError):
            lcoe(d, TYPICAL, DiscountSpec(0.10))

    def test_decreasing_in_turbine_count_at_fixed_per_turbine_power(self):
        spec = DiscountSpec(0.10)
        values = [
            lcoe(design(n_t=n, p_avg_mw=0.8 * n), TYPICAL, spec) for n in (2, 4, 8, 16)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestPaybackPeriod:
    def test_exact_boundary(self):
        flows = {0: -100.0, 1: 50.0, 2: 50.0, 3: 50.0}
        assert payback_period(schedule_of(flows), DiscountSpec(0.0)) == 2.0

    def test_interpolated_half_year(self):
        flows = {0: -100.0, 1: 50.0, 2: 100.0}
        assert payback_period(schedule_of(flows), DiscountSpec(0.0)) == pytest.approx(1.5)

    def test_all_negative_flows_signal(self):
        with pytest.raises(NoPaybackError):
            payback_period(schedule_of({0: -10.0, 1: -1.0}), DiscountSpec(0.0))

    def test_matches_fine_scan_oracle_at_zero_rate(self):
        flows = {0: -100.0, 1: 13.0, 2: 27.0, 3: 41.0, 4: 55.0}
        expected = payback_scan_oracle(flows, 0.0, 4)
        assert payback_period(schedule_of(flows), DiscountSpec(0.0)) == pytest.approx(
            expected, abs=1e-6
        )

    def test_discounted_payback_longer_than_undiscounted(self):
        schedule = build_schedule(design(), TYPICAL, TariffScheme(150.0))
        undiscounted = payback_period(schedule, DiscountSpec(0.0))
        discounted = payback_period(schedule, DiscountSpec(0.10))
        assert discounted > undiscounted

    def test_immediate_payback(self):
        assert payback_period(schedule_of({0: 5.0, 1: 1.0}), DiscountSpec(0.1)) == 0.0


class TestIrr:
    def test_single_period_closed_form(self):
        assert irr(schedule_of({0: -100.0, 1: 110.0})) == pytest.approx(0.10, abs=1e-9)

    def test_two_year_annuity_against_bisection_oracle(self):
        flows = {0: -100.0, 1: 60.0, 2: 60.0}
        expected = irr_bisection_oracle(flows)
        result = irr(schedule_of(flows))
        assert result == pytest.approx(expected, abs=1e-6)
        assert result == pytest.approx(0.13066, abs=1e-5)

    def test_no_sign_change_is_undefined(self):
        with pytest.raises(IrrUndefinedError):
            irr(schedule_of({0: 10.0, 1: 5.0}))
        with pytest.raises(IrrUndefinedError):
            irr(schedule_of({0: -10.0, 1: -5.0}))

    def test_residual_below_tolerance(self):
        schedule = build_schedule(design(), TYPICAL, TariffScheme(150.0))
        rate = irr(schedule)
        assert abs(npv(schedule, DiscountSpec(rate))) < 1e-6

    def test_multiple_roots_returns_smallest_and_warns(self):
        with pytest.warns(AmbiguousIrrWarning):
            result = irr(schedule_of(TWO_ROOT_FLOWS))
        assert result == pytest.approx(0.05, abs=1e-6)

    def test_no_root_in_bracket(self):
        # Sign change in flows but NPV stays negative over the whole bracket.
        with pytest.raises(NoIrrInRangeError):
            irr(schedule_of({0: -100.0, 1: 1.0, 2: -50.0}))

    @given(
        upfront=st.floats(min_value=10.0, max_value=500.0),
        inflow=st.floats(min_value=20.0, max_value=400.0),
        years=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_oracle_on_annuities(self, upfront, inflow, years):
        flows = {0: -upfront}
        flows.update({i: inflow for i in range(1, years + 1)})
        if inflow * years <= upfront * 0.2:
            return
        try:
            expected = irr_bisection_oracle(flows)
        except AssertionError:
            return
        assert irr(schedule_of(flows)) == pytest.approx(expected, abs=1e-6)

    def test_unique_root_beyond_bracket(self):
        # One sign change, so r = 99 is the only root, and it lies above 10.
        with pytest.raises(NoIrrInRangeError):
            irr(schedule_of({0: -1.0, 1: 100.0}))

    def test_small_flows_not_mistaken_for_a_root(self):
        # Every NPV of these flows is below 1e-6 GBP m, so an absolute NPV
        # tolerance would accept the first seed rate.
        assert irr(schedule_of({0: -1e-7, 1: 2e-7})) == pytest.approx(1.0, abs=1e-6)


class TestIrrRuleOfSigns:
    """One sign change means one root on r > -1, so no root isolation is needed."""

    @pytest.fixture
    def no_isolation(self, monkeypatch):
        def fail(flows):
            raise AssertionError("root isolation run for a single sign change")

        monkeypatch.setattr(metrics_module, "_isolate", fail)

    def test_typical_project_skips_scan(self, no_isolation):
        schedule = build_schedule(design(), TYPICAL, TariffScheme(150.0))
        expected = irr_bisection_oracle(dict(enumerate(schedule.flows)))
        assert irr(schedule) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("flows, expected", [
        ({0: -100.0, 1: 110.0}, 0.10),
        ({0: -100.0, 1: 60.0, 2: 60.0}, 0.13066),
        ({0: -100.0, 40: 1.0}, 100.0 ** (-1 / 40) - 1),  # root below the seeds
    ])
    def test_annuities_skip_scan(self, no_isolation, flows, expected):
        rate = irr(schedule_of(flows))
        assert rate == pytest.approx(expected, abs=1e-5)
        assert rate == pytest.approx(irr_bisection_oracle(flows), abs=1e-6)

    def test_two_roots_still_scan(self, monkeypatch):
        calls = []

        def spy(flows):
            calls.append(flows)
            return isolate(flows)

        isolate = metrics_module._isolate
        monkeypatch.setattr(metrics_module, "_isolate", spy)
        assert metrics_module._root_bound(schedule_of(TWO_ROOT_FLOWS).flows) == 2
        with pytest.warns(AmbiguousIrrWarning):
            result = irr(schedule_of(TWO_ROOT_FLOWS))
        assert len(calls) == 1
        assert result == pytest.approx(0.05, abs=1e-6)

    @given(
        upfront=st.floats(min_value=10.0, max_value=1000.0),
        inflows=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=500.0)),
            min_size=1,
            max_size=40,
        ),
    )
    # Roots outside the seeds, bracketed by the grid end: below them on the
    # first and last examples, above them on the second.
    @example(upfront=100.0, inflows=[0.0] * 39 + [1.0])
    @example(upfront=10.0, inflows=[0.0, 0.0, 500.0])
    @example(upfront=10.0, inflows=[0.0] * 10 + [1e-6])
    @settings(max_examples=40, deadline=None)
    def test_capex_then_non_negative_agrees_with_oracle(self, upfront, inflows):
        assume(any(inflows))
        flows = {0: -upfront, **dict(enumerate(inflows, start=1))}
        schedule = schedule_of(flows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AmbiguousIrrWarning)
            try:
                rate = irr(schedule)
            except NoIrrInRangeError:
                with pytest.raises(AssertionError, match="no IRR bracket"):
                    irr_bisection_oracle(flows)
                return
        assert rate == pytest.approx(irr_bisection_oracle(flows), abs=1e-6)
        assert abs(npv(schedule, DiscountSpec(rate))) < IRR_NPV_TOLERANCE


def _level(years: int, amount: float) -> dict[int, float]:
    return {year: amount for year in range(1, years + 1)}


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """Every call ``metrics`` makes of the NPV kernel ``_discounted_sum``.

    The NPVs at the two seeds are not among them: they read factor tables
    built at import with the kernel's own ``base ** exponent``, so they keep
    the kernel's bits without calling it.
    """
    calls = []
    kernel = metrics_module._discounted_sum

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(metrics_module, "_discounted_sum", counting)
    return calls


# float.hex IRRs of schedules that change sign two or more times. The IRR
# search evaluates NPV with the kernel behind ``npv``, so only a change of
# its bracket or stop moves them. The first six moved by up to 8.4e-10 when
# Brent's method from the seeds' bracket replaced a secant that stopped at
# |NPV| < 1e-6; each new value is within 3.3e-10 of ``irr_bisection_oracle``.
SCAN_PATH_IRRS = {
    # overhaul-style: CAPEX, level net revenue, large OPEX hits
    "overhaul1": ({0: -20.0, **_level(20, 3.0), 7: -4.0, 14: -4.0}, "0x1.9cfbeadafc4f1p-4"),
    "overhaul2": ({0: -38.5, **_level(25, 5.25), 5: -9.0, 10: -9.0, 15: -9.0, 20: -9.0},
                  "0x1.e282756e6aa5fp-5"),
    "overhaul3": ({0: -12.0, **_level(30, 1.9), 8: -2.5, 16: -2.5, 24: -2.5},
                  "0x1.02f1281a5c8dfp-3"),
    "overhaul4": ({0: -60.0, **_level(20, 4.4), 10: -25.0}, "-0x1.1e162ca33c214p-9"),
    "overhaul5": ({0: -9.2, **_level(25, 0.8), 6: -1.1, 12: -1.1, 18: -1.1, 24: -1.1},
                  "0x1.bf9a9f03ef5c7p-6"),
    "overhaul6": ({0: -100.0, **_level(40, 9.0), 9: -30.0, 18: -30.0, 27: -30.0, 36: -30.0},
                  "0x1.7cd5f124e9cecp-5"),
    # roots below the seeds, already found by Brent's method before it
    # replaced the secant: these three kept their bits
    "below_seeds1": ({0: -100.0, 20: 1e-3, 21: -1e-3, 40: 1.0}, "-0x1.bd6ff0fdf9dccp-4"),
    "below_seeds2": ({0: -100.0, 10: 1e-4, 11: -2e-4, 39: 1.0}, "-0x1.c8327d94a7c8dp-4"),
    "below_seeds3": ({0: -150.9395279595386, 17: 0.00029976223055331127,
                      18: -0.004661570317237272, 21: 2.4060613401405204},
                     "-0x1.6e6f262f8a0fbp-3"),
}


class TestIrrSeedBracket:
    """With at most one root, NPV at the seeds 0.05 and 0.15 brackets it, or
    else one probe beyond the seeds or the grid end on the root's side."""

    @pytest.mark.parametrize("flows, root", [
        ({0: -1.0, 1: 1.05}, 0.05),
        ({0: -1.0, 1: 1.15}, 0.15),
        ({0: 1.0, 1: -1.05}, 0.05),
        ({0: 1.0, 1: -1.15}, 0.15),
    ])
    def test_exact_zero_at_a_seed_is_returned(self, flows, root):
        schedule = schedule_of(flows)
        assert metrics_module._npv_at_rate(schedule.flows, root) == 0.0
        assert irr(schedule) == root

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("inflow, root", [(101.0, 0.01), (130.0, 0.30)])
    def test_root_below_or_above_the_seeds_agrees_with_oracle(self, sign, inflow, root):
        flows = {0: -100.0 * sign, 1: inflow * sign}
        rate = irr(schedule_of(flows))
        assert rate == pytest.approx(root, abs=1e-12)
        assert rate == pytest.approx(irr_bisection_oracle(flows), abs=1e-9)

    def test_factor_tables_hold_the_kernels_powers(self):
        for seed, table in zip(metrics_module._SEEDS, metrics_module._SEED_FACTORS):
            assert len(table) == MAX_YEARS + 1
            for k, factor in enumerate(table):
                assert factor == (1.0 + seed) ** -float(k)

    @given(flows=st.lists(st.one_of(st.just(0.0), st.floats(-MAX_AMOUNT, MAX_AMOUNT)),
                          min_size=1, max_size=MAX_YEARS + 1))
    @example(flows=[-1.0, 1.1])  # the seeds bracket the root, r = 0.1
    @settings(max_examples=300, deadline=None)
    def test_seed_npvs_are_the_kernels_bit_for_bit(self, flows):
        # The tables' products, added in order from 0.0, are the kernel's NPVs,
        # and every seed at the near end of a bracket carries that NPV.
        kernel = {seed: metrics_module._npv_at_rate(flows, seed).hex()
                  for seed in metrics_module._SEEDS}
        tabled = [_sum(map(mul, flows, table)).hex() for table in metrics_module._SEED_FACTORS]
        assert tabled == list(kernel.values())
        for positive_at_infinity in (True, False):
            bracket = metrics_module._seed_bracket(flows, positive_at_infinity)
            if bracket is not None and bracket[0] in kernel:
                assert bracket[2].hex() == kernel[bracket[0]]
            if bracket is not None and bracket[1] in kernel:
                assert bracket[3].hex() == kernel[bracket[1]]

    def test_seed_npvs_make_no_kernel_call(self, kernel_calls):
        flows = schedule_of({0: -1.0, 1: 1.1}).flows  # the seeds bracket r = 0.1
        assert metrics_module._seed_bracket(flows, False)[:2] == metrics_module._SEEDS
        assert kernel_calls == []

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("inflow", [100.0, 0.005])  # roots at r = 99 and -0.995
    def test_root_beyond_the_grid_end_raises(self, sign, inflow):
        with pytest.raises(NoIrrInRangeError):
            irr(schedule_of({0: -sign, 1: inflow * sign}))


# Every IRR bit, or the exception class, and any warning, of 2,000 seeded
# schedules over the three paths: one sign change, a root bound of at most 1,
# and root isolation. Recorded before the seed NPVs came from factor tables.
PINNED_IRR_SHA256 = "c48ea799e984f9697cf65be43e295187b5c498ce173b1e3c11f90ce69928e2b3"
# The NPV kernel calls of those 2,000 IRRs: 22,446 while the seeds' NPVs were
# kernel calls, 2 fewer for each of the 1,545 that reach ``_seed_bracket``.
PINNED_KERNEL_CALLS = 19_356


def _pinned_flows(rng: random.Random) -> list[float]:
    """A level annuity, an overhaul schedule or random flows, of 2 to 41 years."""
    kind = rng.choice(("annuity", "overhaul", "random"))
    horizon = rng.randint(1, 40)
    if kind == "annuity":
        return [-rng.uniform(1.0, 100.0)] + [rng.uniform(-1.0, 10.0)] * horizon
    if kind == "overhaul":
        period, level, hit = rng.randint(2, 10), rng.uniform(0.1, 20.0), rng.uniform(0.0, 50.0)
        return [-rng.uniform(1.0, 100.0)] + [level - (hit if year % period == 0 else 0.0)
                                              for year in range(1, horizon + 1)]
    return [rng.uniform(-10.0, 10.0) for _ in range(horizon + 1)]


class TestIrrExactness:
    @pytest.mark.parametrize("flows, expected", list(SCAN_PATH_IRRS.values()),
                             ids=list(SCAN_PATH_IRRS))
    def test_scan_path_bits_unchanged(self, flows, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert irr(schedule_of(flows)) == float.fromhex(expected)

    def test_two_roots_bits_and_warning_unchanged(self):
        # The root is r = 0.05; Brent's method on the isolated piece
        # (0, 0.078) stops 2.9e-15 below it.
        with pytest.warns(AmbiguousIrrWarning, match="2 NPV roots bracketed"):
            result = irr(schedule_of(TWO_ROOT_FLOWS))
        assert result == float.fromhex("0x1.99999999997f3p-5")

    def test_bits_pinned_on_every_path(self):
        rng, digest, paths = random.Random(20261019), hashlib.sha256(), Counter()
        for _ in range(2000):
            amounts = _pinned_flows(rng)
            schedule = CashFlowSchedule(len(amounts) - 1, amounts)
            signs = [a > 0 for a in schedule.flows if a]
            changes = sum(a != b for a, b in zip(signs, signs[1:]))
            if changes > 1:
                bound = metrics_module._root_bound(schedule.flows)
                changes = "bound <= 1" if bound in (0, 1) else "isolate"
            paths[changes] += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = irr(schedule).hex()
                except ValueError as err:
                    out = type(err).__name__
            digest.update(" ".join([out, *(str(w.message) for w in caught)]).encode() + b"\n")
        assert min(paths[1], paths["bound <= 1"], paths["isolate"]) >= 300
        assert digest.hexdigest() == PINNED_IRR_SHA256

    def test_kernel_calls_pinned_on_every_path(self, kernel_calls):
        # The same schedules: the kernel calls of isolation, the probes beyond
        # the seeds and Brent's method; the seeds' NPVs read factor tables.
        rng = random.Random(20261019)
        for _ in range(2000):
            amounts = _pinned_flows(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AmbiguousIrrWarning)
                try:
                    irr(CashFlowSchedule(len(amounts) - 1, amounts))
                except (IrrUndefinedError, NoIrrInRangeError):
                    pass
        assert len(kernel_calls) == PINNED_KERNEL_CALLS


_PROFILE = tuple(round(0.97 - 0.004 * year, 3) for year in range(25))
_OVERHAUL = tuple(6.0 if year % 6 == 0 else 1.0 for year in range(1, 26))  # 9 sign changes
# (design, OPEX multipliers, tariff) behind each row of BUILT_SCHEDULE_BITS.
BUILT_SCHEDULES = {
    "scalar": (dict(), None, 150.0),
    "per_year": (dict(availability=_PROFILE), None, 150.0),
    "efficiency": (dict(electrical_efficiency=0.9), None, 170.0),
    "overhaul": (dict(availability=_PROFILE, electrical_efficiency=0.93), _OVERHAUL, 160.0),
    "long": (dict(lifetime_years=100), None, 150.0),
}
BUILT_SPECS = {
    "annual": DiscountSpec(0.10),
    "annual_0.08": DiscountSpec(0.08),
    "continuous": DiscountSpec(0.07, mode=Compounding.CONTINUOUS),
    "annual_near_-1": DiscountSpec(-0.99),  # the window's largest factors, up to 1e200
    "continuous_-0.9": DiscountSpec(-0.9, mode=Compounding.CONTINUOUS),
}
# float.hex of npv, lcoe, payback_period and irr on ``build_schedule``
# schedules, or the exception raised, recorded while the schedule was a
# year -> amount dict built one year at a time. The dense tuple must not move
# a bit. The IRR column moved by at most 8.3e-11 when Brent's method from the
# seeds' bracket replaced the secant, and the LCOE column by at most 7 units
# in the last place when ``lcoe`` took the affine form, 1e6 * (CAPEX + OPEX * F)
# / (P_avg * G). The "long" rows near r = -1 sit at the window's edge, 100
# years, where TestLongHorizonOverflow checks each metric against an exact
# oracle.
BUILT_SCHEDULE_BITS = [
    ("scalar", "annual", "0x1.6081807182215p+2", "0x1.fcdb5521d0c07p+6",
     "0x1.b6254bef6cd38p+3", "0x1.0c212b602872fp-3"),
    ("scalar", "continuous", "0x1.944d1cf7f606cp+3", "0x1.b17514136983ep+6",
     "0x1.57afd10b2adb0p+3", "0x1.0c212b602872fp-3"),
    ("scalar", "annual_0.08", "0x1.4d729ae6c4b1ap+3", "0x1.c56096201275ap+6",
     "0x1.6bd0d499ec8a7p+3", "0x1.0c212b602872fp-3"),
    ("per_year", "annual", "0x1.487d4c6b3aec7p+2", "0x1.0116cf56a18e1p+7",
     "0x1.b5abfabfd0248p+3", "0x1.09a090322c1f9p-3"),
    ("per_year", "continuous", "0x1.7ea17274df267p+3", "0x1.b800ee4c6d6dfp+6",
     "0x1.55752b79ec1e9p+3", "0x1.09a090322c1f9p-3"),
    ("per_year", "annual_0.08", "0x1.3aeab58abdb0bp+3", "0x1.cb9e822a9ac80p+6",
     "0x1.69be0407c7291p+3", "0x1.09a090322c1f9p-3"),
    ("efficiency", "annual", "0x1.8eeac771ea4f5p+2", "0x1.1ab2bd84906afp+7",
     "0x1.9fbf88bb8872bp+3", "0x1.1434c7507cf15p-3"),
    ("efficiency", "continuous", "0x1.b16ebdf1e04e7p+3", "0x1.e19e881591af0p+6",
     "0x1.4aef2a2ca53abp+3", "0x1.1434c7507cf15p-3"),
    ("efficiency", "annual_0.08", "0x1.68bce97eb5e6bp+3", "0x1.f7c0a6ce4d662p+6",
     "0x1.5d2c517e23f39p+3", "0x1.1434c7507cf15p-3"),
    ("overhaul", "annual", "-0x1.05ab0bdf86357p-1", "0x1.14709ce147dd9p+7",
     "NoPaybackError", "0x1.8bf05cff971d6p-4"),
    ("overhaul", "continuous", "0x1.1b65838fd571cp+2", "0x1.d91f47ce0d107p+6",
     "0x1.e81933d23c329p+3", "0x1.8bf05cff971d6p-4"),
    ("overhaul", "annual_0.08", "0x1.73880ca7a3e1ep+1", "0x1.ee36d388a66e6p+6",
     "0x1.06ca163798904p+4", "0x1.8bf05cff971d6p-4"),
    ("long", "annual", "0x1.0afce0d3201acp+3", "0x1.daab80db8e2f4p+6",
     "0x1.b6254bef6cd38p+3", "0x1.191a160f2110dp-3"),
    ("long", "continuous", "0x1.3f6da937f76f8p+4", "0x1.7e5eb01571495p+6",
     "0x1.57afd10b2adb0p+3", "0x1.191a160f2110dp-3"),
    ("long", "annual_near_-1", "0x1.03a9d057f9a87p+666", "0x1.146039180e460p+5",
     "0x1.2a6b0110d6dcbp-4", "0x1.191a160f2110dp-3"),
    ("long", "continuous_-0.9", "0x1.294d30a7fbc6cp+132", "0x1.146039180e45fp+5",
     "0x1.cc381bce3fd44p+0", "0x1.191a160f2110dp-3"),
]
# float.hex of ``evaluate``'s NPV and payback, from F and G, for the rows
# without OPEX multipliers; its LCOE and IRR are the columns above. Each lies
# within the rounding bound of its exact value, as the schedule functions' do.
EVALUATE_BITS = {
    ("scalar", "annual"): ("0x1.6081807182218p+2", "0x1.b6254bef6cd37p+3"),
    ("scalar", "continuous"): ("0x1.944d1cf7f6070p+3", "0x1.57afd10b2adafp+3"),
    ("scalar", "annual_0.08"): ("0x1.4d729ae6c4b18p+3", "0x1.6bd0d499ec8a7p+3"),
    ("per_year", "annual"): ("0x1.487d4c6b3aed0p+2", "0x1.b5abfabfd024ap+3"),
    ("per_year", "continuous"): ("0x1.7ea17274df260p+3", "0x1.55752b79ec1e9p+3"),
    ("per_year", "annual_0.08"): ("0x1.3aeab58abdb04p+3", "0x1.69be0407c7292p+3"),
    ("efficiency", "annual"): ("0x1.8eeac771ea4f0p+2", "0x1.9fbf88bb8872dp+3"),
    ("efficiency", "continuous"): ("0x1.b16ebdf1e04e8p+3", "0x1.4aef2a2ca53abp+3"),
    ("efficiency", "annual_0.08"): ("0x1.68bce97eb5e6cp+3", "0x1.5d2c517e23f3bp+3"),
    ("long", "annual"): ("0x1.0afce0d3201b8p+3", "0x1.b6254bef6cd37p+3"),
    ("long", "continuous"): ("0x1.3f6da937f76fcp+4", "0x1.57afd10b2adafp+3"),
    ("long", "annual_near_-1"): ("0x1.03a9d057f9a87p+666", "0x1.2a6b0110d6dcap-4"),
    ("long", "continuous_-0.9"): ("0x1.294d30a7fbc6dp+132", "0x1.cc381bce3fd44p+0"),
}


class TestBuiltScheduleBits:
    @pytest.mark.parametrize("case, spec_name, npv_bits, lcoe_bits, payback_bits, irr_bits", [
        pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in BUILT_SCHEDULE_BITS
    ])
    def test_metrics_bits_unchanged(self, case, spec_name, npv_bits, lcoe_bits, payback_bits,
                                    irr_bits):
        design_args, multipliers, tariff = BUILT_SCHEDULES[case]
        d = design(**design_args)
        spec = BUILT_SPECS[spec_name]
        schedule = build_schedule(d, TYPICAL, TariffScheme(tariff), multipliers)
        got = []
        for metric, args in ((npv, (schedule, spec)), (lcoe, (d, TYPICAL, spec)),
                             (payback_period, (schedule, spec)), (irr, (schedule,))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    got.append(metric(*args).hex())
                except ValueError as err:
                    got.append(type(err).__name__)
        assert got == [npv_bits, lcoe_bits, payback_bits, irr_bits]

    @pytest.mark.parametrize("case, spec_name, npv_bits, lcoe_bits, payback_bits, irr_bits", [
        pytest.param(*row, id=f"{row[0]}-{row[1]}")
        for row in BUILT_SCHEDULE_BITS if BUILT_SCHEDULES[row[0]][1] is None
    ])
    def test_evaluate_reports_the_pinned_bits(self, case, spec_name, npv_bits, lcoe_bits,
                                              payback_bits, irr_bits):
        # ``evaluate`` takes no OPEX multipliers.
        design_args, _, tariff = BUILT_SCHEDULES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, notes = evaluate(design(**design_args), TYPICAL, TariffScheme(tariff),
                                     BUILT_SPECS[spec_name])
        npv_bits, payback_bits = EVALUATE_BITS[case, spec_name]
        assert [value.hex() for value in values.values()] == [npv_bits, lcoe_bits, payback_bits,
                                                              irr_bits]
        assert notes == {}


@st.composite
def scan_schedules(draw) -> dict[int, float]:
    """Flows that reach the bracket scan, from five families."""
    kind = draw(st.sampled_from(["overhaul", "random_sign", "double_root", "tiny", "long"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "overhaul":  # CAPEX, level net revenue, large OPEX hits
        horizon, period = rng.randint(10, 40), rng.randint(3, 10)
        level, hit = rng.uniform(0.1, 20.0), rng.uniform(0.0, 50.0)
        flows = {0: -rng.uniform(1.0, 100.0)}
        for year in range(1, horizon + 1):
            flows[year] = level - (hit if year % period == 0 else 0.0)
        return flows
    if kind == "double_root":  # -c (x - b1)(x - b2) in x = 1 + r, roots close together
        b1 = 1.0 + rng.uniform(-0.9, 5.0)
        b2 = b1 * (1.0 + draw(st.sampled_from([1e-9, 1e-6, 1e-3, 1e-2])))
        c = rng.uniform(0.1, 100.0)
        return {0: -c, 1: c * (b1 + b2), 2: -c * b1 * b2}
    if kind == "long":  # 60-100 years, flows up to 1e13: factors up to 1e200 near r = -0.99
        horizon, big = rng.randint(60, 100), 10.0 ** rng.uniform(0.0, 13.0)
        flows = {0: -big * rng.uniform(1.0, 10.0)}
        for year in range(1, horizon + 1):
            flows[year] = rng.uniform(-0.3, 1.0) * big / 10
        flows[rng.randint(60, horizon)] = -big * rng.uniform(1.0, 1e3)
        return flows
    scale = 10.0 ** rng.uniform(-12.0, -4.0) if kind == "tiny" else 1.0
    return {year: scale * rng.uniform(-10.0, 10.0) for year in range(rng.randint(1, 40) + 1)}


# NPV at r = -0.9 is exactly 0.0 (found by adjusting the last bit of the
# year-2 flow). z = 1 + r = 0.1 is the geometric midpoint of 0.01 and 1, so
# r = -0.9 is the first split point of (-0.99, 0), which holds the other
# root, r = -0.5, too.
ZERO_AT_SPLIT_POINT_FLOWS = {0: -1.0, 1: 0.6, 2: -0.04999999999999999}
# Width in log(1 + r) of a cell of the exhaustive scan's grid.
GRID_CELL = math.log(1100.0) / 2000


def _isolated_rates(flows) -> list[tuple[float, float]]:
    """The rates of ``_isolate``'s brackets, after checking that the NPVs each
    bracket carries are the kernel's at its ends, bit for bit."""
    brackets = metrics_module._isolate(flows)
    for low, high, f_low, f_high in brackets:
        kernel = [metrics_module._npv_at_rate(flows, rate).hex() for rate in (low, high)]
        assert [f_low.hex(), f_high.hex()] == kernel
    return [(low, high) for low, high, _, _ in brackets]


def _record_counts(patch: pytest.MonkeyPatch) -> list:
    """Every ``_sign_changes`` call made while ``patch`` holds: its arguments,
    then its result."""
    calls = []
    count = metrics_module._sign_changes

    def recording(*args):
        calls.append((*args, count(*args)))
        return calls[-1][-1]

    patch.setattr(metrics_module, "_sign_changes", recording)
    return calls


def _apart(roots: list[float]) -> bool:
    """Whether consecutive roots lie more than two grid cells apart in log(1 + r)."""
    logs = [math.log1p(root) for root in roots]
    return all(b - a > 2 * GRID_CELL for a, b in zip(logs, logs[1:]))


class TestRootIsolation:
    """Descartes' rule on pieces of the bracket certifies that a piece holds no
    root or exactly one. Every count it certifies must be the exact count, and
    its roots must be the exhaustive scan's wherever they lie apart."""

    @given(flows=scan_schedules())
    @settings(max_examples=100, deadline=None)
    def test_counts_are_exact_and_roots_match_the_exhaustive_scan(self, flows):
        assume(len({a > 0 for a in flows.values() if a}) == 2)  # as irr isolates only then
        dense = schedule_of(flows).flows
        with pytest.MonkeyPatch.context() as patch:
            calls = _record_counts(patch)
            brackets = metrics_module._isolate(dense)
        for coefficients, lo, hi, result in calls:
            if result is not None:
                assert result == descartes_count_oracle(coefficients, lo, hi)
        assert [bracket[:2] for bracket in brackets] == _isolated_rates(dense)
        # Each call that does not settle its piece splits it in two. When
        # every leaf piece is settled, none was left to the kernel's signs at
        # the ends of a narrow piece, and the roots are all there are.
        settled = sum(result in (0, 1) for *_, result in calls)
        roots = [metrics_module._brent(dense, *bracket, 0.0) for bracket in brackets]
        if settled == len(calls) - settled + 2 and _apart(roots):
            assert len(roots) == len(scan_brackets_oracle(dense))

    def test_roots_above_the_bracket_raise(self):
        # NPV is 1/(1+r)**2 - 0.13/(1+r) + 0.004, with roots at r = 11.5 and
        # 19: the root bound of 2 sends it to isolation, which brackets none.
        schedule = CashFlowSchedule(2, [0.004, -0.13, 1.0])
        assert metrics_module._root_bound(schedule.flows) == 2
        assert metrics_module._isolate(schedule.flows) == []
        with pytest.raises(NoIrrInRangeError):
            irr(schedule)

    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_counts_stay_exact_where_products_underflow(self, rng):
        # Flows of 1e-320 to 1e-300: the transform's products leave the
        # normal float range, which the margin's absolute term covers.
        scale = 10.0 ** rng.uniform(-320.0, -300.0)
        flows = [scale * rng.uniform(-10.0, 10.0) for _ in range(rng.randint(10, 50))]
        lo = metrics_module._dyadic(rng.uniform(0.01, 0.9))
        hi = metrics_module._dyadic(min(1.0, lo * math.exp(rng.uniform(0.004, 3.0))))
        count = metrics_module._sign_changes(flows, lo, hi)
        if count is not None:
            assert count == descartes_count_oracle(flows, lo, hi)

    @pytest.mark.parametrize("flows", [
        {0: -1.0, 1: 2.2, 2: -1.2},  # NPV at r = 0 is 2.2e-16; the other root r = 0.2
        {0: -1.0, 1: 2.25, 2: -1.25},  # NPV at r = 0 is exactly 0.0; the other root r = 0.25
    ], ids=["near_zero", "exact_zero"])
    def test_root_at_the_zero_rate_split(self, flows):
        with pytest.warns(AmbiguousIrrWarning, match="2 NPV roots"):
            assert irr(schedule_of(flows)) == 0.0

    def test_exact_zero_at_a_split_point(self):
        schedule = schedule_of(ZERO_AT_SPLIT_POINT_FLOWS)
        assert metrics_module._npv_at_rate(schedule.flows, -0.9) == 0.0
        rates = _isolated_rates(schedule.flows)
        assert len(rates) == len(scan_brackets_oracle(schedule.flows)) == 2
        assert rates[0] == (-0.9, -0.9) and rates[1][0] < -0.5 < rates[1][1]
        with pytest.warns(AmbiguousIrrWarning, match="2 NPV roots bracketed"):
            assert irr(schedule) == -0.9

    def test_long_horizon_needs_few_transforms(self, monkeypatch):
        # 100 years, the window's longest: a flow of 1e8 a year, -3e7 every
        # seventh year, and a -5e11 hit in year 50. The root bound is 3, so
        # the roots are isolated; the one root is near r = -0.12.
        flows = {0: -5e8, **{y: 1e8 * (1.0 if y % 7 else -0.3) for y in range(1, 101)},
                 50: -5e11}
        assert metrics_module._root_bound(schedule_of(flows).flows) == 3
        calls = _record_counts(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AmbiguousIrrWarning)
            rate = irr(schedule_of(flows))
        assert rate == pytest.approx(irr_bisection_oracle(flows), abs=1e-9)
        assert len(calls) <= 8

    @pytest.mark.parametrize("flows", [TWO_ROOT_FLOWS, SCAN_PATH_IRRS["overhaul2"][0]],
                             ids=["two_roots", "overhaul"])
    def test_one_irr_needs_few_npvs(self, kernel_calls, flows):
        # The exhaustive scan of the 2001-point grid makes 2001 kernel calls.
        # This counts every call of the kernel during one irr: isolation and
        # Brent's method.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmbiguousIrrWarning)
            irr(schedule_of(flows))
        assert 0 < len(kernel_calls) <= 16


class TestRootCountBound:
    """Running sums of the flows bound NPV's roots on r > -1, so a schedule
    with several sign changes but a bound of at most 1 skips the scan."""

    @given(flows=scan_schedules())
    @settings(max_examples=200, deadline=None)
    def test_never_below_the_exhaustive_scan(self, flows):
        dense = schedule_of(flows).flows
        bound = metrics_module._root_bound(dense)
        if bound is not None:  # None: a running sum too near zero to trust its sign
            assert bound >= len(scan_brackets_oracle(dense))

    @pytest.mark.parametrize("flows, expected", list(SCAN_PATH_IRRS.values()),
                             ids=list(SCAN_PATH_IRRS))
    def test_one_root_schedules_skip_the_scan(self, monkeypatch, flows, expected):
        def fail(flows):
            raise AssertionError("root isolation run under a root bound of 1")

        monkeypatch.setattr(metrics_module, "_isolate", fail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert irr(schedule_of(flows)) == float.fromhex(expected)

    def test_overhaul_irr_needs_few_npvs(self, kernel_calls):
        # The certified scan made 79 kernel calls on this schedule.
        irr(schedule_of(SCAN_PATH_IRRS["overhaul2"][0]))
        assert 0 < len(kernel_calls) < 20

    @pytest.mark.parametrize("flows", [{0: -100.0, 40: 1.0},
                                       SCAN_PATH_IRRS["below_seeds1"][0]])
    def test_secant_fallback_needs_few_npvs(self, kernel_calls, flows):
        # Both roots lie near r = -0.11, below the seeds, where a secant that
        # once ran first gave up. Bisecting a grid cell found afresh made 55
        # and 59 kernel calls; Brent's method needs no more than 25.
        irr(schedule_of(flows))
        assert 0 < len(kernel_calls) <= 25

    def test_loss_making_annuity_needs_few_npvs(self, kernel_calls):
        # IRR about -0.0067. An unbracketed secant from the seeds wandered
        # between -0.41 and 0.15 for all 200 of its iterations here, 214
        # kernel calls in all, before Brent's method took over.
        flows = {0: -100.0, **_level(30, 3.0)}
        assert irr(schedule_of(flows)) == pytest.approx(irr_bisection_oracle(flows), abs=1e-9)
        assert 0 < len(kernel_calls) <= 15

    @given(
        upfront=st.floats(min_value=1.0, max_value=100.0),
        level=st.floats(min_value=0.1, max_value=20.0),
        hit=st.floats(min_value=0.0, max_value=50.0),
        period=st.integers(min_value=2, max_value=10),
        horizon=st.integers(min_value=5, max_value=40),
    )
    # Roots below the seeds: r = -0.837 on the first and -0.022 on the second.
    @example(upfront=4.0, level=0.6, hit=27.1, period=8, horizon=18)
    @example(upfront=52.3, level=11.3, hit=21.3, period=2, horizon=35)
    @settings(max_examples=60, deadline=None)
    def test_overhaul_under_a_bound_of_one_agrees_with_oracle(
        self, upfront, level, hit, period, horizon
    ):
        flows = {0: -upfront}
        flows.update((year, level - (hit if year % period == 0 else 0.0))
                     for year in range(1, horizon + 1))
        schedule = schedule_of(flows)
        bound = metrics_module._root_bound(schedule.flows)
        assume(bound is not None and bound <= 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AmbiguousIrrWarning)
            try:
                rate = irr(schedule)
            except (IrrUndefinedError, NoIrrInRangeError):
                with pytest.raises(AssertionError, match="no IRR bracket"):
                    irr_bisection_oracle(flows)
                return
        # An IRR is held to |NPV| < 1e-6, so where NPV is flat (slope -0.15
        # at a root near r = 4.5) the rate may be off by 1e-6 / |slope|.
        expected = irr_bisection_oracle(flows)
        slope = (pv_oracle(flows, expected + 1e-6) - pv_oracle(flows, expected - 1e-6)) / 2e-6
        assert rate == pytest.approx(expected, abs=1e-6 + IRR_NPV_TOLERANCE / abs(slope))
        # Near r = -1 the discounted flows can reach 1e14 (the first example's
        # root is r = -0.837), where no float rate gives |NPV| < 1e-6. There
        # NPV must change sign within 1e-14 of the rate instead.
        residual = npv(schedule, DiscountSpec(rate))
        if abs(residual) >= IRR_NPV_TOLERANCE:
            step = 1e-14 * (1.0 + abs(rate))
            below, above = (npv(schedule, DiscountSpec(rate + d)) for d in (-step, step))
            assert (below > 0) != (above > 0)

    @pytest.mark.parametrize("flows", [
        {0: -1.0, 1: 2.0, 2: -1.2, 3: 0.5},  # an interior zero: T_1 is 0
        {0: 1e-300, 1: -2e-300, 2: 1e-300},  # beyond the normal float range
        {0: -100.0, **{year: 1.0 for year in range(1, 101)}},  # 101 flows totalling 0.0
    ])
    def test_uncertain_sums_give_no_bound(self, flows):
        assert metrics_module._root_bound(schedule_of(flows).flows) is None

    @pytest.mark.parametrize("flows, bound", [
        (SCAN_PATH_IRRS["overhaul1"][0], 1),
        ({0: -1.0, 1: 2.2, 2: -1.2075}, 2),
    ])
    def test_zero_end_years_leave_the_bound_unchanged(self, flows, bound):
        # Leading zeros multiply NPV by a power of 1/(1+r) and trailing zeros
        # lower its degree in 1/(1+r): no root moves.
        amounts = schedule_of(flows).flows
        assert metrics_module._root_bound(amounts) == bound
        for padded in ((0.0, *amounts), (*amounts, 0.0), (0.0, 0.0, *amounts, 0.0)):
            assert metrics_module._root_bound(padded) == bound

    def test_schedule_starting_in_year_1_skips_the_scan(self, monkeypatch):
        flows, expected = SCAN_PATH_IRRS["overhaul1"]
        late = {year + 1: amount for year, amount in flows.items()}

        def fail(flows):
            raise AssertionError("root isolation run under a root bound of 1")

        monkeypatch.setattr(metrics_module, "_isolate", fail)
        assert irr(schedule_of(late)) == pytest.approx(float.fromhex(expected), abs=1e-9)


# The window's corner: 100 years, CAPEX at MAX_AMOUNT, the other amounts
# near it, and availability that keeps the flows negative until year 100,
# whose factor is the largest, so payback falls in that year.
EDGE_DESIGN = ArrayDesign(n_t=4, mw_t=1e96, p_avg_mw=1e96, lifetime_years=MAX_YEARS,
                          availability=[0.5] * (MAX_YEARS - 1) + [1.0])
EDGE_COSTS = CostParameters(ca_f=MAX_AMOUNT, ca_t=0.0, o_f=6e99, o_t=0.0)
EDGE_TARIFF = TariffScheme(1e6)  # revenue in GBP m is energy in MWh: up to 8.76e99
# Each spec with the exact discount factor of a year under it.
EDGE_SPECS = {
    "annual": (DiscountSpec(MIN_RATE), partial(exact_factor, MIN_RATE)),
    "continuous": (DiscountSpec(-0.9, mode=Compounding.CONTINUOUS),
                   partial(exact_continuous_factor, -0.9)),
    "continuous_min_rate": (DiscountSpec(MIN_RATE, mode=Compounding.CONTINUOUS),
                            partial(exact_continuous_factor, MIN_RATE)),
}


class TestLongHorizonOverflow:
    """At the window's edge, 100 years at r = -0.99, the discount factors reach
    1e200 and the discounted sums 1e300: no metric may overflow, and each must
    match its exact oracle. Inside the window no fallback path is needed."""

    @pytest.mark.parametrize("spec_name", list(EDGE_SPECS))
    def test_metrics_at_the_window_edge_match_exact_oracles(self, spec_name):
        spec, factor = EDGE_SPECS[spec_name]
        schedule = build_schedule(EDGE_DESIGN, EDGE_COSTS, EDGE_TARIFF)
        flows = dict(enumerate(schedule.flows))
        factors = [factor(year) for year in range(MAX_YEARS + 1)]
        exact_npv = sum(Fraction(amount) * f for amount, f in zip(schedule.flows, factors))
        cost = Fraction(EDGE_COSTS.ca_f) + sum(Fraction(EDGE_COSTS.o_f) * f for f in factors[1:])
        energy = sum(Fraction(energy_year(EDGE_DESIGN, year)) * factors[year]
                     for year in range(1, MAX_YEARS + 1))
        expected_payback = payback_exact_oracle(flows, factor, MAX_YEARS)
        assert 99 < expected_payback < 100

        values = {
            "npv": npv(schedule, spec),
            "lcoe": lcoe(EDGE_DESIGN, EDGE_COSTS, spec),
            "payback": payback_period(schedule, spec),
            "irr": irr(schedule),
        }
        # The bundle's F and G take no fallback either, and LCOE and IRR keep their bits.
        evaluated, notes = evaluate(EDGE_DESIGN, EDGE_COSTS, EDGE_TARIFF, spec)
        assert notes == {} and [evaluated["lcoe"], evaluated["irr"]] == [values["lcoe"],
                                                                         values["irr"]]
        for got in (values, evaluated):
            assert got["npv"] == pytest.approx(float(exact_npv), rel=1e-12)
            assert got["lcoe"] == pytest.approx(float(cost * 10**6 / energy), rel=1e-12)
            assert got["payback"] == pytest.approx(expected_payback, rel=1e-12)
            assert got["irr"] == pytest.approx(irr_bisection_oracle(flows), abs=1e-9)

    def test_longest_annuity_irr_matches_oracle(self):
        # NPV at r = -0.99 is about 12 * 1e200; the root is still found.
        flows = {0: -100.0, **_level(MAX_YEARS, 12.0)}
        rate = irr(schedule_of(flows))
        assert rate == pytest.approx(irr_bisection_oracle(flows), abs=1e-9)
        assert npv(schedule_of(flows), DiscountSpec(rate)) == pytest.approx(
            0.0, abs=IRR_NPV_TOLERANCE)

    def test_irr_counts_the_flow_of_year_100(self):
        # 101 flows, one sign change. The IRR search reads each year's exponent
        # from a table of years 0..MAX_YEARS; were it a year short, ``zip``
        # would drop year 100's flow without an error.
        rates = []
        for last in (1.5, 2.5):
            flows = {0: -100.0, **_level(MAX_YEARS, 1.5), MAX_YEARS: last}
            schedule = schedule_of(flows)
            assert len(schedule.flows) == MAX_YEARS + 1
            rates.append(irr(schedule))
            assert npv(schedule, DiscountSpec(rates[-1])) == pytest.approx(
                0.0, abs=IRR_NPV_TOLERANCE)
            assert rates[-1] == pytest.approx(irr_bisection_oracle(flows), abs=1e-9)
        assert rates[0] < rates[1]

    def test_never_paying_back_is_reported_not_overflowed(self):
        flows = {0: -50.0, **_level(MAX_YEARS, -1.0)}
        with pytest.raises(NoPaybackError, match="through year 100"):
            payback_period(schedule_of(flows), DiscountSpec(MIN_RATE))


class TestDesignWindow:
    """One check per design evaluation, before its year loop, bounds CAPEX, a
    year's OPEX, peak energy and peak revenue by MAX_AMOUNT."""

    @pytest.mark.parametrize("costs, p_avg, tariff, message", [
        (dict(ca_t=MAX_AMOUNT), 3.2, 150.0, "CAPEX must be <= 1e+100 GBP m"),
        (dict(o_t=MAX_AMOUNT), 3.2, 150.0, "OPEX per year must be <= 1e+100 GBP m"),
        ({}, 2e97, 150.0, "peak energy p_avg_mw * 8760 must be <= 1e+100 MWh"),
        ({}, 1e95, 1e10, "peak revenue must be <= 1e+100 GBP m"),
    ], ids=["capex", "opex", "energy", "revenue"])
    def test_amount_beyond_the_window_is_rejected_naming_it(self, costs, p_avg, tariff,
                                                            message):
        params = CostParameters(**{**TYPICAL_COSTS, **costs})
        d = design(mw_t=1e97, p_avg_mw=p_avg)
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(d, params, TariffScheme(tariff), DiscountSpec(0.10))
        if "revenue" not in message:  # lcoe takes no tariff
            with pytest.raises(ValueError, match=re.escape(message)):
                lcoe(d, params, DiscountSpec(0.10))

    def test_energy_beyond_float_range_is_rejected_not_lcoe_zero(self):
        # p_avg_mw * 8760 was inf at a power of 1e306, where lcoe once returned a
        # silent 0.0 and evaluate a message about the flow of year 1; the power's
        # window now rejects 1e306, and at its top both give the peak-energy check.
        with pytest.raises(ValueError, match=re.escape("p_avg_mw must be in [0, 1e+100], got 1e+306")):
            ArrayDesign(n_t=1, mw_t=MAX_AMOUNT, p_avg_mw=1e306, lifetime_years=20)
        d = ArrayDesign(n_t=1, mw_t=MAX_AMOUNT, p_avg_mw=MAX_AMOUNT, lifetime_years=20)
        message = "peak energy p_avg_mw * 8760 must be <= 1e+100 MWh, got 8.76e+103"
        with pytest.raises(ValueError) as by_lcoe:
            lcoe(d, TYPICAL, DiscountSpec(0.10))
        with pytest.raises(ValueError) as by_evaluate:
            evaluate(d, TYPICAL, TariffScheme(150.0), DiscountSpec(0.10), ("lcoe",))
        assert str(by_lcoe.value) == str(by_evaluate.value) == message


class TestBreakEvenPower:
    def test_constructed_unity(self):
        # 0.876 GBP m over one full year of 8760 hours at 100 GBP/MWh: 1 MW.
        d = design(lifetime_years=1, availability=1.0)
        params = CostParameters(ca_f=9.2, ca_t=0.876, o_f=0.32, o_t=0.0)
        assert default_break_even(d, params, TariffScheme(100.0)) == pytest.approx(1.0)

    def test_demo_design_keeps_its_bits(self):
        # The demo config's P_BE, which its golden CLI files print.
        p_be = default_break_even(design(), TYPICAL, TariffScheme(150.0))
        assert p_be.hex() == "0x1.cea873aa1cea8p-3"
        assert repr(p_be) == "0.2259072338380197"

    def test_literature_reference_magnitude_usable(self):
        # A published 452 kW break-even power is a valid downstream input.
        spec = BreakEvenSpec(p_be_mw=0.452)
        assert bep_functional(6.0, spec, 4) == pytest.approx(4.192)

    def test_doubling_tariff_halves_result(self):
        # Doubling is exact in binary, so the halving is bit for bit.
        params = CostParameters(ca_f=9.2, ca_t=0.0, o_f=0.32, o_t=0.5)
        base = default_break_even(design(lifetime_years=2), params, TariffScheme(100.0))
        assert default_break_even(design(lifetime_years=2), params, TariffScheme(200.0)) == base / 2

    # Zero per-turbine costs give 0; a subnormal availability, or a tiny one at
    # a subnormal tariff, gives inf; hours times tariff rounding to 0.0 gives 0/0;
    # an availability of 1e-305 gives a finite value past the window's 1e100.
    @pytest.mark.parametrize("params, availability, t_e, value", [
        (CostParameters(ca_f=9.2, ca_t=0.0, o_f=0.32, o_t=0.0), 0.95, 150.0, "0"),
        (TYPICAL, 1e-320, 150.0, "inf"),
        (TYPICAL, 1e-10, 1e-310, "inf"),
        (TYPICAL, 5e-324, 1e-10, "nan"),
        (TYPICAL, 1e-305, 150.0, "2.14612e+304"),
    ], ids=["zero_costs", "subnormal_availability", "subnormal_tariff", "no_weighted_hours",
            "past_the_window"])
    def test_value_not_positive_and_finite_is_rejected(self, params, availability, t_e, value):
        message = (f"break-even power derived from the per-turbine costs is {value} MW, "
                   "not in (0, 1e+100]; a 'break_even' block sets it")
        with pytest.raises(ValueError) as raised:
            default_break_even(design(availability=availability), params, TariffScheme(t_e))
        assert str(raised.value) == message


class TestBepHelpers:
    def test_capacity_factor_conversion(self):
        assert bep_from_capacity_factor(2.0, 0.40) == 0.8

    def test_full_capacity_identity(self):
        assert bep_from_capacity_factor(1.7, 1.0) == 1.7

    def test_uk_average_capacity_factor(self):
        assert bep_from_capacity_factor(1.5, 0.299) == pytest.approx(0.4485)

    def test_out_of_range_factor_rejected(self):
        with pytest.raises(ValueError):
            bep_from_capacity_factor(2.0, 0.0)
        with pytest.raises(ValueError):
            bep_from_capacity_factor(2.0, 1.2)

    @pytest.mark.parametrize("p_be, ev", [
        (float("nan"), 0.0), (float("inf"), 0.0), (0.4, float("nan")), (0.4, float("inf")),
    ])
    def test_non_finite_break_even_rejected(self, p_be, ev):
        with pytest.raises(ValueError, match=r"must be in [\[(]0, 1e\+100\], got -?(nan|inf)$"):
            BreakEvenSpec(p_be_mw=p_be, ev_mw_per_turbine=ev)

    # Inside the window |J| <= ~1e200 and |J_ev| <= ~1e300, so no score overflows.
    @pytest.mark.parametrize("p_be, ev, message", [
        (math.nextafter(MAX_AMOUNT, math.inf), 0.0,
         "p_be_mw must be in (0, 1e+100], got 1.0000000000000002e+100"),
        (1e308, 0.0, "p_be_mw must be in (0, 1e+100], got 1e+308"),
        (0.4, 1e308, "ev_mw_per_turbine must be in [0, 1e+100], got 1e+308"),
    ], ids=["p_be-past-the-bound", "p_be-1e308", "ev-1e308"])
    def test_break_even_beyond_the_window_rejected(self, p_be, ev, message):
        with pytest.raises(ValueError) as raised:
            BreakEvenSpec(p_be_mw=p_be, ev_mw_per_turbine=ev)
        assert str(raised.value) == message

    def test_break_even_at_the_bound_accepted(self):
        bep = BreakEvenSpec(p_be_mw=MAX_AMOUNT, ev_mw_per_turbine=MAX_AMOUNT)
        assert bep_functional(0.0, bep, 10**100) == -(1e100 * 1e100)
        with pytest.warns(ValidityWindowWarning):
            assert math.isfinite(bep_ev_functional(0.0, bep, 10**100))

    def test_functional_zero_at_break_even(self):
        spec = BreakEvenSpec(p_be_mw=0.5)
        assert bep_functional(2.0, spec, 4) == pytest.approx(0.0)

    def test_functional_no_turbines(self):
        assert bep_functional(6.0, BreakEvenSpec(p_be_mw=0.452), 0) == 6.0

    @pytest.mark.parametrize("functional", [bep_functional, bep_ev_functional])
    def test_negative_count_rejected(self, functional):
        with pytest.raises(ValueError, match=r"^n_t must be in \[0, 1e\+100\], got -1$"):
            functional(6.0, BreakEvenSpec(p_be_mw=0.452), -1)

    def test_ev_functional_reduces_to_plain(self):
        spec = BreakEvenSpec(p_be_mw=0.4, ev_mw_per_turbine=0.0)
        for n in range(0, 10):
            assert bep_ev_functional(5.0, spec, n) == bep_functional(5.0, spec, n)

    def test_ev_functional_sensitive_region_value(self):
        spec = BreakEvenSpec(p_be_mw=0.4, ev_mw_per_turbine=0.001)
        assert bep_ev_functional(10.0, spec, 20) == pytest.approx(2.4)

    def test_ev_quadratic_identity(self):
        spec = BreakEvenSpec(p_be_mw=0.4, ev_mw_per_turbine=0.002)
        for n in (0, 3, 11, 40):
            difference = bep_ev_functional(8.0, spec, n) - bep_functional(8.0, spec, n)
            assert difference == pytest.approx(0.002 * n * n, rel=1e-12, abs=1e-12)

    def test_validity_window_warning(self):
        spec = BreakEvenSpec(p_be_mw=0.4, ev_mw_per_turbine=0.01)
        with pytest.warns(ValidityWindowWarning):
            bep_ev_functional(10.0, spec, 45)


class TestFunctionalSweep:
    @staticmethod
    def sweep(curve, bep, **design_kwargs):
        template = design(mw_t=5.0, **design_kwargs)
        return functional_sweep(
            curve, template, TYPICAL, TariffScheme(150.0), DiscountSpec(0.10), bep
        )

    def test_single_sample_matches_direct_calls(self):
        bep = BreakEvenSpec(p_be_mw=0.452)
        rows = self.sweep([(4, 3.2)], bep)
        assert len(rows) == 1
        row = rows[0]
        d = design(mw_t=5.0)
        assert row["j_bep_mw"] == bep_functional(3.2, bep, 4)
        assert row["npv_gbp_m"] == pytest.approx(
            npv(build_schedule(d, TYPICAL, TariffScheme(150.0)), DiscountSpec(0.10))
        )
        assert row["lcoe_gbp_per_mwh"] == pytest.approx(lcoe(d, TYPICAL, DiscountSpec(0.10)))
        assert row["power_per_device_mw"] == pytest.approx(0.8)

    def test_concave_curve_argmax_ordering(self):
        # P(n) = a n - b n^2: raw power peaks later than the costed score.
        a, b = 1.0, 0.005
        curve = [(n, max(a * n - b * n * n, 0.0)) for n in range(1, 120)]
        bep = BreakEvenSpec(p_be_mw=0.4)
        rows = self.sweep(curve, bep)
        best_power = max(rows, key=lambda r: r["p_avg_mw"])["n_t"]
        best_j = max(rows, key=lambda r: r["j_bep_mw"])["n_t"]
        assert best_j < best_power

    def test_zero_power_curve_all_npv_negative(self):
        rows = self.sweep([(n, 0.0) for n in (1, 2, 3)], BreakEvenSpec(p_be_mw=0.4))
        assert all(row["npv_gbp_m"] < 0 for row in rows)
        assert all(row["lcoe_gbp_per_mwh"] is None for row in rows)

    def test_undefined_values_are_none_with_notes(self):
        # At the window's edge every NPV is defined; zero power leaves LCOE undefined.
        template, spec = design(mw_t=5.0, lifetime_years=MAX_YEARS), DiscountSpec(MIN_RATE)
        rows = functional_sweep([(4, 3.2), (5, 0.0)], template, TYPICAL, TariffScheme(150.0),
                                spec, BreakEvenSpec(p_be_mw=0.4))
        assert "notes" not in rows[0]
        assert rows[0]["npv_gbp_m"] == npv(build_schedule(template, TYPICAL, TariffScheme(150.0)),
                                           spec)
        assert rows[1]["lcoe_gbp_per_mwh"] is None
        assert rows[1]["notes"] == {
            "lcoe_gbp_per_mwh": "discounted energy is zero; LCOE is undefined",
        }
        assert "notes" not in self.sweep([(4, 3.2)], BreakEvenSpec(p_be_mw=0.4))[0]
        # So little discounted energy that cost per MWh overflows leaves LCOE
        # undefined too: a subnormal power, or a tiny one at the rate window's top.
        for p_avg_mw, rate in ((1e-320, 0.10), (1e-220, 1e100)):
            rows = functional_sweep([(4, p_avg_mw)], design(mw_t=5.0), TYPICAL, TariffScheme(150.0),
                                    DiscountSpec(rate), BreakEvenSpec(p_be_mw=0.4))
            assert rows[0]["lcoe_gbp_per_mwh"] is None
            assert re.fullmatch(r"cost per MWh overflows at \S+ MWh; LCOE is undefined",
                                rows[0]["notes"]["lcoe_gbp_per_mwh"])
            with pytest.raises(ValueError, match="cost per MWh overflows"):
                lcoe(design(p_avg_mw=p_avg_mw), TYPICAL, DiscountSpec(rate))

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            self.sweep([], BreakEvenSpec(p_be_mw=0.4))

    def test_duplicate_counts_rejected(self):
        with pytest.raises(ValueError):
            self.sweep([(4, 3.0), (4, 3.1)], BreakEvenSpec(p_be_mw=0.4))

    def test_non_integral_count_rejected_naming_n_t(self):
        message = r"^n_t must be an integer in \[1, 1e\+100\], got 2.5$"
        with pytest.raises(ValueError, match=message):
            self.sweep([(2.5, 1.0)], BreakEvenSpec(p_be_mw=0.4))

    def test_boolean_count_rejected_naming_n_t(self):
        # True is an int equal to 1, but not a turbine count.
        message = r"^n_t must be an integer in \[1, 1e\+100\], got True$"
        with pytest.raises(ValueError, match=message):
            self.sweep([(True, 1.0)], BreakEvenSpec(p_be_mw=0.4))

    def test_count_past_float_range_rejected_naming_n_t(self):
        # A whole number past float range once raised OverflowError from ``float``.
        message = r"^n_t must be an integer in \[1, 1e\+100\], got an integer of 401 digits$"
        with pytest.raises(ValueError, match=message):
            self.sweep([(10**400, 1.0)], BreakEvenSpec(p_be_mw=0.4))

    def test_integral_float_count_accepted(self):
        bep = BreakEvenSpec(p_be_mw=0.4, ev_mw_per_turbine=0.01)
        rows = self.sweep([(3.0, 2.4), (5.0, 3.5)], bep)
        assert rows == self.sweep([(3, 2.4), (5, 3.5)], bep)
        assert [type(row["n_t"]) for row in rows] == [int, int]

    @pytest.mark.parametrize("availability", [
        0.95, [0.9 + 0.003 * year for year in range(25)],
    ], ids=["scalar", "per-year"])
    @pytest.mark.parametrize("spec", [
        DiscountSpec(0.10), DiscountSpec(0.12, mode=Compounding.CONTINUOUS),
        DiscountSpec(MIN_RATE), DiscountSpec(MIN_RATE, mode=Compounding.CONTINUOUS),
    ], ids=["annual", "continuous", "window-edge", "continuous-window-edge"])
    def test_rows_equal_evaluate_on_the_substituted_design(self, availability, spec):
        shape = dict(mw_t=5.0, availability=availability, electrical_efficiency=0.9)
        template = design(**shape)
        tariff, bep = TariffScheme(150.0), BreakEvenSpec(p_be_mw=0.4, ev_mw_per_turbine=0.01)
        curve = [(1, 0.0), (3.0, 2.4), (4, 3.2), (12, 41.5), (7, 35.0)]
        rows = functional_sweep(curve, template, TYPICAL, tariff, spec, bep)
        assert len(rows) == len(curve)
        for (n_t, p_avg), row in zip(curve, rows):
            substituted = design(**shape, n_t=int(n_t), p_avg_mw=float(p_avg))
            values, notes = evaluate(substituted, TYPICAL, tariff, spec, ("npv", "lcoe"))
            expected = {
                "n_t": int(n_t),
                "p_avg_mw": float(p_avg),
                "power_per_device_mw": float(p_avg) / n_t,
                "j_bep_mw": bep_functional(p_avg, bep, n_t),
                "j_bep_ev_mw": bep_ev_functional(p_avg, bep, n_t),
                "npv_gbp_m": values["npv"],
                "lcoe_gbp_per_mwh": values["lcoe"],
            }
            if notes:  # only LCOE can be undefined: zero power
                expected["notes"] = {"lcoe_gbp_per_mwh": notes.pop("lcoe")}
            assert notes == {} and repr(row) == repr(expected)
        assert "notes" in rows[0] and "notes" not in rows[1]

    @pytest.mark.parametrize("sample, message", [
        ((4, 20.5), "p_avg_mw 20.5 must lie in [0, rated capacity 20.0]"),
        ((4, math.nan), "p_avg_mw must be in [0, 1e+100], got nan"),
        ((4, math.inf), "p_avg_mw must be in [0, 1e+100], got inf"),
        ((4, -1.0), "p_avg_mw must be in [0, 1e+100], got -1.0"),
        ((0, 0.0), "n_t must be an integer in [1, 1e+100], got 0"),
    ], ids=["above-capacity", "nan", "inf", "negative", "no-turbines"])
    def test_row_outside_the_design_window_raises_array_designs_message(self, sample, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            design(mw_t=5.0, n_t=sample[0], p_avg_mw=sample[1])
        with pytest.raises(ValueError, match=re.escape(message)):
            self.sweep([(2, 1.0), sample], BreakEvenSpec(p_be_mw=0.4))


@st.composite
def evaluate_inputs(draw) -> tuple[ArrayDesign, CostParameters, TariffScheme, DiscountSpec]:
    """Designs, costs and discounting for ``evaluate``, including zero CAPEX, zero
    power, per-year availability, and long horizons at rates near -1 whose
    factors reach the window's largest, 1e200."""
    if draw(st.booleans()):
        lifetime, rate = draw(st.integers(1, 40)), draw(st.floats(-0.5, 0.5))
    else:
        lifetime, rate = draw(st.integers(60, MAX_YEARS)), draw(st.floats(MIN_RATE, -0.9))
    n_t, mw_t = draw(st.integers(1, 40)), draw(st.floats(0.5, 2.0))
    availability = draw(st.one_of(
        st.floats(0.5, 1.0), st.lists(st.floats(0.5, 1.0), min_size=lifetime, max_size=lifetime)))
    d = ArrayDesign(n_t=n_t, mw_t=mw_t, lifetime_years=lifetime, availability=availability,
                    p_avg_mw=draw(st.one_of(st.just(0.0), st.floats(0.0, n_t * mw_t))),
                    electrical_efficiency=draw(st.floats(0.8, 1.0)))
    capital = draw(st.sampled_from([0.0, 1.0]))
    params = CostParameters(ca_f=capital * draw(st.floats(5.0, 15.0)),
                            ca_t=capital * draw(st.floats(2.0, 5.0)),
                            o_f=draw(st.floats(0.0, 1.0)), o_t=draw(st.floats(0.0, 0.3)))
    spec = DiscountSpec(rate, draw(st.sampled_from(Compounding)))
    return d, params, TariffScheme(draw(st.floats(20.0, 400.0))), spec


# Roundings behind each year's amount before it is discounted, relative to
# that year's |revenue| + |OPEX| (|CAPEX| at year 0), beyond the discounted
# sum's own: 6 in either form. ``build_schedule``'s revenue takes 5 (energy
# 3, tariff 1, 1e6 1) and the year's subtraction 1. The bundle's takes 2 for
# the hours, 2 for P_avg * t_e / 1e6, 1 for its product with G and 2 for the
# two subtractions, less the one G's sum of L terms saves against the
# schedule's L + 1. OPEX and CAPEX take fewer in both.
FORMED = 6


def model_amounts(d: ArrayDesign, params: CostParameters, tariff: TariffScheme):
    """The model's exact flows of years 0..L, -CAPEX and then revenue - OPEX, from
    the float inputs; the magnitudes the rounding bound weighs, |CAPEX| and then
    |revenue| + |OPEX|; and the exact discounted cost and energy terms of LCOE."""
    availability = d.availability if isinstance(d.availability, tuple) else (
        (d.availability,) * d.lifetime_years)
    capital = Fraction(params.ca_f) + Fraction(params.ca_t) * d.n_t
    opex = Fraction(params.o_f) + Fraction(params.o_t) * d.n_t
    energies = [Fraction(d.p_avg_mw) * 8760 * Fraction(a) * Fraction(d.electrical_efficiency)
                for a in availability]
    revenues = [energy * Fraction(tariff.t_e) / 10**6 for energy in energies]
    flows = [-capital, *(revenue - opex for revenue in revenues)]
    magnitudes = [float(capital), *(float(revenue + opex) for revenue in revenues)]
    return flows, magnitudes, [capital, *[opex] * d.lifetime_years], [0, *energies]


def assert_within(got: float, exact: Fraction, bound: float) -> None:
    assert abs(Fraction(got) - exact) <= bound, (got, float(exact), bound)


def assert_paybacks_agree(got, expected, cumulative: list[float], bounds: list[float]):
    """``got`` and ``expected`` are paybacks whose cumulative flows, ``expected``'s
    being ``cumulative``, each lie within ``bounds`` of the exact ones. Where both
    cross in year k, the interpolated fractions may differ by the two forms'
    errors at years k - 1 and k over the rise in year k, and by 2 * (k + 3)
    units for the interpolation's own roundings. Where they differ in the
    crossing year, or one never crosses, the cumulative flow of the year where
    they part must be within twice its bound of zero."""
    if got is not None and expected is not None and math.ceil(got) == math.ceil(expected):
        k = math.ceil(expected)
        if k == 0:
            assert got == expected == 0.0
            return
        rise = cumulative[k] - cumulative[k - 1]
        tolerance = 2 * (bounds[k - 1] + bounds[k]) / rise + 2 * (k + 3) * UNIT
        assert abs(got - expected) <= tolerance, (got, expected, tolerance)
    elif got != expected:
        parted = min(math.ceil(p) for p in (got, expected) if p is not None)
        assert abs(cumulative[parted]) <= 2 * bounds[parted], (got, expected)


class TestEvaluate:
    def test_unknown_name_rejected_listing_valid_ones(self):
        with pytest.raises(ValueError, match="'bogus'; valid names: npv, lcoe, payback, irr"):
            evaluate(design(), TYPICAL, TariffScheme(150.0), DiscountSpec(0.10), ("npv", "bogus"))

    def test_values_and_notes_match_the_metric_functions(self):
        d, tariff, spec = design(), TariffScheme(40.0), DiscountSpec(0.10)
        schedule = build_schedule(d, TYPICAL, tariff)
        values, notes = evaluate(d, TYPICAL, tariff, spec)
        assert [values["lcoe"], values["payback"], values["irr"]] == [
            lcoe(d, TYPICAL, spec), None, irr(schedule)]
        # NPV from F and G, the schedule's from its flows: each within the bound.
        flows, magnitudes, _, _ = model_amounts(d, TYPICAL, tariff)
        for got in (values["npv"], npv(schedule, spec)):
            assert_within(got, exact_npv(flows, spec), rounding_bound(magnitudes, spec, FORMED))
        with pytest.raises(NoPaybackError) as err:
            payback_period(schedule, spec)
        assert notes == {"payback": str(err.value)}

    @given(inputs=evaluate_inputs())
    @example(inputs=(design(lifetime_years=100), TYPICAL, TariffScheme(150.0),
                     DiscountSpec(-0.99)))  # the window's edge: factors up to 1e200
    @example(inputs=(design(lifetime_years=100), TYPICAL, TariffScheme(150.0),
                     DiscountSpec(-0.99, mode=Compounding.CONTINUOUS)))
    @example(inputs=(design(lifetime_years=60), TYPICAL, TariffScheme(150.0),
                     DiscountSpec(-0.97)))
    @example(inputs=(design(n_t=1, mw_t=2.0, p_avg_mw=2.0, lifetime_years=3,
                            availability=(1.0, 0.1, 1.0)),
                     CostParameters(0.0, 0.0, 1.0, 0.3), TariffScheme(100.0),
                     DiscountSpec(0.10)))  # flows 0, +, -, +: two IRRs, and a warning
    @settings(max_examples=300, deadline=None)
    def test_bundle_agrees_with_the_metric_functions_within_the_bound(self, inputs):
        # LCOE and IRR are the functions' bits. NPV from F and G and the
        # schedule's NPV each lie within the rounding bound of the exact NPV,
        # and payback agrees with the schedule's within the bounds of its
        # cumulative flows; LCOE lies within the bounds of its cost and energy.
        d, params, tariff, spec = inputs
        # The bound is relative: no input so small that a product of it underflows.
        assume(all(x == 0 or x > 1e-200 for x in (d.p_avg_mw, *params._values())))
        schedule = build_schedule(d, params, tariff)
        expected_values, expected_notes = {}, {}
        # Both sides record their warnings (several IRR roots warn), so none escapes.
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            for name, function, args in (
                ("npv", npv, (schedule, spec)),
                ("lcoe", lcoe, (d, params, spec)),
                ("payback", payback_period, (schedule, spec)),
                ("irr", irr, (schedule,)),
            ):
                try:
                    expected_values[name] = function(*args)
                except ValueError as err:
                    expected_values[name] = None
                    expected_notes[name] = str(err)
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            values, notes = evaluate(d, params, tariff, spec)
        assert repr([values["lcoe"], values["irr"]]) == repr(
            [expected_values["lcoe"], expected_values["irr"]])
        assert [(w.category, str(w.message)) for w in got_warnings] == [
            (w.category, str(w.message)) for w in expected_warnings]

        flows, magnitudes, costs, energies = model_amounts(d, params, tariff)
        for got in (values["npv"], expected_values["npv"]):
            assert_within(got, exact_npv(flows, spec), rounding_bound(magnitudes, spec, FORMED))
        if values["lcoe"] is not None:
            cost, energy = exact_npv(costs, spec), exact_npv(energies, spec)
            exact = cost * 10**6 / energy
            relative = rounding_bound(energies, spec, FORMED) / energy + 2 * UNIT
            if cost:  # no cost: both LCOEs are 0
                relative += rounding_bound(costs, spec, FORMED) / cost
            assert_within(values["lcoe"], exact, relative * float(exact))
        factors = _factors(spec, range(len(flows)))
        cumulative = list(itertools.accumulate(map(mul, schedule.flows, factors)))
        bounds = [rounding_bound(magnitudes[:k + 1], spec, FORMED) for k in range(len(flows))]
        assert_paybacks_agree(values["payback"], expected_values["payback"], cumulative, bounds)
        # Notes match, but for a payback one form finds within its bound of zero.
        parted = {"payback"} if (values["payback"] is None) != (
            expected_values["payback"] is None) else set()
        assert {k: v for k, v in notes.items() if k not in parted} == {
            k: v for k, v in expected_notes.items() if k not in parted}

    @pytest.mark.parametrize("d, params, undefined, crossing_year", [
        (design(), TYPICAL, set(), 10),
        (design(), CostParameters(0.0, 0.0, 0.32, 0.15), {"irr"}, 0),  # no CAPEX
        (design(mw_t=10.0, p_avg_mw=30.0), TYPICAL, set(), 1),
        (design(lifetime_years=10), TYPICAL, set(), 10),
        (design(p_avg_mw=0.0), TYPICAL, {"lcoe", "payback", "irr"}, None),
    ], ids=["all-defined", "payback-year-0", "payback-year-1", "payback-year-L",
            "three-undefined"])
    def test_every_subset_equals_the_full_bundle_restricted(self, d, params, undefined,
                                                            crossing_year):
        tariff, spec = TariffScheme(150.0), DiscountSpec(0.05)
        full_values, full_notes = evaluate(d, params, tariff, spec)
        assert set(full_notes) == undefined
        payback = full_values["payback"]
        assert (None if payback is None else math.ceil(payback)) == crossing_year
        subsets = [names for size in range(1, 5)
                   for names in itertools.combinations(metrics_module.METRIC_NAMES, size)]
        assert len(subsets) == 15
        for names in subsets:
            # Named in reverse, reported in METRIC_NAMES order all the same.
            values, notes = evaluate(d, params, tariff, spec, names[::-1])
            assert list(values.items()) == [(k, v) for k, v in full_values.items() if k in names]
            assert list(notes.items()) == [(k, v) for k, v in full_notes.items() if k in names]

    def test_non_finite_flow_rejected_as_build_schedule_rejects_it(self):
        # Year 1's revenue is past the window (inf at a tariff of 1e305, which its
        # own window now rejects): evaluate rejects the peak revenue before its
        # year loop, build_schedule the flow.
        d = design(mw_t=1e4, p_avg_mw=1e4)
        message = "peak revenue must be <= 1e+100 GBP m, got 8.759999999999999e+101"
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(d, TYPICAL, TariffScheme(MAX_AMOUNT), DiscountSpec(0.10), ("lcoe",))
        with pytest.raises(ValueError, match=r"flow for year 1 must be in \[-1e\+100, 1e\+100\]"):
            build_schedule(d, TYPICAL, TariffScheme(MAX_AMOUNT))

    def test_default_break_even_is_break_even_power_over_efficiency(self):
        # The net figure, with no efficiency, divided by the efficiency, bit for bit.
        net = default_break_even(design(lifetime_years=3), TYPICAL, TariffScheme(150.0))
        d = design(electrical_efficiency=0.8, lifetime_years=3)
        assert default_break_even(d, TYPICAL, TariffScheme(150.0)) == net / 0.8
        # Against the exact quotient of the float inputs: ten roundings at most.
        exact = (Fraction(3.3) + 3 * Fraction(0.15)) * 10**6 / (3 * 8760 * Fraction(0.95) * 150)
        assert net == pytest.approx(float(exact), rel=10 * 2.0**-53)


class TestArgmaxInvariance:
    def test_scaling_tariff_and_expenditures_preserves_argmax(self):
        curve = [(n, max(1.0 * n - 0.005 * n * n, 0.0)) for n in range(1, 120)]

        def argmax(scale: float) -> int:
            params = CostParameters(ca_f=9.2, ca_t=3.3 * scale, o_f=0.32, o_t=0.15 * scale)
            spec = BreakEvenSpec(p_be_mw=default_break_even(design(), params,
                                                            TariffScheme(150.0 * scale)))
            scores = {n: bep_functional(p, spec, n) for n, p in curve}
            return max(scores, key=scores.get)

        assert argmax(1.0) == argmax(3.7) == argmax(0.2)
