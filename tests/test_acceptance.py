"""End-to-end acceptance checks against published reference figures.

Each criterion is one test. Results are collected in SCORECARD and
printed as one PASS/FAIL line per criterion in the terminal summary
(see conftest.pytest_terminal_summary).
"""
from __future__ import annotations

import functools
import json
import random

import pytest

from tidalecon.cli import main
from tidalecon.cost_estimation import (
    CostBasis,
    CostObservation,
    FixedToTurbineRatio,
    RatioWindowWarning,
    learning_rate_adjust,
    split_from_ratio,
    split_two_points,
)
from tidalecon.cost_model import (
    ArrayDesign,
    CostParameters,
    TariffScheme,
    build_schedule,
    capex,
    energy_year,
    opex_year,
)
from tidalecon.finance_core import CashFlowSchedule, DiscountSpec, discount_factor
from tidalecon.metrics import (
    BreakEvenSpec,
    bep_from_capacity_factor,
    bep_functional,
    irr,
    lcoe,
    npv,
    payback_period,
)

from conftest import irr_bisection_oracle, payback_scan_oracle

N_T_10MW = 10.0 / 1.5  # turbine count of a 10 MW array of 1.5 MW devices


SCORECARD: list[tuple[int, str, bool]] = []


def criterion(number: int, title: str):
    """Record one PASS/FAIL scorecard entry per criterion."""

    def decorator(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                SCORECARD.append((number, title, False))
                raise
            SCORECARD.append((number, title, True))
            return result

        return wrapper

    return decorator


def within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def usd_total(n_t: float, usd_m: float) -> CostObservation:
    return CostObservation(n_t=n_t, cost=usd_m, currency_rate=0.79)


@criterion(1, "two-point decomposition of published 2 and 60 turbine totals")
def test_criterion_01_two_point_decomposition():
    ca = split_two_points(usd_total(2, 16.8), usd_total(60, 297.0))
    op = split_two_points(usd_total(2, 1.2), usd_total(60, 8.1))
    assert within(ca.fixed, 5.6, 0.02)
    assert within(ca.per_turbine, 3.8, 0.02)
    assert within(op.fixed, 0.76, 0.02)
    assert within(op.per_turbine, 0.094, 0.02)


@criterion(2, "ratio decomposition of published 100 MW per-MW costs")
def test_criterion_02_ratio_decomposition_100mw():
    n_t = 100.0 / 1.5
    capex_obs = CostObservation(n_t=n_t, cost=2.27, basis=CostBasis.PER_MW,
                                capacity_mw=100.0)
    opex_obs = CostObservation(n_t=n_t, cost=0.08, basis=CostBasis.PER_MW,
                               capacity_mw=100.0)

    low = split_from_ratio(capex_obs, FixedToTurbineRatio(2.3))
    assert within(low.fixed, 7.6, 0.03)
    assert 3.2 <= low.per_turbine <= 3.4

    high = split_from_ratio(capex_obs, FixedToTurbineRatio(3.9))
    # The published 12.8 is ~2% above the formula value; 3% covers it.
    assert within(high.fixed, 12.8, 0.03)

    op_low = split_from_ratio(opex_obs, FixedToTurbineRatio(2.3))
    assert within(op_low.fixed, 0.27, 0.03)
    assert within(op_low.per_turbine, 0.116, 0.03)

    op_high = split_from_ratio(opex_obs, FixedToTurbineRatio(3.9))
    assert within(op_high.fixed, 0.45, 0.03)
    assert within(op_high.per_turbine, 0.113, 0.03)


@criterion(3, "full 24-entry decomposition table for a 10 MW commercial array")
def test_criterion_03_commercial_10mw_table():
    # Published reference entries: per ratio, (CA_f, CA_t, O_f, O_t) for the
    # optimistic / typical / pessimistic per-MW cost columns.
    published = {
        2.3: [
            (6.9, 3.0, 0.31, 0.13),
            (8.2, 3.6, 0.38, 0.17),
            (10.0, 4.4, 0.49, 0.21),
        ],
        3.9: [
            (10.0, 2.5, 0.44, 0.11),
            (11.8, 3.0, 0.55, 0.14),
            (14.5, 3.7, 0.70, 0.18),
        ],
    }
    capex_per_mw = (2.7, 3.2, 3.9)
    opex_per_mw = (0.12, 0.15, 0.19)

    for ratio_value, rows in published.items():
        ratio = FixedToTurbineRatio(ratio_value)
        for (ca_f, ca_t, o_f, o_t), c_mw, o_mw in zip(rows, capex_per_mw, opex_per_mw):
            ca = split_from_ratio(
                CostObservation(n_t=N_T_10MW, cost=c_mw, basis=CostBasis.PER_MW,
                                capacity_mw=10.0),
                ratio,
            )
            op = split_from_ratio(
                CostObservation(n_t=N_T_10MW, cost=o_mw, basis=CostBasis.PER_MW,
                                capacity_mw=10.0),
                ratio,
            )
            for computed, target in (
                (ca.fixed, ca_f), (ca.per_turbine, ca_t),
                (op.fixed, o_f), (op.per_turbine, o_t),
            ):
                # The reference table prints two decimals at most, so accept
                # half a printing unit where that exceeds 3% relative.
                assert within(computed, target, 0.03) or abs(computed - target) <= 0.005


@criterion(4, "10 MW developer table reproduced, column transposition recorded")
def test_criterion_04_developer_10mw_table():
    # The source table's CA_t columns are swapped between the two ratios;
    # CA_f columns are consistent. Assert the formula values and match CA_t
    # against the opposite-ratio column as printed.
    published_ca_f = {2.3: (6.4, 6.7, 7.2), 3.9: (9.2, 9.6, 10.3)}
    published_ca_t_opposite = {2.3: (2.8, 2.9, 3.1), 3.9: (2.4, 2.5, 2.6)}
    capex_per_mw = (2.50, 2.60, 2.80)

    for ratio_value in (2.3, 3.9):
        ratio = FixedToTurbineRatio(ratio_value)
        for index, c_mw in enumerate(capex_per_mw):
            ca = split_from_ratio(
                CostObservation(n_t=N_T_10MW, cost=c_mw, basis=CostBasis.PER_MW,
                                capacity_mw=10.0),
                ratio,
            )
            assert within(ca.fixed, published_ca_f[ratio_value][index], 0.02)
            assert within(ca.per_turbine, published_ca_t_opposite[ratio_value][index], 0.03)


@criterion(5, "present-value reduction over 20/25/30 years at 10% and 5%")
def test_criterion_05_present_value_reductions():
    expected = {
        0.10: {20: 0.85, 25: 0.91, 30: 0.94},
        0.05: {20: 0.62, 25: 0.70, 30: 0.77},
    }
    for rate, by_year in expected.items():
        spec = DiscountSpec(annual_rate=rate)
        for years, reduction in by_year.items():
            computed = 1.0 - discount_factor(spec, years)
            assert abs(computed - reduction) <= 0.01


def random_case(rng: random.Random) -> tuple[ArrayDesign, CostParameters, DiscountSpec]:
    n_t = rng.randint(1, 100)
    mw_t = rng.uniform(0.5, 3.0)
    design = ArrayDesign(
        n_t=n_t,
        mw_t=mw_t,
        p_avg_mw=n_t * mw_t * rng.uniform(0.2, 0.6),
        lifetime_years=rng.randint(10, 30),
        availability=rng.uniform(0.85, 1.0),
    )
    params = CostParameters(
        ca_f=rng.uniform(5.6, 14.4),
        ca_t=rng.uniform(2.4, 4.4),
        o_f=rng.uniform(0.27, 0.87),
        o_t=rng.uniform(0.094, 0.26),
    )
    spec = DiscountSpec(annual_rate=rng.uniform(0.02, 0.15))
    return design, params, spec


@criterion(6, "tariff-at-LCOE break-even and IRR residual on 50 random designs")
def test_criterion_06_break_even_identities():
    rng = random.Random(12345)
    for _ in range(50):
        design, params, spec = random_case(rng)

        # Selling at exactly the levelised cost must zero the NPV.
        break_even_tariff = lcoe(design, params, spec)
        schedule = build_schedule(design, params, TariffScheme(break_even_tariff))
        assert abs(npv(schedule, spec)) < 1e-9 * capex(params, design.n_t)

        # A profitable tariff gives a well-defined IRR with a tiny residual.
        profitable = build_schedule(design, params, TariffScheme(1.5 * break_even_tariff))
        rate = irr(profitable)
        assert abs(npv(profitable, DiscountSpec(annual_rate=rate))) < 1e-6
        assert rate == pytest.approx(irr_bisection_oracle(dict(enumerate(profitable.flows))),
                                     abs=1e-6)


@criterion(7, "zero discount rate reduces every metric to its undiscounted form")
def test_criterion_07_zero_rate_equivalence():
    design = ArrayDesign(n_t=4, mw_t=1.5, p_avg_mw=3.2, lifetime_years=25,
                         availability=0.95)
    params = CostParameters(9.2, 3.3, 0.32, 0.15)
    spec = DiscountSpec(annual_rate=0.0)
    schedule = build_schedule(design, params, TariffScheme(150.0))
    flows = dict(enumerate(schedule.flows))

    assert npv(schedule, spec) == pytest.approx(sum(flows.values()), rel=1e-12)

    expected_payback = payback_scan_oracle(flows, 0.0, schedule.horizon)
    assert payback_period(schedule, spec) == pytest.approx(expected_payback, abs=1e-6)

    total_cost = capex(params, design.n_t) + 25 * opex_year(params, design.n_t)
    total_energy = 25 * energy_year(design, 1)
    assert lcoe(design, params, spec) == pytest.approx(
        total_cost * 1e6 / total_energy, rel=1e-12
    )


@criterion(8, "capacity-factor form of break-even power is exact")
def test_criterion_08_capacity_factor_break_even():
    assert bep_from_capacity_factor(2.0, 0.40) == 0.8


@criterion(9, "experience-curve doubling multiplies cost by exactly 0.87")
def test_criterion_09_learning_rate_doubling():
    assert learning_rate_adjust(100.0, 0.13, 10.0, 20.0) == 100.0 * 0.87
    two_steps = learning_rate_adjust(
        learning_rate_adjust(100.0, 0.13, 10.0, 20.0), 0.13, 20.0, 40.0
    )
    assert two_steps == pytest.approx(
        learning_rate_adjust(100.0, 0.13, 10.0, 40.0), rel=1e-12
    )


@criterion(10, "levelised cost sensitivity to the discount rate in [3%, 10%]/pp")
def test_criterion_10_lcoe_rate_elasticity_band():
    from tidalecon.scenarios import lcoe_rate_elasticity

    design = ArrayDesign(n_t=4, mw_t=1.5, p_avg_mw=3.2, lifetime_years=25,
                         availability=0.95)
    params = CostParameters(9.2, 3.3, 0.32, 0.15)
    value = lcoe_rate_elasticity(design, params, 0.061, 0.071)
    assert 0.03 <= value <= 0.10


@criterion(11, "score-optimal turbine count sits below the power-optimal count")
def test_criterion_11_functional_trade_off():
    counts = range(1, 121)
    power = {n: n - 0.005 * n * n for n in counts}
    best_power = max(counts, key=power.get)

    previous_best = None
    for p_be in (0.3, 0.4, 0.5):
        bep = BreakEvenSpec(p_be_mw=p_be)
        best_j = max(counts, key=lambda n: bep_functional(power[n], bep, n))
        assert best_j < best_power
        if previous_best is not None:
            assert best_j <= previous_best
        previous_best = best_j


@criterion(12, "cost-split output round-trips through the CLI bit for bit")
def test_criterion_12_cli_round_trip(tmp_path, capsys):
    split_args = [
        "split", "two-points",
        "--capex", "2=16.8", "--capex", "60=297",
        "--opex", "2=1.2", "--opex", "60=8.1",
        "--currency-rate", "0.79",
        "--format", "json",
    ]
    assert main(split_args) == 0
    first = capsys.readouterr().out
    assert main(split_args) == 0
    second = capsys.readouterr().out
    assert first == second

    base = {
        "array": {"n_t": 4, "mw_t": 1.5, "p_avg_mw": 3.2, "lifetime_years": 25,
                  "availability": 0.95},
        "finance": {"mode": "discrete", "r": 0.10, "tariff_gbp_per_mwh": 150.0},
    }
    estimate = dict(base, costs={"estimate": {
        "method": "two_points",
        "capex": [{"n_t": 2, "total_gbp_m": 16.8, "rate_to_gbp": 0.79},
                  {"n_t": 60, "total_gbp_m": 297, "rate_to_gbp": 0.79}],
        "opex": [{"n_t": 2, "total_gbp_m": 1.2, "rate_to_gbp": 0.79},
                 {"n_t": 60, "total_gbp_m": 8.1, "rate_to_gbp": 0.79}],
    }})
    explicit = dict(base, costs=json.loads(first)["costs"])

    outputs = []
    for name, config in (("estimate.json", estimate), ("explicit.json", explicit)):
        path = tmp_path / name
        path.write_text(json.dumps(config))
        assert main(["metrics", str(path), "--format", "json"]) == 0
        outputs.append(json.loads(capsys.readouterr().out)["metrics"])

    for key, value in outputs[0].items():
        assert outputs[1][key] == pytest.approx(value, rel=1e-12)
