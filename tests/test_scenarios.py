from __future__ import annotations

import math
import re

import pytest

from tidalecon import metrics as metrics_module
from tidalecon.cost_model import ArrayDesign, CostParameters, TariffScheme, build_schedule
from tidalecon.finance_core import DiscountSpec
from tidalecon.metrics import irr, lcoe, npv
from tidalecon.scenarios import (
    METRIC_NAMES,
    SCENARIO_LABELS,
    builtin_parameters,
    compute_metrics,
    evaluate_scenarios,
    lcoe_rate_elasticity,
    parameter_range,
    sensitivity_sweep,
)

from conftest import lcoe_oracle

TYPICAL = CostParameters(ca_f=9.2, ca_t=3.3, o_f=0.32, o_t=0.15)


def design(**kwargs) -> ArrayDesign:
    base = dict(n_t=4, mw_t=1.5, p_avg_mw=3.2, lifetime_years=25, availability=0.95)
    base.update(kwargs)
    return ArrayDesign(**base)


class TestBuiltinParameters:
    def test_full_table(self):
        expected = {
            "ca_f": (5.6, 9.2, 14.4),
            "ca_t": (2.4, 3.3, 4.4),
            "o_f": (0.27, 0.32, 0.87),
            "o_t": (0.094, 0.15, 0.26),
            "r": (0.05, 0.10, 0.15),
            "lifetime": (30, 25, 20),
            "tariff": (290, 150, 40),
            "availability": (0.98, 0.95, 0.90),
        }
        table = {entry.name: entry for entry in builtin_parameters()}
        assert set(table) == set(expected)
        for name, (opt, typ, pes) in expected.items():
            entry = table[name]
            assert (entry.optimistic, entry.typical, entry.pessimistic) == (opt, typ, pes)

    def test_lookup_by_name(self):
        assert parameter_range("ca_f").typical == 9.2
        assert parameter_range("r").optimistic == 0.05
        assert parameter_range("lifetime").pessimistic == 20

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="ca_f"):
            parameter_range("nope")


class TestEvaluateScenarios:
    def test_three_labelled_results(self):
        results = evaluate_scenarios(design())
        assert tuple(res.label for res in results) == SCENARIO_LABELS

    def test_lcoe_and_npv_ordering(self):
        opt, typ, pes = evaluate_scenarios(design())
        assert opt.metrics["lcoe"] < typ.metrics["lcoe"] < pes.metrics["lcoe"]
        assert opt.metrics["npv"] > typ.metrics["npv"] > pes.metrics["npv"]

    def test_typical_matches_direct_computation(self):
        _, typ, _ = evaluate_scenarios(design())
        spec = DiscountSpec(0.10)
        d = design()
        assert typ.metrics["lcoe"] == pytest.approx(lcoe(d, TYPICAL, spec), rel=1e-12)
        schedule = build_schedule(d, TYPICAL, TariffScheme(150.0))
        assert typ.metrics["npv"] == pytest.approx(npv(schedule, spec), rel=1e-12)

    def test_typical_lcoe_against_oracle(self):
        _, typ, _ = evaluate_scenarios(design())
        expected = lcoe_oracle(9.2, 3.3, 0.32, 0.15, 4, 3.2, 0.95, 1.0, 25, 0.10)
        assert typ.metrics["lcoe"] == pytest.approx(expected, rel=1e-12)

    def test_undefined_metrics_carry_notes(self):
        _, _, pes = evaluate_scenarios(design())
        assert pes.metrics["payback"] is None
        assert "payback" in pes.notes

    @pytest.mark.parametrize("p_avg_mw, overrides", [
        (0.0, None), (1e-320, None), (1e-220, {"r": 1e100}),  # the last two: LCOE past float range
    ])
    def test_zero_power_lcoe_undefined_with_note(self, p_avg_mw, overrides):
        for res in evaluate_scenarios(design(p_avg_mw=p_avg_mw), overrides):
            assert res.metrics["lcoe"] is None
            assert "LCOE is undefined" in res.notes["lcoe"]
            if p_avg_mw < 1:  # no revenue, so no sign change
                assert res.metrics["irr"] is None
            with pytest.raises(ValueError, match="LCOE is undefined"):
                lcoe(design(p_avg_mw=p_avg_mw), TYPICAL, DiscountSpec(res.parameters["r"]))

    def test_overrides_apply_to_all_scenarios(self):
        results = evaluate_scenarios(design(), overrides={"tariff": 150.0})
        assert all(res.parameters["tariff"] == 150.0 for res in results)
        opt, typ, _ = results
        # Costs still differ between columns, so LCOE ordering survives.
        assert opt.metrics["lcoe"] < typ.metrics["lcoe"]

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            evaluate_scenarios(design(), overrides={"bogus": 1.0})

    def test_parameters_traceable(self):
        opt, _, _ = evaluate_scenarios(design())
        assert set(opt.parameters) == {
            "ca_f", "ca_t", "o_f", "o_t", "r", "lifetime", "tariff", "availability"
        }


class TestSensitivitySweep:
    def test_rate_sweep_increases_lcoe(self):
        grid = [0.05 + 0.01 * k for k in range(11)]
        curve = sensitivity_sweep(design(), "typical", "r", grid, "lcoe")
        values = [value for _, value in curve]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_fixed_capex_dilution_at_scale(self):
        grid = [5.6, 14.4]

        def slope(n_t: int) -> float:
            d = design(n_t=n_t, p_avg_mw=0.8 * n_t, mw_t=1.5)
            curve = sensitivity_sweep(d, "typical", "ca_f", grid, "lcoe")
            return (curve[1][1] - curve[0][1]) / (grid[1] - grid[0])

        assert slope(100) < slope(4) / 10

    def test_single_point_equals_direct_evaluation(self):
        curve = sensitivity_sweep(design(), "typical", "r", [0.10], "lcoe")
        assert len(curve) == 1
        assert curve[0][1] == pytest.approx(lcoe(design(), TYPICAL, DiscountSpec(0.10)))

    def test_unknown_parameter_or_metric(self):
        with pytest.raises(ValueError):
            sensitivity_sweep(design(), "typical", "bogus", [0.1], "lcoe")
        with pytest.raises(ValueError):
            sensitivity_sweep(design(), "typical", "r", [0.1], "bogus")

    def test_unknown_scenario_label_rejected(self):
        message = ("unknown scenario 'best'; "
                   "expected one of ('optimistic', 'typical', 'pessimistic')")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sensitivity_sweep(design(), "best", "r", [0.1], "npv")

    @pytest.mark.parametrize("base, parameter, grid", [
        ("typical", "lifetime", [True]), ({"lifetime": True}, "r", [0.1]),
    ], ids=["swept", "base"])
    def test_boolean_lifetime_rejected(self, base, parameter, grid):
        # True is an int equal to 1, but not a lifetime: it once gave a 1-year project.
        message = r"^lifetime_years must be an integer in \[1, 100\], got True$"
        with pytest.raises(ValueError, match=message):
            sensitivity_sweep(design(), base, parameter, grid, "npv")

    @pytest.mark.parametrize("base, parameter, grid", [
        ("typical", "lifetime", [10**400]), ({"lifetime": 10**400}, "r", [0.1]),
    ], ids=["swept", "base"])
    def test_lifetime_past_float_range_rejected_naming_lifetime_years(self, base, parameter, grid):
        # A whole number past float range once raised OverflowError from ``float``.
        message = r"^lifetime_years must be an integer in \[1, 100\], got an integer of 401 digits$"
        with pytest.raises(ValueError, match=message):
            sensitivity_sweep(design(), base, parameter, grid, "npv")

    def test_integral_float_lifetime_accepted(self):
        as_float = sensitivity_sweep(design(), "typical", "lifetime", [20.0], "npv")
        assert as_float == sensitivity_sweep(design(), "typical", "lifetime", [20], "npv")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sensitivity_sweep(design(), "typical", "r", [], "lcoe")

    def test_deterministic(self):
        grid = [0.05, 0.10, 0.15]
        first = sensitivity_sweep(design(), "typical", "r", grid, "npv")
        second = sensitivity_sweep(design(), "typical", "r", grid, "npv")
        assert first == second

    def test_mapping_base_scenario(self):
        curve = sensitivity_sweep(
            design(), {"tariff": 200.0}, "r", [0.10], "npv"
        )
        d = design()
        schedule = build_schedule(d, TYPICAL, TariffScheme(200.0))
        assert curve[0][1] == pytest.approx(npv(schedule, DiscountSpec(0.10)))


TYPICAL_VALUES = {entry.name: entry.typical for entry in builtin_parameters()}
# Sweeps through points where a metric is undefined: (design, base, parameter, grid).
UNDEFINED_GRIDS = [
    (design(p_avg_mw=0.0), {}, "tariff", [40.0, 290.0]),  # zero power: no LCOE, payback, IRR
    (design(), {}, "tariff", [10.0, 40.0, 150.0]),  # no IRR sign change, no payback
    (design(), {}, "r", [0.05, 0.10, 0.15]),  # no payback at 15%
    (design(), {"ca_t": 0.01}, "ca_f", [0.01, 9.2]),  # IRR above the bracket
    (design(), {"r": -0.99}, "lifetime", [25.0, 100.0]),  # the window's edge: all defined
]


class MetricNotWanted(Exception):
    pass


class TestMetricBundle:
    def test_default_names_give_all_four_in_order(self):
        values, notes = compute_metrics(design(), TYPICAL_VALUES)
        assert list(values) == ["npv", "lcoe", "payback", "irr"]
        assert notes == {}
        assert METRIC_NAMES is metrics_module.METRIC_NAMES

    def test_named_subset_comes_in_metric_order(self):
        values, _ = compute_metrics(design(), TYPICAL_VALUES, ("irr", "npv"))
        assert list(values) == ["npv", "irr"]
        assert values == {k: v for k, v in compute_metrics(design(), TYPICAL_VALUES)[0].items()
                          if k in ("npv", "irr")}

    @pytest.mark.parametrize("metric", METRIC_NAMES)
    def test_sweep_computes_only_its_metric(self, monkeypatch, metric):
        # NPV, payback and LCOE come from the F and G sums, which build no
        # schedule; only an IRR sweep builds one and computes IRR.
        def refuse(*args):
            raise MetricNotWanted

        irr_calls = []

        def counting_irr(schedule):
            irr_calls.append(schedule)
            return irr(schedule)

        if metric != "irr":
            monkeypatch.setattr(metrics_module, "build_schedule", refuse)
        monkeypatch.setattr(metrics_module, "irr", counting_irr)
        curve = sensitivity_sweep(design(), "typical", "r", [0.05, 0.10], metric)
        assert [value for value, _ in curve] == [0.05, 0.10]
        assert len(irr_calls) == (2 if metric == "irr" else 0)

    @pytest.mark.parametrize("metric", METRIC_NAMES)
    @pytest.mark.parametrize("d, base, parameter, grid", UNDEFINED_GRIDS)
    def test_sweep_point_equals_full_bundle(self, metric, d, base, parameter, grid):
        curve = sensitivity_sweep(d, base, parameter, grid, metric)
        for value, got in curve:
            values = dict(TYPICAL_VALUES, **base, **{parameter: value})
            assert repr(got) == repr(compute_metrics(d, values)[0][metric])

    def test_bundle_grids_reach_every_undefined_case(self):
        notes = set()
        for d, base, parameter, grid in UNDEFINED_GRIDS:
            for value in grid:
                values = dict(TYPICAL_VALUES, **base, **{parameter: value})
                notes.update(compute_metrics(d, values)[1].values())
        assert notes == {
            "discounted energy is zero; LCOE is undefined",
            "cumulative discounted flow stays negative through year 25",
            "IRR undefined: cash flows never change sign",
            "no IRR in range [-0.99, 10.0]",
        }


# One grid per built-in parameter. Most leave the rate, lifetime and availability alone, so a
# sweep may reuse one point's F and G sums at the next; the rate and
# lifetime grids leave a value, come back to it and repeat it.
PIN_GRIDS = {
    "ca_f": [5.6, 9.2, 9.2, 14.4],
    "ca_t": [2.4, 3.3, 4.4],
    "o_f": [0.27, 0.32, 0.87],
    "o_t": [0.094, 0.15, 0.26],
    "r": [0.05, 0.10, 0.05, 0.05, -0.0, 0.0],
    "lifetime": [20, 25, 20, 20.0, 100],
    "tariff": [40.0, 150.0, 290.0, 10.0],
    "availability": [0.90, 0.95, 0.98],
}
PIN_BASES = ["optimistic", "pessimistic", {"r": -0.99, "lifetime": 60}]


class TestSweepPins:
    @pytest.mark.parametrize("metric", METRIC_NAMES)
    @pytest.mark.parametrize("parameter", list(PIN_GRIDS))
    @pytest.mark.parametrize("base", PIN_BASES, ids=["optimistic", "pessimistic", "window-edge"])
    def test_every_point_equals_compute_metrics(self, base, parameter, metric):
        grid = PIN_GRIDS[parameter]
        if isinstance(base, str):
            values = {entry.name: entry.value(base) for entry in builtin_parameters()}
        else:
            values = dict(TYPICAL_VALUES, **base)
        curve = sensitivity_sweep(design(), base, parameter, grid, metric)
        assert [value for value, _ in curve] == grid
        for value, got in curve:
            expected = compute_metrics(design(), dict(values, **{parameter: value}))[0]
            assert repr(got) == repr(expected[metric])

    @pytest.mark.parametrize("metric", ["npv", "payback"])
    @pytest.mark.parametrize("parameter", list(PIN_GRIDS))
    def test_sums_are_formed_once_per_rate_lifetime_and_availability(self, monkeypatch,
                                                                     parameter, metric):
        draws = []
        sums = metrics_module._sums

        def forming(bound, spec, prefixes):
            draws.append((spec.annual_rate, bound.lifetime_years, bound.availability, prefixes))
            return sums(bound, spec, prefixes)

        monkeypatch.setattr(metrics_module, "_sums", forming)
        grid = PIN_GRIDS[parameter]
        sensitivity_sweep(design(), "typical", parameter, grid, metric)
        points = [(value if parameter == "r" else 0.10,
                   int(value) if parameter == "lifetime" else 25,
                   value if parameter == "availability" else 0.95,
                   metric == "payback") for value in grid]
        # -0.0 and 0.0 are one rate, as 20 and 20.0 are one lifetime; a cost or
        # tariff point forms nothing.
        assert draws == [key for k, key in enumerate(points) if k == 0 or key != points[k - 1]]


# Values each built-in parameter's record rejects, as (parameter, value).
OUT_OF_RANGE = [
    *[(name, math.nan) for name in PIN_GRIDS],
    *[(name, -1.0) for name in ("ca_f", "ca_t", "o_f", "o_t")],
    ("tariff", 0.0), ("r", -2.0),
    ("lifetime", 20.5), ("lifetime", True), ("lifetime", 10**400),
    ("availability", 0.0), ("availability", 1.5),
]


def point_error(values: dict) -> str:
    """The message ``compute_metrics`` raises for one parameter point."""
    with pytest.raises(ValueError) as raised:
        compute_metrics(design(), values)
    return str(raised.value)


class TestSweepChecks:
    """Every swept value is checked at its point, with ``compute_metrics``'s
    message, and the base is checked before any point is evaluated."""

    @pytest.mark.parametrize("parameter, bad", OUT_OF_RANGE)
    @pytest.mark.parametrize("base", ["typical", {"r": 0.05, "tariff": 290.0}],
                             ids=["typical", "mapping"])
    def test_bad_last_point_raises_as_compute_metrics(self, base, parameter, bad):
        values = dict(TYPICAL_VALUES, **({} if isinstance(base, str) else base))
        grid = [*PIN_GRIDS[parameter], bad]
        message = point_error(dict(values, **{parameter: bad}))
        with pytest.raises(ValueError) as raised:
            sensitivity_sweep(design(), base, parameter, grid, "npv")
        assert str(raised.value) == message

    @pytest.mark.parametrize("field, bad, parameter", [
        (field, bad, parameter) for field, bad in OUT_OF_RANGE for parameter in PIN_GRIDS
        if parameter != field
    ])
    def test_bad_base_field_raises_before_any_point(self, monkeypatch, field, bad, parameter):
        def refuse(*args):
            raise MetricNotWanted

        message = point_error(dict(TYPICAL_VALUES, **{field: bad}))
        monkeypatch.setattr(metrics_module, "_evaluate", refuse)
        with pytest.raises(ValueError) as raised:
            sensitivity_sweep(design(), {field: bad}, parameter, PIN_GRIDS[parameter], "npv")
        assert str(raised.value) == message

    @pytest.mark.parametrize("parameter, bad", OUT_OF_RANGE)
    def test_bad_base_value_of_the_swept_field_is_replaced(self, parameter, bad):
        grid = PIN_GRIDS[parameter]
        curve = sensitivity_sweep(design(), {parameter: bad}, parameter, grid, "irr")
        assert repr(curve) == repr(sensitivity_sweep(design(), "typical", parameter, grid, "irr"))

    @pytest.mark.parametrize("parameter", [p for p in PIN_GRIDS if p not in ("lifetime", "ca_f")])
    def test_bad_lifetime_is_reported_before_bad_costs(self, parameter):
        base = {"lifetime": 20.5, "ca_f": -1.0}
        message = r"^lifetime_years must be an integer in \[1, 100\], got 20.5$"
        with pytest.raises(ValueError, match=message):
            sensitivity_sweep(design(), base, parameter, PIN_GRIDS[parameter], "npv")


class TestLcoeRateElasticity:
    def test_band_for_typical_design(self):
        value = lcoe_rate_elasticity(design(), TYPICAL, 0.061, 0.071)
        assert 0.03 <= value <= 0.10

    def test_equal_rates_rejected(self):
        with pytest.raises(ValueError):
            lcoe_rate_elasticity(design(), TYPICAL, 0.1, 0.1)

    def test_positive_for_upfront_capex_projects(self):
        assert lcoe_rate_elasticity(design(), TYPICAL, 0.05, 0.15) > 0

    def test_zero_cost_design_rejected(self):
        # LCOE is zero at both rates, so its relative change is undefined.
        message = "LCOE elasticity is undefined: LCOE at r_high = 0.15 is zero"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lcoe_rate_elasticity(design(), CostParameters(0, 0, 0, 0), 0.05, 0.15)
