"""Built-in optimistic/typical/pessimistic parameter dataset plus scenario
enumeration and one-at-a-time sensitivity sweeps.

The cost, discount-rate and lifetime ranges come from a literature survey
of published tidal-stream cost data; tariff and availability bounds are
added from the same sources' revenue discussion.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence

from .cost_model import ArrayDesign, CostParameters, TariffScheme
from .finance_core import DiscountSpec, Record
from . import metrics as _metrics

SCENARIO_LABELS = ("optimistic", "typical", "pessimistic")
METRIC_NAMES = _metrics.METRIC_NAMES


class ParameterRange(Record):
    """Optimistic / typical / pessimistic values for one model input."""

    __slots__ = ("name", "optimistic", "typical", "pessimistic", "units")

    def __init__(self, name: str, optimistic: float, typical: float, pessimistic: float,
                 units: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "optimistic", optimistic)
        object.__setattr__(self, "typical", typical)
        object.__setattr__(self, "pessimistic", pessimistic)
        object.__setattr__(self, "units", units)

    def value(self, label: str) -> float:
        if label not in SCENARIO_LABELS:
            raise ValueError(f"unknown scenario {label!r}; expected one of {SCENARIO_LABELS}")
        return getattr(self, label)


# Collated estimates. Optimistic/pessimistic orientation follows the effect
# on project economics, so lifetime runs 30/25/20 while costs ascend.
_PARAMETER_TABLE = (
    ParameterRange("ca_f", 5.6, 9.2, 14.4, "GBP m"),
    ParameterRange("ca_t", 2.4, 3.3, 4.4, "GBP m per turbine"),
    ParameterRange("o_f", 0.27, 0.32, 0.87, "GBP m per year"),
    ParameterRange("o_t", 0.094, 0.15, 0.26, "GBP m per year per turbine"),
    ParameterRange("r", 0.05, 0.10, 0.15, "fraction per year"),
    ParameterRange("lifetime", 30, 25, 20, "years"),
    ParameterRange("tariff", 290, 150, 40, "GBP per MWh"),
    ParameterRange("availability", 0.98, 0.95, 0.90, "fraction"),
)


class ScenarioResult(Record):
    """Metrics for one scenario, with every resolved input echoed.

    ``metrics`` maps metric name to value, or to None when the metric is
    undefined for these inputs (the reason then appears in ``notes``).
    """

    __slots__ = ("label", "parameters", "metrics", "notes")

    def __init__(self, label: str, parameters: dict[str, float],
                 metrics: dict[str, float | None], notes: dict[str, str]) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "notes", notes)


def builtin_parameters() -> tuple[ParameterRange, ...]:
    """The built-in parameter dataset, one range per model input."""
    return _PARAMETER_TABLE


def parameter_range(name: str) -> ParameterRange:
    for entry in _PARAMETER_TABLE:
        if entry.name == name:
            return entry
    known = ", ".join(entry.name for entry in _PARAMETER_TABLE)
    raise ValueError(f"unknown parameter {name!r}; valid names: {known}")


def _resolve(label: str, overrides: Mapping[str, float] | None) -> dict[str, float]:
    values = {entry.name: entry.value(label) for entry in _PARAMETER_TABLE}
    for name, value in (overrides or {}).items():
        parameter_range(name)  # reject unknown names
        values[name] = value
    return values


def _bind(design: ArrayDesign, values: Mapping[str, float]) -> ArrayDesign:
    return ArrayDesign(design.n_t, design.mw_t, design.p_avg_mw, values["lifetime"],
                       values["availability"], design.electrical_efficiency)


def _apply(design: ArrayDesign, values: Mapping[str, float]):
    bound = _bind(design, values)  # first, so a bad lifetime is reported before bad costs
    params = CostParameters(values["ca_f"], values["ca_t"], values["o_f"], values["o_t"])
    return bound, params, TariffScheme(values["tariff"]), DiscountSpec(values["r"])


def compute_metrics(
    design: ArrayDesign, values: Mapping[str, float], names: Sequence[str] = METRIC_NAMES
) -> tuple[dict[str, float | None], dict[str, str]]:
    """Evaluate the named metrics, all four by default; undefined ones become None.

    ``values`` binds every built-in parameter; see ``metrics.evaluate``.
    """
    return _metrics.evaluate(*_apply(design, values), names)


def evaluate_scenarios(
    design: ArrayDesign, overrides: Mapping[str, float] | None = None
) -> tuple[ScenarioResult, ScenarioResult, ScenarioResult]:
    """Metrics under the optimistic, typical and pessimistic columns.

    Each scenario binds every built-in parameter from its column; explicit
    ``overrides`` (parameter name to value) replace the bound value in all
    three scenarios.
    """
    results = []
    for label in SCENARIO_LABELS:
        values = _resolve(label, overrides)
        metric_values, notes = compute_metrics(design, values)
        results.append(ScenarioResult(label, values, metric_values, notes))
    return tuple(results)


def sensitivity_sweep(
    design: ArrayDesign,
    base_scenario: str | Mapping[str, float],
    parameter: str,
    grid: Sequence[float],
    metric: str,
) -> list[tuple[float, float | None]]:
    """One-at-a-time sweep of one parameter, all others held at the base.

    ``base_scenario`` is a scenario label or a full parameter mapping.
    Returns (value, metric) pairs in grid order; None marks grid points
    where the metric is undefined. Only the swept metric is reported, and
    IRR is computed only for an ``irr`` sweep. The first point binds and
    checks all four records as ``compute_metrics`` does; each later point
    rebinds and re-checks only the record its parameter feeds. F and G
    (``metrics._sums``) are formed again only where the rate, lifetime or
    availability changes, so a cost or tariff point is a few products.
    """
    return [point[:2] for point in _sweep(design, base_scenario, parameter, grid, metric)]


def _sweep(design: ArrayDesign, base_scenario: str | Mapping[str, float], parameter: str,
           grid: Sequence[float], metric: str) -> list[tuple[float, float | None, dict]]:
    """``sensitivity_sweep``'s points, each with its notes: the metric's name to the
    reason it is undefined, or no entry where it is defined."""
    _metrics._check_names((metric,))
    parameter_range(parameter)
    if not grid:
        raise ValueError("sweep grid is empty")
    if isinstance(base_scenario, str):
        point = _resolve(base_scenario, None)
    else:
        point = _resolve("typical", base_scenario)

    curve, drawn = [], None  # ``drawn``: the (rate, lifetime, availability) of ``sums``
    for value in grid:
        point[parameter] = value
        if not curve:  # the first point binds all four records
            bound, params, tariff, spec = _apply(design, point)
        elif parameter == "tariff":
            tariff = TariffScheme(value)
        elif parameter == "r":
            spec = DiscountSpec(value)
        elif parameter in ("lifetime", "availability"):
            bound = _bind(design, point)
        else:
            params = CostParameters(point["ca_f"], point["ca_t"], point["o_f"], point["o_t"])
        key = (spec.annual_rate, bound.lifetime_years, bound.availability)  # annual specs
        if drawn != key:
            drawn, sums = key, _metrics._sums(bound, spec, metric == "payback")
        metric_values, notes = _metrics._evaluate(bound, params, tariff, (metric,), sums)
        curve.append((value, metric_values[metric], notes))
    return curve


def lcoe_rate_elasticity(
    design: ArrayDesign, params: CostParameters, r_low: float, r_high: float
) -> float:
    """Fractional LCOE change per percentage point of discount rate.

    Reported relative to the higher-rate LCOE, so a positive value means
    the LCOE falls as the rate is reduced from r_high to r_low.
    """
    if r_low >= r_high:
        raise ValueError(f"need r_low < r_high, got {r_low} >= {r_high}")
    lcoe_low = _metrics.lcoe(design, params, DiscountSpec(annual_rate=r_low))
    lcoe_high = _metrics.lcoe(design, params, DiscountSpec(annual_rate=r_high))
    if lcoe_high == 0:  # a zero-cost design
        raise ValueError(f"LCOE elasticity is undefined: LCOE at r_high = {r_high} is zero")
    points = (r_high - r_low) * 100.0
    return (lcoe_high - lcoe_low) / lcoe_high / points
