"""Independent oracle for every number the benchmark checks.

It imports nothing from the library or its tests. Each quantity is
recomputed from the generated inputs with explicit year-by-year loops, and
each check returns a list of problems (empty when the value agrees).
Tolerances are relative to the sum of the absolute discounted terms, so
cancellation near zero does not cause false alarms.
"""
from __future__ import annotations

import math

HOURS_PER_YEAR = 8760.0
IRR_LOW, IRR_HIGH = -0.99, 10.0
REL_TOL = 1e-9  # same arithmetic, possibly a different summation order
FIT_REL_TOL = 1e-7  # least-squares fit by another algorithm
IRR_ABS_TOL = 2e-6  # GBP m; the library stops its secant at 1e-6
ROOT_GRID = 400  # grid points searched for a smaller IRR root
ROOT_MARGIN = 1e-4  # in log(1 + r): how far below the IRR the search stops


def close(got: float, want: float, scale: float = 0.0, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * max(abs(want), scale) + 1e-12


# ---------------------------------------------------------------------------
# Costs


def total_gbp(observation: dict) -> float:
    """Total GBP m of a config-style observation (total or per-MW basis)."""
    if "total_gbp_m" in observation:
        total = observation["total_gbp_m"]
    else:
        total = observation["per_mw_gbp_m"] * observation["capacity_mw"]
    return total * observation.get("rate_to_gbp", 1.0)


def split_two_points(point1: tuple[float, float], point2: tuple[float, float]):
    """(fixed, per_turbine) of the line through two (n_t, total) points."""
    (n1, c1), (n2, c2) = point1, point2
    per_turbine = (c2 - c1) / (n2 - n1)
    return c1 - per_turbine * n1, per_turbine


def split_ratio(n_t: float, total: float, ratio: float):
    """(fixed, per_turbine) with fixed = ratio * per_turbine."""
    per_turbine = total / (ratio + n_t)
    return ratio * per_turbine, per_turbine


def fit_ratio(points) -> float:
    """Intercept over slope of the ordinary least-squares line."""
    count = len(points)
    mean_n = sum(n for n, _ in points) / count
    mean_c = sum(c for _, c in points) / count
    slope = sum((n - mean_n) * (c - mean_c) for n, c in points) / sum(
        (n - mean_n) ** 2 for n, _ in points
    )
    return (mean_c - slope * mean_n) / slope


def estimated_costs(costs: dict) -> dict:
    """Cost components of a generated project (see ``gen.cost_source``)."""
    source = costs["source"]
    if source == "table":
        return dict(costs["true"])
    if source == "two_points":
        parts = [
            split_two_points(*[(o["n_t"], total_gbp(o)) for o in costs[kind]])
            for kind in ("capex", "opex")
        ]
    else:
        ratio = costs["ratio"] if source == "ratio" else fit_ratio(costs["points"])
        parts = [
            split_ratio(costs[kind]["n_t"], total_gbp(costs[kind]), ratio)
            for kind in ("capex", "opex")
        ]
    (ca_f, ca_t), (o_f, o_t) = parts
    return {"ca_f": ca_f, "ca_t": ca_t, "o_f": o_f, "o_t": o_t}


def config_costs(costs: dict) -> dict:
    """Cost components of a CLI config block (explicit or ``estimate``)."""
    if "estimate" not in costs:
        return {name: costs[name] for name in ("ca_f", "ca_t", "o_f", "o_t")}
    directive = costs["estimate"]
    source = "two_points" if directive["method"] == "two_points" else "ratio"
    return estimated_costs({"source": source, **directive})


def check_costs(got: dict, want: dict, rel: float = REL_TOL) -> list[str]:
    return [
        f"{name}: got {got[name]!r}, oracle {want[name]!r}"
        for name in ("ca_f", "ca_t", "o_f", "o_t")
        if not close(got[name], want[name], rel=rel)
    ]


# ---------------------------------------------------------------------------
# Cash flows


def discount(rate: float, mode: str, years: float) -> float:
    if mode == "continuous":
        return math.exp(-rate * years)
    return (1.0 + rate) ** (-years)


def energy_mwh(design: dict, year: int) -> float:
    availability = design["availability"]
    if isinstance(availability, (list, tuple)):
        availability = availability[year - 1]
    return (
        design["p_avg_mw"] * HOURS_PER_YEAR * availability
        * design.get("electrical_efficiency", 1.0)
    )


def cash_flows(design: dict, costs: dict, tariff: float, multipliers=None) -> list[float]:
    """Net flow for years 0..lifetime: CAPEX first, then revenue minus OPEX."""
    n_t = design["n_t"]
    opex = costs["o_f"] + costs["o_t"] * n_t
    flows = [-(costs["ca_f"] + costs["ca_t"] * n_t)]
    for year in range(1, design["lifetime_years"] + 1):
        multiplier = multipliers[year - 1] if multipliers else 1.0
        flows.append(energy_mwh(design, year) * tariff / 1e6 - opex * multiplier)
    return flows


def present_value(flows: list[float], rate: float, mode: str = "discrete") -> tuple[float, float]:
    """(NPV, sum of absolute discounted terms) by an explicit loop."""
    total = scale = 0.0
    for year, flow in enumerate(flows):
        term = flow * discount(rate, mode, year)
        total += term
        scale += abs(term)
    return total, scale


def sign_changes(flows: list[float]) -> int:
    signs = [flow > 0 for flow in flows if flow != 0]
    return sum(1 for before, after in zip(signs, signs[1:]) if before != after)


def lcoe(design: dict, costs: dict, rate: float, mode: str) -> float:
    n_t = design["n_t"]
    opex = costs["o_f"] + costs["o_t"] * n_t
    cost = costs["ca_f"] + costs["ca_t"] * n_t
    energy = 0.0
    for year in range(1, design["lifetime_years"] + 1):
        factor = discount(rate, mode, year)
        cost += opex * factor
        energy += energy_mwh(design, year) * factor
    return cost * 1e6 / energy


# ---------------------------------------------------------------------------
# Metric checks


def check_npv(got: float, flows: list[float], rate: float, mode: str) -> list[str]:
    want, scale = present_value(flows, rate, mode)
    if close(got, want, scale):
        return []
    return [f"npv: got {got!r}, oracle {want!r}"]


def check_lcoe(got: float, design: dict, costs: dict, rate: float, mode: str) -> list[str]:
    """LCOE matches the loop, and NPV at tariff = LCOE is zero."""
    problems = []
    want = lcoe(design, costs, rate, mode)
    if not close(got, want):
        problems.append(f"lcoe: got {got!r}, oracle {want!r}")
    residual, scale = present_value(cash_flows(design, costs, got), rate, mode)
    if abs(residual) > 1e-8 * scale:
        problems.append(f"lcoe: NPV at tariff = LCOE is {residual!r}, not 0")
    return problems


def check_payback(got: float | None, flows: list[float], rate: float, mode: str) -> list[str]:
    """The cumulative discounted sum brackets the payback year.

    ``None`` must mean the cumulative sum never reaches zero.
    """
    cumulative, running, scale = [], 0.0, 0.0
    for year, flow in enumerate(flows):
        term = flow * discount(rate, mode, year)
        running += term
        scale += abs(term)
        cumulative.append(running)
    tol = REL_TOL * scale
    if got is None:
        if max(cumulative) >= tol:
            return [f"payback: undefined, but the cumulative sum reaches {max(cumulative)!r}"]
        return []
    year = math.ceil(got)
    if not 0 <= year < len(cumulative):
        return [f"payback: {got!r} outside the horizon"]
    if cumulative[year] < -tol or any(c >= tol for c in cumulative[:year]):
        return [f"payback: {got!r} is not the first year the cumulative sum reaches 0"]
    if year > 0 and got != year:
        before, after = cumulative[year - 1], cumulative[year]
        want = (year - 1) + before / (before - after)
        if not close(got, want, rel=1e-9):
            return [f"payback: got {got!r}, interpolation gives {want!r}"]
    return []


def _npv_sign_changes_on(flows: list[float], low: float, high: float) -> bool:
    """True if NPV changes sign on a log(1 + r) grid over [low, high]."""
    a, b = math.log1p(low), math.log1p(high)
    previous = None
    for k in range(ROOT_GRID + 1):
        value, _ = present_value(flows, math.expm1(a + (b - a) * k / ROOT_GRID))
        sign = value > 0
        if value == 0 or (previous is not None and sign != previous):
            return True
        previous = sign
    return False


def check_irr(got: float | None, flows: list[float]) -> list[str]:
    """NPV(IRR) is zero and no smaller root exists; ``None`` means no root.

    ``None`` stands for both documented undefined outcomes: no sign change
    (``IrrUndefinedError``) and no root in [-0.99, 10] (``NoIrrInRangeError``).
    """
    changes = sign_changes(flows)
    if got is None:
        if changes and _npv_sign_changes_on(flows, IRR_LOW, IRR_HIGH):
            return ["irr: undefined, but NPV changes sign in [-0.99, 10]"]
        return []
    if changes == 0:
        return [f"irr: got {got!r} for flows that never change sign"]
    if not IRR_LOW <= got <= IRR_HIGH:
        return [f"irr: {got!r} outside [-0.99, 10]"]
    residual, scale = present_value(flows, got)
    if abs(residual) > IRR_ABS_TOL + REL_TOL * scale:
        return [f"irr: NPV({got!r}) = {residual!r}, not 0"]
    upper = math.expm1(math.log1p(got) - ROOT_MARGIN)
    if changes >= 2 and upper > IRR_LOW and _npv_sign_changes_on(flows, IRR_LOW, upper):
        return [f"irr: {got!r} is not the smallest root in [-0.99, 10]"]
    return []


def check_project_metrics(got: dict, design: dict, costs: dict, finance: dict,
                          multipliers=None) -> list[str]:
    """NPV, LCOE, payback and IRR of one project against the oracle."""
    rate, mode = finance["r"], finance.get("mode", "discrete")
    flows = cash_flows(design, costs, finance["tariff_gbp_per_mwh"], multipliers)
    return (
        check_npv(got["npv"], flows, rate, mode)
        + check_lcoe(got["lcoe"], design, costs, rate, mode)
        + check_payback(got["payback"], flows, rate, mode)
        + check_irr(got["irr"], flows)
    )


# ---------------------------------------------------------------------------
# Scenario values and sweeps


def scenario_values(table: dict, base, overrides: dict | None = None) -> dict:
    """Resolved parameter values: a column of ``table``, then overrides.

    ``base`` is a scenario label or a mapping that overrides the typical
    column, as the library documents.
    """
    if isinstance(base, str):
        column, mapping = ("optimistic", "typical", "pessimistic").index(base), {}
    else:
        column, mapping = 1, base
    values = {name: entry[column] for name, entry in table.items()}
    values.update(mapping)
    values.update(overrides or {})
    return values


def scenario_inputs(design: dict, values: dict):
    """(design, costs, finance) that one scenario's values bind."""
    bound = dict(design, lifetime_years=int(values["lifetime"]),
                 availability=values["availability"])
    costs = {name: values[name] for name in ("ca_f", "ca_t", "o_f", "o_t")}
    finance = {"r": values["r"], "mode": "discrete", "tariff_gbp_per_mwh": values["tariff"]}
    return bound, costs, finance


def check_sweep_point(got: float | None, metric: str, design: dict, values: dict) -> list[str]:
    bound, costs, finance = scenario_inputs(design, values)
    rate = finance["r"]
    flows = cash_flows(bound, costs, finance["tariff_gbp_per_mwh"])
    if metric == "npv":
        return check_npv(got, flows, rate, "discrete")
    if metric == "lcoe":
        return check_lcoe(got, bound, costs, rate, "discrete")
    if metric == "payback":
        return check_payback(got, flows, rate, "discrete")
    return check_irr(got, flows)


def check_curve_row(row: dict, n_t: int, p_avg: float, design: dict, costs: dict,
                    finance: dict, bep: dict | None) -> list[str]:
    """One functional_sweep row; the functionals only when P_BE is given."""
    sample = dict(design, n_t=n_t, p_avg_mw=p_avg)
    rate, mode = finance["r"], finance.get("mode", "discrete")
    flows = cash_flows(sample, costs, finance["tariff_gbp_per_mwh"])
    problems = check_npv(row["npv_gbp_m"], flows, rate, mode)
    problems += check_lcoe(row["lcoe_gbp_per_mwh"], sample, costs, rate, mode)
    expected = {"n_t": n_t, "p_avg_mw": p_avg, "power_per_device_mw": p_avg / n_t}
    if bep is not None:
        p_be, ev = bep["p_be_mw"], bep.get("ev_mw_per_turbine", 0.0)
        expected["j_bep_mw"] = p_avg - p_be * n_t
        expected["j_bep_ev_mw"] = p_avg - (p_be - ev * n_t) * n_t
    capacity = n_t * design["mw_t"]
    for key, want in expected.items():
        if not close(row[key], want, scale=capacity):
            problems.append(f"curve {key}: got {row[key]!r}, oracle {want!r}")
    return problems
