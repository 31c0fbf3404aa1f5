"""In-process workloads: ``portfolio``, ``overhaul`` and ``design_sweep``.

An op takes one generated input and calls the library's public functions
through ``call(layer_name, function, *args)``, which either calls straight
through or records a span (see ``spans.Tracer``). Results are plain data,
checked against the oracle right after the op, outside its timing.
"""
from __future__ import annotations

import oracle


def _observation(lib, entry: dict):
    if "total_gbp_m" in entry:
        return lib.CostObservation(n_t=float(entry["n_t"]), cost=entry["total_gbp_m"],
                                   currency_rate=entry["rate_to_gbp"])
    return lib.CostObservation(
        n_t=float(entry["n_t"]), cost=entry["per_mw_gbp_m"], basis=lib.CostBasis.PER_MW,
        capacity_mw=entry["capacity_mw"], currency_rate=entry["rate_to_gbp"],
    )


def _cost_parameters(lib, costs: dict, call):
    source = costs["source"]
    if source == "table":
        return lib.CostParameters(**costs["true"])
    if source == "two_points":
        ca, op = (
            call("cost_estimation.split_two_points", lib.split_two_points,
                 *[_observation(lib, entry) for entry in costs[kind]])
            for kind in ("capex", "opex")
        )
    else:
        if source == "ratio":
            ratio = lib.FixedToTurbineRatio(costs["ratio"])
        else:
            ratio = call("cost_estimation.fit_higgins_ratio", lib.fit_higgins_ratio,
                         costs["points"])
        ca, op = (
            call("cost_estimation.split_from_ratio", lib.split_from_ratio,
                 _observation(lib, costs[kind]), ratio)
            for kind in ("capex", "opex")
        )
    return lib.CostParameters(ca_f=ca.fixed, ca_t=ca.per_turbine, o_f=op.fixed, o_t=op.per_turbine)


def _design(lib, array: dict):
    return lib.ArrayDesign(
        n_t=array["n_t"], mw_t=array["mw_t"], p_avg_mw=array["p_avg_mw"],
        lifetime_years=array["lifetime_years"], availability=array["availability"],
        electrical_efficiency=array["electrical_efficiency"],
    )


def _finance(lib, finance: dict):
    return (
        lib.TariffScheme(t_e=finance["tariff_gbp_per_mwh"]),
        lib.DiscountSpec(annual_rate=finance["r"], mode=lib.Compounding(finance["mode"])),
    )


def project_op(lib, project: dict, call) -> dict:
    """Costs, schedule, then NPV, LCOE, payback and IRR of one project."""
    params = _cost_parameters(lib, project["costs"], call)
    design = _design(lib, project["array"])
    tariff, spec = _finance(lib, project["finance"])
    schedule = call("cost_model.build_schedule", lib.build_schedule, design, params, tariff,
                    project.get("opex_multipliers"))
    result = {
        "costs": {"ca_f": params.ca_f, "ca_t": params.ca_t, "o_f": params.o_f, "o_t": params.o_t},
        "npv": call("metrics.npv", lib.npv, schedule, spec),
        "lcoe": call("metrics.lcoe", lib.lcoe, design, params, spec),
    }
    try:
        result["payback"] = call("metrics.payback_period", lib.payback_period, schedule, spec)
    except lib.NoPaybackError:
        result["payback"] = None
    try:
        result["irr"] = call("metrics.irr", lib.irr, schedule)
    except (lib.IrrUndefinedError, lib.NoIrrInRangeError):
        result["irr"] = None
    return result


def study_op(lib, study: dict, call) -> dict:
    """One sensitivity sweep and one power-curve functional sweep."""
    design = _design(lib, study["array"])
    sweep = call("scenarios.sensitivity_sweep", lib.sensitivity_sweep, design, study["base"],
                 study["parameter"], study["grid"], study["metric"])
    tariff, spec = _finance(lib, study["finance"])
    rows = call("metrics.functional_sweep", lib.functional_sweep, study["power_curve"], design,
                lib.CostParameters(**study["costs"]), tariff, spec,
                lib.BreakEvenSpec(**study["break_even"]))
    return {"sweep": sweep, "rows": rows}


def check_project(project: dict, result: dict) -> list[str]:
    costs = project["costs"]
    rel = oracle.FIT_REL_TOL if costs["source"] == "higgins" else oracle.REL_TOL
    problems = oracle.check_costs(result["costs"], oracle.estimated_costs(costs), rel)
    # Downstream metrics are judged on the library's own cost split, so a
    # cost-estimation error is reported once, above.
    return problems + oracle.check_project_metrics(
        result, project["array"], result["costs"], project["finance"],
        project.get("opex_multipliers"),
    )


def check_study(study: dict, result: dict, table: dict) -> list[str]:
    problems = []
    sweep = result["sweep"]
    if [value for value, _ in sweep] != study["grid"]:
        problems.append("sweep: grid values not echoed in order")
    values = oracle.scenario_values(table, study["base"])
    for value, got in sweep:
        point = dict(values, **{study["parameter"]: value})
        problems += oracle.check_sweep_point(got, study["metric"], study["array"], point)
    rows = result["rows"]
    if len(rows) != len(study["power_curve"]):
        return problems + ["curve: wrong row count"]
    for row, (n_t, p_avg) in zip(rows, study["power_curve"]):
        problems += oracle.check_curve_row(row, n_t, p_avg, study["array"], study["costs"],
                                           study["finance"], study["break_even"])
    return problems


def project_properties(project: dict, result: dict, warned: tuple[str, ...]) -> dict:
    """Input properties a later gain may depend on; sign changes from oracle flows."""
    flows = oracle.cash_flows(project["array"], result["costs"],
                              project["finance"]["tariff_gbp_per_mwh"],
                              project.get("opex_multipliers"))
    return {"sign_changes": oracle.sign_changes(flows),
            "cost_source": project["costs"]["source"],
            "irr_ambiguous": "AmbiguousIrrWarning" in warned,
            "irr_undefined": result["irr"] is None,
            "payback_undefined": result["payback"] is None}
