"""Core financial metrics for a small tidal-stream array.

A four-turbine array of 1.5 MW devices, averaging 3.2 MW of output at 95%
availability, sold at a 150 GBP/MWh strike price and discounted at 10%.
We build the lifetime cash-flow schedule and read off NPV, LCOE, payback
and IRR.
"""
from tidalecon import (
    ArrayDesign,
    CostParameters,
    DiscountSpec,
    TariffScheme,
    build_schedule,
    irr,
    lcoe,
    npv,
    payback_period,
)

design = ArrayDesign(
    n_t=4, mw_t=1.5, p_avg_mw=3.2, lifetime_years=25, availability=0.95
)
params = CostParameters(ca_f=9.2, ca_t=3.3, o_f=0.32, o_t=0.15)
tariff = TariffScheme(t_e=150.0)
spec = DiscountSpec(annual_rate=0.10)

schedule = build_schedule(design, params, tariff)
print(f"Year-0 outlay (CAPEX):     {-schedule.flows[0]:8.2f} GBP m")
print(f"Net cash flow, years 1-25: {schedule.flows[1]:8.2f} GBP m/year")
print()
print(f"NPV:     {npv(schedule, spec):8.2f} GBP m")
print(f"LCOE:    {lcoe(design, params, spec):8.2f} GBP/MWh")
print(f"Payback: {payback_period(schedule, spec):8.2f} years")
print(f"IRR:     {irr(schedule) * 100:8.2f} %")

# The LCOE is the tariff at which the project exactly breaks even.
break_even = build_schedule(design, params, TariffScheme(lcoe(design, params, spec)))
print()
print(f"NPV when selling at the LCOE: {npv(break_even, spec):.2e} GBP m (zero)")
