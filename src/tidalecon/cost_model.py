"""Physical-to-financial bridge for a tidal turbine array.

CAPEX and OPEX follow an affine relationship with turbine count (a fixed
component plus a per-turbine component). Annual energy is average power
times generating hours times an electrical-efficiency factor; revenue is
energy times a fixed tariff. All capital spend lands in year 0 and
production runs over years 1..L.
"""
from __future__ import annotations

from collections.abc import Sequence

from .finance_core import (MAX_AMOUNT, MAX_YEARS, CashFlowSchedule, Record, _check_count,
                           _check_window)

HOURS_PER_YEAR = 8760  # no leap-year handling; beyond the precision of the inputs


class CostParameters(Record):
    """Fixed and turbine-dependent CAPEX/OPEX components.

    ca_f: fixed CAPEX, GBP m
    ca_t: turbine-dependent CAPEX, GBP m per turbine
    o_f:  fixed OPEX, GBP m per year
    o_t:  turbine-dependent OPEX, GBP m per year per turbine
    """

    __slots__ = ("ca_f", "ca_t", "o_f", "o_t")

    def __init__(self, ca_f: float, ca_t: float, o_f: float, o_t: float) -> None:
        object.__setattr__(self, "ca_f", _check_window("ca_f", ca_f, 0, MAX_AMOUNT))
        object.__setattr__(self, "ca_t", _check_window("ca_t", ca_t, 0, MAX_AMOUNT))
        object.__setattr__(self, "o_f", _check_window("o_f", o_f, 0, MAX_AMOUNT))
        object.__setattr__(self, "o_t", _check_window("o_t", o_t, 0, MAX_AMOUNT))


class ArrayDesign(Record):
    """Turbine array sized for economic evaluation.

    ``availability`` may be a scalar applied to every year or a per-year
    sequence of length ``lifetime_years``. Any degradation profile is the
    caller's responsibility. ``electrical_efficiency`` converts gross to
    net energy output.
    """

    __slots__ = ("n_t", "mw_t", "p_avg_mw", "lifetime_years", "availability",
                 "electrical_efficiency")

    def __init__(self, n_t: int, mw_t: float, p_avg_mw: float, lifetime_years: int,
                 availability: float | Sequence[float] = 1.0,
                 electrical_efficiency: float = 1.0) -> None:
        _check_window("mw_t", mw_t, 1 / MAX_AMOUNT, MAX_AMOUNT)
        lifetime_years = _check_count("lifetime_years", lifetime_years, 1, MAX_YEARS)
        n_t = _check_size(n_t, mw_t, p_avg_mw)
        _check_window("electrical_efficiency", electrical_efficiency, 0, 1, open_low=True)
        if isinstance(availability, (int, float)):
            _check_window("availability", availability, 0, 1, open_low=True)
        else:
            availability = tuple(map(float, availability))
            if len(availability) != lifetime_years:
                raise ValueError(f"per-year availability needs {lifetime_years} entries, "
                                 f"got {len(availability)}")
            if not all(0 < a <= 1 for a in availability):
                for year, a in enumerate(availability, 1):
                    _check_window(f"availability in year {year}", a, 0, 1, open_low=True)
        object.__setattr__(self, "n_t", n_t)
        object.__setattr__(self, "mw_t", mw_t)
        object.__setattr__(self, "p_avg_mw", p_avg_mw)
        object.__setattr__(self, "lifetime_years", lifetime_years)
        object.__setattr__(self, "availability", availability)
        object.__setattr__(self, "electrical_efficiency", electrical_efficiency)

    def availability_in_year(self, year: int) -> float:
        year = _check_count("year", year, 1, self.lifetime_years)
        if isinstance(self.availability, tuple):
            return self.availability[year - 1]
        return float(self.availability)


def _check_size(n_t: int, mw_t: float, p_avg_mw: float) -> int:
    """``n_t`` as an int, after ``ArrayDesign``'s checks of one (n_t, P_avg) sample: the
    count, the power's window and the power against the rated capacity, ``mw_t`` checked."""
    # A count beyond the window could not be converted to a float to rate it.
    n_t = _check_count("n_t", n_t, 1, MAX_AMOUNT)
    if not 0 <= p_avg_mw <= MAX_AMOUNT:
        _check_window("p_avg_mw", p_avg_mw, 0, MAX_AMOUNT)
    if p_avg_mw > n_t * mw_t:
        raise ValueError(f"p_avg_mw {p_avg_mw} must lie in [0, rated capacity {n_t * mw_t}]")
    return n_t


class TariffScheme(Record):
    """Effective fixed electricity tariff in GBP per MWh."""

    __slots__ = ("t_e",)

    def __init__(self, t_e: float) -> None:
        object.__setattr__(self, "t_e", _check_window("t_e", t_e, 0, MAX_AMOUNT, open_low=True))


def capex(params: CostParameters, n_t: int | float) -> float:
    """Total capital expenditure for ``n_t`` turbines, GBP m."""
    if not 0 <= n_t <= MAX_AMOUNT:  # inline: once per curve row
        _check_window("n_t", n_t, 0, MAX_AMOUNT)
    return params.ca_f + params.ca_t * n_t


def opex_year(params: CostParameters, n_t: int | float) -> float:
    """Operational expenditure for one year of an ``n_t``-turbine array, GBP m."""
    if not 0 <= n_t <= MAX_AMOUNT:  # inline: once per curve row
        _check_window("n_t", n_t, 0, MAX_AMOUNT)
    return params.o_f + params.o_t * n_t


def _checked_costs(
    n_t: int, p_avg_mw: float, params: CostParameters, tariff: TariffScheme | None = None
) -> tuple[float, float]:
    """CAPEX and a year's OPEX of ``n_t`` turbines, GBP m. They, peak energy and, given a tariff,
    peak revenue must each be <= ``MAX_AMOUNT``: products, which no one field's window bounds."""
    capital, annual_opex = capex(params, n_t), opex_year(params, n_t)
    peak_energy = p_avg_mw * HOURS_PER_YEAR
    peak_revenue = 0.0 if tariff is None else peak_energy * tariff.t_e / 1e6
    if max(capital, annual_opex, peak_energy, peak_revenue) > MAX_AMOUNT:  # none is NaN
        for name, amount, unit in (
            ("CAPEX", capital, "GBP m"),
            ("OPEX per year", annual_opex, "GBP m"),
            (f"peak energy p_avg_mw * {HOURS_PER_YEAR}", peak_energy, "MWh"),
            ("peak revenue", peak_revenue, "GBP m"),
        ):
            if amount > MAX_AMOUNT:
                raise ValueError(f"{name} must be <= {MAX_AMOUNT:g} {unit}, got {amount}")
    return capital, annual_opex


def hours_generating(design: ArrayDesign, year: int) -> float:
    """Generating hours in an operating year: 8760 times availability."""
    return HOURS_PER_YEAR * design.availability_in_year(year)


def energy_year(design: ArrayDesign, year: int) -> float:
    """Net energy output in an operating year, MWh."""
    return design.p_avg_mw * hours_generating(design, year) * design.electrical_efficiency


def _energy_by_year(design: ArrayDesign) -> list[float]:
    """``energy_year`` of each operating year 1..L, MWh, in the same arithmetic."""
    p_avg, efficiency = design.p_avg_mw, design.electrical_efficiency
    if isinstance(design.availability, tuple):
        return [p_avg * (HOURS_PER_YEAR * a) * efficiency for a in design.availability]
    energy = p_avg * (HOURS_PER_YEAR * float(design.availability)) * efficiency
    return [energy] * design.lifetime_years


def build_schedule(
    design: ArrayDesign,
    params: CostParameters,
    tariff: TariffScheme,
    opex_multipliers: Sequence[float] | None = None,
) -> CashFlowSchedule:
    """Full project cash-flow schedule: CAPEX at year 0, then revenue minus OPEX.

    ``opex_multipliers`` optionally scales the OPEX of each operating year
    (length ``lifetime_years``), so maintenance cycles can be encoded; the
    default is a constant OPEX year on year.
    """
    if opex_multipliers is not None:
        multipliers = tuple(map(float, opex_multipliers))
        if len(multipliers) != design.lifetime_years:
            raise ValueError(f"opex_multipliers needs {design.lifetime_years} entries, "
                             f"got {len(multipliers)}")
        if not all(0 <= m <= MAX_AMOUNT for m in multipliers):
            for year, m in enumerate(multipliers, 1):
                _check_window(f"opex multiplier in year {year}", m, 0, MAX_AMOUNT)
    else:
        multipliers = (1.0,) * design.lifetime_years

    base_opex = opex_year(params, design.n_t)
    t_e = tariff.t_e
    flows = [-capex(params, design.n_t)]
    flows += [
        energy * t_e / 1e6 - base_opex * multiplier
        for energy, multiplier in zip(_energy_by_year(design), multipliers)
    ]
    return CashFlowSchedule(horizon=design.lifetime_years, flows=flows)
