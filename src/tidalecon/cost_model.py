"""Physical-to-financial bridge for a tidal turbine array.

CAPEX and OPEX follow an affine relationship with turbine count (a fixed
component plus a per-turbine component). Annual energy is average power
times generating hours times an electrical-efficiency factor; revenue is
energy times a fixed tariff. All capital spend lands in year 0 and
production runs over years 1..L.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .finance_core import MAX_AMOUNT, MAX_YEARS, CashFlowSchedule

HOURS_PER_YEAR = 8760  # no leap-year handling; beyond the precision of the inputs


@dataclass(frozen=True)
class CostParameters:
    """Fixed and turbine-dependent CAPEX/OPEX components.

    ca_f: fixed CAPEX, GBP m
    ca_t: turbine-dependent CAPEX, GBP m per turbine
    o_f:  fixed OPEX, GBP m per year
    o_t:  turbine-dependent OPEX, GBP m per year per turbine
    """

    ca_f: float
    ca_t: float
    o_f: float
    o_t: float

    def __post_init__(self) -> None:
        for name in ("ca_f", "ca_t", "o_f", "o_t"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ArrayDesign:
    """Turbine array sized for economic evaluation.

    ``availability`` may be a scalar applied to every year or a per-year
    sequence of length ``lifetime_years``. Any degradation profile is the
    caller's responsibility. ``electrical_efficiency`` converts gross to
    net energy output.
    """

    n_t: int
    mw_t: float
    p_avg_mw: float
    lifetime_years: int
    availability: float | Sequence[float] = 1.0
    electrical_efficiency: float = 1.0

    def __post_init__(self) -> None:
        # A count beyond the window could not be converted to a float to rate it.
        # ``type``, not ``isinstance``: True is an int, but not a count.
        if type(self.n_t) is not int or not 1 <= self.n_t <= MAX_AMOUNT:
            raise ValueError(f"n_t must be an integer in [1, {MAX_AMOUNT:g}], got {self.n_t}")
        if not math.isfinite(self.mw_t) or self.mw_t <= 0:
            raise ValueError(f"mw_t must be finite and positive, got {self.mw_t}")
        if type(self.lifetime_years) is not int or not 1 <= self.lifetime_years <= MAX_YEARS:
            raise ValueError(
                f"lifetime_years must be an integer in [1, {MAX_YEARS}], got {self.lifetime_years}"
            )
        # Checked apart from the capacity, which is inf when n_t * mw_t overflows.
        if not 0 <= self.p_avg_mw < math.inf:  # also rejects NaN
            raise ValueError(f"p_avg_mw must be finite and >= 0, got {self.p_avg_mw}")
        if self.p_avg_mw > self.n_t * self.mw_t:
            raise ValueError(
                f"p_avg_mw {self.p_avg_mw} must lie in [0, rated capacity "
                f"{self.n_t * self.mw_t}]"
            )
        if not 0 < self.electrical_efficiency <= 1:
            raise ValueError(
                f"electrical_efficiency must be in (0, 1], got {self.electrical_efficiency}"
            )
        if isinstance(self.availability, (int, float)):
            if not 0 < self.availability <= 1:
                raise ValueError(f"availability must be in (0, 1], got {self.availability}")
        else:
            values = tuple(float(a) for a in self.availability)
            if len(values) != self.lifetime_years:
                raise ValueError(
                    f"per-year availability needs {self.lifetime_years} entries, "
                    f"got {len(values)}"
                )
            if any(not 0 < a <= 1 for a in values):
                raise ValueError("every availability entry must be in (0, 1]")
            object.__setattr__(self, "availability", values)

    def availability_in_year(self, year: int) -> float:
        _check_operating_year(self, year)
        if isinstance(self.availability, tuple):
            return self.availability[year - 1]
        return float(self.availability)


@dataclass(frozen=True)
class TariffScheme:
    """Effective fixed electricity tariff in GBP per MWh."""

    t_e: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_e) or self.t_e <= 0:
            raise ValueError(f"tariff must be finite and positive, got {self.t_e}")


def _check_operating_year(design: ArrayDesign, year: int) -> None:
    if not 1 <= year <= design.lifetime_years:
        raise ValueError(
            f"year {year} outside operating window [1, {design.lifetime_years}]"
        )


def capex(params: CostParameters, n_t: int | float) -> float:
    """Total capital expenditure for ``n_t`` turbines, GBP m."""
    if n_t < 0:
        raise ValueError(f"n_t must be >= 0, got {n_t}")
    return params.ca_f + params.ca_t * n_t


def opex_year(params: CostParameters, n_t: int | float) -> float:
    """Operational expenditure for one year of an ``n_t``-turbine array, GBP m."""
    if n_t < 0:
        raise ValueError(f"n_t must be >= 0, got {n_t}")
    return params.o_f + params.o_t * n_t


def hours_generating(design: ArrayDesign, year: int) -> float:
    """Generating hours in an operating year: 8760 times availability."""
    return HOURS_PER_YEAR * design.availability_in_year(year)


def energy_year(design: ArrayDesign, year: int) -> float:
    """Net energy output in an operating year, MWh."""
    return design.p_avg_mw * hours_generating(design, year) * design.electrical_efficiency


def _energy_by_year(design: ArrayDesign) -> list[float]:
    """Net energy output of each operating year 1..L, MWh.

    Each entry is ``energy_year`` of its year, computed in the same order.
    """
    p_avg, efficiency = design.p_avg_mw, design.electrical_efficiency
    if isinstance(design.availability, tuple):
        return [p_avg * (HOURS_PER_YEAR * a) * efficiency for a in design.availability]
    energy = p_avg * (HOURS_PER_YEAR * float(design.availability)) * efficiency
    return [energy] * design.lifetime_years


def revenue_year(design: ArrayDesign, tariff: TariffScheme, year: int) -> float:
    """Revenue in an operating year, GBP m."""
    return energy_year(design, year) * tariff.t_e / 1e6


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
        multipliers = tuple(float(m) for m in opex_multipliers)
        if len(multipliers) != design.lifetime_years:
            raise ValueError(
                f"opex_multipliers needs {design.lifetime_years} entries, got {len(multipliers)}"
            )
        if any(not 0 <= m < math.inf for m in multipliers):  # also rejects NaN
            raise ValueError("opex_multipliers must be finite and non-negative")
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
