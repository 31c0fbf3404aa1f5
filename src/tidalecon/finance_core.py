"""Time-value-of-money primitives: discount factors and present values.

All monetary amounts are carried in millions of pounds (GBP m). Cash flows
are indexed by whole project years, with year 0 the installation year.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import mul
from typing import Mapping, Sequence


class Compounding(Enum):
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class DiscountSpec:
    """Discounting convention: annual rate plus compounding mode.

    ``periods_per_year`` is only meaningful for discrete compounding
    (1 = annual, 4 = quarterly, ...). Defaults to annual discrete, which
    is sufficient for array design studies where the exact timing of
    costs within a year is not known.
    """

    annual_rate: float
    mode: Compounding = Compounding.DISCRETE
    periods_per_year: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.annual_rate) or self.annual_rate <= -1.0:
            raise ValueError(f"annual_rate must be finite and > -1, got {self.annual_rate}")
        if self.mode is Compounding.DISCRETE:
            if not isinstance(self.periods_per_year, int) or self.periods_per_year < 1:
                raise ValueError(
                    f"periods_per_year must be a positive integer, got {self.periods_per_year}"
                )


@dataclass(frozen=True)
class CashFlowSchedule:
    """Net cash flow per project year, in GBP m (positive = inflow).

    Years missing from ``flows`` are treated as zero flow. Every listed
    year must lie within [0, horizon].
    """

    horizon: int
    flows: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.horizon, int) or self.horizon < 0:
            raise ValueError(f"horizon must be a non-negative integer, got {self.horizon}")
        frozen = {}
        for year, amount in self.flows.items():
            if not isinstance(year, int) or not (0 <= year <= self.horizon):
                raise ValueError(f"flow year {year} outside [0, {self.horizon}]")
            if not math.isfinite(amount):
                raise ValueError(f"flow for year {year} is not finite: {amount}")
            frozen[year] = float(amount)
        object.__setattr__(self, "flows", frozen)

    def flow(self, year: int) -> float:
        """Net flow in a given year; zero for years not listed."""
        return self.flows.get(year, 0.0)


def discount_factor(spec: DiscountSpec, years: float) -> float:
    """Factor converting a flow ``years`` into the future to present value.

    ``years`` may be fractional (used for payback interpolation). Equals 1
    at year 0, and lies in (0, 1] for non-negative rates.
    """
    if years < 0:
        raise ValueError(f"cannot discount a flow at negative time {years}")
    return _factor(spec, years)


def _factor(spec: DiscountSpec, years: float) -> float:
    """``discount_factor`` without its time check, for callers whose years
    are schedule years. A negative time compounds: ``_factor(spec, y - h)``
    is the factor of year ``y`` divided by that of year ``h``, computed
    without forming either one, so it stays in float range when both would
    overflow.
    """
    if spec.mode is Compounding.CONTINUOUS:
        return math.exp(-spec.annual_rate * years)
    p = spec.periods_per_year
    return (1.0 + spec.annual_rate / p) ** (-p * years)


def _discrete_terms(
    schedule: CashFlowSchedule, periods_per_year: int = 1
) -> tuple[list[float], list[int]]:
    """The schedule's flows in year order, with each year's discount exponent.

    The exponent of year ``y`` is ``-periods_per_year * y``, so the pair
    feeds ``_discounted_sum`` with the base ``1 + r / periods_per_year``.
    """
    years = sorted(schedule.flows)
    return [schedule.flows[y] for y in years], [-periods_per_year * y for y in years]


def _discounted_sum(amounts: Sequence[float], exponents: Sequence[int], base: float) -> float:
    """``sum(a * base ** e)`` over the terms in order: discrete-compounding NPV.

    This is the one place that does the discrete discounting arithmetic, so
    ``present_value`` and the IRR root-finder agree bit for bit. When a
    factor overflows (a long horizon at a rate near -1), or a product does
    and opposite infinities meet in a NaN sum, the NPV is beyond float
    range: the result is then an infinity of the NPV's sign, taken from the
    sum with every factor scaled down by the largest one.
    """
    try:
        total = sum(map(mul, amounts, map(pow, repeat(base), exponents)))
    except OverflowError:
        total = math.nan
    if total == total:  # not NaN: the one check on the common path
        return total
    lowest = min(exponents)
    scaled = sum(map(mul, amounts, map(pow, repeat(base), [e - lowest for e in exponents])))
    return math.copysign(math.inf, scaled)


def present_value(schedule: CashFlowSchedule, spec: DiscountSpec) -> float:
    """Discounted sum of all flows in the schedule, in GBP m.

    An NPV beyond float range is returned as an infinity of its sign.
    """
    if spec.mode is Compounding.CONTINUOUS:
        flows = sorted(schedule.flows.items())
        try:
            total = sum(amount * _factor(spec, year) for year, amount in flows)
        except OverflowError:
            total = math.nan
        if total == total:  # as in ``_discounted_sum``: NaN means opposite overflows
            return total
        # Only a negative rate overflows, so the last year's factor is the
        # largest; dividing every factor by it keeps the sign.
        last = flows[-1][0]
        scaled = sum(amount * _factor(spec, year - last) for year, amount in flows)
        return math.copysign(math.inf, scaled)
    p = spec.periods_per_year
    return _discounted_sum(*_discrete_terms(schedule, p), 1.0 + spec.annual_rate / p)
