"""Time-value-of-money primitives: discount factors and present values.

All monetary amounts are carried in millions of pounds (GBP m). Cash flows
are indexed by whole project years, with year 0 the installation year.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import mul


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

    ``flows`` is a tuple of the ``horizon + 1`` yearly flows, year 0 first.
    The constructor takes that sequence, or a mapping from year to amount
    in which every year lies within [0, horizon] and missing years are zero
    flow.
    """

    horizon: int
    flows: tuple[float, ...] = field(default_factory=dict)  # empty mapping: all zero

    def __post_init__(self) -> None:
        if not isinstance(self.horizon, int) or self.horizon < 0:
            raise ValueError(f"horizon must be a non-negative integer, got {self.horizon}")
        flows = self.flows
        if isinstance(flows, Mapping):
            dense = [0.0] * (self.horizon + 1)
            for year, amount in flows.items():
                if not isinstance(year, int) or not (0 <= year <= self.horizon):
                    raise ValueError(f"flow year {year} outside [0, {self.horizon}]")
                _check_flow(year, amount)
                dense[year] = amount
            flows = dense
        elif len(flows) != self.horizon + 1:
            raise ValueError(f"need {self.horizon + 1} yearly flows, got {len(flows)}")
        elif not all(map(math.isfinite, flows)):
            for year, amount in enumerate(flows):
                _check_flow(year, amount)
        object.__setattr__(self, "flows", tuple(map(float, flows)))

    def flow(self, year: int) -> float:
        """Net flow in a given year; zero outside [0, horizon]."""
        return self.flows[year] if 0 <= year <= self.horizon else 0.0


def _check_flow(year: int, amount: float) -> None:
    if not math.isfinite(amount):
        raise ValueError(f"flow for year {year} is not finite: {amount}")


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
    return next(_factors(spec, (years,)))


def _factors(spec: DiscountSpec, years: Iterable[float]) -> Iterator[float]:
    """``_factor`` of each of ``years`` in turn, computed only as it is drawn,
    so a factor beyond float range raises ``OverflowError`` only when reached.
    """
    if spec.mode is Compounding.CONTINUOUS:
        return map(math.exp, map(mul, repeat(-spec.annual_rate), years))
    p = spec.periods_per_year
    return map(pow, repeat(1.0 + spec.annual_rate / p), map(mul, repeat(-p), years))


def _sum(values: Iterable[float]) -> float:
    """Float sum, added left to right with one rounding per term.

    From Python 3.12 on, ``sum`` of floats compensates, so it gives other
    bits than 3.10 and 3.11; every sum behind a reported number, or behind
    a rounding bound, adds this way on every version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _discounted_sum(amounts: Sequence[float], exponents: Sequence[int], base: float) -> float:
    """``sum(a * base ** e)`` over the terms in order: discrete-compounding NPV.

    This is the one place that does the discrete discounting arithmetic, so
    ``present_value`` and the IRR root-finder agree bit for bit. It adds
    as ``_sum`` does, inline for speed. When a factor overflows (a long
    horizon at a rate near -1), or a product does and opposite infinities
    meet in a NaN sum, the zero amounts, which add nothing whatever their
    factor, are left out and the sum is tried again. If it still fails, the
    NPV is beyond float range: the result is then an infinity of the NPV's
    sign, taken from the sum with every factor scaled down by the largest.
    """
    total = 0.0
    try:
        for amount, exponent in zip(amounts, exponents):
            total += amount * base**exponent
    except OverflowError:
        total = math.nan
    if total == total:  # not NaN: the one check on the common path
        return total
    if 0.0 in amounts:
        kept = [k for k, amount in enumerate(amounts) if amount]
        return _discounted_sum([amounts[k] for k in kept], [exponents[k] for k in kept], base)
    lowest = min(exponents)
    scaled = _sum(a * base ** (e - lowest) for a, e in zip(amounts, exponents))
    return math.copysign(math.inf, scaled)


def present_value(schedule: CashFlowSchedule, spec: DiscountSpec) -> float:
    """Discounted sum of all flows in the schedule, in GBP m.

    An NPV beyond float range is returned as an infinity of its sign.
    """
    flows = schedule.flows
    if spec.mode is Compounding.CONTINUOUS:
        return _continuous_sum(flows, range(len(flows)), spec)
    p = spec.periods_per_year
    return _discounted_sum(flows, range(0, -p * len(flows), -p), 1.0 + spec.annual_rate / p)


def _continuous_sum(amounts: Sequence[float], years: Sequence[int], spec: DiscountSpec) -> float:
    """``_discounted_sum`` for continuous compounding: the same order of
    addition and the same fallbacks when a factor passes float range."""
    try:
        total = _sum(map(mul, amounts, _factors(spec, years)))
    except OverflowError:
        total = math.nan
    if total == total:
        return total
    if 0.0 in amounts:
        kept = [k for k, amount in enumerate(amounts) if amount]
        return _continuous_sum([amounts[k] for k in kept], [years[k] for k in kept], spec)
    # Only a negative rate overflows, so the last year's factor is the
    # largest; dividing every factor by it keeps the sign.
    scaled = _sum(map(mul, amounts, _factors(spec, [year - years[-1] for year in years])))
    return math.copysign(math.inf, scaled)
