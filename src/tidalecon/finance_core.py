"""Time-value-of-money primitives: discount factors and present values.

All monetary amounts are carried in millions of pounds (GBP m). Cash flows
are indexed by whole project years, with year 0 the installation year.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from itertools import repeat
from operator import index, mul, neg

# The input window, checked where inputs enter. The paper's lifetimes are
# 20-30 years and its rates 5-15%. Inside the window no discount factor
# exceeds 0.01 ** -100 = 1e200, so no discounted amount exceeds 1e300 and no
# sum of at most 101 of them leaves float range.
MAX_YEARS = 100
MIN_RATE = -0.99
MAX_AMOUNT = 1e100  # GBP m, MWh for energy or MW for power


class Compounding(Enum):
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


class Record:
    """Immutable record. A subclass names its fields in ``__slots__``, in order; its
    ``__init__`` checks the arguments, then sets each field once with
    ``object.__setattr__``. Equality, hash, repr and pickling go by the fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class DiscountSpec(Record):
    """Discounting convention: annual rate plus compounding mode.

    Discrete compounding is annual, the default, which is sufficient for array
    design studies where the exact timing of costs within a year is not known.
    """

    __slots__ = ("annual_rate", "mode")

    def __init__(self, annual_rate: float, mode: Compounding = Compounding.DISCRETE) -> None:
        object.__setattr__(self, "annual_rate", _check_window("annual_rate", annual_rate, MIN_RATE,
                                                              MAX_AMOUNT))
        object.__setattr__(self, "mode", mode)


class CashFlowSchedule(Record):
    """Net cash flow per project year, in GBP m (positive = inflow).

    ``flows`` holds the ``horizon + 1`` yearly flows, year 0 first, and is
    stored as a tuple of floats, so ``flows[year]`` is one year's flow.
    """

    __slots__ = ("horizon", "flows")

    def __init__(self, horizon: int, flows: Sequence[float]) -> None:
        horizon = _check_count("horizon", horizon, 0, MAX_YEARS)
        if isinstance(flows, Mapping):  # iterating it would read its years as the flows
            raise TypeError("flows must be the yearly amounts, year 0 first, not a mapping")
        if len(flows) != horizon + 1:
            raise ValueError(f"need {horizon + 1} yearly flows, got {len(flows)}")
        for year, amount in enumerate(flows):
            if not abs(amount) <= MAX_AMOUNT:  # also rejects NaN
                _check_window(f"flow for year {year}", amount, -MAX_AMOUNT, MAX_AMOUNT)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "flows", tuple(map(float, flows)))


def _check_window(name: str, value: float, low: float, high: float, open_low: bool = False) -> float:
    """``value`` if in [low, high], or (low, high] if ``open_low``; NaN is in none. Checks run per
    curve row (+10% a sweep) or schedule flow (2.5x a build) compare inline, calling it to raise."""
    if not (low < value if open_low else low <= value) or not value <= high:
        raise ValueError(f"{name} must be in {'(' if open_low else '['}{low}, {high}], "
                         f"got {_shown(value)}")
    return value


def _check_count(name: str, value: object, low: int, high: float) -> int:
    """``value`` as an int in [low, high]; an integral float such as 20.0 or a numpy int is
    taken, True is not. No int goes through ``float()``, which overflows past float range."""
    if type(value) is float and value.is_integer():
        value = int(value)
    elif type(value) is not int and type(value) is not bool and hasattr(value, "__index__"):
        value = index(value)
    if type(value) is not int or not low <= value <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {_shown(value)}")
    return value


def _shown(value: object) -> object:
    """``value`` to echo in an error: past 15 digits, an int as its digit count, so one
    short line, with no float to overflow and no ``str()``, which refuses past 4300 digits."""
    if type(value) is int and abs(value) >= 10**15:
        digits = abs(value).bit_length() * 1233 >> 12  # from below: 1233 / 4096 < log10(2)
        while abs(value) >= 10**digits:
            digits += 1
        return f"an integer of {digits} digits"
    return value


def discount_factor(spec: DiscountSpec, years: float) -> float:
    """Factor converting a flow ``years`` into the future to present value.

    ``years`` may be fractional. Equals 1 at year 0, and lies in (0, 1] for
    non-negative rates.
    """
    return next(_factors(spec, (_check_window("years", years, 0, MAX_YEARS),)))


def _factors(spec: DiscountSpec, years: Iterable[float]) -> Iterator[float]:
    """``discount_factor`` of each of ``years`` in turn, without its time check."""
    if spec.mode is Compounding.CONTINUOUS:
        return map(math.exp, map(mul, repeat(-spec.annual_rate), years))
    return map(pow, repeat(1.0 + spec.annual_rate), map(neg, years))


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


def _discounted_sum(amounts: Sequence[float], exponents: Sequence[float], base: float) -> float:
    """``sum(a * base ** e)`` over the terms in order: discrete-compounding NPV.

    ``present_value`` and the IRR search call it, so they agree bit for bit;
    the IRR seeds' NPVs add the same products from tables of ``base ** e``
    made at import. It adds as ``_sum`` does, inline for speed.
    """
    total = 0.0
    for amount, exponent in zip(amounts, exponents):
        total += amount * base**exponent
    return total


def present_value(schedule: CashFlowSchedule, spec: DiscountSpec) -> float:
    """Discounted sum of all flows in the schedule, in GBP m."""
    flows = schedule.flows
    if spec.mode is Compounding.CONTINUOUS:
        return _sum(map(mul, flows, _factors(spec, range(len(flows)))))
    return _discounted_sum(flows, range(0, -len(flows), -1), 1.0 + spec.annual_rate)
