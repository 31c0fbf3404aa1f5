"""Decompose published cost observations into fixed and per-turbine parts.

Two routes are supported: a two-point solve (total cost known at two array
sizes) and a ratio-based split (total cost known at one size plus the
fixed-to-turbine-dependent cost ratio). A learning-rate projection and a
least-squares ratio fit round out the toolkit.

Turbine counts may be fractional here: published figures are often per MW
for a given rated capacity, so counts like 100 MW / 1.5 MW = 66.7 arise
naturally. Integer counts are only required when building an ArrayDesign.
"""
from __future__ import annotations

import math
import warnings
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum

from .finance_core import MAX_AMOUNT, Record, _check_window

RATIO_WINDOW = (2.3, 3.9)  # range supported by offshore-wind cost data


class CostBasis(Enum):
    TOTAL = "total"
    PER_MW = "per_mw"


class DataConsistencyWarning(UserWarning):
    """The observations imply a physically implausible cost component."""


class RatioWindowWarning(UserWarning):
    """Fixed-to-turbine cost ratio outside the empirically supported window."""


class CostObservation(Record):
    """A published cost figure for an array of a known size.

    ``cost`` is either the total in GBP m (basis TOTAL) or GBP m per MW
    (basis PER_MW, in which case ``capacity_mw`` is required).
    ``currency_rate`` converts to GBP (1.0 if already GBP).
    """

    __slots__ = ("n_t", "cost", "basis", "capacity_mw", "currency_rate")

    def __init__(self, n_t: float, cost: float, basis: CostBasis = CostBasis.TOTAL,
                 capacity_mw: float | None = None, currency_rate: float = 1.0) -> None:
        object.__setattr__(self, "n_t", _check_window("n_t", n_t, 0, MAX_AMOUNT, open_low=True))
        object.__setattr__(self, "cost", _check_window("cost", cost, 0, MAX_AMOUNT))
        object.__setattr__(self, "basis", basis)
        if capacity_mw is None and basis is CostBasis.PER_MW:
            raise ValueError("per-MW observations need a capacity_mw")
        object.__setattr__(self, "capacity_mw", capacity_mw if capacity_mw is None else
                           _check_window("capacity_mw", capacity_mw, 0, MAX_AMOUNT, open_low=True))
        object.__setattr__(self, "currency_rate", _check_window("currency_rate", currency_rate, 0,
                                                                MAX_AMOUNT, open_low=True))


class FixedToTurbineRatio(Record):
    """Ratio of the fixed cost component to the per-turbine component."""

    __slots__ = ("ratio",)

    def __init__(self, ratio: float) -> None:
        _check_window("ratio", ratio, 0, MAX_AMOUNT)
        low, high = RATIO_WINDOW
        if not low <= ratio <= high:
            warnings.warn(
                f"ratio {ratio:g} outside the supported window [{low}, {high}]",
                RatioWindowWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "ratio", ratio)

    def __copy__(self, memo: dict | None = None) -> FixedToTurbineRatio:
        return self  # one float field: a copy is the record itself, and warns no second time

    __deepcopy__ = __copy__


CostSplit = namedtuple("CostSplit", "fixed per_turbine")


def normalize_observation(obs: CostObservation) -> float:
    """Total cost of the observed array in GBP m."""
    total = obs.cost * obs.capacity_mw if obs.basis is CostBasis.PER_MW else obs.cost
    return total * obs.currency_rate


def split_two_points(obs1: CostObservation, obs2: CostObservation) -> CostSplit:
    """Fixed and per-turbine components from totals at two array sizes.

    The per-turbine component is the slope between the two points and the
    fixed component the intercept; either observation is reconstructed
    exactly by fixed + per_turbine * n_t. A negative fixed component is
    returned as-is with a data-consistency warning.
    """
    if obs1.n_t == obs2.n_t:
        raise ValueError(f"observations must have distinct n_t, both are {obs1.n_t}")
    total1 = normalize_observation(obs1)
    total2 = normalize_observation(obs2)
    per_turbine = (total2 - total1) / (obs2.n_t - obs1.n_t)
    fixed = total1 - per_turbine * obs1.n_t
    if fixed < 0:
        warnings.warn(
            f"two-point split gives a negative fixed component ({fixed:g} GBP m); "
            "the observations are mutually inconsistent",
            DataConsistencyWarning,
            stacklevel=2,
        )
    return CostSplit(fixed=fixed, per_turbine=per_turbine)


def split_from_ratio(obs: CostObservation, ratio: FixedToTurbineRatio) -> CostSplit:
    """Fixed and per-turbine components from one total plus the cost ratio."""
    per_turbine = normalize_observation(obs) / (ratio.ratio + obs.n_t)  # n_t > 0, ratio >= 0
    return CostSplit(fixed=ratio.ratio * per_turbine, per_turbine=per_turbine)


def learning_rate_adjust(
    cost: float,
    learning_rate: float,
    installed_from_mw: float,
    installed_to_mw: float,
) -> float:
    """Project a cost across a change in cumulative installed capacity.

    Standard experience-curve power law: each doubling of installed capacity
    multiplies the cost by (1 - learning_rate); the result keeps the cost's window.
    """
    _check_window("cost", cost, 0, MAX_AMOUNT)
    _check_window("installed_from_mw", installed_from_mw, 0, MAX_AMOUNT, open_low=True)
    _check_window("installed_to_mw", installed_to_mw, 0, MAX_AMOUNT, open_low=True)
    if not 0 <= learning_rate < 1:
        raise ValueError(f"learning rate must be in [0, 1), got {learning_rate}")
    try:
        factor = (1.0 - learning_rate) ** math.log2(installed_to_mw / installed_from_mw)
    except OverflowError:
        raise ValueError("the factor (1 - learning rate) ** doublings is past float range") from None
    return _check_window("adjusted cost", cost * factor, 0, MAX_AMOUNT)


def fit_higgins_ratio(
    normalized_points: Sequence[tuple[float, float]],
) -> FixedToTurbineRatio:
    """Least-squares fixed-to-turbine ratio from (n_t, total GBP m) points.

    Fits a line through the points by ordinary least squares, centred on
    the means; the ratio is intercept over slope. A non-positive slope
    means the data carry no per-turbine cost signal and is reported as an
    error.
    """
    if len(normalized_points) < 2:
        raise ValueError("need at least two points to fit a cost line")
    counts = [float(n) for n, _ in normalized_points]
    totals = [float(t) for _, t in normalized_points]
    for index, (n, t) in enumerate(zip(counts, totals)):
        _check_window(f"point {index}: n_t", n, 0, MAX_AMOUNT)
        _check_window(f"point {index}: total", t, 0, MAX_AMOUNT)
    if len(set(counts)) < 2:
        raise ValueError("need at least two distinct n_t values")
    mean_n = math.fsum(counts) / len(counts)
    mean_t = math.fsum(totals) / len(totals)
    dn = [n - mean_n for n in counts]
    spread = math.fsum(d * d for d in dn)
    if spread == 0:  # distinct counts so close that each d * d underflows
        raise ValueError("the n_t values are too close to fit a line")
    slope = math.fsum(d * (t - mean_t) for d, t in zip(dn, totals)) / spread
    if slope <= 0:
        raise ValueError(f"fitted per-turbine cost is non-positive ({slope:g} GBP m)")
    intercept = mean_t - slope * mean_n
    return FixedToTurbineRatio(ratio=intercept / slope)
