"""Shared independent oracles used to freeze expected values.

Each oracle takes a different computational route to the quantity under
test (explicit year-by-year loops, root bracketing plus bisection, fine
fractional scans) so agreement is meaningful.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from tidalecon.metrics import _grid, _npv_at_rate

# GBP m: the NPV residual every IRR the library returns must stay below.
IRR_NPV_TOLERANCE = 1e-6


def pv_oracle(flows: dict[int, float], rate: float, periods: int = 1) -> float:
    """Spreadsheet-style present value: explicit per-year discounting."""
    total = 0.0
    for year in sorted(flows):
        total += flows[year] / (1.0 + rate / periods) ** (periods * year)
    return total


def cumulative_npv_oracle(flows: dict[int, float], rate: float, horizon: int) -> list[float]:
    """Cumulative discounted sums through each year 0..horizon."""
    running = 0.0
    out = []
    for year in range(horizon + 1):
        running += flows.get(year, 0.0) / (1.0 + rate) ** year
        out.append(running)
    return out


def payback_scan_oracle(
    flows: dict[int, float], rate: float, horizon: int, step: float = 1e-7
) -> float | None:
    """First fractional year where the cumulative discounted sum reaches zero.

    Scans piecewise-linear interpolation between the integer-year
    cumulative sums at a fine step.
    """
    cumulative = cumulative_npv_oracle(flows, rate, horizon)
    if cumulative[0] >= 0:
        return 0.0
    for year in range(1, horizon + 1):
        lo, hi = cumulative[year - 1], cumulative[year]
        if hi >= 0:
            # Coarse scan of the break-even year, then a fine scan of the
            # winning cell, down to the requested step.
            start, width = 0.0, 1.0
            while width > step:
                fractions = start + np.linspace(0.0, width, 1001)
                values = lo + fractions * (hi - lo)
                hit = int(np.argmax(values >= 0))
                start = float(fractions[max(hit - 1, 0)])
                width /= 1000.0
            return (year - 1) + start + width
    return None


def exact_factor(rate: float, year: int) -> Fraction:
    """Annual discount factor of ``year`` in exact rational arithmetic.

    The base is the float ``1 + rate``, as the library forms it, so this is
    the exact value its float power approximates; it never overflows.
    """
    return Fraction(1.0 + rate) ** -year


def payback_exact_oracle(flows: dict[int, float], rate: float, horizon: int) -> float | None:
    """Payback with exact rational cumulative sums, for horizons whose
    discount factors are beyond float range."""
    running = Fraction(0)
    for year in range(horizon + 1):
        previous = running
        running += Fraction(flows.get(year, 0.0)) * exact_factor(rate, year)
        if running >= 0:
            if year == 0 or running == 0:
                return float(year)
            return (year - 1) + float(previous / (previous - running))
    return None


def irr_bisection_oracle(
    flows: dict[int, float],
    low: float = -0.99,
    high: float = 10.0,
    tol: float = 1e-9,
) -> float:
    """Smallest NPV root in [low, high] via grid bracketing plus bisection."""
    n = 4000
    grid = [low + k * (high - low) / n for k in range(n + 1)]
    values = [pv_oracle(flows, r) for r in grid]
    bracket = None
    for k in range(n):
        if values[k] == 0.0:
            return grid[k]
        if (values[k] > 0) != (values[k + 1] > 0):
            bracket = (grid[k], grid[k + 1])
            break
    if bracket is None:
        raise AssertionError("oracle found no IRR bracket")
    a, b = bracket
    fa = pv_oracle(flows, a)
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = pv_oracle(flows, mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def scan_brackets_oracle(terms: tuple[list[float], list[int]]) -> list[tuple[float, float]]:
    """The exhaustive IRR bracket scan: the NPV kernel at all 2001 grid points.

    A cell whose NPVs differ in sign (> 0 against <= 0) is a bracket, and so
    is ``(r, r)`` for a point other than the last where NPV is exactly 0.0.
    ``metrics._scan_brackets`` must return this list element for element.
    """
    grid = _grid()
    values = [_npv_at_rate(terms, rate) for rate in grid]
    brackets = []
    for k in range(len(grid) - 1):
        if values[k] == 0.0:
            brackets.append((grid[k], grid[k]))
        elif (values[k] > 0) != (values[k + 1] > 0):
            brackets.append((grid[k], grid[k + 1]))
    return brackets


def lcoe_oracle(
    ca_f: float,
    ca_t: float,
    o_f: float,
    o_t: float,
    n_t: int,
    p_avg_mw: float,
    availability: float,
    efficiency: float,
    lifetime: int,
    rate: float,
) -> float:
    """Year-by-year discounted cost over discounted energy, GBP/MWh."""
    cost = ca_f + ca_t * n_t
    energy = 0.0
    for year in range(1, lifetime + 1):
        factor = (1.0 + rate) ** year
        cost += (o_f + o_t * n_t) / factor
        energy += p_avg_mw * 8760.0 * availability * efficiency / factor
    return cost * 1e6 / energy


def continuous_factor_oracle(rate: float, years: float) -> float:
    """High-precision exponential discount factor via the series in mpmath-free form."""
    return math.exp(-rate * years)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, when that suite ran."""
    try:
        from test_acceptance import SCORECARD
    except ImportError:
        return
    if not SCORECARD:
        return
    terminalreporter.section("acceptance scorecard")
    for number, title, passed in sorted(SCORECARD):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:02d} {status}: {title}")
