"""Shared independent oracles used to freeze expected values.

Each oracle takes a different computational route to the quantity under
test (explicit year-by-year loops, root bracketing plus bisection, fine
fractional scans) so agreement is meaningful.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from tidalecon.finance_core import Compounding, DiscountSpec, _factors, _sum
from tidalecon.metrics import _npv_at_rate

# GBP m: the NPV residual every IRR the library returns must stay below.
IRR_NPV_TOLERANCE = 1e-6
UNIT = 2.0**-53  # the unit roundoff of a float


def pv_oracle(flows: dict[int, float], rate: float) -> float:
    """Spreadsheet-style present value: explicit per-year discounting."""
    total = 0.0
    for year in sorted(flows):
        total += flows[year] / (1.0 + rate) ** year
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
    """Discrete discount factor of ``year`` in exact rational arithmetic.

    The base is the float ``1 + rate``, as the library forms it, so this is
    the exact value its float power approximates.
    """
    return Fraction(1.0 + rate) ** -year


def exact_continuous_factor(rate: float, year: int) -> Fraction:
    """exp(-rate * year) to 40 significant digits, as a rational."""
    with localcontext() as context:
        context.prec = 40
        return Fraction((Decimal(-rate) * year).exp())


def rounding_bound(amounts: Sequence[float], spec: DiscountSpec, formed: int = 0) -> float:
    """First-order bound on the rounding error of sum of a_k * f_k over years
    k = 0..L, each f_k the library's discount factor, added left to right from
    0.0 as ``present_value`` adds it (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., SIAM 2002, §3.1 and §4.2).

    Discrete: u * sum of |a_k| * f_k * (k + L + 3 + formed), u = 2**-53.
    Rounding 1 + r errs by u, so (1 + r)**-k by k * u; ``pow`` adds one unit,
    the product one and the sum at most L, as the first of the L + 1 terms
    is added to 0.0 exactly. Continuous: factor k is exp of the rounded
    -r * k, whose rounding errs by |r| * k * u and becomes a relative error
    of |r| * k * u in exp, which adds one unit of its own; so |r| * k takes
    k's place. In both, the third unit covers libm's excess over half an
    ulp (glibc's ``pow`` and ``exp`` err by under 0.52 ulp, so 1.04 units)
    and the second-order terms, of order (k + L + 3)**2 * u**2 relative,
    while (|r| * k + L + 3) * u stays below 2**-30, as it does for
    L <= 100 and |r| <= 1e4. ``formed`` counts the roundings behind each
    a_k itself, relative to |a_k|, when the exact sum is of the exact a_k.
    The bound is relative, so it assumes that nothing underflows: a result
    below 2**-1022 errs by up to 2**-1075 absolute instead.
    """
    horizon = len(amounts) - 1
    rate = abs(spec.annual_rate) if spec.mode is Compounding.CONTINUOUS else 1.0
    factors = _factors(spec, range(horizon + 1))
    return UNIT * _sum(abs(a) * f * (rate * k + horizon + 3 + formed)
                       for k, (a, f) in enumerate(zip(amounts, factors)))


def exact_npv(amounts: Sequence[float | Fraction], spec: DiscountSpec) -> Fraction:
    """sum of a_k * f_k over years 0..L for exact amounts and the exact factors
    of the float rate: (1 + r)**-k in integers under discrete compounding, and
    exp(-r * k) from exp(-r) to 60 significant digits under continuous."""
    ratios = [a.as_integer_ratio() for a in amounts]
    if spec.mode is Compounding.CONTINUOUS:
        with localcontext() as context:
            context.prec = 60
            ratio, total = Decimal(-spec.annual_rate).exp(), Decimal(0)
            for numerator, denominator in reversed(ratios):  # Horner in exp(-r)
                total = total * ratio + Decimal(numerator) / denominator
            return Fraction(total)
    base = 1 + Fraction(spec.annual_rate)  # n / d, so f_k = d**k / n**k
    n, d = base.numerator, base.denominator
    common = math.lcm(*(denominator for _, denominator in ratios))
    total, power = 0, 1
    for numerator, denominator in reversed(ratios):  # sum of A_k * d**k * n**(L - k)
        total = total * d + numerator * (common // denominator) * power
        power *= n
    return Fraction(total, common * (power // n))


def payback_exact_oracle(flows: dict[int, float], factor: Callable[[int], Fraction],
                         horizon: int) -> float | None:
    """Payback with exact rational cumulative sums, each year's flow times
    ``factor(year)``, an exact discount factor."""
    running = Fraction(0)
    for year in range(horizon + 1):
        previous = running
        running += Fraction(flows.get(year, 0.0)) * factor(year)
        if running >= 0:
            if year == 0 or running == 0:
                return float(year)
            return (year - 1) + float(previous / (previous - running))
    return None


def log_grid(low: float = -0.99, high: float = 10.0, cells: int = 2000) -> list[float]:
    """``cells + 1`` rates from ``low`` to ``high``, uniform in log(1 + r), so
    the steep region near r = -1 is resolved as finely as the long tail."""
    start = math.log1p(low)
    span = math.log1p(high) - start
    return [math.expm1(start + k * span / cells) for k in range(cells + 1)]


def irr_bisection_oracle(
    flows: dict[int, float],
    low: float = -0.99,
    high: float = 10.0,
    tol: float = 1e-9,
) -> float:
    """Smallest NPV root in [low, high] via grid bracketing plus bisection."""
    grid = log_grid(low, high)
    values = [pv_oracle(flows, r) for r in grid]
    bracket = None
    for k in range(len(grid) - 1):
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


def scan_brackets_oracle(flows: Sequence[float]) -> list[tuple[float, float]]:
    """The exhaustive IRR bracket scan: the NPV kernel at all 2001 grid points.

    A cell whose NPVs differ in sign (> 0 against <= 0) is a bracket, and so
    is ``(r, r)`` for a point other than the last where NPV is exactly 0.0.
    """
    grid = log_grid()
    values = [_npv_at_rate(flows, rate) for rate in grid]
    brackets = []
    for k in range(len(grid) - 1):
        if values[k] == 0.0:
            brackets.append((grid[k], grid[k]))
        elif (values[k] > 0) != (values[k + 1] > 0):
            brackets.append((grid[k], grid[k + 1]))
    return brackets


def _shifted(coefficients: list[int], t: int) -> list[int]:
    """Coefficients of p(x + t), lowest degree first, in exact integers."""
    c = list(coefficients)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += t * c[j + 1]
    return c


def descartes_count_oracle(flows: Sequence[float], lo: float, hi: float) -> int:
    """Sign changes of the coefficients of (1 + y)**n * p((lo + hi*y) / (1 + y)),
    p(t) = sum of flows[k] * t**k, in exact integer arithmetic (zeros skipped).

    Every float is an integer over a power of two. With lo = L / D, hi = H / D
    and the flows A_k / F, the coefficients times F * D**n > 0 are those of
    (1 + y)**n * Q((L + H*y) / (1 + y)) for Q(X) = sum of A_k * X**k * D**(n - k):
    a Taylor shift by L, a scaling by (H - L)**k, a reversal and a Taylor
    shift by 1, all in Python ints.
    """
    n = len(flows) - 1
    ratios = [a.as_integer_ratio() for a in flows]
    scale = max(den for _, den in ratios)
    (l_num, l_den), (h_num, h_den) = lo.as_integer_ratio(), hi.as_integer_ratio()
    d = max(l_den, h_den)
    low, high = l_num * (d // l_den), h_num * (d // h_den)
    q = [num * (scale // den) * d ** (n - k) for k, (num, den) in enumerate(ratios)]
    piece = [c * (high - low) ** k for k, c in enumerate(_shifted(q, low))]
    signs = [c > 0 for c in _shifted(piece[::-1], 1) if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


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
