"""Economic metrics for array evaluation: NPV, LCOE, payback, IRR and
break-even-power functionals.

LCOE, payback period and IRR are all break-even rearrangements of the NPV
formula: they give the tariff, lifetime and discount rate respectively at
which the project exactly breaks even.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Sequence
from functools import cache, partial
from itertools import accumulate, repeat
from operator import gt, mul, ne

from .cost_model import (
    HOURS_PER_YEAR,
    ArrayDesign,
    CostParameters,
    TariffScheme,
    _check_size,
    _checked_costs,
    build_schedule,
    hours_generating,
)
from .finance_core import (
    MAX_AMOUNT,
    MAX_YEARS,
    MIN_RATE,
    CashFlowSchedule,
    DiscountSpec,
    Record,
    _check_window,
    _discounted_sum,
    _factors,
    _sum,
    present_value,
)

METRIC_NAMES = ("npv", "lcoe", "payback", "irr")
# The key each metric is reported under in ``metrics`` and ``curve`` output.
REPORT_KEYS = {"npv": "npv_gbp_m", "lcoe": "lcoe_gbp_per_mwh", "payback": "payback_years", "irr": "irr"}
IRR_BRACKET = (MIN_RATE, 10.0)
_TOP_RATE = math.expm1(math.log1p(IRR_BRACKET[1]))  # the top rate searched, a hair above 10
# Root isolation splits no piece this narrow in log(1 + r): a cell of a 2001-point grid.
_CELL = (math.log1p(IRR_BRACKET[1]) - math.log1p(IRR_BRACKET[0])) / 2000
_SEEDS = (0.05, 0.15)  # spans the recommended discount-rate range
_MAX_ITERATIONS = 200
_NO_ROOT = f"no IRR in range [{IRR_BRACKET[0]}, {IRR_BRACKET[1]}]"


class NoPaybackError(ValueError):
    """Cumulative discounted cash flow never reaches zero within the horizon."""


class IrrUndefinedError(ValueError):
    """The flow sequence has no sign change, so no IRR exists."""


class NoIrrInRangeError(ValueError):
    """NPV has no root inside the search bracket."""


class AmbiguousIrrWarning(UserWarning):
    """Multiple NPV roots exist; the smallest bracketed root was returned."""


class ValidityWindowWarning(UserWarning):
    """An input lies outside the range the model was calibrated for."""


class BreakEvenSpec(Record):
    """Break-even power per device plus an economies-of-volume coefficient.

    ``ev_mw_per_turbine`` linearly reduces the break-even power as turbines
    are added; it must stay well below ``p_be_mw`` over the turbine counts
    evaluated for the quadratic correction to be meaningful.
    """

    __slots__ = ("p_be_mw", "ev_mw_per_turbine")

    def __init__(self, p_be_mw: float, ev_mw_per_turbine: float = 0.0) -> None:
        object.__setattr__(self, "p_be_mw",
                           _check_window("p_be_mw", p_be_mw, 0, MAX_AMOUNT, open_low=True))
        object.__setattr__(self, "ev_mw_per_turbine",
                           _check_window("ev_mw_per_turbine", ev_mw_per_turbine, 0, MAX_AMOUNT))


def npv(schedule: CashFlowSchedule, spec: DiscountSpec) -> float:
    """Net present value of the schedule, GBP m."""
    return present_value(schedule, spec)


def lcoe(design: ArrayDesign, params: CostParameters, spec: DiscountSpec) -> float:
    """Levelised cost of energy, GBP per MWh: discounted lifetime cost over
    discounted net energy, 1e6 * (CAPEX + OPEX * F) / (P_avg * G) with F and
    G from ``_sums``, as ``evaluate`` forms it. With constant OPEX this is
    the tariff at which the project NPV is zero. It takes no OPEX multipliers,
    so for a schedule ``build_schedule`` builds with ``opex_multipliers`` it
    is not: on the demo design at r = 0.10 with OPEX x2.5 every sixth year,
    NPV at tariff = LCOE is -1.607 GBP m.
    """
    capital, annual_opex = _checked_costs(design.n_t, design.p_avg_mw, params)
    return _cost_per_mwh(capital, annual_opex, design.p_avg_mw, _sums(design, spec, False))


_Sums = tuple[list[float], list[float]]  # F's and G's running sums, or their last entries


def _sums(design: ArrayDesign, spec: DiscountSpec, prefixes: bool) -> _Sums:
    """The running sums over operating years 1..L of the discount factors f_k and
    of 8760 * a_k * eta * f_k, each added left to right as ``_sum`` adds; their
    last entries are F and G, and without ``prefixes`` each list holds that
    alone. CAPEX and OPEX are affine in n_t, and a year's energy is P_avg times
    its hours, so every NPV and LCOE of a curve or of a cost or tariff sweep is
    a few products of one F and G (the capital-recovery form of Short, Packey
    and Holt, NREL/TP-462-5173, 1995). One availability makes G 8760 * a * eta
    times F.
    """
    factors = list(_factors(spec, range(1, design.lifetime_years + 1)))
    availability, efficiency = design.availability, design.electrical_efficiency
    f_sums = list(accumulate(factors)) if prefixes else [_sum(factors)]
    if isinstance(availability, tuple):
        hours = [HOURS_PER_YEAR * a * efficiency * f for a, f in zip(availability, factors)]
        return f_sums, list(accumulate(hours)) if prefixes else [_sum(hours)]
    hours_per_year = HOURS_PER_YEAR * availability * efficiency
    return f_sums, [hours_per_year * f for f in f_sums]


def _cost_per_mwh(capital: float, annual_opex: float, p_avg_mw: float, sums: _Sums) -> float:
    discounted_energy = p_avg_mw * sums[1][-1]
    if discounted_energy <= 0:
        raise ValueError("discounted energy is zero; LCOE is undefined")
    value = (capital + annual_opex * sums[0][-1]) * 1e6 / discounted_energy
    if value == math.inf:  # costs are >= 0 and finite, so no other overflow
        raise ValueError(f"cost per MWh overflows at {discounted_energy:g} MWh; LCOE is undefined")
    return value


def payback_period(schedule: CashFlowSchedule, spec: DiscountSpec) -> float:
    """First (fractional) year at which cumulative discounted flow reaches zero.

    Returns an exact integer when the cumulative NPV hits zero on a year
    boundary; interpolates linearly within the break-even year otherwise.
    """
    discounted = map(mul, schedule.flows, _factors(spec, range(schedule.horizon + 1)))
    return _payback(accumulate(discounted), schedule.horizon)


def _payback(cumulative: Iterable[float], horizon: int) -> float:
    """The first year at which ``cumulative``, the cumulative discounted flow of years
    0..``horizon``, is >= 0, interpolated linearly within it unless it is exactly 0."""
    previous = 0.0
    for year, total in enumerate(cumulative):
        if total >= 0:
            exact = total == 0 or year == 0
            return float(year) if exact else (year - 1) + previous / (previous - total)
        previous = total
    raise NoPaybackError(f"cumulative discounted flow stays negative through year {horizon}")


# The exponent of year k under annual compounding is -k, made a float here
# once: ``base ** -k`` converts an int exponent to the same double, so the
# NPVs keep their bits, and ``zip`` in the kernel stops at the last flow.
_NEGATED_YEARS = tuple(-float(year) for year in range(MAX_YEARS + 1))
_SEED_BASES = tuple(1.0 + seed for seed in _SEEDS)
_SEED_FACTORS = tuple(tuple(base ** e for e in _NEGATED_YEARS) for base in _SEED_BASES)
_SQUARES = tuple(float((k + 2) ** 2) for k in range(MAX_YEARS + 2))  # ``_root_bound``'s (k + 2)**2
_Npv = tuple[Callable[..., float], object, object]  # NPV of the base b = 1 + r: (f, x, y), f(x, y, b)
# A bracket of an NPV root for ``_brent``: two rates, then the NPVs there.
_Bracket = tuple[float, float, float, float]


def _annuity_npv(ends: tuple[float, float, float], corrections: Sequence[tuple[float, float]],
                 base: float) -> float:
    # ``ends`` is (first flow, level flow, -L); ``corrections`` is (a_k - level, -k) for each year
    # k in D, the years of 1..L off the level. NPV = first + level * A_L(r) + the corrections: the
    # capital-recovery form (Short, Packey and Holt, NREL/TP-462-5173, 1995), exact for any flows
    # and accurate as base -> 1. It errs by at most (2L|log b| + |D| + 7) * 2**-53 times |first| +
    # |level| * A_L + the sum over D of |a_k - level| * b**-k, to first order: sum |a_k| * b**-k
    # plus up to 2 * |level| * b**-k for each k in D, which A_L adds and the correction cancels.
    first, level, exponent = ends
    value = (first - level * exponent if base == 1.0
             else first - level * math.expm1(exponent * math.log(base)) / (base - 1.0))
    for delta, power in corrections:
        value += delta * base ** power
    return value


def _seed_npvs(flows: Sequence[float]) -> tuple[float, float]:
    # The kernel's NPVs at the seeds, bit for bit, from tables of its ``base ** exponent``.
    f_low = f_high = 0.0
    for amount, f, g in zip(flows, *_SEED_FACTORS):
        f_low += amount * f
        f_high += amount * g
    return f_low, f_high


def _dyadic(t: float) -> float:
    # t rounded down to a multiple of 2**-53: two such in (0, 1] differ exactly.
    return math.ldexp(math.floor(math.ldexp(t, 53)), -53)


def _taylor_shift(descending: list) -> list:
    # p(1 + v), lowest degree first, from p, highest first: synthetic division.
    shifted = []
    for _ in range(len(descending)):
        descending = list(accumulate(descending))
        shifted.append(descending.pop())
    return shifted


def _sign_changes(flows: Sequence[float], lo: float, hi: float) -> int | None:
    """Sign changes of the coefficients of (1 + y)**n * p((lo + hi*y) / (1 + y))
    for p(t) = sum of flows[k] * t**k of degree n, lo < hi in (0, 1] being
    multiples of 2**-53 so that w = hi - lo is exact; None if a sign is
    uncertain. By Descartes' rule 0 means no root of p in (lo, hi), 1 one.

    The Taylor shift by lo is a scaling by lo**k, a shift by 1 and a scaling
    by (w / lo)**k; a reversal and a shift by 1 follow. Each step adds or
    multiplies by positive numbers, so a coefficient is a sum of terms
    rounded at most 7n + 2 times, and the same steps on |flows| bound the
    sum of |terms|: a coefficient beyond 8 * (n + 1) * 2**-53 times that has
    an exact sign. Underflow adds 2**-1075 per product at most, grown by at
    most 4**n * max(1, w / lo)**n; the margin adds twice all of it. Value
    and bound ride as the real and imaginary parts of a complex number,
    which adding and multiplying by positive floats keep apart. A value or
    bound beyond float range is inf or NaN and fails.
    """
    n = len(flows) - 1
    ratio = (hi - lo) / lo
    exponent = (2 * n - 1073 + n * math.log2(max(1.0, ratio))
                + math.log2((n + 1) ** 2 * (1 + _sum(map(abs, flows)))))
    absolute = 2.0**exponent if exponent < 1024 else math.inf  # inf: no float clears it
    packed = map(complex, flows, map(abs, flows))
    scaled = list(map(mul, packed, accumulate(repeat(lo, n), mul, initial=1.0)))
    shifted = _taylor_shift(scaled[::-1])  # p(lo * (1 + v))
    piece = map(mul, shifted, accumulate(repeat(ratio, n), mul, initial=1.0))  # p(lo + w * s)
    coefficients = _taylor_shift(list(piece))  # read highest degree first: the reversal
    if all(abs(c.real) > 8 * (n + 1) * 2.0**-53 * c.imag + absolute for c in coefficients):
        signs = [c.real > 0 for c in coefficients]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return None


def _isolate(flows: Sequence[float], npv: _Npv) -> list[_Bracket]:
    """A bracket of each NPV root in the search bracket, in rate order, by
    Descartes' rule on pieces (Vincent, Collins and Akritas).

    NPV is p(x) = sum of a_k * x**k in x = 1/(1 + r), in (1/11, 1) for r in
    (0, 10], and z**-n times the reversed flows' polynomial in z = 1 + r, in
    (0.01, 1) for r in (-0.99, 0). A piece of either that ``_sign_changes``
    does not show to hold no root or one is split at its geometric midpoint,
    the midpoint in log(1 + r); one no wider than ``_CELL`` is decided by
    NPV's signs at its ends. A piece holds a root, bracketed by its end
    rates, when the kernel's NPVs there are nonzero and of opposite signs.
    An NPV of exactly 0.0 at r = 0 or a split point is a root there.
    """
    nonzero = [k for k, a in enumerate(flows) if a]
    inner = flows[nonzero[0]:nonzero[-1] + 1]  # zeros at the ends move no root

    value = cache(partial(*npv))  # of the base 1 + r

    def keep(low: float, high: float) -> None:
        f_low, f_high = value(1.0 + low), value(1.0 + high)
        if f_low and f_high and (f_low > 0) != (f_high > 0):
            brackets.append((low, high, f_low, f_high))

    brackets = [(0.0, 0.0, 0.0, 0.0)] if value(1.0) == 0.0 else []
    for coefficients, rate, ends in (
        (inner[::-1], lambda z: z - 1.0, (_dyadic(1.0 + IRR_BRACKET[0]), 1.0)),
        (inner, lambda x: 1.0 / x - 1.0, (1.0, _dyadic(1.0 / (1.0 + _TOP_RATE)))),
    ):
        pieces = [ends]  # each (a, b) with a the end of lower rate
        while pieces:
            a, b = pieces.pop()
            lo, hi = min(a, b), max(a, b)
            narrow = math.log(hi / lo) <= _CELL  # kept if its NPV signs differ
            count = 1 if narrow else _sign_changes(coefficients, lo, hi)
            if count == 1:
                keep(rate(a), rate(b))
            elif count != 0:
                middle = _dyadic(math.sqrt(lo * hi))
                if value(1.0 + rate(middle)) == 0.0:
                    brackets.append((rate(middle), rate(middle), 0.0, 0.0))
                pieces += [(middle, b), (a, middle)]
    return sorted(brackets)


def _brent(npv: _Npv, a: float, b: float, f_a: float, f_b: float, tol: float) -> float:
    """The root of ``npv``, of the base 1 + r, between ``a`` and ``b``, in either
    order, where its values ``f_a`` and ``f_b`` are > 0 at one end and <= 0 at the other.

    Brent's method (1973) in scipy's ``brentq`` form: a secant or inverse
    quadratic step while it shrinks the bracket fast enough, else bisection,
    until |NPV| < ``tol`` (so an exact-zero ``(r, r)`` bracket gives r) or the
    bracket is about 1e-15 wide.
    """
    (function, head, tail), x_pre, f_pre, x_cur, f_cur = npv, a, f_a, b, f_b
    x_blk, f_blk = x_pre, f_pre  # the bracket's other end from x_cur
    s_pre = s_cur = x_cur - x_pre  # the step before last and the last
    for _ in range(_MAX_ITERATIONS):
        if (f_pre > 0) != (f_cur > 0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (1e-15 + 2.0**-50 * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if abs(f_cur) < tol or abs(s_bis) < delta:
            return x_cur
        trial = math.nan  # fails the test below, so bisection
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                trial = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                q = d_blk * d_pre * (f_blk - f_pre)
                if q:
                    trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / q
        if 2 * abs(trial) < abs(s_pre) and 2 * abs(trial) < 3 * abs(s_bis) - delta:
            s_pre, s_cur = s_cur, trial
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = function(head, tail, 1.0 + x_cur)
    return x_cur


def _seed_bracket(npv: _Npv, seed_npvs: Iterable[float],
                  positive_at_infinity: bool) -> _Bracket | None:
    """A bracket of the lone root of ``npv``, of the base 1 + r, on r > -1, or
    None if none lies in range, given its values at the seeds, ``seed_npvs``.

    The seeds bracket the root when their NPVs differ in sign (> 0 against
    <= 0). Otherwise it lies below the seeds when they have NPV's sign as
    r -> infinity, ``positive_at_infinity``, and above them if not. On that
    side a probe, twice as far from the near seed as the zero of the line
    through the seeds' NPVs, if it falls short of the bracket's end, and then
    that end are tried in turn.
    """
    (low, high), (f_low, f_high), (function, head, tail) = _SEEDS, seed_npvs, npv
    if (f_low > 0) != (f_high > 0):
        return low, high, f_low, f_high
    if (f_low > 0) == positive_at_infinity:
        near, f_near, end = low, f_low, IRR_BRACKET[0]
    else:
        near, f_near, end = high, f_high, _TOP_RATE
    step = (high - low) / (f_high - f_low) if f_high != f_low else 0.0  # flat: no probe
    probe = near - 2 * f_near * step
    for far in (probe, end) if min(near, end) < probe < max(near, end) else (end,):
        f_far = function(head, tail, 1.0 + far)
        if (f_far > 0) != (f_near > 0):
            return near, far, f_near, f_far
        near, f_near = far, f_far
    return None


def _root_bound(flows: Sequence[float]) -> int | None:
    """A bound on the number of NPV roots on r > -1, from running sums of the flows.

    With x = 1/(1+r), NPV is p(x) = sum of a_k * x**k over the flows
    a_0..a_n of years 0 to n. Rates r > 0 are x in (0, 1), where
    p(x) / (1 - x)**2 = sum of c_k * x**k has the same roots, and
    Descartes' rule for power series (Polya & Szego, *Problems and Theorems
    in Analysis* II, part V) bounds them by the sign changes of the c_k:
    the 2-fold running sums T_0..T_n of the flows, then T_n + (k - n) * S_n
    for k > n, ending with the sign of the total S_n (one running sum gives
    Norstrom's cumulative-cash-flow criterion, JFQA 7(3), 1972). Rates in
    (-1, 0) are x > 1, where x**-n * p(x) is the same polynomial in 1/x with
    the flows reversed, so the same count on them bounds those roots. r = 0
    is a root only when S_n is 0, and the bound is the sum of the two
    counts. Leading and trailing zero flows move no root and are dropped.

    Each float addition errs by at most 2**-53 times its result, and
    |T_j| <= (j + 1) * sum |a|, so the computed T_k is within
    (k**2 + 2k) * 2**-53 * sum |a| of the exact one, to first order, and S_n
    within n * 2**-53 * sum |a|. Each of the n + 2 signs, the total last,
    counts only when its sum exceeds (k + 2)**2 * 2**-53 * sum |a| at its
    place k, whose slack covers the second-order terms for n below 10**7.
    Otherwise, and for flows so small or large that a sum or its bound
    leaves the normal float range, the result is None and the caller
    isolates the roots.
    """
    nonzero = [k for k, a in enumerate(flows) if a]
    flows = flows[nonzero[0]:nonzero[-1] + 1] if nonzero else flows
    unit = _sum(map(abs, flows)) * 2.0**-53
    bounds = [square * unit for square in _SQUARES[:len(flows) + 1]]
    if not (2.0**-1020 < unit and bounds[-1] < 2.0**960):
        return None
    count = 0
    for ordered in (flows, flows[::-1]):
        sums = list(accumulate(ordered))
        coefficients = [*accumulate(sums), sums[-1]]
        if not all(map(gt, map(abs, coefficients), bounds)):
            return None
        signs = [c > 0 for c in coefficients]
        count += sum(map(ne, signs, signs[1:]))
    return count


def irr(schedule: CashFlowSchedule) -> float:
    """Internal rate of return: the discount rate at which NPV is zero.

    Searches the bracket [-0.99, 10] by one of three paths: one sign change
    in the nonzero flows means exactly one root on r > -1 (Descartes' rule
    of signs in x = 1/(1+r)); otherwise a bound from the flows' running sums
    (``_root_bound``) is at most 1 on most overhaul-style schedules; failing
    that the roots are isolated (``_isolate``), and if there are several the
    smallest is returned and an ``AmbiguousIrrWarning`` gives their number.

    With at most one root, NPV at the seeds 0.05 and 0.15 brackets it, or
    else one probe beyond them or the bracket's end does, or no root lies in
    range (``_seed_bracket``). Brent's method then runs on the bracket down
    to |NPV| < 1e-12, scaled down with the largest flow when that is below
    1 GBP m. NPV, on every path, is the closed form ``_annuity_npv`` (the last
    flow's annuity plus a correction for each year off it, at the kernel's
    base 1 + r) when at most a quarter of the flows, year 0 counted, differ
    from the last. Otherwise it is the kernel behind ``npv`` (at the seeds,
    from its factor tables): exactly ``npv(schedule, DiscountSpec(rate))``.
    """
    amounts = schedule.flows
    first, level = amounts[0], amounts[-1]
    off_level = len(amounts) - amounts.count(level)
    # Level after year 0: the first and last flows hold every sign and the largest size.
    flows = (first, level) if off_level == (first != level) else amounts
    signs = [a > 0 for a in filter(None, flows)]  # of the nonzero flows
    sign_changes = sum(map(ne, signs, signs[1:]))
    if sign_changes == 0:
        raise IrrUndefinedError("IRR undefined: cash flows never change sign")
    if closed := 4 * off_level <= len(amounts):  # each of years 1..L off the level, if any
        corrections = [(a - level, e) for a, e in zip(amounts[1:], _NEGATED_YEARS[1:])
                       if a != level] if flows is amounts else ()
        npv = (_annuity_npv, (first, level, _NEGATED_YEARS[len(amounts) - 1]), corrections)
    else:
        npv = (_discounted_sum, amounts, _NEGATED_YEARS)  # the kernel behind ``npv``
    if sign_changes == 1 or _root_bound(amounts) in (0, 1):
        seed_npvs = map(partial(*npv), _SEED_BASES) if closed else _seed_npvs(amounts)
        bracket = _seed_bracket(npv, seed_npvs, signs[0])
    else:
        brackets = _isolate(amounts, npv)
        if len(brackets) > 1:
            warnings.warn(f"{len(brackets)} NPV roots bracketed; returning the smallest",
                          AmbiguousIrrWarning, stacklevel=2)
        bracket = brackets[0] if brackets else None
    if bracket is None:
        raise NoIrrInRangeError(_NO_ROOT)
    return _brent(npv, *bracket, 1e-12 * min(1.0, max(map(abs, flows))))


def evaluate(
    design: ArrayDesign,
    params: CostParameters,
    tariff: TariffScheme,
    spec: DiscountSpec,
    names: Sequence[str] = METRIC_NAMES,
) -> tuple[dict[str, float | None], dict[str, str]]:
    """The named metrics of one design, in ``METRIC_NAMES`` order.

    NPV, LCOE and payback come from ``_sums`` (see ``_affine``); payback's
    running sums, and IRR's schedule, are formed only when named. LCOE and
    IRR are bit for bit ``lcoe`` and ``irr``. NPV and payback are not those
    of ``npv`` and ``payback_period`` on ``build_schedule``'s schedule, but
    both forms lie within a first-order rounding bound of the exact value.
    Returns ``(values, notes)``: a metric undefined for these inputs (no
    energy for LCOE, no payback, no IRR) is None in ``values``, and
    ``notes`` maps its name to the reason.
    """
    _check_names(names)
    return _evaluate(design, params, tariff, names, _sums(design, spec, "payback" in names))


def _check_names(names: Sequence[str]) -> None:
    for name in names:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}; valid names: {', '.join(METRIC_NAMES)}")


def _evaluate(design: ArrayDesign, params: CostParameters, tariff: TariffScheme,
              names: Sequence[str], sums: _Sums) -> tuple[dict, dict[str, str]]:
    """``evaluate`` given the design's ``_sums``, their tables if payback is named."""
    values, notes = _affine(design.n_t, design.p_avg_mw, params, tariff, names, sums)
    if "irr" in names:
        try:
            values["irr"] = irr(build_schedule(design, params, tariff))
        except (IrrUndefinedError, NoIrrInRangeError) as err:
            values["irr"], notes["irr"] = None, str(err)
    return values, notes


def _affine(n_t: int, p_avg_mw: float, params: CostParameters, tariff: TariffScheme,
            names: Sequence[str], sums: _Sums) -> tuple[dict, dict[str, str]]:
    """The named metrics but IRR of ``n_t`` turbines making ``p_avg_mw``, from F and G:
    NPV = P_avg * t_e / 1e6 * G - OPEX * F - CAPEX, LCOE as ``lcoe``, and payback
    where the cumulative flow, NPV with the running sums (0 at year 0), is >= 0."""
    capital, annual_opex = _checked_costs(n_t, p_avg_mw, params, tariff)
    f_sums, g_sums = sums
    revenue = p_avg_mw * tariff.t_e / 1e6  # GBP m per discounted generating hour
    values: dict[str, float | None] = {}
    notes: dict[str, str] = {}  # the reason each None in ``values`` is undefined
    if "npv" in names:  # always defined inside the input window
        values["npv"] = revenue * g_sums[-1] - annual_opex * f_sums[-1] - capital
    if "lcoe" in names:
        try:
            values["lcoe"] = _cost_per_mwh(capital, annual_opex, p_avg_mw, sums)
        except ValueError as err:  # no energy, or a cost per MWh past float range
            values["lcoe"], notes["lcoe"] = None, str(err)
    if "payback" in names:
        cumulative = (revenue * g - annual_opex * f - capital
                      for f, g in zip([0.0, *f_sums], [0.0, *g_sums]))
        try:
            values["payback"] = _payback(cumulative, len(f_sums))
        except NoPaybackError as err:
            values["payback"], notes["payback"] = None, str(err)
    return values, notes


def default_break_even(
    design: ArrayDesign, params: CostParameters, tariff: TariffScheme
) -> float:
    """Break-even power implied by the per-turbine cost components, MW.

    The per-turbine spend of years 0..L over the tariff-weighted generating
    hours of years 1..L is a net power. P_BE is a gross average power, like
    the ``p_avg_mw`` that J = P_avg - P_BE * n_t compares it with, so the net
    figure is divided by the electrical efficiency that ``energy_year``
    applies. Raises ``ValueError`` unless the result lies in (0, ``MAX_AMOUNT``].
    """
    years = range(1, design.lifetime_years + 1)
    spend = _sum([params.ca_t * 1e6] + [params.o_t * 1e6] * len(years))
    weighted_hours = _sum([hours_generating(design, year) for year in years]) * tariff.t_e
    # Subnormal hours times a small tariff can round to 0.0: P_BE is then undefined.
    p_be = spend / weighted_hours / design.electrical_efficiency if weighted_hours else math.nan
    if not 0 < p_be <= MAX_AMOUNT:  # also rejects NaN
        raise ValueError(f"break-even power derived from the per-turbine costs is {p_be:g} MW, "
                         f"not in (0, {MAX_AMOUNT:g}]; a 'break_even' block sets it")
    return p_be


def bep_from_capacity_factor(rating_mw: float, capacity_factor: float) -> float:
    """Break-even power implied by a target capacity factor, MW."""
    _check_window("rating_mw", rating_mw, 0, MAX_AMOUNT, open_low=True)
    return rating_mw * _check_window("capacity_factor", capacity_factor, 0, 1, open_low=True)


def bep_functional(p_avg_mw: float, bep: BreakEvenSpec, n_t: int | float) -> float:
    """Design score J = P_avg - P_BE * n_t (economies of volume ignored)."""
    if not (0 <= p_avg_mw <= MAX_AMOUNT and 0 <= n_t <= MAX_AMOUNT):  # inline: once per curve row
        _check_window("p_avg_mw", p_avg_mw, 0, MAX_AMOUNT)
        _check_window("n_t", n_t, 0, MAX_AMOUNT)
    return p_avg_mw - bep.p_be_mw * n_t


def bep_ev_functional(p_avg_mw: float, bep: BreakEvenSpec, n_t: int | float) -> float:
    """Design score with the break-even power falling linearly in n_t.

    J = P_avg - (P_BE - EV * n_t) * n_t. Warns (but still evaluates) when
    EV * n_t reaches P_BE, outside the model's validity window.
    """
    if not (0 <= p_avg_mw <= MAX_AMOUNT and 0 <= n_t <= MAX_AMOUNT):  # inline: once per curve row
        _check_window("p_avg_mw", p_avg_mw, 0, MAX_AMOUNT)
        _check_window("n_t", n_t, 0, MAX_AMOUNT)
    if bep.ev_mw_per_turbine * n_t >= bep.p_be_mw and n_t > 0:
        warnings.warn(
            f"EV * n_t = {bep.ev_mw_per_turbine * n_t:g} reaches the break-even power "
            f"{bep.p_be_mw:g}; the linear economies-of-volume model is not valid here",
            ValidityWindowWarning,
            stacklevel=2,
        )
    return p_avg_mw - (bep.p_be_mw - bep.ev_mw_per_turbine * n_t) * n_t


def functional_sweep(
    power_curve: Sequence[tuple[int, float]],
    design_template: ArrayDesign,
    params: CostParameters,
    tariff: TariffScheme,
    spec: DiscountSpec,
    bep: BreakEvenSpec,
) -> list[dict]:
    """NPV and LCOE along a turbine-count / power curve, with both P_BE scores.

    Each (n_t, P_avg) sample keeps ``design_template``'s checked rating,
    lifetime, availability and efficiency, so F and G (``_sums``) are formed
    once and each row is O(1). Each row runs ``ArrayDesign``'s checks of n_t
    (a whole number; 3.0 is taken as 3) and P_avg, with its messages.
    Returns one row per sample, in input order. An undefined NPV or LCOE is
    None, and the row then carries a ``notes`` mapping from its key to the
    reason.
    """
    if not power_curve:
        raise ValueError("power curve is empty")
    if len({n_t for n_t, _ in power_curve}) != len(power_curve):
        raise ValueError("power-curve samples must have distinct n_t values")

    sums = _sums(design_template, spec, False)
    rows = []
    for n_t, p_avg in power_curve:
        n_t = _check_size(n_t, design_template.mw_t, float(p_avg))
        values, notes = _affine(n_t, float(p_avg), params, tariff, ("npv", "lcoe"), sums)
        row = {
            "n_t": n_t,
            "p_avg_mw": float(p_avg),
            "power_per_device_mw": float(p_avg) / n_t,
            "j_bep_mw": bep_functional(p_avg, bep, n_t),
            "j_bep_ev_mw": bep_ev_functional(p_avg, bep, n_t),
            "npv_gbp_m": values["npv"],
            "lcoe_gbp_per_mwh": values["lcoe"],
        }
        if notes:
            row["notes"] = {REPORT_KEYS[name]: note for name, note in notes.items()}
        rows.append(row)
    return rows
