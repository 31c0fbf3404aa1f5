"""Command-line front end.

Subcommands:
  metrics    full metric report (NPV, LCOE, payback, IRR, break-even power)
  split      split cost observations into fixed / per-turbine parts (two-points, ratio)
  scenarios  optimistic / typical / pessimistic metric grid
  sweep      one-at-a-time sensitivity sweep, as CSV or JSON
  curve      evaluate the functionals along a turbine-count / power curve

Exit codes: 0 success, 2 input error, 3 internal numerical failure.
Every report is written by ``_report`` to stdout, or with the same bytes to
``--out FILE``, as ``--format json``, ``csv`` (floats as repr) or ``human`` (the
table at three significant figures after a version banner, which ``--plain``
drops); ``sweep`` defaults to CSV. Every warning a command raises is reported
with it. JSON and CSV output is byte-identical for identical inputs.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from collections.abc import Callable, Iterable, Sequence

from . import __version__
from .cost_estimation import (
    CostBasis,
    CostObservation,
    CostSplit,
    FixedToTurbineRatio,
    normalize_observation,
    split_from_ratio,
    split_two_points,
)
from .cost_model import ArrayDesign, CostParameters, TariffScheme
from .finance_core import MAX_AMOUNT, Compounding, DiscountSpec, _check_window, _shown
from . import metrics as _metrics
from . import scenarios as _scenarios

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


# ---------------------------------------------------------------------------
# Config handling

def _number(value: object, name: str, whole: bool = False) -> float | int:
    """``value``, a JSON number or numeric text, as a float, or as an int with
    ``whole``; anything else raises a ``ValueError`` naming ``name``. Range
    checks stay with the records, so a JSON integer count is not made a float."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or whole and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be {'a whole' if whole else 'a'} number, got {value!r}")
    try:
        return int(value) if whole else float(value)
    except OverflowError:
        raise ValueError(f"{name} must be within float range, got {_shown(value)}") from None


def _object(value: object, context: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{context} must be an object, got {value!r}")
    return value


def _field(block: object, key: str, context: str, default: object = None) -> object:
    """``block[key]``, or ``default`` if given and the JSON object lacks ``key``."""
    if key in _object(block, context):
        return block[key]
    if default is None:
        raise ValueError(f"missing key {key!r} in {context}")
    return default


def _observation(entry: object, context: str) -> CostObservation:
    """The cost observation in a config entry, a CSV row, an inline N_T=TOTAL or
    the ratio flags, each handed over as a dict with a config entry's keys.

    The entry gives ``n_t`` and either ``total_gbp_m`` or ``per_mw_gbp_m``
    with ``capacity_mw``, not both costs; ``rate_to_gbp`` defaults to 1.0.
    """
    def number(key: str, default: object = None) -> float:
        return _number(_field(entry, key, "the observation", default), key)

    try:
        costs = [key for key in ("total_gbp_m", "per_mw_gbp_m")
                 if key in _object(entry, "the observation")]
        if len(costs) != 1:
            both = ", not both" if costs else ""
            raise ValueError(f"give 'total_gbp_m' or 'per_mw_gbp_m'{both}")
        per_mw = costs == ["per_mw_gbp_m"]
        return CostObservation(
            n_t=number("n_t"),
            cost=number(costs[0]),
            basis=CostBasis.PER_MW if per_mw else CostBasis.TOTAL,
            capacity_mw=number("capacity_mw") if per_mw else None,
            currency_rate=number("rate_to_gbp", 1.0),
        )
    except ValueError as err:
        raise ValueError(f"{context}: {err}") from err


def _split_costs(
    method: str,
    capex: list[CostObservation],
    opex: list[CostObservation] | None,
    ratio: float | None,
) -> tuple[CostSplit, CostSplit | None]:
    """CAPEX and OPEX splits by ``method``: ``two_points`` from two observations
    each, ``ratio`` from one each and the fixed-to-turbine ratio. The OPEX
    split is None when ``opex`` is."""
    if method == "ratio":
        if ratio is None:
            raise ValueError("the ratio method needs a ratio (--ratio, or 'ratio' in costs.estimate)")
        fixed_ratio = FixedToTurbineRatio(ratio)
    elif method != "two_points":
        raise ValueError(f"unknown estimation method {method!r}; expected 'two_points' or 'ratio'")
    count = 2 if method == "two_points" else 1

    def split(kind: str, observations: list[CostObservation]) -> CostSplit:
        if len(observations) != count:
            raise ValueError(f"the {method} method needs exactly {count} {kind} "
                             f"observation{'s' * (count > 1)}, got {len(observations)}")
        parts = (split_two_points(*observations) if count == 2
                 else split_from_ratio(observations[0], fixed_ratio))
        for name, amount in zip(("fixed", "per-turbine"), parts):  # inf would fail a JSON report
            _check_window(f"{kind} {name} cost", amount, -MAX_AMOUNT, MAX_AMOUNT)
        return parts

    return split("CAPEX", capex), None if opex is None else split("OPEX", opex)


def load_config(path: str) -> tuple[ArrayDesign, CostParameters, TariffScheme, DiscountSpec,
                                    _metrics.BreakEvenSpec | None, dict[str, float]]:
    def reject_non_finite(literal: str) -> float:
        raise ValueError(f"config {path} holds {literal}; every number must be finite")

    def read_int(literal: str) -> int:
        try:
            return int(literal)
        except ValueError:  # past Python's digit limit, with a message naming no config
            raise ValueError(f"config {path} holds an integer of {len(literal.lstrip('-'))} "
                             "digits, past Python's limit for integer conversion") from None

    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle, parse_constant=reject_non_finite, parse_int=read_int)
    except OSError as err:
        raise ValueError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"config {path} is not valid JSON: {err}") from err

    def number(block: object, key: str, context: str, default: object = None,
               whole: bool = False) -> float | int:
        return _number(_field(block, key, context, default), f"{context}.{key}", whole)

    array = _field(raw, "array", "config")
    availability = _field(array, "availability", "array", 1.0)
    if isinstance(availability, list):
        availability = [_number(value, f"array.availability[{index}]")
                        for index, value in enumerate(availability)]
    else:
        availability = _number(availability, "array.availability")
    design = ArrayDesign(
        n_t=number(array, "n_t", "array", whole=True),
        mw_t=number(array, "mw_t", "array"),
        p_avg_mw=number(array, "p_avg_mw", "array"),
        lifetime_years=number(array, "lifetime_years", "array", whole=True),
        availability=availability,
        electrical_efficiency=number(array, "electrical_efficiency", "array", 1.0),
    )

    costs = _object(_field(raw, "costs", "config"), "costs")
    explicit = {"ca_f", "ca_t", "o_f", "o_t"} & set(costs)
    if "estimate" in costs and explicit:
        raise ValueError("config must give either explicit costs or an estimate directive, not both")
    if "estimate" in costs:
        directive = costs["estimate"]
        observations = []
        for kind in ("capex", "opex"):
            entries = _field(directive, kind, "costs.estimate")
            if not isinstance(entries, list):
                entries = [entries]
            observations.append([
                _observation(entry, f"costs.estimate.{kind}[{index}]")
                for index, entry in enumerate(entries)
            ])
        method = _field(directive, "method", "costs.estimate")
        ratio = number(directive, "ratio", "costs.estimate") if "ratio" in directive else None
        ca, op = _split_costs(method, *observations, ratio)
        params = CostParameters(ca_f=ca.fixed, ca_t=ca.per_turbine, o_f=op.fixed, o_t=op.per_turbine)
    elif len(explicit) == 4:
        params = CostParameters(**{key: number(costs, key, "costs") for key in sorted(explicit)})
    else:
        raise ValueError("costs block needs all of ca_f/ca_t/o_f/o_t, or an 'estimate' directive")

    finance = _field(raw, "finance", "config")
    mode = _field(finance, "mode", "finance", "discrete")
    if mode not in ("discrete", "continuous"):
        raise ValueError(f"finance.mode must be 'discrete' or 'continuous', got {mode!r}")
    if "periods_per_year" in finance:  # read as annual, a quarterly config would mislead
        raise ValueError("finance.periods_per_year is not supported: discrete compounding is annual")
    spec = DiscountSpec(annual_rate=number(finance, "r", "finance"), mode=Compounding(mode))
    tariff = TariffScheme(t_e=number(finance, "tariff_gbp_per_mwh", "finance"))

    bep = None  # without a block, the reports that print P_BE derive it
    if "break_even" in raw:
        bep_block = raw["break_even"]
        bep = _metrics.BreakEvenSpec(
            p_be_mw=number(bep_block, "p_be_mw", "break_even"),
            ev_mw_per_turbine=number(bep_block, "ev_mw_per_turbine", "break_even", 0.0),
        )

    overrides = _object(_field(raw, "scenario_overrides", "config", {}), "scenario_overrides")
    overrides = {name: _number(value, f"scenario_overrides.{name}")
                 for name, value in overrides.items()}
    return design, params, tariff, spec, bep, overrides


# ---------------------------------------------------------------------------
# Output

_THREE_FIGURES = "{:.3g}".format


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cell(value: object, fmt: Callable[[float], str]) -> str:
    """``value`` as a table cell: a float or a point's number through ``fmt``, None as "undefined"."""
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, list):  # split two-points' (n_t, GBP m) inputs
        return "[" + ", ".join("(" + ", ".join(map(fmt, point)) + ")" for point in value) + "]"
    return str(value)


def _report(args: argparse.Namespace, warned: list[str], payload: dict,
            header: Sequence[str], rows: Sequence[Sequence[object]], title: Sequence[str] = (),
            notes: Iterable[tuple[str, str]] = ()) -> int:
    """Write one report to ``--out`` or stdout in the chosen ``--format``.

    JSON is ``payload`` with the ``warned`` messages as ``warnings``. CSV is
    ``header`` and ``rows`` with floats as repr, with the warnings on stderr.
    Human is the banner (unless ``--plain``), the ``title`` lines, the table
    right-aligned, then a line per note (keyed by where it applies) and warning.
    """
    table = [header, *([_cell(value, repr if args.format == "csv" else _THREE_FIGURES)
                        for value in row] for row in rows)]
    if args.format == "json":
        text = _json_dump(dict(payload, warnings=warned))
    elif args.format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(table)
        text = buffer.getvalue()
        sys.stderr.writelines(f"warning: {message}\n" for message in warned)  # stdout stays the table
    else:
        widths = [max(map(len, column)) for column in zip(*table)]
        text = "".join(f"{line}\n" for line in [
            *([] if args.plain else [f"tidalecon v{__version__}"]), *title,
            *("  ".join(map(str.rjust, row, widths)) for row in table),
            *(f"  note [{where}]: {reason}" for where, reason in notes),
            *(f"  warning: {message}" for message in warned)])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands

def cmd_metrics(args: argparse.Namespace) -> tuple:
    design, params, tariff, spec, bep, _ = load_config(args.config)
    values, undefined = _metrics.evaluate(design, params, tariff, spec)
    keys = _metrics.REPORT_KEYS
    report = {keys[name]: value for name, value in values.items()}
    notes = {keys[name]: note for name, note in undefined.items()}

    bep_keys = ("break_even_power_mw", "bep_capacity_factor", "j_bep_mw", "j_bep_ev_mw")
    try:
        bep = bep or _metrics.BreakEvenSpec(_metrics.default_break_even(design, params, tariff))
    except ValueError as err:  # a derived P_BE: undefined, as is each figure made with it
        report.update(dict.fromkeys(bep_keys))
        notes.update(dict.fromkeys(bep_keys, str(err)))
    else:
        report.update(zip(bep_keys, (
            bep.p_be_mw, bep.p_be_mw / design.mw_t,
            _metrics.bep_functional(design.p_avg_mw, bep, design.n_t),
            _metrics.bep_ev_functional(design.p_avg_mw, bep, design.n_t))))

    inputs_echo = {key: getattr(design, key) for key in ("n_t", "mw_t", "p_avg_mw", "lifetime_years")}
    inputs_echo.update(zip(params.__slots__, params._values()))  # ca_f, ca_t, o_f and o_t
    inputs_echo.update(r=spec.annual_rate, mode=spec.mode.value, tariff_gbp_per_mwh=tariff.t_e)
    return ({"command": "metrics", "inputs": inputs_echo, "metrics": report, "notes": notes},
            ("metric", "value"), list(report.items()), ["Project metrics"], notes.items())


def _csv_rows(path: str, kind: str) -> list[tuple[str, dict[str, str]]]:
    """Each row of the CSV file at ``path``, without empty cells, after a context naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = [{key: value for key, value in row.items() if value}
                    for row in csv.DictReader(handle)]
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from err
    if not rows:
        raise ValueError(f"{path}: no {kind} rows found")
    return [(f"{path}: malformed row at line {line}", row) for line, row in enumerate(rows, 2)]


def _read_observation_csv(path: str, mw_t: float | None) -> list[CostObservation]:
    observations = []
    for context, entry in _csv_rows(path, "observation"):
        if "per_mw_gbp_m" in entry and "total_gbp_m" not in entry:
            if mw_t is None:
                raise ValueError(f"{path}: per-MW observations need --mw-t to derive turbine counts")
            entry["n_t"] = _number(entry.get("capacity_mw"), f"{context}: capacity_mw") / mw_t
        observations.append(_observation(entry, context))
    return observations


def _inline_observation(text: str, kind: str, currency_rate: float) -> CostObservation:
    n_t, equals, total = text.partition("=")
    if not equals:
        raise ValueError(f"--{kind} {text!r}: expected N_T=TOTAL")
    entry = {"n_t": n_t, "total_gbp_m": total, "rate_to_gbp": currency_rate}
    return _observation(entry, f"--{kind} {text!r}")


def _flag_observations(args: argparse.Namespace, kind: str,
                       currency_rate: float) -> list[CostObservation]:
    """The ratio method's observation from ``--KIND-total`` or ``--KIND-per-mw``, if any."""
    total = getattr(args, f"{kind}_total")
    per_mw = getattr(args, f"{kind}_per_mw")
    if total is None and per_mw is None:
        return []
    entry = {"rate_to_gbp": currency_rate}
    if total is not None:
        if args.n_t is None:
            raise ValueError(f"--{kind}-total needs --n-t")
        entry.update(n_t=args.n_t, total_gbp_m=total)
    if per_mw is not None:
        if args.capacity is None or args.mw_t is None:
            raise ValueError(f"--{kind}-per-mw needs --capacity and --mw-t")
        entry.update(n_t=args.capacity / args.mw_t, per_mw_gbp_m=per_mw,
                     capacity_mw=args.capacity)
    return [_observation(entry, f"--{kind}-total/--{kind}-per-mw")]


def cmd_split(args: argparse.Namespace) -> tuple:
    method = args.method.replace("-", "_")
    if method == "two_points":
        csv_given = bool(args.capex_csv or args.opex_csv)
        if csv_given and args.currency_rate is not None:
            raise ValueError("--currency-rate does not apply to --capex-csv/--opex-csv "
                             "observations: each CSV row carries its own rate_to_gbp")
        if not csv_given and args.mw_t is not None:
            raise ValueError("split two-points does not read --mw-t with the other flags given")
    if args.mw_t is not None:
        _check_window("--mw-t", args.mw_t, 1 / MAX_AMOUNT, MAX_AMOUNT)  # ArrayDesign.mw_t's window
    currency_rate = 1.0 if args.currency_rate is None else args.currency_rate
    observations = []
    for kind in ("capex", "opex"):
        path = getattr(args, f"{kind}_csv", None)
        if method == "ratio":
            observations.append(_flag_observations(args, kind, currency_rate))
        elif path:
            observations.append(_read_observation_csv(path, args.mw_t))
        else:
            observations.append([_inline_observation(text, kind, currency_rate)
                                 for text in getattr(args, kind) or []])
    capex, opex = observations
    ca, op = _split_costs(method, capex, opex or None, getattr(args, "ratio", None))
    if method == "two_points":
        inputs_echo = {
            "capex_points": [(o.n_t, normalize_observation(o)) for o in capex],
            "opex_points": [(o.n_t, normalize_observation(o)) for o in opex],
        }
    else:
        inputs_echo = {
            "ratio": args.ratio,
            "capex_n_t": capex[0].n_t,
            "capex_total_gbp_m": normalize_observation(capex[0]),
        }
    costs = {"ca_f": ca.fixed, "ca_t": ca.per_turbine}
    if op is not None:
        costs.update(o_f=op.fixed, o_t=op.per_turbine)
    title = [f"Cost split ({method})", "  inputs: " + ", ".join(
        f"{k}={_cell(v, _THREE_FIGURES)}" for k, v in inputs_echo.items())]
    return ({"command": "split", "method": method, "inputs": inputs_echo, "costs": costs},
            ("component", "gbp_m"), list(costs.items()), title)


def cmd_scenarios(args: argparse.Namespace) -> tuple:
    design, *_, overrides = load_config(args.config)
    results = _scenarios.evaluate_scenarios(design, overrides or None)

    # Each scenario as an object of its fields: label, parameters, metrics and notes.
    payload = {"command": "scenarios",
               "scenarios": [dict(zip(res.__slots__, res._values())) for res in results]}
    rows = [(metric, *(res.metrics[metric] for res in results))
            for metric in _scenarios.METRIC_NAMES]
    notes = [(f"{res.label}/{metric}", note)
             for res in results for metric, note in res.notes.items()]
    return payload, ("metric", *(res.label for res in results)), rows, (), notes


def cmd_sweep(args: argparse.Namespace) -> tuple:
    design, *_, overrides = load_config(args.config)
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    if args.steps == 1:
        grid = [args.start]
    else:
        step = (args.stop - args.start) / (args.steps - 1)
        grid = [args.start + k * step for k in range(args.steps)]
    curve = _scenarios._sweep(design, overrides or "typical", args.param, grid, args.metric)
    points = [{"value": value, args.metric: result, "notes": notes}
              for value, result, notes in curve]
    notes = [(f"{args.param}={value!r}/{metric}", note)
             for value, _, point_notes in curve for metric, note in point_notes.items()]
    return ({"command": "sweep", "param": args.param, "metric": args.metric, "points": points},
            ("value", args.metric), [point[:2] for point in curve], (), notes)


def _read_power_curve(path: str) -> list[tuple[int, float]]:
    return [(_number(row.get("n_t"), f"{context}: n_t", whole=True),
             _number(row.get("p_avg_mw"), f"{context}: p_avg_mw"))
            for context, row in _csv_rows(path, "power-curve")]


def cmd_curve(args: argparse.Namespace) -> tuple:
    design, params, tariff, spec, bep, _ = load_config(args.config)
    bep = bep or _metrics.BreakEvenSpec(_metrics.default_break_even(design, params, tariff))
    samples = _read_power_curve(args.power_curve)
    rows = _metrics.functional_sweep(samples, design, params, tariff, spec, bep)
    best_power = max(rows, key=lambda row: row["p_avg_mw"])["n_t"]
    best_j = max(rows, key=lambda row: row["j_bep_mw"])["n_t"]
    for row in rows:
        row["max_power"] = row["n_t"] == best_power
        row["max_j_bep"] = row["n_t"] == best_j
        row.setdefault("notes", {})

    columns = (
        "n_t", "p_avg_mw", "power_per_device_mw", "j_bep_mw", "j_bep_ev_mw",
        "npv_gbp_m", "lcoe_gbp_per_mwh", "max_power", "max_j_bep",
    )
    notes = [(f"n_t={row['n_t']}/{column}", note)
             for row in rows for column, note in row["notes"].items()]
    return ({"command": "curve", "rows": rows}, columns,
            [tuple(row[col] for col in columns) for row in rows], (), notes)


# ---------------------------------------------------------------------------
# Entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tidalecon",
        description="Techno-economic metrics for tidal-stream turbine arrays",
    )
    # One per parser: parents share their actions, and sweep's default must stay its own.
    def common() -> argparse.ArgumentParser:
        flags = argparse.ArgumentParser(add_help=False)
        flags.add_argument("--format", choices=("human", "json", "csv"), default="human")
        flags.add_argument("--out", default=None, help="write output to a file instead of stdout")
        flags.add_argument("--plain", action="store_true", help="suppress the version banner")
        return flags

    sub = parser.add_subparsers(dest="command", required=True)

    p_metrics = sub.add_parser("metrics", parents=[common()], help="full metric report")
    p_metrics.add_argument("config")
    p_metrics.set_defaults(func=cmd_metrics)

    # Only the methods take the common flags: their defaults would overwrite split's.
    p_split = sub.add_parser("split", help="cost decomposition")
    p_split.set_defaults(func=cmd_split)
    methods = p_split.add_subparsers(dest="method", required=True)
    split_common = argparse.ArgumentParser(add_help=False, parents=[common()])
    split_common.add_argument("--currency-rate", type=float,
                              help="multiplier converting inline and ratio-flag costs to GBP "
                                   "(default 1.0; CSV rows carry rate_to_gbp)")
    split_common.add_argument("--mw-t", type=float, help="turbine rating, MW")

    p_two = methods.add_parser("two-points", parents=[split_common],
                               help="fixed and per-turbine costs from two observations each")
    for kind in ("capex", "opex"):
        source = p_two.add_mutually_exclusive_group()
        source.add_argument(f"--{kind}", action="append", metavar="N_T=TOTAL",
                            help=f"inline {kind.upper()} observation (give twice)")
        source.add_argument(f"--{kind}-csv", help=f"CSV of {kind.upper()} observations")

    p_ratio = methods.add_parser("ratio", parents=[split_common],
                                 help="fixed and per-turbine costs from one observation each")
    p_ratio.add_argument("--ratio", type=float, help="fixed-to-turbine cost ratio")
    for kind in ("capex", "opex"):
        p_ratio.add_argument(f"--{kind}-total", type=float, help="with --n-t")
        p_ratio.add_argument(f"--{kind}-per-mw", type=float, help="with --capacity and --mw-t")
    p_ratio.add_argument("--capacity", type=float, help="array capacity, MW")
    p_ratio.add_argument("--n-t", type=float, help="turbine count (may be fractional)")

    p_scen = sub.add_parser("scenarios", parents=[common()],
                            help="optimistic/typical/pessimistic grid")
    p_scen.add_argument("config")
    p_scen.set_defaults(func=cmd_scenarios)

    p_sweep = sub.add_parser("sweep", parents=[common()], help="one-at-a-time sensitivity sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--metric", required=True)
    p_sweep.set_defaults(func=cmd_sweep, format="csv")

    p_curve = sub.add_parser("curve", parents=[common()],
                             help="evaluate functionals along a power curve")
    p_curve.add_argument("config")
    p_curve.add_argument("--power-curve", required=True)
    p_curve.set_defaults(func=cmd_curve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # recorded, so not fatal under -W error
            parts = args.func(args)
        return _report(args, [str(w.message) for w in caught], *parts)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ArithmeticError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
