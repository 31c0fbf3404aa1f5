"""Seeded input generation for the four benchmark workloads.

Everything here is plain data (dicts, lists, files on disk): the library is
never imported, so one seed gives the same inputs on every commit. Draws
come from the built-in optimistic-pessimistic parameter ranges, copied
below so that a change to the library's table cannot change the inputs.
"""
from __future__ import annotations

import csv
import json
import os
import random

# name -> (optimistic, typical, pessimistic), as published in the library's
# scenario table.
BUILTIN_TABLE = {
    "ca_f": (5.6, 9.2, 14.4),
    "ca_t": (2.4, 3.3, 4.4),
    "o_f": (0.27, 0.32, 0.87),
    "o_t": (0.094, 0.15, 0.26),
    "r": (0.05, 0.10, 0.15),
    "lifetime": (30, 25, 20),
    "tariff": (290, 150, 40),
    "availability": (0.98, 0.95, 0.90),
}
SCENARIO_LABELS = ("optimistic", "typical", "pessimistic")
COST_NAMES = ("ca_f", "ca_t", "o_f", "o_t")
COST_SOURCES = ("table", "two_points", "ratio", "higgins")
CLI_SUBCOMMANDS = ("metrics", "scenarios", "sweep", "curve", "split")
SWEEP_METRICS = ("npv", "lcoe", "payback")

PROJECT_POOL = 600  # distinct projects per portfolio/overhaul run
DESIGN_POOL = 240  # distinct studies per design_sweep run (more than a run makes)
CLI_POOL_PER_SUBCOMMAND = 12  # distinct invocations per subcommand
SWEEP_GRID_POINTS = 5  # in-process sensitivity_sweep grid size
CLI_SWEEP_STEPS = 3  # "small grid" for the sweep subcommand
CURRENCY_RATES = (1.0, 0.79, 0.86, 1.17)


def rng_for(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"tidalecon-bench:{workload}:{seed}")


def draw(rng: random.Random, name: str) -> float:
    low, _, high = BUILTIN_TABLE[name]
    if name == "lifetime":
        return rng.randint(min(low, high), max(low, high))
    return rng.uniform(min(low, high), max(low, high))


def _noisy(rng: random.Random, value: float, rel: float = 0.01) -> float:
    return value * (1.0 + rng.uniform(-rel, rel))


def _observation(rng: random.Random, n_t: float, total_gbp: float, mw_t: float) -> dict:
    """A published-style observation of ``total_gbp`` at ``n_t`` turbines."""
    rate = rng.choice(CURRENCY_RATES)
    if rng.random() < 0.5:
        return {"n_t": n_t, "total_gbp_m": total_gbp / rate, "rate_to_gbp": rate}
    capacity = n_t * mw_t
    return {
        "n_t": n_t,
        "per_mw_gbp_m": total_gbp / rate / capacity,
        "capacity_mw": capacity,
        "rate_to_gbp": rate,
    }


def cost_source(rng: random.Random, source: str, mw_t: float) -> dict:
    """True cost components (``true``) plus, for estimated costs, the observations.

    Observations carry +-1% noise, small enough that every estimate keeps
    positive components.
    """
    true = {name: draw(rng, name) for name in COST_NAMES}
    if source == "table":
        return {"source": "table", "true": true}
    if source == "two_points":
        n1, n2 = rng.randint(1, 5), rng.randint(20, 60)
        return {
            "source": "two_points",
            "true": true,
            "capex": [
                _observation(rng, n, _noisy(rng, true["ca_f"] + true["ca_t"] * n), mw_t)
                for n in (n1, n2)
            ],
            "opex": [
                _observation(rng, n, _noisy(rng, true["o_f"] + true["o_t"] * n), mw_t)
                for n in (n1, n2)
            ],
        }
    if source == "ratio":
        ratio = rng.uniform(2.0, 4.2)  # partly outside [2.3, 3.9], which warns
        n_obs = rng.randint(2, 40)
        return {
            "source": "ratio",
            "true": true,
            "ratio": ratio,
            "capex": _observation(rng, n_obs, _noisy(rng, true["ca_t"] * (ratio + n_obs)), mw_t),
            "opex": _observation(rng, n_obs, _noisy(rng, true["o_t"] * (ratio + n_obs)), mw_t),
        }
    if source == "higgins":
        # One small array anchors the intercept; without it, noise on a
        # cluster of large arrays can drive the fitted ratio negative.
        counts = [rng.randint(1, 5)] + sorted(rng.sample(range(10, 41), rng.randint(3, 5)))
        points = [(float(n), _noisy(rng, true["ca_f"] + true["ca_t"] * n)) for n in counts]
        n_obs = rng.randint(2, 40)
        return {
            "source": "higgins",
            "true": true,
            "points": points,
            "capex": _observation(rng, n_obs, _noisy(rng, true["ca_f"] + true["ca_t"] * n_obs), mw_t),
            "opex": _observation(rng, n_obs, _noisy(rng, true["o_f"] + true["o_t"] * n_obs), mw_t),
        }
    raise ValueError(f"unknown cost source {source!r}")


def array_design(rng: random.Random) -> dict:
    """Turbine count, rating, capacity factor, lifetime, availability, efficiency."""
    n_t = rng.randint(1, 40)
    mw_t = rng.uniform(0.5, 2.0)
    lifetime = draw(rng, "lifetime")
    if rng.random() < 0.2:  # per-year availability profile
        availability: float | list[float] = [draw(rng, "availability") for _ in range(lifetime)]
    else:
        availability = draw(rng, "availability")
    return {
        "n_t": n_t,
        "mw_t": mw_t,
        "p_avg_mw": n_t * mw_t * rng.uniform(0.2, 0.45),
        "lifetime_years": lifetime,
        "availability": availability,
        "electrical_efficiency": rng.uniform(0.9, 1.0) if rng.random() < 0.5 else 1.0,
    }


def finance(rng: random.Random) -> dict:
    return {
        "r": draw(rng, "r"),
        "mode": "continuous" if rng.random() < 0.15 else "discrete",
        "tariff_gbp_per_mwh": draw(rng, "tariff"),
    }


def scenario_mapping(rng: random.Random) -> dict:
    """A full set of scenario parameter values."""
    return {name: draw(rng, name) for name in BUILTIN_TABLE}


def overhaul_multipliers(rng: random.Random, design: dict, costs: dict) -> list[float]:
    """OPEX multipliers for an overhaul every 5-10 years at 30-80% of turbine CAPEX.

    Sized from the true cost components, so the multipliers do not depend
    on the route by which the project's costs are estimated.
    """
    period = rng.randint(5, 10)
    overhaul = rng.uniform(0.3, 0.8) * costs["ca_t"] * design["n_t"]
    base_opex = costs["o_f"] + costs["o_t"] * design["n_t"]
    lifetime = design["lifetime_years"]
    return [
        1.0 + overhaul / base_opex if year % period == 0 and year < lifetime else 1.0
        for year in range(1, lifetime + 1)
    ]


def projects(workload: str, seed: int) -> list[dict]:
    """Project pool for ``portfolio`` and ``overhaul``."""
    rng = rng_for(workload, seed)
    pool = []
    for _ in range(PROJECT_POOL):
        design = array_design(rng)
        source = rng.choices(COST_SOURCES, weights=(55, 15, 15, 15))[0]
        costs = cost_source(rng, source, design["mw_t"])
        project = {"array": design, "costs": costs, "finance": finance(rng)}
        if workload == "overhaul":
            project["opex_multipliers"] = overhaul_multipliers(rng, design, costs["true"])
        pool.append(project)
    return pool


def power_curve(rng: random.Random, mw_t: float) -> list[tuple[int, float]]:
    """Array power against turbine count, with a wake loss per added turbine."""
    capacity_factor = rng.uniform(0.25, 0.45)
    wake = rng.uniform(0.01, 0.04)
    return [
        (n, n * mw_t * capacity_factor * max(0.3, 1.0 - wake * (n - 1)))
        for n in range(1, rng.randint(8, 16) + 1)
    ]


def sweep_grid(parameter: str, points: int) -> list[float]:
    low, _, high = BUILTIN_TABLE[parameter]
    grid = [low + (high - low) * k / (points - 1) for k in range(points)]
    if parameter == "lifetime":
        return [float(round(value)) for value in grid]
    return grid


def designs(seed: int) -> list[dict]:
    """Study pool for ``design_sweep``: one sensitivity sweep plus one power curve."""
    rng = rng_for("design_sweep", seed)
    names = list(BUILTIN_TABLE)
    pool = []
    for index in range(DESIGN_POOL):
        design = array_design(rng)
        if index % 10 < len(SCENARIO_LABELS):
            base: str | dict = SCENARIO_LABELS[index % 10]
        else:
            base = scenario_mapping(rng)
        parameter = names[index % len(names)]
        pool.append(
            {
                "array": design,
                "base": base,
                "parameter": parameter,
                "metric": SWEEP_METRICS[index % len(SWEEP_METRICS)],
                "grid": sweep_grid(parameter, SWEEP_GRID_POINTS),
                "costs": {name: draw(rng, name) for name in COST_NAMES},
                "finance": finance(rng),
                "break_even": {
                    "p_be_mw": design["mw_t"] * rng.uniform(0.2, 0.6),
                    "ev_mw_per_turbine": rng.uniform(0.0, 0.01),
                },
                "power_curve": power_curve(rng, design["mw_t"]),
            }
        )
    return pool


# ---------------------------------------------------------------------------
# CLI invocations


def _cli_config(rng: random.Random) -> dict:
    design = array_design(rng)
    config = {"array": design, "finance": finance(rng)}
    if rng.random() < 0.4:
        source = rng.choice(("two_points", "ratio"))
        estimate = cost_source(rng, source, design["mw_t"])
        directive = {"method": source, "capex": estimate["capex"], "opex": estimate["opex"]}
        if source == "ratio":
            directive["ratio"] = estimate["ratio"]
        config["costs"] = {"estimate": directive}
    else:
        config["costs"] = {name: draw(rng, name) for name in COST_NAMES}
    if rng.random() < 0.5:
        config["break_even"] = {
            "p_be_mw": design["mw_t"] * rng.uniform(0.2, 0.6),
            "ev_mw_per_turbine": rng.uniform(0.0, 0.01),
        }
    return config


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def _write_csv(path: str, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _split_invocation(rng: random.Random, index: int, workdir: str) -> tuple[list[str], dict]:
    """Arguments for one ``split`` call, and the GBP totals they encode.

    The totals are computed as the CLI normalizes them (cost times capacity
    times currency rate), so the oracle sees the same numbers.
    """
    mw_t = rng.uniform(0.5, 2.0)
    rate = rng.choice(CURRENCY_RATES)
    true = {name: draw(rng, name) for name in COST_NAMES}
    variant = ("inline", "csv", "ratio_total", "ratio_per_mw")[index % 4]
    if variant in ("inline", "csv"):
        counts = (rng.randint(1, 5), rng.randint(20, 60))
        totals = {
            "capex": [(n, _noisy(rng, true["ca_f"] + true["ca_t"] * n)) for n in counts],
            "opex": [(n, _noisy(rng, true["o_f"] + true["o_t"] * n)) for n in counts],
        }
        points: dict[str, list[tuple[float, float]]] = {}
        if variant == "inline":
            args = ["split", "two-points", "--currency-rate", repr(rate)]
            for kind, observed in totals.items():
                for n_t, total in observed:
                    args += [f"--{kind}", f"{n_t}={total / rate!r}"]
                points[kind] = [(float(n_t), total / rate * rate) for n_t, total in observed]
        else:
            args = ["split", "two-points"]
            per_mw = index % 8 == 5
            for kind, observed in totals.items():
                path = os.path.join(workdir, f"split{index}_{kind}.csv")
                args += [f"--{kind}-csv", path]
                if per_mw:
                    rows = [(n * mw_t, total / (n * mw_t), 1.0) for n, total in observed]
                    _write_csv(path, ["capacity_mw", "per_mw_gbp_m", "rate_to_gbp"], rows)
                    points[kind] = [(c / mw_t, cost * c * 1.0) for c, cost, _ in rows]
                else:
                    _write_csv(path, ["n_t", "total_gbp_m"], observed)
                    points[kind] = [(float(n), total) for n, total in observed]
            if per_mw:
                args += ["--mw-t", repr(mw_t)]
        spec = {"method": "two_points", "points": points}
    else:
        ratio = rng.uniform(2.0, 4.2)  # partly outside [2.3, 3.9], which warns
        n_t = float(rng.randint(2, 40))
        args = ["split", "ratio", "--ratio", repr(ratio), "--currency-rate", repr(rate)]
        costs = {kind: true[part] * (ratio + n_t) / rate
                 for kind, part in (("capex", "ca_t"), ("opex", "o_t"))}
        if variant == "ratio_total":
            args += ["--n-t", repr(n_t)]
            for kind, cost in costs.items():
                args += [f"--{kind}-total", repr(cost)]
            totals = {kind: cost * rate for kind, cost in costs.items()}
        else:
            capacity = n_t * mw_t
            args += ["--capacity", repr(capacity), "--mw-t", repr(mw_t)]
            for kind, cost in costs.items():
                args += [f"--{kind}-per-mw", repr(cost / capacity)]
            n_t = capacity / mw_t
            totals = {kind: cost / capacity * capacity * rate for kind, cost in costs.items()}
        spec = {"method": "ratio", "ratio": ratio, "n_t": n_t, "totals": totals}
    return args + ["--format", "json"], spec


def cli_invocations(seed: int, workdir: str) -> dict[str, list[dict]]:
    """Write the configs and CSVs of the CLI pool; return the invocations.

    Each invocation holds its subcommand, its arguments (files as absolute
    paths inside ``workdir``) and what the oracle needs: the config, the
    power curve or the split totals.
    """
    rng = rng_for("cli_cold", seed)
    os.makedirs(workdir, exist_ok=True)
    names = list(BUILTIN_TABLE)
    pool: dict[str, list[dict]] = {name: [] for name in CLI_SUBCOMMANDS}
    for index in range(CLI_POOL_PER_SUBCOMMAND):
        for sub in CLI_SUBCOMMANDS:
            path = os.path.join(workdir, f"{sub}{index}.json")
            entry: dict = {"subcommand": sub}
            if sub == "split":
                entry["args"], entry["split"] = _split_invocation(rng, index, workdir)
                pool[sub].append(entry)
                continue
            config = _cli_config(rng)
            if sub == "scenarios" and rng.random() < 0.6:
                override = rng.choice(("tariff", "r", "ca_t", "availability"))
                config["scenario_overrides"] = {override: draw(rng, override)}
            if sub == "sweep":
                if rng.random() < 0.5:
                    config["scenario_overrides"] = scenario_mapping(rng)
                parameter = names[index % len(names)]
                low, _, high = BUILTIN_TABLE[parameter]
                entry["args"] = ["sweep", path, "--param", parameter, "--from", repr(float(low)),
                                 "--to", repr(float(high)), "--steps", str(CLI_SWEEP_STEPS),
                                 "--metric", SWEEP_METRICS[index % len(SWEEP_METRICS)]]
            elif sub == "curve":
                curve_path = os.path.join(workdir, f"curve{index}.csv")
                samples = power_curve(rng, config["array"]["mw_t"])
                _write_csv(curve_path, ["n_t", "p_avg_mw"], [(n, repr(p)) for n, p in samples])
                entry["power_curve"] = samples
                entry["args"] = ["curve", path, "--power-curve", curve_path, "--format", "json"]
            else:
                entry["args"] = [sub, path, "--format", "json"]
            _write_json(path, config)
            entry["config"] = config
            pool[sub].append(entry)
    return pool


def generate(workload: str, seed: int, workdir: str):
    """The inputs of one workload; ``cli_cold`` also writes its files."""
    if workload in ("portfolio", "overhaul"):
        return projects(workload, seed)
    if workload == "design_sweep":
        return designs(seed)
    if workload == "cli_cold":
        return cli_invocations(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
