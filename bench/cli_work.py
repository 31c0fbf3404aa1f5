"""The ``cli_cold`` workload: one ``python -m tidalecon.cli`` process per op.

Also the cold-start probes of the traced run: a bare interpreter, and
``-X importtime`` parsed into the package's import time and numpy's share.
"""
from __future__ import annotations

import csv
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import gen
import oracle

OP_TIMEOUT_S = 60
# One client with one op in flight on a 2-core machine, and arrays of at most
# a few hundred elements: a BLAS thread pool cannot help, while starting it
# added about 70 ms to each ``import numpy`` and widened its swing.
BLAS_THREADS = "1"
MAIN_TIMER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_main_timer.py")


def environment(root: str) -> dict:
    """Child environment that imports the package from the working tree.

    Bytecode caching is left on, as for an installed package: with
    ``PYTHONDONTWRITEBYTECODE`` inherited, every op would also compile
    the package's sources. OpenBLAS gets one thread (see ``BLAS_THREADS``).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def invoke(root: str, env: dict, args: list[str],
           stderr_path: str) -> tuple[subprocess.CompletedProcess, int]:
    """One CLI process: its outcome, and its own peak RSS in KiB from ``wait4``.

    stderr goes to ``stderr_path``, so that reading stdout to its end
    cannot block, and the child is reaped here rather than by ``Popen``.
    """
    command = [sys.executable, "-m", "tidalecon.cli", *args]
    with open(stderr_path, "w+b") as stderr:
        proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=stderr)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        stderr.seek(0)
        done = subprocess.CompletedProcess(command, proc.returncode, stdout, stderr.read())
    return done, usage.ru_maxrss


def rotation(pool: dict[str, list[dict]], index: int) -> dict:
    """Op ``index``: subcommands in turn, then the next pool entry of each."""
    sub = gen.CLI_SUBCOMMANDS[index % len(gen.CLI_SUBCOMMANDS)]
    entries = pool[sub]
    return entries[(index // len(gen.CLI_SUBCOMMANDS)) % len(entries)]


# ---------------------------------------------------------------------------
# Output checks


def _check_metrics(entry: dict, payload: dict, recorded: dict) -> list[str]:
    config = entry["config"]
    echo = payload["inputs"]
    problems = oracle.check_costs(echo, oracle.config_costs(config["costs"]))
    report = payload["metrics"]
    got = {"npv": report["npv_gbp_m"], "lcoe": report["lcoe_gbp_per_mwh"],
           "payback": report["payback_years"], "irr": report["irr"]}
    problems += oracle.check_project_metrics(got, config["array"], echo, config["finance"])
    for key in ("payback_years", "irr"):
        if (report[key] is None) != (key in payload["notes"]):
            problems.append(f"metrics: {key} is None without a note, or a note without None")
    # Break-even fields are recorded, not judged, until the P_BE definition
    # (with or without electrical efficiency) is settled.
    recorded[" ".join(entry["args"])] = {
        key: report[key]
        for key in ("break_even_power_mw", "bep_capacity_factor", "j_bep_mw", "j_bep_ev_mw")
    }
    return problems


def _check_scenarios(entry: dict, payload: dict) -> list[str]:
    config = entry["config"]
    problems = []
    for label, scenario in zip(gen.SCENARIO_LABELS, payload["scenarios"]):
        if scenario["label"] != label:
            problems.append(f"scenarios: got label {scenario['label']!r}, expected {label!r}")
        values = oracle.scenario_values(gen.BUILTIN_TABLE, label,
                                        config.get("scenario_overrides"))
        for name, want in values.items():
            if not oracle.close(scenario["parameters"][name], want):
                problems.append(f"scenarios {label}: parameter {name} is "
                                f"{scenario['parameters'][name]!r}, expected {want!r}")
        bound, costs, finance = oracle.scenario_inputs(config["array"], values)
        problems += oracle.check_project_metrics(scenario["metrics"], bound, costs, finance)
    return problems


def _check_sweep(entry: dict, stdout: str) -> list[str]:
    args = entry["args"]
    option = dict(zip(args[2::2], args[3::2]))
    metric, parameter = option["--metric"], option["--param"]
    start, stop, steps = float(option["--from"]), float(option["--to"]), int(option["--steps"])
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["value", metric] or len(rows) != steps + 1:
        return [f"sweep: unexpected CSV shape {rows[:1]} with {len(rows) - 1} rows"]
    overrides = entry["config"].get("scenario_overrides")
    values = oracle.scenario_values(gen.BUILTIN_TABLE, overrides or "typical")
    problems = []
    for k, (value_text, cell) in enumerate(rows[1:]):
        value = float(value_text)
        if not oracle.close(value, start + k * (stop - start) / (steps - 1)):
            problems.append(f"sweep: grid value {value!r} at step {k}")
        got = None if cell == "undefined" else float(cell)
        point = dict(values, **{parameter: value})
        problems += oracle.check_sweep_point(got, metric, entry["config"]["array"], point)
    return problems


def _check_curve(entry: dict, payload: dict) -> list[str]:
    config = entry["config"]
    rows, samples = payload["rows"], entry["power_curve"]
    if len(rows) != len(samples):
        return ["curve: wrong row count"]
    costs = oracle.config_costs(config["costs"])
    problems = []
    for row, (n_t, p_avg) in zip(rows, samples):
        problems += oracle.check_curve_row(row, n_t, p_avg, config["array"], costs,
                                           config["finance"], config.get("break_even"))
    best = max(samples, key=lambda sample: sample[1])[0]
    if [row["n_t"] for row in rows if row["max_power"]] != [best]:
        problems.append("curve: max_power flag on the wrong row")
    return problems


def _check_split(entry: dict, payload: dict) -> list[str]:
    spec = entry["split"]
    if spec["method"] == "two_points":
        parts = [oracle.split_two_points(*spec["points"][kind]) for kind in ("capex", "opex")]
        warn_expected = False
    else:
        ratio = spec["ratio"]
        parts = [oracle.split_ratio(spec["n_t"], spec["totals"][kind], ratio)
                 for kind in ("capex", "opex")]
        warn_expected = not 2.3 <= ratio <= 3.9
    (ca_f, ca_t), (o_f, o_t) = parts
    problems = oracle.check_costs(payload["costs"],
                                  {"ca_f": ca_f, "ca_t": ca_t, "o_f": o_f, "o_t": o_t})
    if bool(payload["warnings"]) != warn_expected:
        problems.append(f"split: warnings {payload['warnings']!r}, expected "
                        f"{'a ratio-window warning' if warn_expected else 'none'}")
    return problems


def check_output(entry: dict, stdout: bytes, recorded: dict) -> list[str]:
    """Problems in one invocation's stdout; unjudged fields go to ``recorded``."""
    text = stdout.decode("utf-8")
    sub = entry["subcommand"]
    if sub == "sweep":
        return _check_sweep(entry, text)
    payload = json.loads(text)
    if payload.get("command") != sub:
        return [f"{sub}: output names command {payload.get('command')!r}"]
    if sub == "metrics":
        return _check_metrics(entry, payload, recorded)
    checks = {"scenarios": _check_scenarios, "curve": _check_curve, "split": _check_split}
    return checks[sub](entry, payload)


# ---------------------------------------------------------------------------
# Cold-start probes (traced run only)


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(package import ms, numpy import ms) from ``-X importtime`` output.

    The package time is the cumulative time of the top-level ``tidalecon``
    imports; numpy's is its cumulative time wherever it is first imported.
    """
    package_us = numpy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header row
        cumulative, name = int(fields[1]), fields[2]
        module = name.strip()
        top_level = name.startswith(" ") and not name.startswith("  ")
        if top_level and (module == "tidalecon" or module.startswith("tidalecon.")):
            package_us += cumulative
        if module == "numpy":
            numpy_us = cumulative
    return package_us / 1000.0, numpy_us / 1000.0


def interpreter_seconds(root: str, env: dict) -> float:
    """Wall time of a bare ``python -c pass``."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True,
                   timeout=OP_TIMEOUT_S)
    return time.perf_counter() - started


def cold_start(root: str, env: dict, repeats: int) -> dict[str, float]:
    """Medians of bare-interpreter start and of the import split."""
    interp, package, numpy = [], [], []
    for _ in range(repeats):
        interp.append(interpreter_seconds(root, env) * 1000.0)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tidalecon.cli"],
            cwd=root, env=env, capture_output=True, text=True, check=True, timeout=OP_TIMEOUT_S,
        )
        package_ms, numpy_ms = parse_importtime(done.stderr)
        package.append(package_ms)
        numpy.append(numpy_ms)
    return {
        "cli.interp_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(package),
        "cli.import_numpy_ms": statistics.median(numpy),
    }


def in_process_runs(root: str, env: dict, pool: dict[str, list[dict]],
                    repeats: int) -> dict[str, list[float]]:
    """Per-subcommand ``cli.main`` times (ms) after import, from one child."""
    argv_list = [entry["args"] for sub in gen.CLI_SUBCOMMANDS for entry in pool[sub]]
    done = subprocess.run(
        [sys.executable, MAIN_TIMER, str(repeats)], input=json.dumps(argv_list), cwd=root, env=env,
        capture_output=True, text=True, check=True, timeout=OP_TIMEOUT_S * 2,
    )
    return json.loads(done.stdout.splitlines()[-1])
