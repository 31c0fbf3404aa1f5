"""tidalecon benchmark: one closed-loop client, one op in flight.

    python3 bench/run.py --workload portfolio --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 0

Workloads: cli_cold, portfolio, overhaul, design_sweep (see README.md).
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. Every output is checked right after its op, outside
the op's timing, against the independent oracle in ``oracle.py`` or
against the first output of the same input. A results file with
provenance, sample counts and any failures is written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from array import array

import cli_work
import gen
import inproc
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("cli_cold", "portfolio", "overhaul", "design_sweep")
# Timed set-ups per run: half before the timed loop (after one untimed set-up)
# and half after it. The machine's speed state lasts seconds, so set-ups
# taken together catch one state, and set-ups 30 s apart can catch two.
SETUP_REPEATS = 8
COLD_START_REPEATS = 7
MAIN_TIMER_REPEATS = 2
MIN_OPS = 100  # so that 10 samples lie beyond op_ref_p90
# cli_cold's untimed ops: after one rotation (5), the first ~20 timed ops
# still read 5-10% high.
CLI_WARMUP_OPS = 20
GIVE_UP_S = 120  # a loop still short of MIN_OPS after this long fails (180 s per run)
MAX_OPS = 100_000  # capacity of the op log; far above what a run can make
FAILURES_KEPT = 20

# The gated end-to-end metrics. Op times are given in "ref": multiples of
# the reference timed just before each op (see ``reference_seconds``).
END_TO_END = (
    ("setup_s", "s"),
    ("op_ref_p50", "ref"),
    ("op_ref_p90", "ref"),
    ("ops_per_kref", "1/kref"),
    ("peak_rss_mb", "MB"),
)
# The same op figures in wall-clock units: printed and written to the results
# file, but not gated, because on a shared 2-core VM identical work can run
# 1.4x slower from one run to the next (see README.md).
WALL_CLOCK = (
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
)
PER_LAYER = (
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.run_ms_p50", "ms"),
    *((f"cli.{sub}.ms_p50", "ms") for sub in gen.CLI_SUBCOMMANDS),
    ("cost_estimation.split_two_points.us_p50", "us"),
    ("cost_estimation.split_from_ratio.us_p50", "us"),
    ("cost_estimation.fit_higgins_ratio.us_p50", "us"),
    ("cost_estimation.calls", "count"),
    ("cost_model.build_schedule.us_p50", "us"),
    ("cost_model.build_schedule.busy_share", "fraction"),
    ("metrics.npv.us_p50", "us"),
    ("metrics.lcoe.us_p50", "us"),
    ("metrics.payback_period.us_p50", "us"),
    ("metrics.irr.ms_p50", "ms"),
    ("metrics.irr.ms_p90", "ms"),
    ("metrics.irr.busy_share", "fraction"),
    ("metrics.irr.calls", "count"),
    ("metrics.irr.sign0_share", "fraction"),
    ("metrics.irr.sign1_share", "fraction"),
    ("metrics.irr.sign2plus_share", "fraction"),
    ("metrics.irr.ambiguous_share", "fraction"),
    ("metrics.irr.undefined_share", "fraction"),
    ("metrics.payback_period.undefined_share", "fraction"),
    ("scenarios.sensitivity_sweep.ms_p50", "ms"),
    ("scenarios.sensitivity_sweep.points_per_s", "1/s"),
    ("metrics.functional_sweep.ms_p50", "ms"),
    ("metrics.functional_sweep.rows_per_s", "1/s"),
    *((f"mix.cost.{source}_share", "fraction") for source in gen.COST_SOURCES),
    *((f"mix.cli.{sub}_share", "fraction") for sub in gen.CLI_SUBCOMMANDS),
    ("trace.overhead_frac", "fraction"),
)


class OpLog:
    """Index, wall time, reference time and flags of each op.

    The arrays are allocated and filled before the timed loop, so the
    benchmark's own memory, and with it ``peak_rss_mb``, is the same
    however many ops a run makes.
    """

    TRACED, FAILED, ERROR = 1, 2, 4  # ERROR: raised, so there is no output

    def __init__(self, capacity: int) -> None:
        self.index = array("q", bytes(8 * capacity))
        self.seconds = array("d", bytes(8 * capacity))
        self.reference = array("d", bytes(8 * capacity))
        self.flags = bytearray(capacity)
        self.count = 0

    def add(self, index: int, seconds: float, reference: float, flags: int) -> None:
        k = self.count
        self.index[k], self.seconds[k], self.reference[k], self.flags[k] = (
            index, seconds, reference, flags)
        self.count = k + 1

    def full(self) -> bool:
        return self.count == len(self.flags)

    def ops(self, mask: int = 0, value: int = 0):
        """(index, seconds, reference) of the ops whose ``flags & mask == value``."""
        for k in range(self.count):
            if self.flags[k] & mask == value:
                yield self.index[k], self.seconds[k], self.reference[k]


class Verifier:
    """Checks each op's output right after the op, outside its timing.

    The first output of each input is checked against the oracle and the
    input's properties are recorded. A later output of the same input must
    match it: for the CLI, byte-identical stdout; in process, the same
    digest. Nothing is kept per op, so memory grows with the inputs seen,
    not with the ops made.
    """

    def __init__(self, key_of, check, properties) -> None:
        """``key_of(index)`` names the op's input; ``check(index, result)`` and
        ``properties(index, result, warned)`` run on its first output."""
        self.key_of, self.check, self.properties = key_of, check, properties
        self.first: dict = {}  # key -> (digest, problems)
        self.props: dict = {}  # key -> input properties
        self.failures: list[dict] = []

    def __call__(self, index: int, result, error: str | None, warned: tuple[str, ...]) -> bool:
        """Whether the op failed."""
        problems: tuple[str, ...] = ()
        if error is None:
            key = self.key_of(index)
            # CLI stdout is kept whole (the CLI's memory is its children's), so
            # repeats are compared byte for byte; in process, a 64-bit SipHash
            # of the repr, keyed per process, as digests stay within one run.
            digest = result if isinstance(result, bytes) else hash(repr((result, warned)))
            if key not in self.first:
                self.first[key] = (digest, verdict(self.check, index, result))
                self.props[key] = self.properties(index, result, warned)
            first_digest, problems = self.first[key]
            if digest != first_digest:
                problems += ("output differs from the first run of the same input",)
        failed = error is not None or bool(problems)
        if failed and len(self.failures) < FAILURES_KEPT:
            self.failures.append({"op": index, "error": error, "problems": list(problems)})
        return failed


# ---------------------------------------------------------------------------
# Set-up


def measure_setup(workload: str, seed: int, env: dict, repeats: int, warm: bool) -> list[float]:
    """Seconds of ``import tidalecon`` plus input generation, per fresh process.

    With ``warm``, one more set-up runs first and is not counted: it fills
    the OS file cache.
    """
    samples = []
    for repeat in range(repeats + warm):
        workdir = os.path.join(OUT_DIR, f"setup-probe-{workload}-{repeat}")
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload,
                 str(seed), workdir],
                cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        timings = json.loads(done.stdout.splitlines()[-1])
        samples.append(timings["import_s"] + timings["generate_s"])
    return samples[1:] if warm else samples


def import_library():
    """``tidalecon`` from this checkout's ``src/``, never an installed copy."""
    os.environ["OPENBLAS_NUM_THREADS"] = cli_work.BLAS_THREADS  # read when numpy loads
    sys.path.insert(0, SRC)
    import tidalecon

    if not os.path.abspath(tidalecon.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"tidalecon imported from {tidalecon.__file__}, not {SRC}")
    return tidalecon


# ---------------------------------------------------------------------------
# Timed loop

_REFERENCE_FLOWS = (-50.0,) + (4.0,) * 25
_REFERENCE_RATES = 200
REFERENCE_HALF_WINDOW = 2  # reference timings pooled on each side of an op


def reference_seconds() -> float:
    """Wall time of a fixed chunk of pure-Python discounting (about 1 ms).

    Timed just before every op; it does not call the library. The machine's
    speed drifts over seconds and can shift a whole run's op times by 1.4x,
    while an in-process op's time divided by the reference stays within a
    few percent (see ``op_references``).
    """
    started = time.perf_counter()
    total = 0.0
    for k in range(_REFERENCE_RATES):
        factor = 1.0 + 0.001 * k
        total += sum(flow * factor ** -year for year, flow in enumerate(_REFERENCE_FLOWS))
    return time.perf_counter() - started


def process_reference_seconds() -> float:
    """``reference_seconds`` plus the wall time of starting and reaping ``true``.

    The reference for ``cli_cold``, where an op is mostly process start-up
    and Python: on ten runs it took the spread of ``op_ref_p50``,
    ``op_ref_p90`` and ``ops_per_kref`` from 0.060, 0.056 and 0.058 with
    the pure-Python chunk alone to 0.037, 0.035 and 0.024.
    """
    python_s = reference_seconds()
    started = time.perf_counter()
    subprocess.run(["true"], check=True, timeout=cli_work.OP_TIMEOUT_S)
    return python_s + time.perf_counter() - started


def op_references(log: OpLog) -> dict[int, float]:
    """Reference seconds per op index, from the timings around it.

    The timing taken before op ``i + 1`` is the one just after op ``i``, so
    index ``i`` gets the timings from ``i - 2`` to ``i + 2``. Within a run the
    machine flips between a fast and a slow state, about 0.65 and 1.1 ms
    for the chunk; one timing catches either, while an op of 40-250 ms spans
    both. So the reference is a mean of the window, not a median, with
    each timing capped at twice the window's median so that one hiccup
    does not carry it.
    """
    timings = dict((index, reference) for index, _, reference in log.ops())
    indices = sorted(timings)
    out = {}
    for k, index in enumerate(indices):
        window = [timings[i] for i in indices[max(0, k - REFERENCE_HALF_WINDOW):
                                              k + REFERENCE_HALF_WINDOW + 1]]
        cap = 2.0 * statistics.median(window)
        out[index] = statistics.fmean(min(value, cap) for value in window)
    return out


def run_one(run_op, index: int, tracer: spans.Tracer | None):
    """(seconds, result, error, names of the warnings raised) of one op."""
    call = tracer.call if tracer else spans.direct
    if tracer:
        tracer.begin(index)
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = run_op(index, call), None
        except Exception:  # an op failure is counted, and the loop goes on
            result, error = None, traceback.format_exc(limit=4)
    ended = time.perf_counter()
    if tracer:
        tracer.end(started, ended)
    return ended - started, result, error, tuple(sorted({w.category.__name__ for w in caught}))


class ShortRunError(RuntimeError):
    """The run made fewer than ``MIN_OPS`` ops before giving up."""


def timed_loop(run_op, seconds: float, tracer: spans.Tracer | None, verify: Verifier,
               reference=reference_seconds) -> tuple[OpLog, float, bool]:
    """Closed loop for ``seconds`` and at least ``MIN_OPS`` ops.

    Returns the op log, the loop's wall time, and whether the loop ran past
    ``seconds`` to reach ``MIN_OPS``. A traced run makes each op
    twice, once traced and once not, alternating which goes first, so the
    tracing overhead is measured on equal inputs. Each op's reference is
    set after the loop from the reference timings around it.
    """
    log = OpLog(MAX_OPS)
    started = time.perf_counter()
    deadline, give_up = started + seconds, started + max(seconds, GIVE_UP_S)
    index = 0
    extended = False
    while not log.full():
        now = time.perf_counter()
        if now >= deadline and index >= MIN_OPS:
            break
        if now >= give_up:
            raise ShortRunError(f"only {index} ops in {now - started:.0f} s; "
                                f"percentiles need at least {MIN_OPS}")
        extended |= now >= deadline
        if tracer is None:
            order: tuple = (None,)
        else:
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
        reference_s = reference()
        for current in order:
            elapsed, result, error, warned = run_one(run_op, index, current)
            flags = OpLog.TRACED if current else 0
            if verify(index, result, error, warned):
                flags |= OpLog.FAILED
            if error is not None:
                flags |= OpLog.ERROR
            log.add(index, elapsed, reference_s, flags)
        index += 1
    return log, time.perf_counter() - started, extended


def verdict(check, *args) -> tuple[str, ...]:
    """Problems found by an oracle check; a check that cannot run is one."""
    try:
        return tuple(check(*args))
    except Exception:  # malformed output counts as a failed op, not a crash
        return (f"output could not be checked: {traceback.format_exc(limit=2)}",)


# ---------------------------------------------------------------------------
# Workloads


def cli_workload(pool: dict, env: dict, scratch: str):
    """(op function, verifier, recorded break-even fields, peak child RSS in KiB)."""
    peak_kb = [0]
    stderr_path = os.path.join(scratch, "cli_stderr.txt")

    def run_op(index: int, call):
        entry = cli_work.rotation(pool, index)
        done, rss_kb = call("cli.subprocess", cli_work.invoke, ROOT, env, entry["args"],
                            stderr_path)
        peak_kb[0] = max(peak_kb[0], rss_kb)
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr.decode()[-500:]}")
        return done.stdout

    recorded: dict[str, dict] = {}

    def check(index: int, stdout: bytes) -> list[str]:
        return cli_work.check_output(cli_work.rotation(pool, index), stdout, recorded)

    def properties(index: int, _stdout, _warned) -> dict:
        return {"subcommand": cli_work.rotation(pool, index)["subcommand"]}

    def key_of(index: int) -> int:
        return id(cli_work.rotation(pool, index))

    return run_op, Verifier(key_of, check, properties), recorded, peak_kb


def inproc_workload(lib, workload: str, pool: list[dict]):
    """(op function, verifier)."""
    study = workload == "design_sweep"
    single = inproc.study_op if study else inproc.project_op

    def run_op(index: int, call):
        return single(lib, pool[index % len(pool)], call)

    def check(index: int, result) -> list[str]:
        if study:
            return inproc.check_study(pool[index % len(pool)], result, gen.BUILTIN_TABLE)
        return inproc.check_project(pool[index % len(pool)], result)

    def properties(index: int, result, warned: tuple[str, ...]) -> dict:
        entry = pool[index % len(pool)]
        if study:
            return {"points": len(entry["grid"]), "rows": len(entry["power_curve"])}
        return inproc.project_properties(entry, result, warned)

    return run_op, Verifier(lambda index: index % len(pool), check, properties)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(log: OpLog, setup: list[float], peak_rss_kb: int) -> dict:
    ops = list(log.ops())
    references = op_references(log)
    times_ms = [seconds * 1000.0 for _, seconds, _ in ops]
    times_ref = [seconds / references[index] for index, seconds, _ in ops]
    completed = sum(1 for _ in log.ops(OpLog.FAILED, 0))
    return {
        "setup_s": statistics.median(setup),
        "op_ref_p50": spans.p50(times_ref),
        "op_ref_p90": spans.p90(times_ref),
        "ops_per_kref": 1000.0 * completed / sum(times_ref),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "op_ms_p50": spans.p50(times_ms),
        "op_ms_p90": spans.p90(times_ms),
        "ops_per_s": 1000.0 * completed / sum(times_ms),
    }


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(log: OpLog, tracer: spans.Tracer, verify: Verifier, extra: dict) -> dict:
    """Per-layer metrics of a traced run; 0 for layers the workload never calls."""
    durations = tracer.durations()
    traced_ms = [seconds * 1000.0 for _, seconds, _ in log.ops(OpLog.TRACED, OpLog.TRACED)]
    plain_ms = [seconds * 1000.0 for _, seconds, _ in log.ops(OpLog.TRACED, 0)]
    op_busy = sum(durations.get("op", []))
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(extra)

    def layer(name: str) -> list[float]:
        return durations.get(name, [])

    for name in ("cost_estimation.split_two_points", "cost_estimation.split_from_ratio",
                 "cost_estimation.fit_higgins_ratio", "cost_model.build_schedule",
                 "metrics.npv", "metrics.lcoe", "metrics.payback_period"):
        metrics[f"{name}.us_p50"] = spans.p50(layer(name)) * 1e6
    metrics["cost_estimation.calls"] = sum(
        len(values) for name, values in durations.items() if name.startswith("cost_estimation.")
    )
    for name in ("cost_model.build_schedule", "metrics.irr"):
        metrics[f"{name}.busy_share"] = share(sum(layer(name)), op_busy)
    irr_ms = [value * 1000.0 for value in layer("metrics.irr")]
    metrics["metrics.irr.ms_p50"] = spans.p50(irr_ms)
    metrics["metrics.irr.ms_p90"] = spans.p90(irr_ms)
    metrics["metrics.irr.calls"] = len(irr_ms)
    traced_props = [verify.props.get(verify.key_of(index), {})
                    for index, _, _ in log.ops(OpLog.TRACED | OpLog.ERROR, OpLog.TRACED)]
    for name, unit in (("scenarios.sensitivity_sweep", "points"),
                       ("metrics.functional_sweep", "rows")):
        values = layer(name)
        metrics[f"{name}.ms_p50"] = spans.p50(values) * 1000.0
        work = sum(prop.get(unit, 0) for prop in traced_props)
        metrics[f"{name}.{unit}_per_s"] = share(work, sum(values))
    metrics.update(input_properties(log, verify))
    if traced_ms and plain_ms:
        metrics["trace.overhead_frac"] = spans.p50(traced_ms) / spans.p50(plain_ms) - 1.0
    return metrics


def input_properties(log: OpLog, verify: Verifier) -> dict:
    """Shares, over the ops that gave an output, of the input properties a
    later gain may depend on."""
    props = [verify.props[verify.key_of(index)] for index, _, _ in log.ops(OpLog.ERROR, 0)]
    out: dict[str, float] = {}
    projects = [prop for prop in props if "sign_changes" in prop]
    if projects:
        total = len(projects)
        signs = [prop["sign_changes"] for prop in projects]
        out["metrics.irr.sign0_share"] = share(signs.count(0), total)
        out["metrics.irr.sign1_share"] = share(signs.count(1), total)
        out["metrics.irr.sign2plus_share"] = share(sum(1 for s in signs if s >= 2), total)
        for metric, flag in (("metrics.irr.ambiguous_share", "irr_ambiguous"),
                             ("metrics.irr.undefined_share", "irr_undefined"),
                             ("metrics.payback_period.undefined_share", "payback_undefined")):
            out[metric] = share(sum(prop[flag] for prop in projects), total)
        for source in gen.COST_SOURCES:
            out[f"mix.cost.{source}_share"] = share(
                sum(1 for prop in projects if prop["cost_source"] == source), total)
    commands = [prop["subcommand"] for prop in props if "subcommand" in prop]
    for sub in gen.CLI_SUBCOMMANDS if commands else ():
        out[f"mix.cli.{sub}_share"] = share(commands.count(sub), len(commands))
    return out


# ---------------------------------------------------------------------------
# Provenance and output


def provenance(seed: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()
    env = cli_work.environment(ROOT)
    setup = measure_setup(workload, seed, env, SETUP_REPEATS // 2, warm=True)

    lib = None if workload == "cli_cold" else import_library()
    inputs_dir = os.path.join(OUT_DIR, f"inputs-{workload}-{seed}")
    pool = gen.generate(workload, seed, inputs_dir)
    cpus = os.sched_getaffinity(0)
    checked: dict = {}
    reference = reference_seconds
    if lib is None:
        reference = process_reference_seconds
        run_op, verify, recorded, child_peak_kb = cli_workload(pool, env, inputs_dir)
        checked["cli_break_even_unjudged"] = recorded
        # The CLI processes inherit one CPU with the benchmark, so the
        # reference runs where the ops run and sees the same slowdowns.
        os.sched_setaffinity(0, {min(cpus)})
        for index in range(CLI_WARMUP_OPS):
            run_op(index, spans.direct)  # untimed; the first calls also fill the OS caches
    else:
        run_op, verify = inproc_workload(lib, workload, pool)

    tracer = spans.Tracer() if trace else None
    try:
        log, wall, extended = timed_loop(run_op, seconds, tracer, verify, reference)
    finally:
        os.sched_setaffinity(0, cpus)
    if lib is None:
        peak_rss_kb = child_peak_kb[0]  # the CLI processes alone, each from wait4
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup += measure_setup(workload, seed, env, SETUP_REPEATS - len(setup), warm=False)

    attempted = log.count
    failed = sum(1 for _ in log.ops(OpLog.FAILED, OpLog.FAILED))
    report: dict = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "timed_wall_s": wall,
        "extended_to_min_ops": extended,
        "setup_samples_s": setup,
        "failures": verify.failures,
        **checked,
    }
    if trace:
        extra = cli_work.cold_start(ROOT, env, COLD_START_REPEATS)
        if workload == "cli_cold":
            runs = cli_work.in_process_runs(ROOT, env, pool, MAIN_TIMER_REPEATS)
            extra["cli.run_ms_p50"] = spans.p50([t for values in runs.values() for t in values])
            for sub, values in runs.items():
                extra[f"cli.{sub}.ms_p50"] = spans.p50(values)
        report["metrics"] = per_layer(log, tracer, verify, extra)
        report["samples"] = {"traced_ops": sum(1 for _ in log.ops(OpLog.TRACED, OpLog.TRACED)),
                             "untraced_ops": sum(1 for _ in log.ops(OpLog.TRACED, 0)),
                             "cold_start_repeats": COLD_START_REPEATS}
        report["spans_file"] = os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}.jsonl")
        tracer.write(report["spans_file"])
        units = dict(PER_LAYER)
    else:
        report["metrics"] = end_to_end(log, setup, peak_rss_kb)
        report["metrics"].update(input_properties(log, verify))
        report["samples"] = {"ops": attempted, "setup_repeats": len(setup)}
        report["op_ms"] = [seconds * 1000.0 for _, seconds, _ in log.ops()]
        report["reference_timing_ms"] = [reference * 1000.0 for _, _, reference in log.ops()]
        report["wall_clock_units"] = dict(WALL_CLOCK)
        units = dict(END_TO_END)
    report["units"] = units
    report["provenance"]["loadavg_start"] = load_start
    report["provenance"]["loadavg_end"] = os.getloadavg()
    name = f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=str)
    return report


def print_report(report: dict) -> None:
    samples = report["samples"]
    print(f"workload {report['workload']} (trace {int(report['trace'])}): "
          f"{report['attempted']} ops attempted, {report['failed']} failed, "
          f"failed_frac {report['failed_frac']:.4g} fraction")
    if report["extended_to_min_ops"]:
        print(f"  the timed loop ran {report['timed_wall_s']:.1f} s, past --seconds, "
              f"to reach {MIN_OPS} ops")
    for failure in report["failures"][:5]:
        print(f"  FAILED op {failure['op']}: {failure['error'] or failure['problems']}")
    wall_clock = report.get("wall_clock_units", {})
    for name, value in report["metrics"].items():
        unit = report["units"].get(name) or wall_clock.get(name, "")
        notes = []
        if name == "setup_s":
            notes.append(f"median of {samples['setup_repeats']} set-ups")
        elif name.startswith("op_") and not report["trace"]:
            notes.append(f"n={samples['ops']} ops")
        if name in wall_clock:
            notes.append("wall clock, not gated")
        if not unit:
            notes.append("input property")
        print(f"  {name:44s} {value:14.6g} {unit:9s} {', '.join(notes)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tidalecon", "__init__.py")):
        print(f"error: no tidalecon sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except ShortRunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        metrics = {name: {"value": reports[0]["metrics"][name], "unit": unit}
                   for name, unit in reports[0]["units"].items()}
    else:
        metrics = {f"{r['workload']}.{name}": {"value": r["metrics"][name], "unit": unit}
                   for r in reports for name, unit in r["units"].items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
