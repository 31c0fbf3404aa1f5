"""Self-tests of the benchmark: seeded inputs repeat, and the oracle rejects
perturbed values.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import filecmp
import json
import math
import os

import pytest

import cli_work
import gen
import inproc
import oracle
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Some generated ratios fall outside the supported window on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


@pytest.mark.parametrize("workload", ["portfolio", "overhaul", "design_sweep"])
def test_same_seed_same_inputs(workload, tmp_path):
    first = gen.generate(workload, 7, str(tmp_path / "a"))
    assert first == gen.generate(workload, 7, str(tmp_path / "b"))
    assert first != gen.generate(workload, 8, str(tmp_path / "c"))


def test_same_seed_same_cli_files(tmp_path):
    first = gen.generate("cli_cold", 7, str(tmp_path / "a"))
    second = gen.generate("cli_cold", 7, str(tmp_path / "b"))
    strip = json.dumps(first).replace(str(tmp_path / "a"), "")
    assert strip == json.dumps(second).replace(str(tmp_path / "b"), "")
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert not mismatch and not errors


def _project_results(lib, workload: str, count: int = 40):
    pool = gen.generate(workload, 3, "")
    return [(project, inproc.project_op(lib, project, spans.direct)) for project in pool[:count]]


@pytest.mark.parametrize("workload", ["portfolio", "overhaul"])
def test_oracle_accepts_library_results(lib, workload):
    for project, result in _project_results(lib, workload):
        assert inproc.check_project(project, result) == []


@pytest.mark.parametrize("key", ["npv", "lcoe", "payback", "irr"])
def test_oracle_rejects_perturbed_metric(lib, key):
    checked = 0
    for project, result in _project_results(lib, "overhaul"):
        if result[key] is None:
            continue
        bad = dict(result, **{key: result[key] * (1 + 1e-6) + 1e-6})
        assert inproc.check_project(project, bad), f"{key} perturbation not caught"
        checked += 1
    assert checked


def test_oracle_rejects_wrong_undefined_outcomes(lib):
    for project, result in _project_results(lib, "portfolio"):
        for key in ("payback", "irr"):
            if result[key] is not None:
                assert inproc.check_project(project, dict(result, **{key: None}))


def test_oracle_rejects_perturbed_cost_split(lib):
    for project, result in _project_results(lib, "portfolio"):
        if project["costs"]["source"] != "table":
            costs = dict(result["costs"], ca_t=result["costs"]["ca_t"] * (1 + 1e-6))
            assert inproc.check_project(project, dict(result, costs=costs))
            return
    pytest.fail("no estimated-cost project in the sample")


def test_oracle_rejects_a_larger_root():
    # NPV roots at r = 0.1 and r = 0.2: (1 - 1.1x)(1 - 1.2x) with x = 1/(1+r).
    flows = [1.0, -2.3, 1.32]
    assert oracle.check_irr(0.1, flows) == []
    assert oracle.check_irr(0.2, flows)
    assert oracle.check_irr(None, flows)
    assert oracle.check_irr(None, [-1.0, -2.0]) == []


def test_oracle_rejects_perturbed_study(lib):
    study = gen.generate("design_sweep", 3, "")[0]
    result = inproc.study_op(lib, study, spans.direct)
    assert inproc.check_study(study, result, gen.BUILTIN_TABLE) == []
    value, metric = result["sweep"][0]
    bad_sweep = [(value, metric * (1 + 1e-6))] + result["sweep"][1:]
    assert inproc.check_study(study, dict(result, sweep=bad_sweep), gen.BUILTIN_TABLE)
    bad_row = dict(result["rows"][0], npv_gbp_m=result["rows"][0]["npv_gbp_m"] + 1e-3)
    assert inproc.check_study(study, dict(result, rows=[bad_row] + result["rows"][1:]),
                              gen.BUILTIN_TABLE)


def test_cli_output_checks(tmp_path):
    pool = gen.generate("cli_cold", 5, str(tmp_path))
    env = cli_work.environment(ROOT)
    for sub in gen.CLI_SUBCOMMANDS:
        entry = pool[sub][0]
        done, rss_kb = cli_work.invoke(ROOT, env, entry["args"], str(tmp_path / "stderr"))
        assert done.returncode == 0, done.stderr
        assert rss_kb > 0
        assert cli_work.check_output(entry, done.stdout, {}) == []
        if sub == "sweep":
            lines = done.stdout.decode().splitlines()
            value, cell = lines[1].split(",")
            if cell != "undefined":
                lines[1] = f"{value},{float(cell) * (1 + 1e-6)!r}"
                assert cli_work.check_output(entry, ("\n".join(lines) + "\n").encode(), {})
            continue
        payload = json.loads(done.stdout)
        target = {"metrics": lambda p: p["metrics"],
                  "scenarios": lambda p: p["scenarios"][1]["metrics"],
                  "curve": lambda p: p["rows"][0],
                  "split": lambda p: p["costs"]}[sub](payload)
        key = next(k for k, v in target.items() if isinstance(v, float) and v and
                   k not in ("break_even_power_mw", "bep_capacity_factor", "j_bep_mw",
                             "j_bep_ev_mw"))
        target[key] *= 1 + 1e-6
        assert cli_work.check_output(entry, json.dumps(payload).encode(), {}), (sub, key)


def test_parse_importtime():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1526 |     137429 |       numpy\n"
        "import time:       727 |     164579 |   tidalecon\n"
        "import time:      9537 |     178907 | tidalecon.cli\n"
        "import time:       100 |        100 | json\n"
    )
    assert cli_work.parse_importtime(stderr) == (178.907, 137.429)


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert spans.p50(values) == 50.5
    assert math.isclose(spans.p90(values), 90.1)
    assert spans.p50([]) == spans.p90([]) == 0.0


def test_bare_directory_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "portfolio", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_verifier_checks_first_output_and_compares_repeats():
    checked = []
    verify = run.Verifier(lambda index: index % 2,
                          lambda index, result: checked.append(index) or ([] if index == 0 else ["bad"]),
                          lambda index, result, warned: {"warned": warned})
    assert not verify(0, {"npv": 1.0}, None, ())
    assert not verify(2, {"npv": 1.0}, None, ())
    assert verify(4, {"npv": 1.0 + 1e-12}, None, ())  # differs from the first output
    assert verify(6, {"npv": 1.0}, None, ("AmbiguousIrrWarning",))  # so do its warnings
    assert verify(1, b"out", None, ())  # the oracle rejected the first output
    assert verify(3, b"out", None, ())  # so every repeat fails too
    assert verify(5, None, "Traceback ...", ())
    assert checked == [0, 1]
    assert [failure["op"] for failure in verify.failures] == [4, 6, 1, 3, 5]


def test_op_log_selects_by_flags():
    log = run.OpLog(4)
    log.add(0, 0.5, 0.01, 0)
    log.add(0, 0.6, 0.01, run.OpLog.TRACED)
    log.add(1, 0.7, 0.02, run.OpLog.FAILED | run.OpLog.ERROR)
    assert list(log.ops(run.OpLog.TRACED, 0)) == [(0, 0.5, 0.01), (1, 0.7, 0.02)]
    assert list(log.ops(run.OpLog.FAILED, 0)) == [(0, 0.5, 0.01), (0, 0.6, 0.01)]
    assert not log.full()
    log.add(2, 0.1, 0.01, 0)
    assert log.full()


def test_op_references_take_a_capped_centred_mean():
    log = run.OpLog(8)
    for index, timing in enumerate([1.0, 1.0, 1.0, 9.0, 1.0, 0.5]):
        log.add(index, 0.1, timing, 0)
    references = run.op_references(log)
    assert references[0] == pytest.approx(1.0)  # indices 0-2
    assert references[2] == pytest.approx((1.0 + 1.0 + 1.0 + 2.0 + 1.0) / 5)  # 9.0 capped
    assert references[5] == pytest.approx((2.0 + 1.0 + 0.5) / 3)  # indices 3-5
