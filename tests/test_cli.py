from __future__ import annotations

import errno
import json
import math
import os
from pathlib import Path

import pytest

from tidalecon.cli import EXIT_INPUT_ERROR, EXIT_OK, _json_dump, main
from tidalecon.cost_model import ArrayDesign, CostParameters, TariffScheme
from tidalecon.finance_core import DiscountSpec
from tidalecon.metrics import evaluate, lcoe

BASE_CONFIG = {
    "array": {
        "n_t": 4,
        "mw_t": 1.5,
        "p_avg_mw": 3.2,
        "lifetime_years": 25,
        "availability": 0.95,
    },
    "costs": {"ca_f": 9.2, "ca_t": 3.3, "o_f": 0.32, "o_t": 0.15},
    "finance": {"mode": "discrete", "r": 0.10, "tariff_gbp_per_mwh": 150.0},
}


# Every numeric config key, as (path to the key, the name its error gives,
# whole number). Each is read from FULL_CONFIG, or from RATIO_CONFIG under
# costs.estimate, and availability[0] from a per-year list.
NUMERIC_KEYS = [
    *((("array", key), f"array.{key}", key in ("n_t", "lifetime_years"))
      for key in ("n_t", "mw_t", "p_avg_mw", "lifetime_years", "availability",
                  "electrical_efficiency")),
    (("array", "availability", 0), "array.availability[0]", False),
    *((("costs", key), f"costs.{key}", False) for key in ("ca_f", "ca_t", "o_f", "o_t")),
    *((("finance", key), f"finance.{key}", False) for key in ("r", "tariff_gbp_per_mwh")),
    *((("break_even", key), f"break_even.{key}", False)
      for key in ("p_be_mw", "ev_mw_per_turbine")),
    (("costs", "estimate", "ratio"), "costs.estimate.ratio", False),
    (("costs", "estimate", "capex", 0, "total_gbp_m"), "costs.estimate.capex[0]: total_gbp_m",
     False),
    (("scenario_overrides", "r"), "scenario_overrides.r", False),
]
FULL_CONFIG = dict(
    BASE_CONFIG,
    array=dict(BASE_CONFIG["array"], electrical_efficiency=1.0),
    finance=dict(BASE_CONFIG["finance"], mode="continuous"),
    break_even={"p_be_mw": 0.4, "ev_mw_per_turbine": 0.0},
    scenario_overrides={"r": 0.1},
)
RATIO_CONFIG = dict(FULL_CONFIG, costs={"estimate": {
    "method": "ratio", "ratio": 2.3,
    "capex": [{"n_t": 4, "total_gbp_m": 22.4}], "opex": [{"n_t": 4, "total_gbp_m": 0.92}],
}})
HUGE = 10**400  # a JSON integer literal beyond float range
# True, lists, objects, null and non-numeric text are not numbers; a float key
# also rejects HUGE, and a whole number past its bound is its record's range error.
NUMERIC_KEY_CASES = [
    pytest.param(path, name, whole, value, id=f"{'.'.join(map(str, path))}-{value_id}")
    for path, name, whole in NUMERIC_KEYS
    for value, value_id in ((True, "true"), ([1], "list"), ({"a": 1}, "object"),
                            (None, "null"), ("x", "text"), (HUGE, "huge"))
    if not (whole and value is HUGE)
]


@pytest.fixture
def config_path(tmp_path):
    def write(overrides: dict | None = None, name: str = "config.json") -> str:
        config = json.loads(json.dumps(BASE_CONFIG))
        for key, value in (overrides or {}).items():
            config[key] = value
        path = tmp_path / name
        path.write_text(json.dumps(config))
        return str(path)

    return write


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI; argparse's usage errors exit 2."""
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMetricsCommand:
    def test_all_metrics_present(self, capsys, config_path):
        code, out, _ = run(capsys, ["metrics", config_path(), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        metrics = payload["metrics"]
        for key in ("npv_gbp_m", "lcoe_gbp_per_mwh", "payback_years", "irr",
                    "break_even_power_mw", "j_bep_mw"):
            assert key in metrics
        assert metrics["npv_gbp_m"] == pytest.approx(5.5079, abs=1e-3)

    def test_tariff_at_lcoe_gives_zero_npv(self, capsys, config_path):
        design = ArrayDesign(n_t=4, mw_t=1.5, p_avg_mw=3.2, lifetime_years=25,
                             availability=0.95)
        params = CostParameters(9.2, 3.3, 0.32, 0.15)
        break_even_tariff = lcoe(design, params, DiscountSpec(0.10))
        path = config_path({"finance": {"mode": "discrete", "r": 0.10,
                                        "tariff_gbp_per_mwh": break_even_tariff}})
        code, out, _ = run(capsys, ["metrics", path, "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["metrics"]["npv_gbp_m"] == pytest.approx(0.0, abs=1e-9)

    def test_unprofitable_project_reports_undefined_irr(self, capsys, config_path):
        path = config_path({
            "array": {"n_t": 4, "mw_t": 1.5, "p_avg_mw": 0.05, "lifetime_years": 25,
                      "availability": 0.95},
            "finance": {"mode": "discrete", "r": 0.10, "tariff_gbp_per_mwh": 40.0},
        })
        code, out, _ = run(capsys, ["metrics", path, "--format", "csv"])
        assert code == EXIT_OK
        assert "irr,undefined" in out

    def test_human_banner_suppressed_by_plain(self, capsys, config_path):
        _, with_banner, _ = run(capsys, ["metrics", config_path()])
        _, plain, _ = run(capsys, ["metrics", config_path(), "--plain"])
        assert with_banner.startswith("tidalecon v")
        assert not plain.startswith("tidalecon v")

    def test_bad_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["metrics", str(path)])
        assert code == EXIT_INPUT_ERROR
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, ["metrics", "/nonexistent/config.json"])
        assert code == EXIT_INPUT_ERROR

    # Zero power leaves no energy; a subnormal power, or a tiny one at the rate
    # window's top, leaves so little discounted energy that cost per MWh overflows.
    @pytest.mark.parametrize("overrides", [
        {"array": dict(BASE_CONFIG["array"], p_avg_mw=0)},
        {"array": dict(BASE_CONFIG["array"], p_avg_mw=1e-320)},
        {"array": dict(BASE_CONFIG["array"], p_avg_mw=1e-220),
         "finance": dict(BASE_CONFIG["finance"], r=1e100)},
    ], ids=["array-p_avg_mw-0", "array-p_avg_mw-1e-320", "finance-r-1e+100"])
    def test_zero_power_reports_undefined_lcoe(self, capsys, config_path, overrides):
        path = config_path(overrides)
        code, out, _ = run(capsys, ["metrics", path, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["metrics"]["lcoe_gbp_per_mwh"] is None
        assert "LCOE is undefined" in payload["notes"]["lcoe_gbp_per_mwh"]

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_200_years_at_minus_99_percent_exits_2(self, capsys, config_path, fmt):
        # 200 years lie beyond the input window's 100, whatever the rate.
        array = dict(BASE_CONFIG["array"], lifetime_years=200)
        finance = dict(BASE_CONFIG["finance"], r=-0.99)
        path = config_path({"array": array, "finance": finance})
        code, out, err = run(capsys, ["metrics", path, "--format", fmt])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == "error: lifetime_years must be an integer in [1, 100], got 200\n"

    # Each field is checked against its own window; CAPEX and peak revenue,
    # products of fields inside theirs, against the design's.
    @pytest.mark.parametrize("overrides, message", [
        ({"array": dict(BASE_CONFIG["array"], lifetime_years=101)},
         "lifetime_years must be an integer in [1, 100], got 101"),
        ({"finance": dict(BASE_CONFIG["finance"], r=-0.995)},
         "annual_rate must be in [-0.99, 1e+100], got -0.995"),
        ({"costs": dict(BASE_CONFIG["costs"], ca_f=1e101)}, "ca_f must be in [0, 1e+100], got 1e+101"),
        ({"finance": dict(BASE_CONFIG["finance"], tariff_gbp_per_mwh=1e300)},
         "t_e must be in (0, 1e+100], got 1e+300"),
        ({"array": dict(BASE_CONFIG["array"], n_t=20), "costs": dict(BASE_CONFIG["costs"], ca_t=1e99)},
         "CAPEX must be <= 1e+100 GBP m, got 2e+100"),
        ({"array": dict(BASE_CONFIG["array"], mw_t=1e91, p_avg_mw=1e91),
          "finance": dict(BASE_CONFIG["finance"], tariff_gbp_per_mwh=1e12)},
         "peak revenue must be <= 1e+100 GBP m, got 8.76e+100"),
    ], ids=["lifetime_years", "r", "ca_f", "tariff", "capex", "peak_revenue"])
    def test_input_beyond_the_window_exits_2_naming_the_field(self, capsys, config_path,
                                                              overrides, message):
        path = config_path(overrides)
        code, out, err = run(capsys, ["metrics", path, "--format", "json"])
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {message}\n")

    def test_default_break_even_power_is_gross_of_efficiency(self, capsys, config_path):
        # J = P_avg - P_BE * n_t compares P_BE with gross power, and energy_year
        # applies the efficiency to P_avg: half the efficiency, twice the P_BE.
        powers = []
        for efficiency in (1.0, 0.5):
            array = dict(BASE_CONFIG["array"], electrical_efficiency=efficiency)
            path = config_path({"array": array}, name=f"eta_{efficiency}.json")
            code, out, _ = run(capsys, ["metrics", path, "--format", "json"])
            assert code == EXIT_OK
            powers.append(json.loads(out)["metrics"]["break_even_power_mw"])
        assert powers[0] == pytest.approx(0.2259, abs=1e-4)
        assert powers[1] == 2 * powers[0]

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_inputs_echo_the_compounding(self, capsys, config_path, mode):
        path = config_path({"finance": dict(BASE_CONFIG["finance"], mode=mode)})
        code, out, _ = run(capsys, ["metrics", path, "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["inputs"]["mode"] == mode

    def test_out_file(self, capsys, config_path, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["metrics", config_path(), "--format", "json",
                                    "--out", str(target)])
        assert code == EXIT_OK
        assert out == ""
        json.loads(target.read_text())


# Configs without a break_even block whose per-turbine costs give no P_BE in
# the input window (0, 1e100], with the value derived: zero per-turbine costs
# give 0, a subnormal availability, or a tiny one at a subnormal tariff, gives
# inf, and an availability of 1e-305 gives a finite P_BE past the window.
UNDEFINED_BEP_CASES = [
    pytest.param({"costs": dict(BASE_CONFIG["costs"], ca_t=0, o_t=0)}, "0",
                 id="zero_per_turbine_costs"),
    pytest.param({"array": dict(BASE_CONFIG["array"], availability=1e-320)}, "inf",
                 id="subnormal_availability"),
    pytest.param({"array": dict(BASE_CONFIG["array"], availability=1e-10),
                  "finance": dict(BASE_CONFIG["finance"], tariff_gbp_per_mwh=1e-310)}, "inf",
                 id="subnormal_tariff"),
    pytest.param({"array": dict(BASE_CONFIG["array"], availability=1e-305)}, "2.14612e+304",
                 id="tiny_availability"),
]
BEP_KEYS = ("break_even_power_mw", "bep_capacity_factor", "j_bep_mw", "j_bep_ev_mw")


@pytest.mark.parametrize("command", ["metrics", "scenarios", "sweep", "curve"])
@pytest.mark.parametrize("overrides, value", UNDEFINED_BEP_CASES)
def test_undefined_derived_break_even_power(capsys, config_path, tmp_path, overrides, value,
                                            command):
    # Only the reports that print P_BE derive it: metrics reports it and each
    # figure made with it as null with the reason, curve (every row a score)
    # exits 2 with it, and scenarios and sweep never read it.
    curve = tmp_path / "curve.csv"
    curve.write_text("n_t,p_avg_mw\n4,3.2\n")
    extra = {"sweep": ["--param", "tariff", "--from", "60", "--to", "300", "--steps", "3",
                       "--metric", "npv"],
             "curve": ["--power-curve", str(curve)]}.get(command, [])
    code, out, err = run(capsys, [command, config_path(overrides), *extra, "--format", "json"])
    reason = (f"break-even power derived from the per-turbine costs is {value} MW, "
              "not in (0, 1e+100]; a 'break_even' block sets it")
    if command == "curve":
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {reason}\n")
        return
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    if command == "metrics":
        assert {key: payload["metrics"][key] for key in BEP_KEYS} == dict.fromkeys(BEP_KEYS)
        assert {key: payload["notes"][key] for key in BEP_KEYS} == dict.fromkeys(BEP_KEYS, reason)


# A break-even input or turbine rating outside the input window once left J,
# J_ev or the break-even capacity factor at +-inf: the human report printed it
# and the JSON report exited 2 with "Out of range float values".
BEP_WINDOW_CASES = [
    pytest.param({"break_even": {"p_be_mw": 1e308}},
                 "p_be_mw must be in (0, 1e+100], got 1e+308", id="huge_p_be"),
    pytest.param({"break_even": {"p_be_mw": 0.4, "ev_mw_per_turbine": 1e308}},
                 "ev_mw_per_turbine must be in [0, 1e+100], got 1e+308", id="huge_ev"),
    pytest.param({"array": dict(BASE_CONFIG["array"], mw_t=1e-320, p_avg_mw=1e-321)},
                 "mw_t must be in [1e-100, 1e+100], got 1e-320", id="subnormal_rating"),
]


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("command", ["metrics", "curve"])
@pytest.mark.parametrize("overrides, message", BEP_WINDOW_CASES)
def test_break_even_input_or_rating_beyond_the_window_exits_2(capsys, config_path, tmp_path,
                                                              overrides, message, command, fmt):
    curve = tmp_path / "curve.csv"
    curve.write_text("n_t,p_avg_mw\n4,3.2\n")
    extra = ["--power-curve", str(curve)] if command == "curve" else []
    code, out, err = run(capsys, [command, config_path(overrides), *extra, "--format", fmt])
    assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {message}\n")


# Each once echoed a 301-digit integer: a 352-366 byte error line.
@pytest.mark.parametrize("argv, field", [
    (["metrics", {"array": dict(BASE_CONFIG["array"], n_t=1e300)}], "n_t"),
    (["metrics", {"array": dict(BASE_CONFIG["array"], lifetime_years=1e300)}], "lifetime_years"),
    (["sweep", {}, "--param", "lifetime", "--from", "1e300", "--to", "1e300", "--steps", "1",
      "--metric", "npv"], "lifetime_years"),
    (["curve", {}, "--power-curve", "n_t,p_avg_mw\n1e300,1.0\n"], "n_t"),
], ids=["config-n_t", "config-lifetime_years", "sweep-lifetime", "curve-n_t"])
def test_huge_count_error_is_one_short_line(capsys, config_path, tmp_path, argv, field):
    command, overrides, *extra = argv
    if command == "curve":
        curve = tmp_path / "curve.csv"
        curve.write_text(extra[1])
        extra[1] = str(curve)
    code, out, err = run(capsys, [command, config_path(overrides), *extra])
    assert (code, out) == (EXIT_INPUT_ERROR, "")
    assert err.startswith(f"error: {field} must be an integer in [")
    assert err.endswith("], got an integer of 301 digits\n")
    assert err.count("\n") == 1 and len(err) < 200


class TestConfigValidation:
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_integer_past_the_digit_limit_exits_2_naming_the_config(self, capsys, config_path,
                                                                     sign):
        # json.dumps refuses such an int, so the literal is written by hand.
        path = config_path({"array": dict(BASE_CONFIG["array"], n_t=0)})
        with open(path, encoding="utf-8") as handle:
            text = handle.read().replace('"n_t": 0', f'"n_t": {sign}1{"0" * 5000}')
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, out, err = run(capsys, ["metrics", path, "--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == (f"error: config {path} holds an integer of 5001 digits, "
                       "past Python's limit for integer conversion\n")

    def test_nan_break_even_power_exits_2(self, capsys, config_path):
        path = config_path({"break_even": {"p_be_mw": math.nan}})  # written as NaN
        code, out, err = run(capsys, ["metrics", path, "--format", "json"])
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "NaN" in err and "finite" in err

    def test_infinite_rate_exits_2(self, capsys, config_path):
        path = config_path({"finance": dict(BASE_CONFIG["finance"], r=-math.inf)})
        code, _, err = run(capsys, ["metrics", path])
        assert code == EXIT_INPUT_ERROR
        assert "-Infinity" in err

    @pytest.mark.parametrize("mode", ["monthly", 1, None, ["discrete"]],
                             ids=["text", "number", "null", "list"])
    def test_unknown_compounding_mode_exits_2_naming_field(self, capsys, config_path, mode):
        path = config_path({"finance": dict(BASE_CONFIG["finance"], mode=mode)})
        code, out, err = run(capsys, ["metrics", path, "--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == f"error: finance.mode must be 'discrete' or 'continuous', got {mode!r}\n"

    @pytest.mark.parametrize("value", [1, 4, 2.5, True, 10**17, 1e300],
                             ids=["annual", "quarterly", "fraction", "true", "huge", "huge-float"])
    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_periods_per_year_exits_2_naming_the_key(self, capsys, config_path, mode, value):
        # Discrete compounding is annual only: a quarterly config, read as annual,
        # would print another convention's numbers, so every value is refused.
        path = config_path({"finance": dict(BASE_CONFIG["finance"], mode=mode,
                                            periods_per_year=value)})
        code, out, err = run(capsys, ["metrics", path, "--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == ("error: finance.periods_per_year is not supported: "
                       "discrete compounding is annual\n")

    @pytest.mark.parametrize("block, key, value", [
        ("array", "n_t", 4.7),
        ("array", "lifetime_years", 25.9),
    ])
    def test_non_integral_count_exits_2_naming_field(self, capsys, config_path,
                                                     block, key, value):
        path = config_path({block: dict(BASE_CONFIG[block], **{key: value})})
        code, _, err = run(capsys, ["metrics", path])
        assert code == EXIT_INPUT_ERROR
        assert f"{block}.{key} must be a whole number, got {value!r}" in err

    @pytest.mark.parametrize("block, key", [
        ("array", "n_t"), ("array", "lifetime_years"),
    ])
    def test_boolean_count_exits_2_naming_field(self, capsys, config_path, block, key):
        # JSON true is not the count 1.
        path = config_path({block: dict(BASE_CONFIG[block], **{key: True})})
        code, out, err = run(capsys, ["metrics", path, "--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == f"error: {block}.{key} must be a whole number, got True\n"

    def test_huge_turbine_count_exits_2_naming_n_t(self, capsys, config_path):
        # A 401-digit count once overflowed the rated-capacity check (exit 3).
        n_t = 10**400
        path = config_path({"array": dict(BASE_CONFIG["array"], n_t=n_t)})
        code, out, err = run(capsys, ["metrics", path, "--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == "error: n_t must be an integer in [1, 1e+100], got an integer of 401 digits\n"

    def test_integral_float_counts_accepted(self, capsys, config_path):
        array = dict(BASE_CONFIG["array"], n_t=4.0, lifetime_years=25.0)
        code, out, _ = run(capsys, ["metrics", config_path({"array": array}), "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["inputs"]["n_t"] == 4

    def metrics_error(self, capsys, tmp_path, path, value) -> str:
        """The one stderr line of ``metrics`` on a config with ``value`` at ``path``."""
        config = json.loads(json.dumps(RATIO_CONFIG if "estimate" in path else FULL_CONFIG))
        if path[:3] == ("array", "availability", 0):
            config["array"]["availability"] = [0.95] * 25
        block = config
        for key in path[:-1]:
            block = block[key]
        if path:
            block[path[-1]] = value
        else:
            config = value
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        code, out, err = run(capsys, ["metrics", str(config_file), "--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("path, name, whole, value", NUMERIC_KEY_CASES)
    def test_every_numeric_key_takes_only_a_number(self, capsys, tmp_path, path, name, whole,
                                                   value):
        err = self.metrics_error(capsys, tmp_path, path, value)
        if value is HUGE:
            assert err == (f"error: {name} must be within float range, "
                           "got an integer of 401 digits\n")
        elif name == "array.availability" and value == [1]:  # a per-year list, too short
            assert err == "error: per-year availability needs 25 entries, got 1\n"
        else:
            kind = "a whole number" if whole else "a number"
            assert err == f"error: {name} must be {kind}, got {value!r}\n"

    @pytest.mark.parametrize("path", [
        (), ("array",), ("costs",), ("costs", "estimate"), ("finance",), ("break_even",),
        ("scenario_overrides",),
    ], ids=lambda path: ".".join(path) or "config")
    @pytest.mark.parametrize("value", [[1], None, "x"], ids=["list", "null", "text"])
    def test_every_block_must_be_an_object(self, capsys, tmp_path, path, value):
        err = self.metrics_error(capsys, tmp_path, path, value)
        assert err == f"error: {'.'.join(path) or 'config'} must be an object, got {value!r}\n"

    def test_numeric_text_reads_as_its_number(self, capsys, config_path):
        # CSV cells and inline observations are text, so config values may be too.
        text = {"array": dict(BASE_CONFIG["array"], n_t="4.0", mw_t="1.5", lifetime_years="25"),
                "finance": dict(BASE_CONFIG["finance"], r="0.1")}
        outputs = [run(capsys, ["metrics", path, "--format", "json"])
                   for path in (config_path(), config_path(text, name="text.json"))]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == EXIT_OK

    @pytest.mark.parametrize("change, message", [
        ({"array": None}, "missing key 'array' in config"),
        ({"costs": {"ca_f": 9.2, "ca_t": 3.3}},
         "costs block needs all of ca_f/ca_t/o_f/o_t, or an 'estimate' directive"),
        ({"costs": dict(BASE_CONFIG["costs"], estimate=RATIO_CONFIG["costs"]["estimate"])},
         "config must give either explicit costs or an estimate directive, not both"),
    ], ids=["no-array", "incomplete-costs", "costs-and-estimate"])
    def test_config_layout_error_exits_2(self, capsys, tmp_path, change, message):
        config = {key: value for key, value in dict(BASE_CONFIG, **change).items()
                  if value is not None}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, ["metrics", str(path), "--format", "json"])
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {message}\n")

    def test_json_output_never_holds_nan(self):
        with pytest.raises(ValueError):
            _json_dump({"value": math.nan})


class TestSplitCommand:
    IEA_ARGS = [
        "split", "two-points",
        "--capex", "2=16.8", "--capex", "60=297",
        "--opex", "2=1.2", "--opex", "60=8.1",
        "--currency-rate", "0.79",
    ]

    def test_iea_two_points(self, capsys):
        code, out, _ = run(capsys, [*self.IEA_ARGS, "--format", "json"])
        assert code == EXIT_OK
        costs = json.loads(out)["costs"]
        assert costs["ca_f"] == pytest.approx(5.64, abs=5e-3)
        assert costs["ca_t"] == pytest.approx(3.82, abs=5e-3)
        assert costs["o_f"] == pytest.approx(0.760, abs=5e-4)
        assert costs["o_t"] == pytest.approx(0.0940, abs=5e-5)

    def test_orec_ratio(self, capsys):
        code, out, _ = run(capsys, [
            "split", "ratio", "--ratio", "2.3",
            "--capex-per-mw", "2.27", "--capacity", "100", "--mw-t", "1.5",
            "--opex-per-mw", "0.08",
            "--format", "json",
        ])
        assert code == EXIT_OK
        costs = json.loads(out)["costs"]
        assert costs["ca_f"] == pytest.approx(7.57, abs=5e-3)
        assert costs["ca_t"] == pytest.approx(3.29, abs=5e-3)
        assert costs["o_f"] == pytest.approx(0.267, abs=1e-3)
        assert costs["o_t"] == pytest.approx(0.116, abs=5e-4)

    @pytest.mark.parametrize("route", [
        ["--capex-total", "227", "--n-t", "66.67", "--currency-rate", "0.79"],
        ["--capex-per-mw", "2.27", "--capacity", "100", "--mw-t", "1.5", "--currency-rate", "1.3"],
    ])
    def test_ratio_echo_is_the_split_total_in_gbp(self, capsys, route):
        code, out, _ = run(capsys, ["split", "ratio", "--ratio", "2.3", *route,
                                    "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        echo, costs = payload["inputs"], payload["costs"]
        assert echo["capex_total_gbp_m"] == pytest.approx(
            costs["ca_f"] + costs["ca_t"] * echo["capex_n_t"], rel=1e-12)

    def test_ratio_outside_window_warns_but_succeeds(self, capsys):
        code, out, _ = run(capsys, [
            "split", "ratio", "--ratio", "8.4",
            "--capex-total", "227", "--n-t", "66.67",
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert any("8.4" in message for message in payload["warnings"])

    # A component past the input window once printed inf in the human report and
    # failed the JSON one on a non-finite float; a cost estimate in a config is
    # split by the same code. Inputs inside their fields' windows still reach it;
    # a total of 1e308, which once converted past float range, is refused at its field.
    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    @pytest.mark.parametrize("argv, message", [
        (["split", "ratio", "--ratio", "2.3", "--capex-total", "1e100", "--n-t", "3",
          "--currency-rate", "10"],
         "CAPEX fixed cost must be in [-1e+100, 1e+100], got 4.3396226415094336e+100"),
        (["split", "two-points", "--capex", "1e-320=1", "--capex", "2e-320=2",
          "--opex", "2=1", "--opex", "3=2"],
         "CAPEX fixed cost must be in [-1e+100, 1e+100], got -inf"),
        (["split", "two-points", "--capex", "2=16.8", "--capex", "60=297",
          "--opex", "1e-300=0", "--opex", "2e-300=1"],
         "OPEX per-turbine cost must be in [-1e+100, 1e+100], got 9.999999999999999e+299"),
        (["metrics", {"estimate": {"method": "ratio", "ratio": 2.3,
                                   "capex": {"n_t": 3, "total_gbp_m": 1e100, "rate_to_gbp": 10},
                                   "opex": {"n_t": 3, "total_gbp_m": 1}}}],
         "CAPEX fixed cost must be in [-1e+100, 1e+100], got 4.3396226415094336e+100"),
        (["split", "ratio", "--ratio", "2.3", "--capex-total", "1e308", "--n-t", "3",
          "--currency-rate", "10"],
         "--capex-total/--capex-per-mw: cost must be in [0, 1e+100], got 1e+308"),
        (["metrics", {"estimate": {"method": "ratio", "ratio": 2.3,
                                   "capex": {"n_t": 3, "total_gbp_m": 1e308, "rate_to_gbp": 10},
                                   "opex": {"n_t": 3, "total_gbp_m": 1}}}],
         "costs.estimate.capex[0]: cost must be in [0, 1e+100], got 1e+308"),
    ], ids=["ratio", "two-points-minus-inf", "two-points-per-turbine", "config-estimate",
            "ratio-cost-field", "config-estimate-cost-field"])
    def test_input_past_the_window_exits_2(self, capsys, config_path, argv, message, fmt):
        if argv[0] == "metrics":
            argv = ["metrics", config_path({"costs": argv[1]})]
        code, out, err = run(capsys, [*argv, "--format", fmt])
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {message}\n")

    def test_byte_identical_json(self, capsys):
        _, first, _ = run(capsys, [*self.IEA_ARGS, "--format", "json"])
        _, second, _ = run(capsys, [*self.IEA_ARGS, "--format", "json"])
        assert first == second

    def test_csv_observations(self, capsys, tmp_path):
        capex_csv = tmp_path / "capex.csv"
        capex_csv.write_text("n_t,total_gbp_m\n2,13.272\n60,234.63\n")
        code, out, _ = run(capsys, [
            "split", "two-points", "--capex-csv", str(capex_csv), "--format", "json",
        ])
        assert code == EXIT_OK
        assert json.loads(out)["costs"]["ca_f"] == pytest.approx(5.64, abs=5e-3)

    @pytest.mark.parametrize("flag, field", [
        ("--capex-total", "cost"),
        ("--n-t", "n_t"),
        ("--currency-rate", "currency_rate"),
        ("--ratio", "ratio"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exits_2_naming_field(self, capsys, flag, field, value):
        options = {"--ratio": "3", "--capex-total": "227", "--n-t": "4", flag: value}
        argv = ["split", "ratio", *(item for pair in options.items() for item in pair)]
        code, out, err = run(capsys, [*argv, "--format", "json"])
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert f"{field} must be in " in err

    def test_degenerate_inputs_exit_2(self, capsys):
        code, _, _ = run(capsys, [
            "split", "two-points", "--capex", "4=10", "--capex", "4=12",
        ])
        assert code == EXIT_INPUT_ERROR

    def test_round_trip_reproduces_metrics(self, capsys, tmp_path):
        # Estimated costs fed back as explicit config must give identical metrics.
        _, split_out, _ = run(capsys, [*self.IEA_ARGS, "--format", "json"])
        costs = json.loads(split_out)["costs"]

        estimate_config = json.loads(json.dumps(BASE_CONFIG))
        estimate_config["costs"] = {"estimate": {
            "method": "two_points",
            "capex": [
                {"n_t": 2, "total_gbp_m": 16.8, "rate_to_gbp": 0.79},
                {"n_t": 60, "total_gbp_m": 297, "rate_to_gbp": 0.79},
            ],
            "opex": [
                {"n_t": 2, "total_gbp_m": 1.2, "rate_to_gbp": 0.79},
                {"n_t": 60, "total_gbp_m": 8.1, "rate_to_gbp": 0.79},
            ],
        }}
        explicit_config = json.loads(json.dumps(BASE_CONFIG))
        explicit_config["costs"] = costs

        paths = []
        for name, config in (("est.json", estimate_config), ("exp.json", explicit_config)):
            path = tmp_path / name
            path.write_text(json.dumps(config))
            paths.append(str(path))

        _, est_out, _ = run(capsys, ["metrics", paths[0], "--format", "json"])
        _, exp_out, _ = run(capsys, ["metrics", paths[1], "--format", "json"])
        est_metrics = json.loads(est_out)["metrics"]
        exp_metrics = json.loads(exp_out)["metrics"]
        for key, value in est_metrics.items():
            assert exp_metrics[key] == pytest.approx(value, rel=1e-12)


class TestCostObservationErrors:
    """Each route into the cost split rejects a bad observation with exit 2,
    no output and a message naming the problem."""

    ESTIMATE = {
        "method": "two_points",
        "capex": [{"n_t": 2, "total_gbp_m": 16.8}, {"n_t": 60, "total_gbp_m": 297}],
        "opex": [{"n_t": 2, "total_gbp_m": 1.2}, {"n_t": 60, "total_gbp_m": 8.1}],
    }

    def assert_input_error(self, capsys, argv, *fragments):
        code, out, err = run(capsys, [*argv, "--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        for fragment in fragments:
            assert fragment in err

    def estimate_config(self, config_path, **changes) -> str:
        return config_path({"costs": {"estimate": dict(self.ESTIMATE, **changes)}})

    @pytest.mark.parametrize("argv, fragment", [
        (["two-points", "--capex", "2=16.8"], "exactly 2 CAPEX observations, got 1"),
        (["two-points", "--capex", "2x16.8", "--capex", "60=297"],
         "'2x16.8': expected N_T=TOTAL"),
        (["two-points", "--capex", "0=16.8", "--capex", "60=297"], "n_t must be in (0, 1e+100], got 0.0"),
        (["ratio", "--ratio", "2.3", "--capex-total", "227"], "--capex-total needs --n-t"),
        (["ratio", "--ratio", "2.3", "--capex-per-mw", "2.27", "--mw-t", "1.5"],
         "--capex-per-mw needs --capacity"),
        (["ratio", "--ratio", "2.3", "--capex-per-mw", "2.27", "--capacity", "100",
          "--mw-t", "0"], "--mw-t must be in [1e-100, 1e+100], got 0.0"),
        (["ratio", "--capex-total", "227", "--n-t", "66.67"], "--ratio"),
    ])
    def test_split_flags(self, capsys, argv, fragment):
        self.assert_input_error(capsys, ["split", *argv], fragment)

    # A flag the chosen method or route would not read exits 2 naming it.
    @pytest.mark.parametrize("argv, fragment", [
        (["ratio", "--ratio", "2.3", "--capex-total", "227", "--n-t", "4",
          "--capex", "2=16.8"], "ambiguous option: --capex could match"),
        (["two-points", "--capex", "2=16.8", "--capex", "60=297", "--ratio", "2.3",
          "--n-t", "4"], "unrecognized arguments: --ratio 2.3 --n-t 4"),
        (["two-points", "--capex", "2=16.8", "--capex", "60=297", "--mw-t", "1.5"],
         "does not read --mw-t "),
        # common flags follow the method
        (["--plain", "two-points", "--capex", "2=16.8", "--capex", "60=297"],
         "unrecognized arguments: --plain"),
    ])
    def test_unread_split_flags(self, capsys, argv, fragment):
        self.assert_input_error(capsys, ["split", *argv], fragment)

    @pytest.mark.parametrize("extra, fragment", [
        (["--capex", "1=2"], "argument --capex: not allowed with argument --capex-csv"),
        (["--currency-rate", "0.5"], "each CSV row carries its own rate_to_gbp"),
    ])
    def test_csv_route_rejects_inline_flags(self, capsys, tmp_path, extra, fragment):
        path = tmp_path / "capex.csv"
        path.write_text("n_t,total_gbp_m\n2,13.272\n60,234.63\n")
        self.assert_input_error(capsys, ["split", "two-points", "--capex-csv", str(path), *extra],
                                fragment)

    def test_per_mw_csv_needs_turbine_rating(self, capsys, tmp_path):
        path = tmp_path / "capex.csv"
        path.write_text("capacity_mw,per_mw_gbp_m\n3,5.6\n90,3.3\n")
        self.assert_input_error(capsys, ["split", "two-points", "--capex-csv", str(path)],
                                "need --mw-t")

    def test_bad_csv_row_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "capex.csv"
        path.write_text("n_t,total_gbp_m\n2,13.272\nsixty,234.63\n")
        self.assert_input_error(capsys, ["split", "two-points", "--capex-csv", str(path)],
                                "malformed row at line 3", "'sixty'")

    def test_estimate_with_one_opex_observation(self, capsys, config_path):
        path = self.estimate_config(config_path, opex=self.ESTIMATE["opex"][:1])
        self.assert_input_error(capsys, ["metrics", path], "exactly 2 OPEX observations, got 1")

    def test_unknown_estimation_method(self, capsys, config_path):
        path = self.estimate_config(config_path, method="higgins")
        message = "unknown estimation method 'higgins'; expected 'two_points' or 'ratio'"
        code, out, err = run(capsys, ["metrics", path, "--format", "json"])
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {message}\n")

    @pytest.mark.parametrize("exists", [False, True], ids=["missing", "header-only"])
    def test_unreadable_or_empty_csv(self, capsys, tmp_path, exists):
        path = tmp_path / "capex.csv"
        if exists:
            path.write_text("n_t,total_gbp_m\n")
            message = f"{path}: no observation rows found"
        else:
            reason = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
            message = f"cannot read {path}: {reason}"
        code, out, err = run(capsys, ["split", "two-points", "--capex-csv", str(path),
                                      "--format", "json"])
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {message}\n")

    def test_bare_estimate_entry_reads_as_a_one_entry_list(self, capsys, tmp_path):
        # A one-observation method may give each entry as an object, not a list.
        estimate = RATIO_CONFIG["costs"]["estimate"]
        bare = dict(estimate, capex=estimate["capex"][0], opex=estimate["opex"][0])
        outputs = []
        for name, directive in (("list.json", estimate), ("bare.json", bare)):
            path = tmp_path / name
            path.write_text(json.dumps(dict(RATIO_CONFIG, costs={"estimate": directive})))
            outputs.append(run(capsys, ["metrics", str(path), "--format", "json"]))
        assert outputs[0] == outputs[1]
        assert (outputs[0][0], outputs[0][2]) == (EXIT_OK, "")

    # An observation gives a total or a per-MW cost, never both, on every route.
    @pytest.mark.parametrize("kind", ["capex", "opex"])
    def test_both_costs_in_ratio_flags(self, capsys, kind):
        flags = {"capex": ["--capex-total", "227"],
                 kind: [f"--{kind}-total", "227", f"--{kind}-per-mw", "2.27"]}
        argv = ["split", "ratio", "--ratio", "2.3", "--n-t", "66.67", "--capacity", "100",
                "--mw-t", "1.5", *flags["capex"], *flags.get("opex", [])]
        self.assert_input_error(capsys, argv, f"--{kind}-total", f"--{kind}-per-mw",
                                "'total_gbp_m'", "'per_mw_gbp_m'", "not both")

    def test_both_costs_in_csv(self, capsys, tmp_path):
        path = tmp_path / "capex.csv"
        path.write_text("n_t,total_gbp_m,capacity_mw,per_mw_gbp_m\n"
                        "2,16.8,3,5.6\n60,297,90,3.3\n")
        argv = ["split", "two-points", "--capex-csv", str(path), "--mw-t", "1.5"]
        self.assert_input_error(capsys, argv, "line 2", "'total_gbp_m'", "'per_mw_gbp_m'",
                                "not both")

    def test_both_costs_in_config_entry(self, capsys, config_path):
        both = {"n_t": 60, "total_gbp_m": 297, "per_mw_gbp_m": 3.3, "capacity_mw": 90}
        path = self.estimate_config(config_path, capex=[self.ESTIMATE["capex"][0], both])
        self.assert_input_error(capsys, ["metrics", path], "costs.estimate.capex[1]",
                                "'total_gbp_m'", "'per_mw_gbp_m'", "not both")


class TestScenariosCommand:
    def test_grid_shape_and_ordering(self, capsys, config_path):
        code, out, _ = run(capsys, ["scenarios", config_path(), "--format", "json"])
        assert code == EXIT_OK
        scenarios = json.loads(out)["scenarios"]
        assert [s["label"] for s in scenarios] == ["optimistic", "typical", "pessimistic"]
        lcoes = [s["metrics"]["lcoe"] for s in scenarios]
        assert lcoes[0] < lcoes[1] < lcoes[2]
        for s in scenarios:
            assert set(s["metrics"]) == {"npv", "lcoe", "payback", "irr"}

    def test_override_isolates_dependent_cells(self, capsys, config_path):
        _, base_out, _ = run(capsys, ["scenarios", config_path(), "--format", "json"])
        path = config_path({"scenario_overrides": {"r": 0.10}}, name="override.json")
        _, over_out, _ = run(capsys, ["scenarios", path, "--format", "json"])
        base = json.loads(base_out)["scenarios"]
        over = json.loads(over_out)["scenarios"]
        # Typical already uses r=0.10, so its cells are untouched.
        assert over[1]["metrics"] == base[1]["metrics"]
        assert over[0]["metrics"]["npv"] != base[0]["metrics"]["npv"]

    def test_lifetime_override_beyond_the_window_exits_2(self, capsys, config_path):
        path = config_path({"scenario_overrides": {"lifetime": 200, "r": -0.99}})
        code, out, err = run(capsys, ["scenarios", path, "--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == "error: lifetime_years must be an integer in [1, 100], got 200\n"

    def test_non_integral_lifetime_override_exits_2(self, capsys, config_path):
        path = config_path({"scenario_overrides": {"lifetime": 25.5}})
        code, out, err = run(capsys, ["scenarios", path, "--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert "lifetime_years must be an integer in [1, 100], got 25.5" in err

    def test_csv_layout(self, capsys, config_path):
        code, out, _ = run(capsys, ["scenarios", config_path(), "--format", "csv"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "metric,optimistic,typical,pessimistic"
        assert len(lines) == 5


class TestSweepCommand:
    def test_rate_sweep_monotone(self, capsys, config_path):
        code, out, _ = run(capsys, [
            "sweep", config_path(), "--param", "r", "--from", "0.05", "--to", "0.15",
            "--steps", "11", "--metric", "lcoe",
        ])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "value,lcoe"
        assert len(lines) == 12
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_single_step(self, capsys, config_path):
        code, out, _ = run(capsys, [
            "sweep", config_path(), "--param", "r", "--from", "0.10", "--to", "0.15",
            "--steps", "1", "--metric", "lcoe",
        ])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 2
        design = ArrayDesign(n_t=4, mw_t=1.5, p_avg_mw=3.2, lifetime_years=25,
                             availability=0.95)
        expected = lcoe(design, CostParameters(9.2, 3.3, 0.32, 0.15), DiscountSpec(0.10))
        assert float(lines[1].split(",")[1]) == pytest.approx(expected)

    def test_lifetime_sweep_small_effect(self, capsys, config_path):
        code, out, _ = run(capsys, [
            "sweep", config_path(), "--param", "lifetime", "--from", "20", "--to", "30",
            "--steps", "2", "--metric", "lcoe",
        ])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        short, long = (float(line.split(",")[1]) for line in lines[1:])
        # Late years are heavily discounted at r=0.10: only a few percent change.
        assert abs(short - long) / long < 0.10

    def test_non_integral_lifetime_step_exits_2(self, capsys, config_path):
        # It once printed 23.333333333333332 beside a 23-year NPV.
        code, out, err = run(capsys, [
            "sweep", config_path(), "--param", "lifetime", "--from", "20", "--to", "30",
            "--steps", "4", "--metric", "npv",
        ])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert "lifetime_years must be an integer in [1, 100], got 23.333333333333332" in err

    def test_whole_lifetime_steps_unchanged(self, capsys, config_path):
        code, out, _ = run(capsys, [
            "sweep", config_path(), "--param", "lifetime", "--from", "20", "--to", "30",
            "--steps", "3", "--metric", "npv",
        ])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [value for value, _ in rows] == ["20.0", "25.0", "30.0"]
        for value, result in rows:
            design = ArrayDesign(n_t=4, mw_t=1.5, p_avg_mw=3.2,
                                 lifetime_years=int(float(value)), availability=0.95)
            values, _ = evaluate(design, CostParameters(9.2, 3.3, 0.32, 0.15),
                                 TariffScheme(150.0), DiscountSpec(0.10), ("npv",))
            assert float(result) == values["npv"]

    def test_json_format(self, capsys, config_path):
        argv = ["sweep", config_path(), "--param", "tariff", "--from", "40", "--to", "150",
                "--steps", "3", "--metric", "payback"]
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["command"], payload["param"], payload["metric"]) == (
            "sweep", "tariff", "payback")
        points = payload["points"]
        assert [point["value"] for point in points] == [40.0, 95.0, 150.0]
        assert points[0]["payback"] is None  # no payback at 40 GBP/MWh
        _, csv_out, _ = run(capsys, [*argv, "--format", "csv"])
        rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
        assert [row[1] for row in rows] == [
            "undefined" if point["payback"] is None else repr(point["payback"])
            for point in points
        ]

    def test_zero_steps_exits_2(self, capsys, config_path):
        code, out, err = run(capsys, [
            "sweep", config_path(), "--param", "r", "--from", "0.05", "--to", "0.15",
            "--steps", "0", "--metric", "lcoe",
        ])
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", "error: --steps must be >= 1, got 0\n")

    def test_unknown_param_exits_2_listing_names(self, capsys, config_path):
        code, _, err = run(capsys, [
            "sweep", config_path(), "--param", "bogus", "--from", "0", "--to", "1",
            "--steps", "2", "--metric", "lcoe",
        ])
        assert code == EXIT_INPUT_ERROR
        assert "ca_f" in err


class TestCurveCommand:
    def write_curve(self, tmp_path, rows: list[tuple[int, float]]) -> str:
        path = tmp_path / "curve.csv"
        path.write_text("n_t,p_avg_mw\n" + "".join(f"{n},{p}\n" for n, p in rows))
        return str(path)

    def concave_rows(self) -> list[tuple[int, float]]:
        return [(n, round(max(1.0 * n - 0.005 * n * n, 0.0), 6)) for n in range(10, 120, 5)]

    def config_with_bep(self, tmp_path, p_be: float) -> str:
        config = json.loads(json.dumps(BASE_CONFIG))
        config["array"]["mw_t"] = 5.0
        config["break_even"] = {"p_be_mw": p_be}
        path = tmp_path / "bep_config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_concave_curve_flags(self, capsys, tmp_path):
        curve_path = self.write_curve(tmp_path, self.concave_rows())
        code, out, _ = run(capsys, [
            "curve", self.config_with_bep(tmp_path, 0.4), "--power-curve", curve_path,
            "--format", "json",
        ])
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        best_power = next(r["n_t"] for r in rows if r["max_power"])
        best_j = next(r["n_t"] for r in rows if r["max_j_bep"])
        assert best_j < best_power

    def test_tiny_break_even_aligns_argmaxes(self, capsys, tmp_path):
        # As the break-even power vanishes, the score argmax approaches the power argmax.
        curve_path = self.write_curve(tmp_path, self.concave_rows())
        code, out, _ = run(capsys, [
            "curve", self.config_with_bep(tmp_path, 1e-9), "--power-curve", curve_path,
            "--format", "json",
        ])
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert next(r["n_t"] for r in rows if r["max_power"]) == next(
            r["n_t"] for r in rows if r["max_j_bep"]
        )

    def test_single_row_flagged_for_both(self, capsys, tmp_path):
        curve_path = self.write_curve(tmp_path, [(4, 3.2)])
        code, out, _ = run(capsys, [
            "curve", self.config_with_bep(tmp_path, 0.4), "--power-curve", curve_path,
            "--format", "json",
        ])
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert rows[0]["max_power"] and rows[0]["max_j_bep"]

    def test_lifetime_beyond_the_window_exits_2(self, capsys, config_path, tmp_path):
        array = dict(BASE_CONFIG["array"], lifetime_years=200)
        path = config_path({"array": array, "finance": dict(BASE_CONFIG["finance"], r=-0.99)})
        argv = ["curve", path, "--power-curve", self.write_curve(tmp_path, [(4, 3.2)])]
        code, out, err = run(capsys, argv + ["--format", "json"])
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == "error: lifetime_years must be an integer in [1, 100], got 200\n"

    def test_malformed_csv_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n_t,p_avg_mw\n4,3.2\nfive,oops\n")
        code, _, err = run(capsys, [
            "curve", self.config_with_bep(tmp_path, 0.4), "--power-curve", str(path),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "line 3" in err

    def test_integral_float_turbine_count_accepted(self, capsys, tmp_path):
        config = self.config_with_bep(tmp_path, 0.4)
        outputs = []
        for n_t in ("3", "3.0"):
            path = tmp_path / f"curve_{n_t}.csv"
            path.write_text(f"n_t,p_avg_mw\n{n_t},1.4\n")
            code, out, err = run(capsys, [
                "curve", config, "--power-curve", str(path), "--format", "json",
            ])
            assert (code, err) == (EXIT_OK, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1])["rows"][0]["n_t"] == 3

    def test_fractional_turbine_count_names_field_and_line(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("n_t,p_avg_mw\n4,3.2\n2.5,1.4\n")
        code, _, err = run(capsys, [
            "curve", self.config_with_bep(tmp_path, 0.4), "--power-curve", str(path),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "line 3" in err
        assert "n_t must be a whole number, got 2.5" in err


# The demo config as it is; with a break-even block whose EV * n_t reaches P_BE
# from n_t = 3 on, which metrics and curve warn of (scenarios and sweep never
# read the block); and at a tariff too low to pay back, so metrics has a note.
# split reads no config: its warning comes from a ratio outside the window.
DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "example_config.json"
ENVELOPE_CASES = {
    "demo": {},
    "warning": {"break_even": {"p_be_mw": 0.5, "ev_mw_per_turbine": 0.2}},
    "undefined": {"finance": {"r": 0.10, "mode": "discrete", "tariff_gbp_per_mwh": 40.0}},
}
VALIDITY_WARNING = ("EV * n_t = {:g} reaches the break-even power 0.5; "
                    "the linear economies-of-volume model is not valid here")
ENVELOPE_WARNINGS = {
    ("metrics", "warning"): [VALIDITY_WARNING.format(0.8)],
    ("curve", "warning"): [VALIDITY_WARNING.format(0.2 * n_t) for n_t in (4, 8, 16, 32, 64)],
    ("split", "warning"): ["ratio 8.4 outside the supported window [2.3, 3.9]"],
}


def envelope_argv(tmp_path, command: str, case: str) -> list[str]:
    if command == "split":
        ratio = "8.4" if case == "warning" else "2.3"
        return ["split", "ratio", "--ratio", ratio, "--capex-total", "227", "--n-t", "66.67"]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(dict(json.loads(DEMO_CONFIG.read_text()), **ENVELOPE_CASES[case])))
    return {
        "metrics": ["metrics", str(path)],
        "scenarios": ["scenarios", str(path)],
        "sweep": ["sweep", str(path), "--param", "tariff", "--from", "40", "--to", "150",
                  "--steps", "3", "--metric", "payback"],
        "curve": ["curve", str(path), "--power-curve",
                  str(Path(__file__).resolve().parent / "data" / "power_curve.csv")],
    }[command]


def json_notes(payload: dict) -> list[tuple[str, str]]:
    """Each note of a JSON report, keyed by where it applies."""
    if payload["command"] == "scenarios":
        return [(f"{scenario['label']}/{metric}", note)
                for scenario in payload["scenarios"] for metric, note in scenario["notes"].items()]
    if payload["command"] == "sweep":
        return [(f"{payload['param']}={point['value']!r}/{metric}", note)
                for point in payload["points"] for metric, note in point["notes"].items()]
    if payload["command"] == "curve":
        return [(f"n_t={row['n_t']}/{column}", note)
                for row in payload["rows"] for column, note in row["notes"].items()]
    return list(payload.get("notes", {}).items())


@pytest.mark.parametrize("case", sorted(ENVELOPE_CASES))
@pytest.mark.parametrize("command", ["metrics", "scenarios", "sweep", "curve", "split"])
def test_every_report_carries_its_warnings_and_notes_in_one_format(capsys, tmp_path, command,
                                                                    case):
    # Every warning a command raises is in its JSON, ends its human report after
    # the notes, and goes to stderr beside a CSV stdout that holds the table alone.
    argv = envelope_argv(tmp_path, command, case)
    warned = ENVELOPE_WARNINGS.get((command, case), [])
    code, out, err = run(capsys, [*argv, "--format", "json"])
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    assert payload["warnings"] == warned

    code, human, err = run(capsys, [*argv, "--format", "human", "--plain"])
    assert (code, err) == (EXIT_OK, "")
    lines = human.splitlines()
    reasons = [line for line in lines if line.startswith(("  note", "  warning"))]
    notes = len(reasons) - len(warned)
    assert reasons == lines[len(lines) - len(reasons):]  # they end the report
    assert sorted(reasons[:notes]) == sorted(  # JSON sorts its keys
        f"  note [{where}]: {reason}" for where, reason in json_notes(payload))
    assert reasons[notes:] == [f"  warning: {message}" for message in warned]

    code, out, err = run(capsys, [*argv, "--format", "csv"])
    assert (code, err) == (EXIT_OK, "".join(f"warning: {message}\n" for message in warned))
    assert "warning" not in out and "note" not in out
    if command == "sweep":  # CSV unless another format is asked for
        assert run(capsys, argv) == (EXIT_OK, out, err)


# Configs that leave a metric undefined, each with the reason it must give: the
# demo config's curve has a zero-power row; the costs and tariff reach scenarios
# and sweep through scenario_overrides. A derived break-even power outside
# (0, 1e100] is null in metrics, untouched in scenarios and sweep, and exits 2
# in curve, whose every row is a score.
NULL_CASES = {
    "zero_power_row": ({}, "discounted energy is zero; LCOE is undefined"),
    "payback_past_lifetime": ({"finance": dict(BASE_CONFIG["finance"], tariff_gbp_per_mwh=40.0)},
                              "cumulative discounted flow stays negative through year 25"),
    "no_sign_change": ({"finance": dict(BASE_CONFIG["finance"], tariff_gbp_per_mwh=1.0),
                        "scenario_overrides": {"tariff": 1.0}},
                       "IRR undefined: cash flows never change sign"),
    "no_irr_in_range": ({"costs": dict(BASE_CONFIG["costs"], ca_f=0.01, ca_t=0.01),
                         "scenario_overrides": {"ca_f": 0.01, "ca_t": 0.01}},
                        "no IRR in range [-0.99, 10.0]"),
    "lcoe_past_float_range_power": ({"array": dict(BASE_CONFIG["array"], p_avg_mw=1e-320)},
                                    "cost per MWh overflows"),
    "lcoe_past_float_range_rate": ({"array": dict(BASE_CONFIG["array"], p_avg_mw=1e-220),
                                    "finance": dict(BASE_CONFIG["finance"], r=1e100)},
                                   "cost per MWh overflows"),
    "zero_break_even_power": ({"costs": dict(BASE_CONFIG["costs"], ca_t=0, o_t=0)},
                              "break-even power derived from the per-turbine costs is 0 MW"),
    "huge_break_even_power": ({"array": dict(BASE_CONFIG["array"], availability=1e-305)},
                              "break-even power derived from the per-turbine costs is 2.14612e+304"),
}


def null_and_noted(payload: dict) -> list[tuple[set[str], set[str]]]:
    """(the keys holding null, the keys with a note) of each record of a JSON report."""
    records = {
        "metrics": lambda: [(payload["metrics"], payload["notes"])],
        "scenarios": lambda: [(res["metrics"], res["notes"]) for res in payload["scenarios"]],
        "sweep": lambda: [(point, point["notes"]) for point in payload["points"]],
        "curve": lambda: [(row, row["notes"]) for row in payload["rows"]],
    }[payload["command"]]()
    return [({key for key, value in values.items() if value is None}, set(notes))
            for values, notes in records]


@pytest.mark.parametrize("case", NULL_CASES)
def test_every_null_in_a_json_report_has_a_note(capsys, config_path, case):
    overrides, reason = NULL_CASES[case]
    path = config_path(overrides)
    sweeps = [["sweep", path, "--param", "tariff", "--from", "10", "--to", "150", "--steps", "3",
               "--metric", metric] for metric in ("npv", "lcoe", "payback", "irr")]
    power_curve = str(Path(__file__).resolve().parent / "data" / "power_curve.csv")
    reasons = []
    for argv in (["metrics", path], ["scenarios", path], *sweeps,
                 ["curve", path, "--power-curve", power_curve]):
        code, out, err = run(capsys, [*argv, "--format", "json"])
        if code == EXIT_INPUT_ERROR and argv[0] == "curve" and "break_even" in case:
            reasons.append(err)
            continue
        assert (code, err) == (EXIT_OK, ""), argv
        for null, noted in null_and_noted(json.loads(out)):
            assert null == noted, argv
        reasons += [note for _, note in json_notes(json.loads(out))]
    assert any(reason in text for text in reasons)
