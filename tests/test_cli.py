"""Scenario parsing, report emission, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from warpcurv.cli import (
    CheckRow,
    RunReport,
    emit_report,
    main,
    parse_report,
    parse_scenario,
    run_scenario,
)
from warpcurv.errors import ConfigParseError, UnsupportedFormat

SCENARIOS = Path(__file__).parent / "scenarios"


def run_main(capsysbinary, *argv):
    code = main(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out


def test_parse_scenario_round_values():
    cfg = parse_scenario((SCENARIOS / "einstein-exponential.txt").read_text())
    assert cfg.task == "einstein-check"
    assert cfg.lam == 0.0
    assert len(cfg.fibers) == 1
    assert cfg.fibers[0]["warping"] == "exp(t)"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigParseError) as err:
        parse_scenario("task = einstein-check\nbogus line\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigParseError):
        parse_scenario("task = einstein-check\nunknown.key = 1\n")
    with pytest.raises(ConfigParseError):
        parse_scenario("task = not-a-task\n")
    with pytest.raises(ConfigParseError):
        parse_scenario("task = einstein-check\nfiber.dim = 2\n")  # before geometry
    with pytest.raises(UnsupportedFormat):
        parse_scenario("task = einstein-check\nformat = yaml\n")


def test_emit_csv_shapes():
    report = RunReport(task="t", scenario=[("task", "t")], checks=[], version="x")
    blob = emit_report(report, "csv")
    assert blob == b"check,grid_max_residual,tolerance,verdict\n"
    report.checks.append(CheckRow("alpha", 1.5e-9, 1e-6, "pass"))
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[0] == "check,grid_max_residual,tolerance,verdict"
    assert lines[1] == "alpha,1.5e-09,1e-06,pass"


def test_emit_unknown_format():
    report = RunReport(task="t", scenario=[], checks=[], version="x")
    with pytest.raises(UnsupportedFormat):
        emit_report(report, "yaml")


def test_json_round_trip():
    report = RunReport(
        task="einstein-check",
        scenario=[("task", "einstein-check"), ("lambda", "0")],
        checks=[CheckRow("a", 1.25e-11, 1e-8, "pass"),
                CheckRow("b", 2.0, 1e-8, "fail")],
        version="0.1.0",
        seed=7,
        wall_clock_seconds=1.23,
    )
    again = parse_report(emit_report(report, "json"))
    assert again == report  # wall clock intentionally excluded from equality


def test_cli_pass_and_fail_exit_codes(capsysbinary):
    code, out = run_main(capsysbinary, "verify",
                         str(SCENARIOS / "einstein-exponential.txt"))
    assert code == 0
    assert b"all checks passed" in out
    code, _ = run_main(capsysbinary, "verify",
                       str(SCENARIOS / "einstein-quadratic-fail.txt"))
    assert code == 1


def test_cli_config_error_exit_code(tmp_path, capsysbinary):
    bad = tmp_path / "bad.txt"
    bad.write_text("task = einstein-check\nbase = interval\n"
                   "fiber.geometry = flat_torus\nfiber.warping = exp(\n")
    code = main(["verify", str(bad)])
    capsysbinary.readouterr()
    assert code == 2
    code = main(["verify", str(tmp_path / "missing.txt")])
    capsysbinary.readouterr()
    assert code == 2


@pytest.mark.parametrize("scenario", ["oracle-sphere.txt", "einstein-quadratic-fail.txt"])
@pytest.mark.parametrize("points", [0, -3])
def test_grid_without_points_is_a_config_error(scenario, points, tmp_path, capsysbinary):
    # with no grid points there is no residual, so a failing check would pass
    path = tmp_path / scenario
    path.write_text((SCENARIOS / scenario).read_text() + f"grid.points = {points}\n")
    with pytest.raises(ConfigParseError, match="grid.points"):
        parse_scenario(path.read_text())
    assert main(["verify", str(path)]) == 2
    assert b"grid.points must be at least 1" in capsysbinary.readouterr().err


@pytest.mark.parametrize("scenario", ["oracle-sphere.txt", "einstein-quadratic-fail.txt"])
def test_grid_override_without_points_is_a_config_error(scenario, capsysbinary):
    assert main(["verify", str(SCENARIOS / scenario), "--grid", "0"]) == 2
    captured = capsysbinary.readouterr()
    assert b"--grid must be at least 1" in captured.err and not captured.out


def test_cli_format_override(capsysbinary):
    code, out = run_main(capsysbinary, "verify",
                         str(SCENARIOS / "einstein-exponential.txt"),
                         "--format", "json")
    assert code == 0
    payload = json.loads(out.decode())
    assert payload["task"] == "einstein-check"
    assert all(c["verdict"] == "pass" for c in payload["checks"])


def test_cli_family_subcommand(capsysbinary):
    code, out = run_main(capsysbinary, "family", "grw-scalar",
                         "--params", "l=3;scalar=2;s_fiber=9", "--format", "csv")
    assert code == 0
    assert b"grw-scalar-l3-distinct-roots[residuals]" in out
    assert b"grw-scalar-l3-distinct-roots[rk4]" in out


def test_cli_family_bad_params(capsysbinary):
    code, _ = run_main(capsysbinary, "family", "grw-scalar", "--params", "l=3")
    assert code == 2  # missing scalar / s_fiber
    code, _ = run_main(capsysbinary, "family", "grw-scalar", "--params", "nonsense")
    assert code == 2


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.txt")))
def test_scenario_determinism(name, capsysbinary):
    path = str(SCENARIOS / name)
    code1, out1 = run_main(capsysbinary, "verify", path)
    code2, out2 = run_main(capsysbinary, "verify", path)
    assert code1 == code2
    assert out1 == out2
    assert out1  # nonempty report


def test_numerical_instability_exit_code(monkeypatch, capsysbinary):
    from warpcurv import cli
    from warpcurv.errors import NumericalInstability

    def explode(cfg):
        raise NumericalInstability("paths diverged")

    monkeypatch.setattr(cli, "run_scenario", explode)
    code = main(["verify", str(SCENARIOS / "einstein-exponential.txt")])
    capsysbinary.readouterr()
    assert code == 3


def test_run_scenario_reports_all_requested_checks():
    cfg = parse_scenario((SCENARIOS / "scalar-static.txt").read_text())
    report = run_scenario(cfg)
    names = [c.check for c in report.checks]
    assert names == ["scalar-closed-form-vs-oracle", "scalar-constancy"]
    assert report.all_passed
    assert report.wall_clock_seconds is not None
