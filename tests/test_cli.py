"""Scenario parsing, report emission, determinism, exit codes."""

import json
import logging
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from warpcurv.cli import (
    KEYS,
    CheckRow,
    RunReport,
    emit_report,
    main,
    parse_scenario,
    run_scenario,
)
from warpcurv.errors import ConfigParseError, UnsupportedFormat
from warpcurv.exprs import _MAX_NESTING
from warpcurv.geometry import MAX_NBAR

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


def _json_payload(report):
    return {
        "task": report.task,
        "scenario": [[k, v] for k, v in report.scenario],
        "checks": [vars(c) for c in report.checks],
        "version": report.version,
        "seed": report.seed,
    }


def assert_json_is_the_json_module_layout(report):
    want = json.dumps(_json_payload(report), indent=2) + "\n"
    assert emit_report(report, "json") == want.encode(), report


def _workload_round_0_reports():
    import sys

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root))
    try:
        from perfbench.scenarios import WORKLOADS, generate_round
    finally:
        sys.path.remove(str(root))
    for workload in WORKLOADS:
        for sc in generate_round(workload, 11, 0, root):
            yield run_scenario(parse_scenario(sc.text))


def test_json_reports_match_the_json_module_on_goldens_and_workloads():
    # the json layout is written by hand; its bytes are json.dumps(indent=2)'s
    goldens = sorted(SCENARIOS.glob("*.txt"))
    assert goldens
    reports = [run_scenario(parse_scenario(path.read_text())) for path in goldens]
    reports += list(_workload_round_0_reports())
    assert len(reports) > 3 * len(goldens)
    for report in reports:
        assert_json_is_the_json_module_layout(report)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
                                   1e-300, 5e-324, 1.5e308, np.float64(0.1), 7])
@pytest.mark.parametrize("seed", [None, 0, 12345])
def test_json_leaves_match_the_json_module(value, seed):
    report = RunReport(task="scalar-check", scenario=[("task", "scalar-check"),
                                                      ("fiber.warping", "exp(t) \u00b7 \u03c0\u00e9 \"q\" \\")],
                       checks=[CheckRow("row\u2013one", value, value, "fail"),
                               CheckRow("row", 1.0, 1e-6, "pass")],
                       version="0.1.0", seed=seed)
    assert_json_is_the_json_module_layout(report)
    assert_json_is_the_json_module_layout(RunReport(task="t", scenario=[], checks=[], seed=seed))
    assert_json_is_the_json_module_layout(RunReport(task="t", scenario=[("a", "b")], checks=[]))


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
    )
    assert json.loads(emit_report(report, "json")) == {
        "task": "einstein-check",
        "scenario": [["task", "einstein-check"], ["lambda", "0"]],
        "checks": [vars(c) for c in report.checks],
        "version": "0.1.0",
        "seed": 7,
    }


def test_cli_pass_and_fail_exit_codes(capsysbinary):
    code, out = run_main(capsysbinary, "verify",
                         str(SCENARIOS / "einstein-exponential.txt"))
    assert code == 0
    assert b"all checks passed" in out
    code, _ = run_main(capsysbinary, "verify",
                       str(SCENARIOS / "einstein-quadratic-fail.txt"))
    assert code == 1


def test_scalar_check_fails_when_the_scalar_varies_over_the_fiber(tmp_path, capsysbinary):
    # P = cos(x) d_x on a sphere fiber: g(P, P) and div P change with the
    # polar angle, so at each t the scalar differs between fiber points
    path = tmp_path / "sphere-p.txt"
    path.write_text("task = scalar-check\nbase = interval\nfiber.geometry = sphere\n"
                    "fiber.warping = 1.3\np.location = fiber:0\np.components = cos(x), 0\n")
    code, out = run_main(capsysbinary, "verify", str(path), "--format", "csv")
    assert code == 1
    rows = {line.split(",")[0]: line.split(",")[1:] for line in out.decode().splitlines()[1:]}
    assert rows["scalar-closed-form-vs-oracle"][2] == "pass"
    assert rows["scalar-constancy"][2] == "fail"
    assert float(rows["scalar-constancy"][0]) > 0.3


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


@pytest.mark.parametrize("warping", ["-" * 3000 + "t", "(" * 3000 + "t" + ")" * 3000])
def test_deeply_nested_warping_is_a_config_error(warping, tmp_path, capsysbinary):
    # past the parser's nesting bound the scenario is rejected with one line,
    # not a RecursionError traceback under the "check failed" exit code
    path = tmp_path / "deep.txt"
    path.write_text((SCENARIOS / "einstein-exponential.txt").read_text()
                    .replace("fiber.warping = exp(t)\n", f"fiber.warping = {warping}\n"))
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert not captured.out and captured.err.count(b"\n") == 1
    assert captured.err.startswith(f"error: nesting deeper than {_MAX_NESTING} levels".encode())
    # the message quotes an excerpt around the position, not the whole text
    assert len(captured.err) < 200


def test_long_unknown_function_name_is_a_short_config_error(tmp_path, capsysbinary):
    # the message quotes excerpts of the name and of the text, not all of it
    path = tmp_path / "long-name.txt"
    path.write_text((SCENARIOS / "einstein-exponential.txt").read_text()
                    .replace("fiber.warping = exp(t)\n", f"fiber.warping = {'q' * 3000}(t)\n"))
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert not captured.out and captured.err.count(b"\n") == 1
    assert captured.err.startswith(b"error: unknown function 'qqqq")
    assert len(captured.err) < 200


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


@pytest.mark.parametrize("scenario,line", [
    ("einstein-quadratic-fail.txt", "tolerance = inf"),
    ("einstein-quadratic-fail.txt", "tolerance = nan"),
    ("einstein-quadratic-fail.txt", "tolerance = 0"),
    ("einstein-quadratic-fail.txt", "tolerance = -1e-8"),
    ("scan-grw-oscillatory.txt", "scan.threshold = 0"),
    ("scan-grw-oscillatory.txt", "scan.threshold = inf"),
])
def test_tolerance_must_be_finite_and_positive(scenario, line, tmp_path, capsysbinary):
    # an infinite tolerance passes a failing check, a zero threshold every scan
    path = tmp_path / scenario
    path.write_text((SCENARIOS / scenario).read_text() + line + "\n")
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert b"must be finite and positive" in captured.err and not captured.out


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-0.5"])
def test_tolerance_override_must_be_finite_and_positive(value, capsysbinary):
    path = str(SCENARIOS / "einstein-quadratic-fail.txt")
    assert main(["verify", path, "--tolerance", value]) == 2
    captured = capsysbinary.readouterr()
    assert b"--tolerance must be finite and positive" in captured.err
    assert not captured.out


@pytest.mark.parametrize("line,message", [
    ("scan.n_c = 5.5", "bad value for 'scan.n_c'"),
    ("scan.n_c = 0", "bad value for 'scan.n_c'"),
    ("scan.t_points = 9.0", "bad value for 'scan.t_points'"),
    ("scan.t_points = -1", "bad value for 'scan.t_points'"),
    ("scan.lam = abc", "bad value for 'scan.lam'"),
    ("scan.lam = nan", "bad value for 'scan.lam'"),
    ("scan.c_range = 1", "bad value for 'scan.c_range'"),
    ("scan.c_range = -1,inf", "bad value for 'scan.c_range'"),
    ("scan.p = 1,2,3", "unknown key 'scan.p'"),  # not a parameter of this scan
    ("scan.bogus = 1", "unknown key 'scan.bogus'"),
])
def test_bad_scan_value_is_a_config_error(line, message, tmp_path, capsysbinary):
    path = tmp_path / "scan.txt"
    path.write_text((SCENARIOS / "scan-grw-oscillatory.txt").read_text() + line + "\n")
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert message.encode() in captured.err and not captured.out


def test_scan_without_a_finite_cell_exits_3(tmp_path, capsysbinary):
    # finite c_range ends whose squares overflow leave no finite cell
    path = tmp_path / "scan.txt"
    path.write_text((SCENARIOS / "scan-grw-oscillatory.txt").read_text()
                    + "scan.c_range = -1e200,1e200\nscan.n_c = 2\n")
    assert main(["verify", str(path)]) == 3
    captured = capsysbinary.readouterr()
    assert b"2 x 2 lattice" in captured.err and b"finite residual" in captured.err
    assert not captured.out


def test_scan_list_and_count_values_are_typed(tmp_path, capsysbinary):
    from warpcurv.families import scan_kasner3_einstein_linear

    text = ("task = nonexistence-scan\nscan.case = kasner3-einstein-linear\n"
            "scan.p = 1,2,4\nscan.c_range = 0.2,1.5\nscan.n_c = 9\nscan.t_points = 5\n")
    report = run_scenario(parse_scenario(text))
    expected = scan_kasner3_einstein_linear(p=(1.0, 2.0, 4.0), c_range=(0.2, 1.5),
                                            n_c=9, t_points=5)
    assert report.checks == [CheckRow("kasner3-einstein-linear",
                                      expected.grid_max_residual, 0.01, "pass")]
    # a lattice of nonpositive profiles has no admissible cell
    path = tmp_path / "empty.txt"
    path.write_text(text + "scan.c_range = -2,-1\n")
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert b"no admissible cell" in captured.err and not captured.out


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


@pytest.mark.parametrize("source,entry", [
    ("--params", "l=abc;scalar=2;s_fiber=9"),
    ("family-kasner3-scalar.txt", "family.p = 1,2,x"),
    ("family-kasner3-scalar.txt", "family.scalar = inf"),
    ("family-grw-einstein.txt", "family.lam = nan"),
])
def test_bad_family_value_is_a_config_error(source, entry, tmp_path, capsysbinary):
    if source == "--params":
        argv = ["family", "grw-scalar", "--params", entry]
    else:
        path = tmp_path / source
        path.write_text((SCENARIOS / source).read_text() + entry + "\n")
        argv = ["verify", str(path)]
    assert main(argv) == 2
    captured = capsysbinary.readouterr()
    assert b"bad value for 'family." in captured.err and not captured.out


@pytest.mark.parametrize("scenario,line,key", [
    ("pseudo-einstein-circle.txt", "fiber.dim = 2.5", "fiber.dim"),
    ("einstein-exponential.txt", "p.location = fiber:x", "p.location"),
    ("einstein-quadratic-fail.txt", "lambda = nan", "lambda"),
    ("einstein-quadratic-fail.txt", "lambda = inf", "lambda"),
    ("oracle-fiber-torsion.txt", "twisted = maybe", "twisted"),
    ("oracle-sphere.txt", "connection = bogus", "connection"),
    ("einstein-exponential.txt", "connection = bogus", "connection"),
    ("scalar-static.txt", "connection = bogus", "connection"),
])
def test_bad_scenario_value_is_a_config_error(scenario, line, key, tmp_path, capsysbinary):
    # typed when the file is parsed: no traceback and no nan/inf report rows
    path = tmp_path / scenario
    path.write_text((SCENARIOS / scenario).read_text() + line + "\n")
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert f"bad value for {key!r}".encode() in captured.err and not captured.out


@pytest.mark.parametrize("connection,code", [
    ("levi-civita", 2), ("semi-symmetric", 0), ("symmetrized", 0),
])
def test_scalar_check_reads_the_connection(connection, code, tmp_path, capsysbinary):
    # the closed form is the torsion-bearing scalar, which both torsion kinds
    # share; the Levi-Civita scalar of the static torus is 0, not 2
    path = tmp_path / "scalar.txt"
    path.write_text((SCENARIOS / "scalar-static.txt").read_text()
                    + f"connection = {connection}\n")
    assert main(["verify", str(path)]) == code
    captured = capsysbinary.readouterr()
    if code:
        assert b"'connection'" in captured.err and not captured.out
    else:
        assert b"all checks passed" in captured.out


@pytest.mark.parametrize("line,key", [
    ("grid.end = inf", "grid.end"),
    ("grid.start = -inf", "grid.start"),
    ("grid.end = nan", "grid.end"),
])
def test_non_finite_grid_bound_is_a_config_error(line, key, tmp_path, capsysbinary):
    # typed when parsed, before the grid is built: no numpy warning on stderr
    path = tmp_path / "bound.txt"
    path.write_text((SCENARIOS / "einstein-exponential.txt").read_text() + line + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", str(path)]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsysbinary.readouterr()
    assert f"bad value for {key!r}".encode() in captured.err and not captured.out


@pytest.mark.parametrize("value,flag", [
    ("true", True), ("Yes", True), ("1", True), ("FALSE", False), ("no", False), ("0", False),
])
def test_twisted_takes_true_false_yes_no_or_one_zero(value, flag):
    assert parse_scenario(f"task = oracle-verify\ntwisted = {value}\n").twisted is flag


def test_top_level_scalar_key_is_unknown(tmp_path, capsysbinary):
    # no task reads a top-level scalar; family.scalar is the family target
    path = tmp_path / "scalar.txt"
    path.write_text((SCENARIOS / "scalar-static.txt").read_text() + "scalar = 1\n")
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert b"unknown key 'scalar'" in captured.err and not captured.out
    family = parse_scenario((SCENARIOS / "family-kasner3-scalar.txt").read_text()).family
    assert family["scalar"] == 4.62


@pytest.mark.parametrize("scenario,edit,message", [
    ("oracle-sphere.txt", "+fiber.radius = abc", "bad value for 'fiber.radius'"),
    ("oracle-sphere.txt", "+fiber.radius = nan", "bad value for 'fiber.radius'"),
    ("oracle-sphere.txt", "+base = flat:xyz", "bad value for 'base'"),
    ("oracle-sphere.txt", "+lambda = 1", "'lambda' is not read by task 'oracle-verify'"),
    ("scalar-static.txt", "+scan.case = grw-einstein-oscillatory",
     "'scan.case' is not read by task 'scalar-check'"),
    ("oracle-sphere.txt", "+fiber.dim = 2", "'fiber.dim' is read only by flat_torus fibers"),
    ("oracle-fiber-torsion.txt", "+fiber.radius = 2", "'fiber.radius' is read only by sphere"),
    ("einstein-exponential.txt", "-p.location = base",
     "'p.components' is read only with p.location"),
    ("family-grw-einstein.txt", "+family.scalar = 1", "unknown key 'family.scalar' for grw-einstein"),
    ("family-grw-einstein.txt", "+seed = -1", "bad value for 'seed'"),
    ("scan-grw-oscillatory.txt", "--tolerance=1e-3",
     "'--tolerance' is not read by task 'nonexistence-scan'"),
    ("family-grw-einstein.txt", "--grid=5", "'--grid' is not read by task 'family-verify'"),
    ("--params", "l=3;scalar=2;s_fiber=9;bogus=1", "unknown key 'family.bogus'"),
])
def test_untyped_or_unread_key_is_a_config_error(scenario, edit, message, tmp_path,
                                                 capsysbinary):
    # edit: "+line" appends a line, "-line" drops one, "--option=value" is passed
    if scenario == "--params":
        argv = ["family", "grw-scalar", "--params", edit]
    else:
        lines = (SCENARIOS / scenario).read_text().splitlines()
        if edit.startswith("+"):
            lines.append(edit[1:])
        elif not edit.startswith("--"):
            lines.remove(edit[1:])
        path = tmp_path / scenario
        path.write_text("\n".join(lines) + "\n")
        argv = ["verify", str(path)] + ([edit] if edit.startswith("--") else [])
    assert main(argv) == 2
    captured = capsysbinary.readouterr()
    assert message.encode() in captured.err and not captured.out


@pytest.mark.parametrize("start,end", [("0.9", "0.1"), ("0.5", "0.5")])
@pytest.mark.parametrize("scenario", ["einstein-exponential.txt", "oracle-sphere.txt"])
def test_reversed_or_empty_grid_range_is_a_config_error(scenario, start, end, tmp_path,
                                                        capsysbinary):
    # a t-range must run forward: grid.start at or above grid.end is no grid
    text = (SCENARIOS / scenario).read_text() + f"grid.start = {start}\ngrid.end = {end}\n"
    with pytest.raises(ConfigParseError, match="grid.start must be below grid.end"):
        parse_scenario(text)
    path = tmp_path / scenario
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert not capsysbinary.readouterr().out


def test_task_line_may_come_last():
    lines = (SCENARIOS / "oracle-sphere.txt").read_text().splitlines()
    task = next(line for line in lines if line.startswith("task"))
    lines.remove(task)
    # the key is checked against the task only once the last line is read
    with pytest.raises(ConfigParseError, match="'lambda' is not read by task 'oracle-verify'"):
        parse_scenario("\n".join(lines + ["lambda = 1", task]) + "\n")
    cfg = parse_scenario("\n".join(lines + [task]) + "\n")
    assert cfg.task == "oracle-verify" and cfg.echo_lines()[0] == ("task", "oracle-verify")


def test_echo_shows_every_fiber_block():
    # two scenarios that differ only in their first fiber echo differently,
    # and each fiber's lines stay together in declaration order
    text = (SCENARIOS / "pseudo-einstein-circle.txt").read_text()
    other = text.replace("fiber.warping = 1\n", "fiber.warping = 2\n", 1)
    assert other != text
    echo = parse_scenario(text).echo_lines()
    assert echo != parse_scenario(other).echo_lines()
    fibers = [(k, v) for k, v in echo if k.startswith("fiber.")]
    assert fibers == [("fiber.geometry", "circle"), ("fiber.warping", "1"),
                      ("fiber.dim", "2"), ("fiber.geometry", "flat_torus"),
                      ("fiber.warping", "exp(t)")]


def test_readme_scenario_block_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Scenario files are flat", 1)[1]
    block = section.split("```", 2)[1]
    keys = {m.group(1) for m in re.finditer(r"^([a-z_0-9.]+) = ", block, re.MULTILINE)}
    assert keys == set(KEYS)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    shape, worst = capsys.readouterr().out.splitlines()
    assert shape == "(1, 3, 3)" and float(worst) < 1e-12


def test_readme_kasner_note_family_passes_where_einstein_check_fails(tmp_path,
                                                                     capsysbinary):
    # The README's Kasner note: kasner3-einstein-null-trace (p = (1, 1, -2),
    # phi = exp(sqrt(1/2) t) at c0 = 1) solves the paper's Kasner system, so
    # `warpcurv family` passes; its product, three circles warped by
    # phi^{p_i}, is not Einstein for P = d/dt, so einstein-check fails on
    # every fiber row while the trace row holds.
    code, out = run_main(capsysbinary, "family", "kasner-einstein", "--params",
                         "type=III;p=1,1,-2;dims=1,1,1;lam=0;lam_fibers=0,0,0",
                         "--seed", "3", "--format", "csv")
    assert code == 0
    assert b"kasner3-einstein-null-trace[residuals]," in out
    rate = 0.7071067811865476  # the family's rate sqrt(3 / eta), eta = 6
    fibers = "".join(f"fiber.geometry = circle\nfiber.warping = exp({p * rate!r}*t)\n"
                     for p in (1.0, 1.0, -2.0))
    assert "exp(-1.4142135623730951*t)" in fibers
    path = tmp_path / "kasner3-product.txt"
    path.write_text("task = einstein-check\nbase = interval\n" + fibers
                    + "p.location = base\np.components = 1\nlambda = 0\nformat = csv\n")
    code, out = run_main(capsysbinary, "verify", str(path))
    assert code == 1
    rows = {row.split(",")[0]: (float(row.split(",")[1]), row.split(",")[3])
            for row in out.decode().splitlines()[1:]}
    assert rows["einstein-trace"][1] == "pass"
    for name, value in [("einstein-fiber-0", 8.108), ("einstein-fiber-1", 8.108),
                        ("einstein-fiber-2", 3.663)]:
        assert rows[name][0] == pytest.approx(value, abs=5e-4)
        assert rows[name][1] == "fail"


def test_kasner_einstein_family_generate_passes_at_small_exponents(tmp_path, capsysbinary):
    # kasner2-einstein-null-trace at p = (0.1, -0.05) solves the paper's
    # Kasner system to 7.1e-15.  Its profile phi = c0 exp(sqrt(3 / eta) t),
    # eta = 0.015, grows to about 1e6 on [0, 1], so rounding alone would put
    # a profile-ode row near 3e-8, past the 1e-10 tolerance: phi is no
    # auxiliary profile, and its family has no such row
    path = tmp_path / "kasner2-einstein.txt"
    path.write_text("task = family-generate\nfamily.kind = kasner-einstein\n"
                    "family.type = II\nfamily.p = 0.1,-0.05\nfamily.dims = 1,2\n"
                    "family.lam = 0\nfamily.lam_fibers = 0,0\nformat = csv\n")
    code, out = run_main(capsysbinary, "verify", str(path))
    assert code == 0
    assert b"kasner2-einstein-null-trace[residuals]," in out


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.txt")))
def test_scenario_determinism(name, capsysbinary):
    path = str(SCENARIOS / name)
    code1, out1 = run_main(capsysbinary, "verify", path)
    code2, out2 = run_main(capsysbinary, "verify", path)
    assert code1 == code2
    assert out1 == out2
    assert out1 == (SCENARIOS / "expected" / name).with_suffix(".out").read_bytes()


@pytest.mark.parametrize("components", ["1e300*t^2", "exp(700*t)"])
def test_non_finite_oracle_curvature_exits_3(components, tmp_path, capsysbinary):
    # on the warped sphere a huge P makes both paths' curvature overflow;
    # that is a numerical instability, never a pass
    text = (SCENARIOS / "oracle-sphere.txt").read_text()
    path = tmp_path / "huge-p.txt"
    path.write_text(text.replace("p.components = 1\n", f"p.components = {components}\n"))
    assert main(["verify", str(path)]) == 3
    captured = capsysbinary.readouterr()
    assert b"not finite" in captured.err and not captured.out


def test_overflowing_expression_is_a_domain_error(tmp_path, capsysbinary):
    text = (SCENARIOS / "scalar-static.txt").read_text()
    path = tmp_path / "overflow.txt"
    path.write_text(text.replace("fiber.warping = 1\n", "fiber.warping = exp(1000*t)\n"))
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert b"overflows" in captured.err and not captured.out


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


def test_scalar_check_evaluates_the_closed_form_once(tmp_path, monkeypatch, capsysbinary):
    # the constancy row reuses the warping samples and the closed form of the
    # oracle row, also for P on a fiber, where it spreads them over the fiber
    from warpcurv import einstein

    calls = []
    samples = einstein.warping_samples

    def counting(*args, **kwargs):
        calls.append(1)
        return samples(*args, **kwargs)

    monkeypatch.setattr(einstein, "warping_samples", counting)
    code, out = run_main(capsysbinary, "verify", str(SCENARIOS / "scalar-static.txt"))
    assert code == 0
    assert out == (SCENARIOS / "expected" / "scalar-static.out").read_bytes()
    assert len(calls) == 1

    path = tmp_path / "scalar-fiber-p.txt"
    path.write_text((SCENARIOS / "scalar-static.txt").read_text().replace(
        "p.location = base\np.components = 1\n", "p.location = fiber:0\np.components = 0.4, 0.1\n"))
    code, out = run_main(capsysbinary, "verify", str(path))
    assert code == 0 and b"fiber:0" in out
    assert len(calls) == 2


def test_p_component_may_call_pow(tmp_path, capsysbinary):
    # the comma inside pow(...) does not split P into two components
    text = (SCENARIOS / "oracle-sphere.txt").read_text()
    reports = []
    for component in ("pow(2 + t, 1)", "2 + t"):
        path = tmp_path / "pow-p.txt"
        path.write_text(text.replace("p.components = 1\n", f"p.components = {component}\n"))
        code, out = run_main(capsysbinary, "verify", str(path))
        assert code == 0
        report = json.loads(out)
        report["scenario"].remove(["p.components", component])
        reports.append(report)
    assert reports[0] == reports[1]


def test_non_positive_warping_inside_the_scalar_check_grid(tmp_path, capsysbinary):
    # 0.6 - t turns negative inside the default grid; the oracle's stack of
    # grid points names the first such point, as one point at a time did
    text = (SCENARIOS / "scalar-static.txt").read_text()
    path = tmp_path / "negative-warping.txt"
    path.write_text(text.replace("fiber.warping = 1\n", "fiber.warping = 0.6 - t\n"))
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    line = "error: warping 0 = -0.06255874978421883 at point [0.6625587497842188, 0.25, 0.35]\n"
    assert line.encode() in captured.err and not captured.out


@pytest.mark.parametrize("task", ["einstein-check", "scalar-check"])
@pytest.mark.parametrize("warping,line", [
    # negative before the node at 0.5, where it is 0: the first bad point
    ("t - 0.5", "warping 0 = -0.44316348885549356 at point [0.05683651114450644, 0.25, 0.35]"),
    # positive at every node but the one at 0.5
    ("(t - 0.5)^2", "warping 0 = 0.0 at point [0.5, 0.25, 0.35]"),
])
def test_warping_that_touches_0_on_a_closed_form_grid(task, warping, line, tmp_path,
                                                      capsysbinary):
    # the closed forms divide by the warping: its samples are checked first,
    # so no nan row and no RuntimeWarning comes before the error
    text = (SCENARIOS / "einstein-exponential.txt").read_text()
    text = text.replace("fiber.warping = exp(t)\n", f"fiber.warping = {warping}\n")
    if task == "scalar-check":
        text = text.replace("task = einstein-check", "task = scalar-check")
        text = text.replace("lambda = 0\n", "")
    path = tmp_path / "touching.txt"
    path.write_text(text + "grid.points = 9\n")
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.err == f"error: {line}\n".encode() and not captured.out


@pytest.mark.parametrize("p1,message", [
    ("0", "scan applies to the nonzero-trace branch"),
    ("1e300", "scan needs a trace p1 whose square is finite, got 1e+300"),
])
def test_kasner2_scan_rejects_a_zero_or_overflowing_trace(p1, message, tmp_path,
                                                          capsysbinary):
    # the oscillation rate divides by the square of the trace, which is p1
    path = tmp_path / "kasner2.txt"
    path.write_text("task = nonexistence-scan\nscan.case = kasner2-einstein-oscillatory\n"
                    f"scan.p1 = {p1}\n")
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.err == f"error: {message}\n".encode() and not captured.out


_KASNER_II = "family.type = II\nfamily.p = 1e200,0\nfamily.dims = 1,2\n"


@pytest.mark.parametrize("text,exponents", [
    ("task = family-generate\nfamily.kind = kasner-einstein\n" + _KASNER_II
     + "family.lam = 0\nfamily.lam_fibers = 0,0\n", "(1e+200, 0.0)"),
    ("task = family-generate\nfamily.kind = kasner-scalar\n" + _KASNER_II
     + "family.scalar = 2\nfamily.s_fibers = 0,0\n", "(1e+200, 0.0)"),
    ("task = nonexistence-scan\nscan.case = kasner3-einstein-linear\nscan.p = 1e200,1,1\n",
     "(1e+200, 1.0, 1.0)"),
])
def test_kasner_invariants_that_overflow_are_a_domain_error(text, exponents, tmp_path,
                                                             capsysbinary):
    # eta = sum l_i p_i^2 overflows: the family check passed vacuously, the
    # scalar family ended in an OverflowError and the scan in exit 3
    path = tmp_path / "kasner.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    message = (f"error: Kasner invariants of exponents {exponents} are not finite: "
               "zeta = 1e+200, eta = inf\n")
    assert captured.err == message.encode() and not captured.out


@pytest.mark.parametrize("text,message", [
    # b^2 overflows: the Einstein fiber row read inf and the check exited 1
    ("task = einstein-check\nbase = interval\nfiber.geometry = flat_torus\nfiber.dim = 2\n"
     "fiber.warping = 1e200\nlambda = 1\n",
     "warping 0 = 1e+200 at t = 0.05191962066723449: b^2 is not finite"),
    # b^2 underflows to 0: the closed-form scalar divided by it, and the
    # oracle exited 2 on a singular metric
    ("task = scalar-check\nbase = interval\nfiber.geometry = sphere\n"
     "fiber.warping = 1e-200\np.location = base\np.components = 1\n",
     "warping 0 = 1e-200 at t = 0.05191962066723449: 1/b^2 is not finite"),
], ids=["einstein-check-1e200", "scalar-check-1e-200"])
def test_warping_whose_square_is_not_finite_is_a_domain_error(text, message, tmp_path,
                                                              capsysbinary):
    path = tmp_path / "extreme.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.err == f"error: {message}\n".encode() and not captured.out


_BIG_FIBER = ("base = interval\nfiber.geometry = flat_torus\nfiber.dim = 100000\n"
              "fiber.warping = exp(0.5*t)\np.location = base\np.components = 1\n")


def test_a_product_past_the_dimension_bound_is_a_domain_error(tmp_path, capsysbinary):
    # n_bar = 100001: the oracle's jet seeds alone asked numpy for 373 GiB,
    # and the run ended in a MemoryError traceback with exit 1
    path = tmp_path / "big.txt"
    path.write_text("task = oracle-verify\nconnection = semi-symmetric\n" + _BIG_FIBER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    message = (f"error: total dimension n_bar = 100001 exceeds the bound {MAX_NBAR} "
               "of point computations\n")
    assert captured.err == message.encode() and not captured.out


def test_a_check_that_builds_no_point_runs_past_the_dimension_bound(tmp_path, capsysbinary):
    # einstein-check with P = d/dt evaluates warpings over t alone
    path = tmp_path / "big.txt"
    path.write_text("task = einstein-check\n" + _BIG_FIBER)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(path)]) == 1
    captured = capsysbinary.readouterr()
    assert b"einstein-fiber-0" in captured.out and not captured.err


@pytest.mark.parametrize("task", ["family-verify", "family-generate"])
@pytest.mark.parametrize("scalar", ["1", "2"])
def test_a_family_warping_sample_that_is_not_finite_is_a_domain_error(task, scalar, tmp_path,
                                                                     capsysbinary):
    # s_fiber = 1e300 puts the profile's slope near 1e150, and its square in
    # the chain rule of b'' overflowed: family-verify exited 3 on the
    # integration, family-generate 1 on a nan row, both after RuntimeWarnings
    path = tmp_path / "family.txt"
    path.write_text(f"task = {task}\nfamily.kind = grw-scalar\nfamily.l = 3\n"
                    f"family.scalar = {scalar}\nfamily.s_fiber = 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    assert re.fullmatch(rb"error: grw-scalar-l3-distinct-roots: warping 0 = \S+ at t = 0\.0: "
                        rb"b'' is not finite\n", captured.err) and not captured.out


@pytest.mark.parametrize("radius", ["1e-160", "1e-200", "1e-300", "1e300"])
def test_sphere_radius_without_a_finite_curvature_is_a_domain_error(radius, tmp_path,
                                                                    capsysbinary):
    # r^2 is subnormal, underflows to 0 or overflows: 1/r^2 is not finite and nonzero
    path = tmp_path / "sphere.txt"
    path.write_text((SCENARIOS / "oracle-sphere.txt").read_text().replace(
        "fiber.radius = 1.0", f"fiber.radius = {radius}"))
    assert main(["verify", str(path)]) == 2
    captured = capsysbinary.readouterr()
    message = f"error: sphere radius {float(radius)!r} has no finite nonzero curvature\n"
    assert captured.err == message.encode() and not captured.out


@pytest.mark.parametrize("draw", [0, 1, 2])
def test_a_nan_residual_on_any_draw_fails_the_family_row(draw, monkeypatch):
    # max(0.0, nan) is 0.0: a NaN on one of the three draws must not vanish
    from warpcurv.families import SolutionFamily

    max_residual = SolutionFamily.max_residual
    calls = []

    def nan_on_one_draw(self, ts, overrides=None):
        value = max_residual(self, ts, overrides)
        calls.append(value)
        return math.nan if len(calls) == draw + 1 else value

    monkeypatch.setattr(SolutionFamily, "max_residual", nan_on_one_draw)
    report = run_scenario(parse_scenario((SCENARIOS / "family-grw-einstein.txt").read_text()))
    row = next(c for c in report.checks if c.check.endswith("[residuals]"))
    assert len(calls) == 3 and max(calls) < row.tolerance
    assert math.isnan(row.grid_max_residual) and row.verdict == "fail"
    assert not report.all_passed


def test_info_lines_of_a_scan_and_a_scalar_check(caplog):
    with caplog.at_level(logging.INFO, logger="warpcurv"):
        for name in ("scan-grw-oscillatory.txt", "scalar-static.txt"):
            run_scenario(parse_scenario((SCENARIOS / name).read_text()))
    assert caplog.record_tuples == [
        ("warpcurv", logging.INFO, "scan detail: l=2, lam=5.0, lam_fiber=1.0"),
        ("warpcurv", logging.INFO,
         "scalar constancy: scalar curvature constant; all factor scalars constant"),
    ]


def test_constant_scalar_with_invariants_that_vary_over_the_fiber(caplog):
    # P = -1/(x+2) d_x on a flat torus: g(P, P) = div P = 1/(x+2)^2 varies
    # with x, but the P terms (1 - nbar) g(P, P) + (nbar - 1) div P cancel
    text = ("task = scalar-check\nbase = interval\nfiber.geometry = flat_torus\n"
            "fiber.dim = 2\nfiber.warping = 1\np.location = fiber:0\n"
            "p.components = 0-1/(x+2), 0\n")
    with caplog.at_level(logging.INFO, logger="warpcurv"):
        report = run_scenario(parse_scenario(text))
    assert [(c.check, c.grid_max_residual, c.verdict) for c in report.checks] == [
        ("scalar-closed-form-vs-oracle", 0.0, "pass"), ("scalar-constancy", 0.0, "pass")]
    assert caplog.record_tuples == [(
        "warpcurv", logging.INFO,
        "scalar constancy: scalar constant but torsion-field invariants vary over the fiber")]


def test_constancy_row_reports_the_tolerance_its_check_used(monkeypatch):
    # the row prints the tolerance the check judged with, so the two cannot
    # drift apart: moving the constant moves both, and the verdict with them
    from warpcurv import einstein

    text = ("task = scalar-check\nbase = interval\nfiber.geometry = sphere\n"
            "fiber.warping = 1.3\np.location = fiber:0\np.components = cos(x), 0\n")

    def constancy_row():
        rows = {c.check: c for c in run_scenario(parse_scenario(text)).checks}
        return rows["scalar-constancy"]

    row = constancy_row()
    assert row.tolerance == einstein.CONSTANCY_TOL and row.verdict == "fail"
    monkeypatch.setattr(einstein, "CONSTANCY_TOL", 2.0 * row.grid_max_residual)
    row = constancy_row()
    assert row.tolerance == einstein.CONSTANCY_TOL and row.verdict == "pass"


def test_parameter_keys_and_their_errors_are_pinned(monkeypatch, tmp_path, capsysbinary):
    # the keys derived from the constructors' and builders' arguments, the
    # fiber-only table and its error text; a geometry that keeps object's
    # constructor takes no key and is read without inspect.signature
    from warpcurv import cli
    from warpcurv.geometry import HyperbolicPlane

    assert sorted(cli.KEYS) == [
        "base", "connection", "family.dims", "family.kind", "family.l", "family.lam",
        "family.lam_fiber", "family.lam_fibers", "family.p", "family.s_fiber",
        "family.s_fibers", "family.scalar", "family.type", "fiber.dim", "fiber.geometry",
        "fiber.radius", "fiber.warping", "format", "grid.end", "grid.points", "grid.start",
        "lambda", "p.components", "p.location", "scan.c_range", "scan.case", "scan.l",
        "scan.lam", "scan.lam2", "scan.lam_fiber", "scan.n_c", "scan.p", "scan.p1",
        "scan.t_points", "scan.threshold", "seed", "task", "tolerance", "twisted"]
    assert cli._FIBER_ONLY == {"fiber.dim": ["flat_torus"], "fiber.radius": ["sphere"]}
    assert HyperbolicPlane.__init__ is object.__init__

    def no_signature(fn, *args, **kwargs):
        raise AssertionError(f"inspect.signature({fn!r})")

    cli._parameters.cache_clear()
    monkeypatch.setattr(cli.inspect, "signature", no_signature)
    assert cli._parameters(HyperbolicPlane) == {}
    cli._parameters.cache_clear()
    path = tmp_path / "hyperbolic-radius.txt"
    path.write_text((SCENARIOS / "oracle-sphere.txt").read_text().replace(
        "fiber.geometry = sphere", "fiber.geometry = hyperbolic"))
    assert main(["verify", str(path)]) == 2
    assert capsysbinary.readouterr().err == (
        b"error: 'fiber.radius' is read only by sphere fibers, not hyperbolic"
        b" (line 5: 'fiber.radius = 1.0')\n")
