"""Command-line front end: scenario files in, verification reports out.

Scenario files are flat key=value text; repeated `fiber.` blocks declare
the fibers in order (each `fiber.geometry` line starts a new one).  Reports
go to stdout in text, csv or json form and are byte-deterministic for a
fixed scenario.  Exit codes: 0 all checks passed, 1 a check failed,
2 configuration or domain error, 3 numerical instability.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .connections import ConnectionKind
from .einstein import (
    chebyshev_grid,
    constant_scalar_separation_check,
    grw_einstein_residuals,
    multiwarped_scalar,
    pseudo_einstein_residuals,
)
from .errors import (
    ConfigParseError,
    ExprParseError,
    NumericalInstability,
    StepTooCoarse,
    UnsupportedFormat,
    WarpcurvError,
)
from .exprs import parse_expr
from .families import (
    grw_einstein_family,
    grw_scalar_family,
    kasner_einstein_families,
    kasner_scalar_families,
    ode_cross_check,
    scan_grw_einstein_oscillatory,
    scan_kasner2_einstein_oscillatory,
    scan_kasner3_einstein_linear,
)
from .geometry import (
    FiberSpec,
    FlatBase,
    IntervalBase,
    ProductManifoldSpec,
    TorsionVectorFieldSpec,
    make_geometry,
)
from .verify import oracle_comparison

logger = logging.getLogger("warpcurv")

TASKS = ("oracle-verify", "einstein-check", "scalar-check",
         "family-generate", "family-verify", "nonexistence-scan")
FORMATS = ("text", "csv", "json")

FAMILY_GENERATORS = {
    "grw-einstein": lambda a: grw_einstein_family(
        _count(a["l"]), _finite(a["lam"]), _finite(a["lam_fiber"])),
    "grw-scalar": lambda a: grw_scalar_family(
        _count(a["l"]), _finite(a["scalar"]), _finite(a["s_fiber"])),
    "kasner-einstein": lambda a: kasner_einstein_families(
        a["type"], _finite_list(a["p"]), _count_list(a["dims"]), _finite(a["lam"]),
        _finite_list(a["lam_fibers"])),
    "kasner-scalar": lambda a: kasner_scalar_families(
        a["type"], _finite_list(a["p"]), _count_list(a["dims"]), _finite(a["scalar"]),
        _finite_list(a["s_fibers"])),
}

SCANS = {
    "grw-einstein-oscillatory": scan_grw_einstein_oscillatory,
    "kasner2-einstein-oscillatory": scan_kasner2_einstein_oscillatory,
    "kasner3-einstein-linear": scan_kasner3_einstein_linear,
}


def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _positive(text, name):
    """A tolerance or threshold; inf, nan or zero would decide every check alike."""
    x = float(text)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {text!r}")
    return x


def _count(text):
    n = int(text)
    if n < 1:
        raise ValueError(f"{text!r} is not an integer of at least 1")
    return n


def _finite_list(text):
    return tuple(_finite(x) for x in str(text).split(","))


def _count_list(text):
    return tuple(_count(x) for x in str(text).split(","))


def _p_location(text):
    """p.location = none | base | fiber:<i>, as "none", "base" or the index i."""
    if text in ("none", "base"):
        return text
    head, _, index = text.partition(":")
    if head == "fiber" and index.isdigit():
        return int(index)
    raise ValueError(f"p.location must be none, base or fiber:<i>, got {text!r}")


_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

CONNECTIONS = {
    "levi-civita": ConnectionKind.LEVI_CIVITA,
    "semi-symmetric": ConnectionKind.SEMI_SYMMETRIC_NON_METRIC,
    "symmetrized": ConnectionKind.SYMMETRIZED_AFFINE,
}


def _choice(table, text):
    if text not in table:
        raise ValueError(f"expected one of {', '.join(table)}, got {text!r}")
    return table[text]


def _finite_pair(text):
    pair = _finite_list(text)
    if len(pair) != 2:
        raise ValueError(f"{text!r} is not two comma-separated numbers")
    return pair


# Parsers of the scan.* values; keys not listed take one finite number.
_SCAN_VALUE_TYPES = {
    "n_c": _count,
    "t_points": _count,
    "p": _finite_list,
    "c_range": _finite_pair,
    "threshold": lambda text: _positive(text, "scan.threshold"),
}


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass
class ScenarioConfig:
    task: str
    base: str = "interval"
    fibers: list = field(default_factory=list)  # list of dicts
    twisted: bool = False
    p_location: object = "none"  # "none", "base" or a fiber index
    p_components: str = ""
    connection: ConnectionKind = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC
    lam: float = 0.0
    grid_points: int = 17
    grid_start: float = 0.05
    grid_end: float = 0.95
    tolerance: float = None
    out_format: str = "text"
    family: dict = field(default_factory=dict)
    scan: dict = field(default_factory=dict)
    seed: int = None
    raw: dict = field(default_factory=dict)

    def echo_lines(self):
        out = [("task", self.task)]
        for key in sorted(self.raw):
            if key != "task":
                out.append((key, self.raw[key]))
        return out


_FIBER_KEYS = {"fiber.geometry", "fiber.dim", "fiber.warping", "fiber.radius"}


def parse_scenario(text) -> ScenarioConfig:
    """Parse the line-oriented key=value scenario format."""
    cfg = ScenarioConfig(task="")
    for line_no, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError("expected key = value", line_no, rawline)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigParseError(f"empty value for {key!r}", line_no, rawline)
        cfg.raw[key] = value
        try:
            _apply_key(cfg, key, value)
        except ConfigParseError:
            raise
        except (ValueError, ExprParseError) as exc:
            raise ConfigParseError(f"bad value for {key!r}: {exc}", line_no, rawline)
    if cfg.task not in TASKS:
        raise ConfigParseError(f"task must be one of {', '.join(TASKS)}")
    if cfg.out_format not in FORMATS:
        raise UnsupportedFormat(f"format must be one of {', '.join(FORMATS)}")
    return cfg


def _apply_key(cfg, key, value):
    if key == "task":
        cfg.task = value
    elif key == "base":
        cfg.base = value
    elif key == "twisted":
        cfg.twisted = _choice(_FLAGS, value.lower())
    elif key == "fiber.geometry":
        cfg.fibers.append({"geometry": value})
    elif key in _FIBER_KEYS:
        if not cfg.fibers:
            raise ConfigParseError(f"{key} before any fiber.geometry line")
        name = key.split(".", 1)[1]
        cfg.fibers[-1][name] = _count(value) if name == "dim" else value
    elif key == "p.location":
        cfg.p_location = _p_location(value)
    elif key == "p.components":
        cfg.p_components = value
    elif key == "connection":
        cfg.connection = _choice(CONNECTIONS, value)
    elif key == "lambda":
        cfg.lam = _finite(value)
    elif key == "grid.points":
        cfg.grid_points = int(value)
        if cfg.grid_points < 1:
            raise ValueError("grid.points must be at least 1")
    elif key == "grid.start":
        cfg.grid_start = _finite(value)
    elif key == "grid.end":
        cfg.grid_end = _finite(value)
    elif key == "tolerance":
        cfg.tolerance = _positive(value, "tolerance")
    elif key == "format":
        cfg.out_format = value
    elif key == "seed":
        cfg.seed = int(value)
    elif key.startswith("family."):
        cfg.family[key.split(".", 1)[1]] = value
    elif key.startswith("scan."):
        cfg.scan[key.split(".", 1)[1]] = value
    else:
        raise ConfigParseError(f"unknown key {key!r}")


def build_spec(cfg: ScenarioConfig) -> ProductManifoldSpec:
    if cfg.base == "interval":
        base = IntervalBase()
    elif cfg.base.startswith("flat:"):
        signs = tuple(-1.0 if ch == "-" else 1.0 for ch in cfg.base[5:])
        base = FlatBase(signs)
    else:
        raise ConfigParseError(f"unknown base {cfg.base!r}")
    if not cfg.fibers:
        raise ConfigParseError("scenario declares no fibers")
    fibers = []
    warpings = []
    for fb in cfg.fibers:
        geo = make_geometry(
            fb["geometry"],
            dim=fb.get("dim", 2),
            radius=float(fb.get("radius", 1.0)),
        )
        fibers.append(FiberSpec(geo))
        warpings.append(parse_expr(fb.get("warping", "1")))
    return ProductManifoldSpec(base, fibers, warpings, twisted=cfg.twisted)


def build_torsion_field(cfg: ScenarioConfig, spec):
    if cfg.p_location == "none":
        return None
    comps = [parse_expr(c) for c in cfg.p_components.split(",")] if cfg.p_components else []
    P = TorsionVectorFieldSpec(cfg.p_location, comps)
    P.validate(spec)
    return P


# ---------------------------------------------------------------------------
# Reports


@dataclass
class CheckRow:
    check: str
    grid_max_residual: float
    tolerance: float
    verdict: str  # "pass" | "fail"


@dataclass
class RunReport:
    task: str
    scenario: list  # list of (key, value) echo pairs
    checks: list
    version: str = ""
    seed: int = None
    wall_clock_seconds: float = None

    @property
    def all_passed(self):
        return all(c.verdict == "pass" for c in self.checks)

    def __eq__(self, other):
        if not isinstance(other, RunReport):
            return NotImplemented
        return (
            self.task == other.task
            and list(self.scenario) == list(other.scenario)
            and self.checks == other.checks
            and self.version == other.version
            and self.seed == other.seed
        )


def _fmt(x):
    return repr(float(x))


def emit_report(report: RunReport, out_format) -> bytes:
    """Serialize a report; byte-deterministic for identical inputs."""
    if out_format == "csv":
        lines = ["check,grid_max_residual,tolerance,verdict"]
        for c in report.checks:
            lines.append(f"{c.check},{_fmt(c.grid_max_residual)},{_fmt(c.tolerance)},{c.verdict}")
        return ("\n".join(lines) + "\n").encode()
    if out_format == "json":
        payload = {
            "task": report.task,
            "scenario": [[k, v] for k, v in report.scenario],
            "checks": [
                {
                    "check": c.check,
                    "grid_max_residual": c.grid_max_residual,
                    "tolerance": c.tolerance,
                    "verdict": c.verdict,
                }
                for c in report.checks
            ],
            "version": report.version,
            "seed": report.seed,
        }
        return (json.dumps(payload, indent=2, sort_keys=False) + "\n").encode()
    if out_format == "text":
        lines = [f"warpcurv {report.version} :: task {report.task}"]
        for k, v in report.scenario:
            lines.append(f"  {k} = {v}")
        lines.append("")
        width = max([len("check")] + [len(c.check) for c in report.checks])
        lines.append(f"{'check'.ljust(width)}  {'max residual':>14}  {'tolerance':>12}  verdict")
        for c in report.checks:
            lines.append(
                f"{c.check.ljust(width)}  {c.grid_max_residual:>14.6e}  "
                f"{c.tolerance:>12.2e}  {c.verdict}"
            )
        lines.append("")
        lines.append("RESULT: " + ("all checks passed" if report.all_passed
                                   else "CHECK FAILURES"))
        return ("\n".join(lines) + "\n").encode()
    raise UnsupportedFormat(f"unsupported output format {out_format!r}")


def parse_report(blob: bytes) -> RunReport:
    """Inverse of the json emission (round-trips modulo wall clock)."""
    payload = json.loads(blob.decode())
    return RunReport(
        task=payload["task"],
        scenario=[(k, v) for k, v in payload["scenario"]],
        checks=[
            CheckRow(c["check"], c["grid_max_residual"], c["tolerance"], c["verdict"])
            for c in payload["checks"]
        ],
        version=payload.get("version", ""),
        seed=payload.get("seed"),
    )


# ---------------------------------------------------------------------------
# Task execution


def _verdict(ok):
    return "pass" if ok else "fail"


def _residual_rows(reports):
    return [
        CheckRow(r.equation, r.max_abs_residual, r.tolerance, _verdict(r.passed))
        for r in reports
    ]


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the scenario's task; deterministic for a fixed config."""
    start = time.perf_counter()
    checks = []
    if cfg.task == "oracle-verify":
        spec = build_spec(cfg)
        P = build_torsion_field(cfg, spec)
        tol = cfg.tolerance if cfg.tolerance is not None else 1e-6
        points = spec.sample_points(min(cfg.grid_points, 5),
                                    t_range=(cfg.grid_start, cfg.grid_end))
        for rep in oracle_comparison(spec, P, cfg.connection, points, tol):
            checks.append(CheckRow(rep.clause, rep.max_deviation, rep.tolerance,
                                   _verdict(rep.passed)))
    elif cfg.task == "einstein-check":
        spec = build_spec(cfg)
        P = build_torsion_field(cfg, spec)
        tol = cfg.tolerance if cfg.tolerance is not None else 1e-8
        grid = chebyshev_grid(cfg.grid_start, cfg.grid_end, cfg.grid_points)
        if P is None or P.location == "base":
            result = grw_einstein_residuals(spec, cfg.lam, grid, tol)
        else:
            result = pseudo_einstein_residuals(spec, P, cfg.lam, grid, tol)
        checks.extend(_residual_rows(result.reports))
    elif cfg.task == "scalar-check":
        if cfg.connection == ConnectionKind.LEVI_CIVITA:
            raise ConfigParseError("scalar-check checks the torsion-bearing scalar formula: "
                                   "'connection' must be semi-symmetric or symmetrized")
        spec = build_spec(cfg)
        P = build_torsion_field(cfg, spec)
        tol = cfg.tolerance if cfg.tolerance is not None else 1e-6
        grid = chebyshev_grid(cfg.grid_start, cfg.grid_end, cfg.grid_points)
        rep, scalar = multiwarped_scalar(spec, P, grid, tol)
        checks.append(CheckRow(rep.equation, rep.max_abs_residual, rep.tolerance,
                               _verdict(rep.passed)))
        cons = constant_scalar_separation_check(spec, P, grid, values=scalar)
        checks.append(CheckRow("scalar-constancy", cons.scalar_spread, 1e-8,
                               _verdict(cons.scalar_constant and cons.grid_adequate)))
        logger.info("scalar constancy: %s", cons.message)
    elif cfg.task in ("family-generate", "family-verify"):
        checks.extend(_family_checks(cfg))
    elif cfg.task == "nonexistence-scan":
        case = cfg.scan.get("case")
        if case not in SCANS:
            raise ConfigParseError(f"scan.case must be one of {', '.join(sorted(SCANS))}")
        report = SCANS[case](**_scan_kwargs(case, cfg.scan))
        checks.append(CheckRow(report.case_id, report.min_max_residual,
                               report.threshold, _verdict(report.passed)))
        logger.info("scan detail: %s", report.detail)
    else:
        raise ConfigParseError(f"unhandled task {cfg.task!r}")

    report = RunReport(
        task=cfg.task,
        scenario=cfg.echo_lines(),
        checks=checks,
        version=__version__,
        seed=cfg.seed,
        wall_clock_seconds=time.perf_counter() - start,
    )
    return report


def _scan_kwargs(case, values):
    """Typed keyword arguments of the scan `case` from its scan.* values."""
    accepted = inspect.signature(SCANS[case]).parameters
    kwargs = {}
    for key, text in values.items():
        if key == "case":
            continue
        if key not in accepted:
            raise ConfigParseError(
                f"unknown key 'scan.{key}' for {case}; "
                f"expected one of {', '.join(f'scan.{k}' for k in accepted)}"
            )
        try:
            kwargs[key] = _SCAN_VALUE_TYPES.get(key, _finite)(text)
        except ValueError as exc:
            raise ConfigParseError(f"bad value for 'scan.{key}': {exc}") from exc
    return kwargs


def _family_checks(cfg):
    kind = cfg.family.get("kind")
    if kind not in FAMILY_GENERATORS:
        raise ConfigParseError(
            f"family.kind must be one of {', '.join(sorted(FAMILY_GENERATORS))}"
        )
    try:
        families = FAMILY_GENERATORS[kind](cfg.family)
    except KeyError as exc:
        raise ConfigParseError(f"family parameter missing: {exc}") from exc
    except ValueError as exc:
        raise ConfigParseError(f"bad family value: {exc}") from exc
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-10
    ts = np.linspace(0.0, 1.0, 33)
    rng = np.random.default_rng(cfg.seed if cfg.seed is not None else 0)
    checks = [CheckRow(f"families-found[{len(families)}]", 0.0, 1.0, "pass")]
    for fam in families:
        if fam.numeric_only:
            checks.append(CheckRow(f"{fam.family_id}[numeric-only]", 0.0, tol, "pass"))
            continue
        worst = 0.0
        for _ in range(3):
            params = fam.sample_params(rng)
            worst = max(worst, fam.max_residual(ts, params))
        checks.append(CheckRow(f"{fam.family_id}[residuals]", worst, tol,
                               _verdict(worst < tol)))
        if cfg.task == "family-verify":
            rk = ode_cross_check(fam, fam.sample_params(rng))
            checks.append(CheckRow(f"{fam.family_id}[rk4]", rk.max_abs_residual,
                                   rk.tolerance, _verdict(rk.passed)))
    return checks


# ---------------------------------------------------------------------------
# Entry point


def _setup_logging():
    level_name = os.environ.get("WARPCURV_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="warpcurv: %(levelname)s: %(message)s")


def main(argv=None):
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="warpcurv",
        description="Verify curvature identities and solution families on "
                    "multiply warped products with torsion-bearing connections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a scenario file")
    p_verify.add_argument("scenario", help="path to the scenario file")
    p_verify.add_argument("--format", choices=FORMATS, default=None)
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--grid", type=int, default=None)

    p_family = sub.add_parser("family", help="generate and verify a solution family")
    p_family.add_argument("kind", choices=sorted(FAMILY_GENERATORS))
    p_family.add_argument("--params", default="",
                          help="semicolon-separated key=value family parameters, "
                               "e.g. 'l=2;lam=0;lam_fiber=0'")
    p_family.add_argument("--format", choices=FORMATS, default="text")
    p_family.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            with open(args.scenario, "r", encoding="utf-8") as fh:
                cfg = parse_scenario(fh.read())
            if args.format:
                cfg.out_format = args.format
                cfg.raw["format"] = args.format
            if args.tolerance is not None:
                try:
                    cfg.tolerance = _positive(args.tolerance, "--tolerance")
                except ValueError as exc:
                    raise ConfigParseError(str(exc)) from exc
                cfg.raw["tolerance"] = repr(args.tolerance)
            if args.grid is not None:
                if args.grid < 1:
                    raise ConfigParseError(f"--grid must be at least 1, got {args.grid}")
                cfg.grid_points = args.grid
                cfg.raw["grid.points"] = str(args.grid)
            report = run_scenario(cfg)
            out_format = cfg.out_format
        else:
            family_args = {}
            if args.params:
                for item in args.params.split(";"):
                    if "=" not in item:
                        raise ConfigParseError(f"bad --params entry {item!r}")
                    k, _, v = item.partition("=")
                    family_args[k.strip()] = v.strip()
            family_args["kind"] = args.kind
            cfg = ScenarioConfig(task="family-verify", family=family_args,
                                 seed=args.seed, out_format=args.format)
            cfg.raw = {"task": "family-verify",
                       **{f"family.{k}": v for k, v in family_args.items()}}
            report = run_scenario(cfg)
            out_format = args.format
    except (ConfigParseError, UnsupportedFormat, ExprParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalInstability, StepTooCoarse) as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 3
    except (WarpcurvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.buffer.write(emit_report(report, out_format))
    if report.wall_clock_seconds is not None:
        logger.info("wall clock: %.3fs", report.wall_clock_seconds)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
