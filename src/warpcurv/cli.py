"""Command-line front end: scenario files in, verification reports out.

Scenario files are flat key=value text; repeated `fiber.` blocks declare
the fibers in order (each `fiber.geometry` line starts a new one).  Reports
go to stdout in text, csv or json form and are byte-deterministic for a
fixed scenario.  Exit codes: 0 all checks passed, 1 a check failed,
2 configuration or domain error, 3 numerical instability.
"""

from __future__ import annotations

import argparse
import json
import logging
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
        int(a["l"]), float(a["lam"]), float(a["lam_fiber"])),
    "grw-scalar": lambda a: grw_scalar_family(
        int(a["l"]), float(a["scalar"]), float(a["s_fiber"])),
    "kasner-einstein": lambda a: kasner_einstein_families(
        a["type"], _floats(a["p"]), _ints(a["dims"]), float(a["lam"]),
        _floats(a["lam_fibers"])),
    "kasner-scalar": lambda a: kasner_scalar_families(
        a["type"], _floats(a["p"]), _ints(a["dims"]), float(a["scalar"]),
        _floats(a["s_fibers"])),
}

SCANS = {
    "grw-einstein-oscillatory": scan_grw_einstein_oscillatory,
    "kasner2-einstein-oscillatory": scan_kasner2_einstein_oscillatory,
    "kasner3-einstein-linear": scan_kasner3_einstein_linear,
}


def _floats(text):
    return tuple(float(x) for x in str(text).split(","))


def _ints(text):
    return tuple(int(x) for x in str(text).split(","))


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass
class ScenarioConfig:
    task: str
    base: str = "interval"
    fibers: list = field(default_factory=list)  # list of dicts
    twisted: bool = False
    p_location: str = "none"
    p_components: str = ""
    connection: str = "semi-symmetric"
    lam: float = 0.0
    scalar: float = 0.0
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


_TOP_KEYS = {
    "task", "base", "twisted", "p.location", "p.components", "connection",
    "lambda", "scalar", "grid.points", "grid.start", "grid.end", "tolerance",
    "format", "seed",
}
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
        cfg.twisted = value.lower() in ("true", "yes", "1")
    elif key == "fiber.geometry":
        cfg.fibers.append({"geometry": value})
    elif key in _FIBER_KEYS:
        if not cfg.fibers:
            raise ConfigParseError(f"{key} before any fiber.geometry line")
        cfg.fibers[-1][key.split(".", 1)[1]] = value
    elif key == "p.location":
        cfg.p_location = value
    elif key == "p.components":
        cfg.p_components = value
    elif key == "connection":
        cfg.connection = value
    elif key == "lambda":
        cfg.lam = float(value)
    elif key == "scalar":
        cfg.scalar = float(value)
    elif key == "grid.points":
        cfg.grid_points = int(value)
        if cfg.grid_points < 1:
            raise ValueError("grid.points must be at least 1")
    elif key == "grid.start":
        cfg.grid_start = float(value)
    elif key == "grid.end":
        cfg.grid_end = float(value)
    elif key == "tolerance":
        cfg.tolerance = float(value)
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
            dim=int(fb.get("dim", 2)),
            radius=float(fb.get("radius", 1.0)),
        )
        fibers.append(FiberSpec(geo))
        warpings.append(parse_expr(fb.get("warping", "1")))
    return ProductManifoldSpec(base, fibers, warpings, twisted=cfg.twisted)


def build_torsion_field(cfg: ScenarioConfig, spec):
    loc = cfg.p_location
    if loc in ("none", ""):
        return None
    if loc == "base":
        location = "base"
    elif loc.startswith("fiber:"):
        location = int(loc.split(":", 1)[1])
    else:
        raise ConfigParseError(f"p.location must be none, base or fiber:<i>, got {loc!r}")
    comps = [parse_expr(c) for c in cfg.p_components.split(",")] if cfg.p_components else []
    P = TorsionVectorFieldSpec(location, comps)
    P.validate(spec)
    return P


def build_connection(cfg: ScenarioConfig) -> ConnectionKind:
    table = {
        "levi-civita": ConnectionKind.LEVI_CIVITA,
        "semi-symmetric": ConnectionKind.SEMI_SYMMETRIC_NON_METRIC,
        "symmetrized": ConnectionKind.SYMMETRIZED_AFFINE,
    }
    if cfg.connection not in table:
        raise ConfigParseError(f"unknown connection {cfg.connection!r}")
    return table[cfg.connection]


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
        kind = build_connection(cfg)
        tol = cfg.tolerance if cfg.tolerance is not None else 1e-6
        points = spec.sample_points(min(cfg.grid_points, 5),
                                    t_range=(cfg.grid_start, cfg.grid_end))
        for rep in oracle_comparison(spec, P, kind, points, tol):
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
        spec = build_spec(cfg)
        P = build_torsion_field(cfg, spec)
        tol = cfg.tolerance if cfg.tolerance is not None else 1e-6
        grid = chebyshev_grid(cfg.grid_start, cfg.grid_end, cfg.grid_points)
        rep = multiwarped_scalar(spec, P, grid, tol)
        checks.append(CheckRow(rep.equation, rep.max_abs_residual, rep.tolerance,
                               _verdict(rep.passed)))
        cons = constant_scalar_separation_check(spec, P, grid)
        checks.append(CheckRow("scalar-constancy", cons.scalar_spread, 1e-8,
                               _verdict(cons.scalar_constant and cons.grid_adequate)))
        logger.info("scalar constancy: %s", cons.message)
    elif cfg.task in ("family-generate", "family-verify"):
        checks.extend(_family_checks(cfg))
    elif cfg.task == "nonexistence-scan":
        case = cfg.scan.get("case")
        if case not in SCANS:
            raise ConfigParseError(f"scan.case must be one of {', '.join(sorted(SCANS))}")
        kwargs = {k: float(v) for k, v in cfg.scan.items() if k != "case"}
        report = SCANS[case](**kwargs)
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
                cfg.tolerance = args.tolerance
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
