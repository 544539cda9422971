"""Command-line front end: scenario files in, verification reports out.

Scenario files are flat key=value text; repeated `fiber.` blocks declare
the fibers in order (each `fiber.geometry` line starts a new one).  Reports
go to stdout in text, csv or json form and are byte-deterministic for a
fixed scenario.  Exit codes: 0 all checks passed, 1 a check failed,
2 configuration or domain error, 3 numerical instability.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .connections import ConnectionKind
from .einstein import (
    CLOSED_FORM_TOL,
    ORACLE_TOL,
    chebyshev_grid,
    constant_scalar_separation_check,
    grw_einstein_residuals,
    multiwarped_scalar,
    pseudo_einstein_residuals,
)
from .errors import (
    ConfigParseError,
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
    FIBER_GEOMETRIES,
    FlatBase,
    IntervalBase,
    ProductManifoldSpec,
    TorsionVectorFieldSpec,
)
from .verify import DEFAULT_TOLERANCE, CheckRow, oracle_comparison

logger = logging.getLogger("warpcurv")

TASKS = ("oracle-verify", "einstein-check", "scalar-check",
         "family-generate", "family-verify", "nonexistence-scan")
FORMATS = ("text", "csv", "json")

FAMILY_GENERATORS = {
    "grw-einstein": grw_einstein_family,
    "grw-scalar": grw_scalar_family,
    "kasner-einstein": kasner_einstein_families,
    "kasner-scalar": kasner_scalar_families,
}

SCANS = {
    "grw-einstein-oscillatory": scan_grw_einstein_oscillatory,
    "kasner2-einstein-oscillatory": scan_kasner2_einstein_oscillatory,
    "kasner3-einstein-linear": scan_kasner3_einstein_linear,
}


# ---------------------------------------------------------------------------
# Scenario keys


def _value(convert, must, ok=None):
    """A parser: the converted text if `ok` holds for it, else a ValueError
    saying what the value must be."""
    def parse(text):
        try:
            x = convert(text)
        except (KeyError, ValueError):
            raise ValueError(must) from None
        if ok is not None and not ok(x):
            raise ValueError(must)
        return x
    return parse


def _one_of(names):
    return _value(str, f"one of {', '.join(names)}", names.__contains__)


def _tuple_of(parse):
    return lambda text: tuple(map(parse, text.split(",")))


def _format(text):
    if text not in FORMATS:
        raise UnsupportedFormat(f"format must be one of {', '.join(FORMATS)}, got {text!r}")
    return text


def _base(text):
    if text == "interval":
        return IntervalBase()
    head, _, signs = text.partition(":")
    if head != "flat" or not 1 <= len(signs) <= 3 or set(signs) - {"+", "-"}:
        raise ValueError
    return FlatBase(tuple(-1.0 if s == "-" else 1.0 for s in signs))


def _p_location(text):
    """none, base or fiber:<i>, as "none", "base" or the index i."""
    if text in ("none", "base"):
        return text
    head, _, index = text.partition(":")
    if head != "fiber" or not index.isdigit():
        raise ValueError
    return int(index)


_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_finite = _value(float, "a finite number", math.isfinite)
# a tolerance or threshold: inf, nan or zero would decide every check alike
_positive = _value(float, "finite and positive", lambda x: math.isfinite(x) and x > 0.0)
_count = _value(int, "at least 1 and an integer", lambda n: n >= 1)
_finite_list = _value(_tuple_of(_finite), "comma-separated finite numbers")

# Parsers of the fiber.*, family.* and scan.* values by name; names not
# listed take one finite number.
_PARAMETER_TYPES = {
    "dim": _count,
    "radius": _positive,
    "l": _count,
    "n_c": _count,
    "t_points": _count,
    "threshold": _positive,
    "type": _one_of(("II", "III")),
    "p": _finite_list,
    "lam_fibers": _finite_list,
    "s_fibers": _finite_list,
    "dims": _value(_tuple_of(_count), "comma-separated integers of at least 1"),
    "c_range": _value(_tuple_of(_finite), "two comma-separated finite numbers",
                      lambda pair: len(pair) == 2),
}
# The Kasner builders' `kind` argument is the key family.type.
_NAME_OF = {"kind": "type"}
_GEOMETRIC = ("oracle-verify", "einstein-check", "scalar-check")
_FAMILY = ("family-generate", "family-verify")
_SCAN = ("nonexistence-scan",)


@functools.cache
def _parameters(fn):
    """The arguments of `fn` by the name of their key.  A class that keeps
    object's constructor takes none; inspect.signature would read that from
    object's text signature, compiling the tokenizer's patterns on every
    start."""
    if isinstance(fn, type) and fn.__init__ is object.__init__:
        return {}
    return {_NAME_OF.get(a, a): p for a, p in inspect.signature(fn).parameters.items()}


def _parameter_keys(group, table, tasks):
    """The group.* key of every argument of the functions in `table`."""
    names = {name for fn in table.values() for name in _parameters(fn)}
    return {f"{group}.{name}": (_PARAMETER_TYPES.get(name, _finite), tasks)
            for name in sorted(names)}


# Every scenario key: the parser of its value and the tasks that take it.
# einstein-check takes `connection` without reading it (perfbench's Einstein
# scenarios send it every kind); scalar-check rejects levi-civita.
KEYS = {
    "task": (_one_of(TASKS), TASKS),
    "format": (_format, TASKS),
    "base": (_value(_base, "interval or flat: with one to three of + and -"), _GEOMETRIC),
    "twisted": (_value(lambda text: _FLAGS[text.lower()], "true/false, yes/no or 1/0"),
                _GEOMETRIC),
    "fiber.geometry": (_one_of(FIBER_GEOMETRIES), _GEOMETRIC),
    **_parameter_keys("fiber", FIBER_GEOMETRIES, _GEOMETRIC),
    "fiber.warping": (str, _GEOMETRIC),
    "p.location": (_value(_p_location, "none, base or fiber:<i>"), _GEOMETRIC),
    "p.components": (str, _GEOMETRIC),
    "connection": (_value(ConnectionKind, f"one of {', '.join(k.value for k in ConnectionKind)}"),
                   _GEOMETRIC),
    "lambda": (_finite, ("einstein-check",)),
    "grid.points": (_count, _GEOMETRIC),
    "grid.start": (_finite, _GEOMETRIC),
    "grid.end": (_finite, _GEOMETRIC),
    "tolerance": (_positive, _GEOMETRIC + _FAMILY),
    "seed": (_value(int, "an integer of at least 0", lambda n: n >= 0), _FAMILY),
    "family.kind": (_one_of(FAMILY_GENERATORS), _FAMILY),
    **_parameter_keys("family", FAMILY_GENERATORS, _FAMILY),
    "scan.case": (_one_of(SCANS), _SCAN),
    **_parameter_keys("scan", SCANS, _SCAN),
}

# Each fiber.* key of a constructor argument, and the geometries that take it.
_FIBER_ONLY = {f"fiber.{name}": [kind for kind, make in FIBER_GEOMETRIES.items()
                                 if name in _parameters(make)]
               for fiber in FIBER_GEOMETRIES.values() for name in _parameters(fiber)}
# ScenarioConfig fields not named after their key.
_FIELDS = {"lambda": "lam", "format": "out_format"}


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass
class ScenarioConfig:
    """Typed scenario values; `raw` keeps each key's text for the report."""

    task: str
    base: object = IntervalBase()
    fibers: list = field(default_factory=list)  # one dict per fiber block
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
    family: dict = field(default_factory=dict)  # family.* values by name
    scan: dict = field(default_factory=dict)  # scan.* values by name
    seed: int = None
    raw: dict = field(default_factory=dict)
    fiber_raw: list = field(default_factory=list)  # each fiber block's key texts

    def echo_lines(self):
        """(key, text) pairs: the task, then the other keys sorted, where the
        fiber.* keys of every fiber block stay together, block by block."""
        lines = [(key, 0, key, text) for key, text in self.raw.items()
                 if key != "task" and not key.startswith("fiber.")]
        lines += [("fiber.", i, key, text)
                  for i, block in enumerate(self.fiber_raw) for key, text in block.items()]
        return [("task", self.task)] + [(key, text) for _, _, key, text in sorted(lines)]


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
        try:
            _set(cfg, key, value)
        except ConfigParseError as exc:
            raise ConfigParseError(str(exc), line_no, rawline) from None
        if key == "fiber.geometry":
            cfg.fiber_raw.append({})
        if key.startswith("fiber."):
            cfg.fiber_raw[-1][key] = value
        cfg.raw[key] = value
    _check_scenario(cfg)
    return cfg


def _set(cfg, key, text, label=None):
    """Store the value of `key`, typed by its KEYS entry; `label` names it in
    errors (an option such as --grid)."""
    entry = KEYS.get(key)
    if entry is None:
        raise ConfigParseError(f"unknown key {label or key!r}")
    try:
        value = entry[0](text)
    except ValueError as exc:
        label = label or key
        raise ConfigParseError(
            f"bad value for {label!r}: {label} must be {exc}, got {text!r}") from None
    group, _, name = key.partition(".")
    if group == "fiber":
        if key == "fiber.geometry":
            cfg.fibers.append({})
        elif not cfg.fibers:
            raise ConfigParseError(f"{key} before any fiber.geometry line")
        elif key in _FIBER_ONLY and cfg.fibers[-1]["geometry"] not in _FIBER_ONLY[key]:
            raise ConfigParseError(f"{key!r} is read only by {' and '.join(_FIBER_ONLY[key])} "
                                   f"fibers, not {cfg.fibers[-1]['geometry']}")
        cfg.fibers[-1][name] = value
    elif group in ("family", "scan"):
        getattr(cfg, group)[name] = value
    else:
        setattr(cfg, _FIELDS.get(key, key.replace(".", "_")), value)
    return value


def _check_read(task, key, label=None):
    tasks = KEYS[key][1]
    if task not in tasks:
        raise ConfigParseError(f"{label or key!r} is not read by task {task!r}; "
                               f"it is read by {', '.join(tasks)}")


def _check_scenario(cfg):
    """The rules that need the whole scenario, after its last line."""
    if not cfg.task:
        raise ConfigParseError(f"task must be one of {', '.join(TASKS)}")
    for key in cfg.raw:
        _check_read(cfg.task, key)
    if cfg.p_components and cfg.p_location == "none":
        raise ConfigParseError("'p.components' is read only with p.location base or fiber:<i>")
    if cfg.task == "scalar-check" and cfg.connection == ConnectionKind.LEVI_CIVITA:
        raise ConfigParseError("scalar-check checks the torsion-bearing scalar formula: "
                               "'connection' must be semi-symmetric or symmetrized")
    if cfg.grid_start >= cfg.grid_end:
        raise ConfigParseError(f"grid.start must be below grid.end, got "
                               f"{cfg.grid_start!r} and {cfg.grid_end!r}")
    if cfg.task in _FAMILY:
        _arguments("family", FAMILY_GENERATORS, cfg.family)
    elif cfg.task in _SCAN:
        _arguments("scan", SCANS, cfg.scan)


def _arguments(group, table, values):
    """The function of `table` that the group's kind or case names, and its
    keyword arguments from the other group.* values: a name that it does
    not take, or an argument without default left out, is an error."""
    select = "kind" if group == "family" else "case"
    if select not in values:
        raise ConfigParseError(f"{group}.{select} must be one of {', '.join(sorted(table))}")
    fn = table[values[select]]
    accepted = _parameters(fn)
    names = [name for name in values if name != select]
    for name in names:
        if name not in accepted:
            raise ConfigParseError(
                f"unknown key '{group}.{name}' for {values[select]}; "
                f"expected one of {', '.join(f'{group}.{n}' for n in accepted)}")
    missing = [f"{group}.{n}" for n, p in accepted.items()
               if p.default is p.empty and n not in values]
    if missing:
        raise ConfigParseError(f"{values[select]} needs {', '.join(missing)}")
    return fn, {accepted[name].name: values[name] for name in names}


def build_spec(cfg: ScenarioConfig) -> ProductManifoldSpec:
    if not cfg.fibers:
        raise ConfigParseError("scenario declares no fibers")
    fibers = [FIBER_GEOMETRIES[fb["geometry"]](
                  **{name: v for name, v in fb.items() if name not in ("geometry", "warping")})
              for fb in cfg.fibers]
    warpings = [parse_expr(fb.get("warping", "1")) for fb in cfg.fibers]
    return ProductManifoldSpec(cfg.base, fibers, warpings, twisted=cfg.twisted)


def _top_level_split(text):
    """`text` split at the commas outside parentheses, so that a component
    may call pow(expr, const)."""
    parts, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:k])
            start = k + 1
    return parts + [text[start:]]


def build_torsion_field(cfg: ScenarioConfig, spec):
    if cfg.p_location == "none":
        return None
    comps = [parse_expr(c) for c in _top_level_split(cfg.p_components)] if cfg.p_components else []
    P = TorsionVectorFieldSpec(cfg.p_location, comps)
    P.validate(spec)
    return P


# ---------------------------------------------------------------------------
# Reports


@dataclass
class RunReport:
    task: str
    scenario: list  # list of (key, value) echo pairs
    checks: list
    version: str = ""
    seed: int = None

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def _fmt(x):
    return repr(float(x))


# The json layout of a report is json.dumps(payload, indent=2), written
# here directly: with indent set, the json module runs its pure-Python
# encoder, which is slower than this fixed layout.


def _json_leaf(v):
    """A report's JSON scalar as json.dumps writes it: ASCII-escaped
    strings, repr of floats with NaN, Infinity and -Infinity, null, and
    repr of ints."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return float.__repr__(v)
    if v is None:
        return "null"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_block(items, pad, brackets):
    """Encoded items inside brackets, one a line, indented two spaces
    past `pad`; no items give the bare brackets."""
    if not items:
        return brackets
    sep = ",\n" + pad + "  "
    return f"{brackets[0]}\n{pad}  {sep.join(items)}\n{pad}{brackets[1]}"


def emit_report(report: RunReport, out_format) -> bytes:
    """Serialize a report; byte-deterministic for identical inputs."""
    if out_format == "csv":
        lines = ["check,grid_max_residual,tolerance,verdict"]
        for c in report.checks:
            lines.append(f"{c.check},{_fmt(c.grid_max_residual)},{_fmt(c.tolerance)},{c.verdict}")
        return ("\n".join(lines) + "\n").encode()
    if out_format == "json":
        scenario = [f"[\n      {_json_leaf(k)},\n      {_json_leaf(v)}\n    ]"
                    for k, v in report.scenario]
        checks = [_json_block([f"{encode_basestring_ascii(k)}: {_json_leaf(v)}"
                               for k, v in vars(c).items()], "    ", "{}")
                  for c in report.checks]
        fields = [f'"task": {_json_leaf(report.task)}',
                  f'"scenario": {_json_block(scenario, "  ", "[]")}',
                  f'"checks": {_json_block(checks, "  ", "[]")}',
                  f'"version": {_json_leaf(report.version)}',
                  f'"seed": {_json_leaf(report.seed)}']
        return (_json_block(fields, "", "{}") + "\n").encode()
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


# ---------------------------------------------------------------------------
# Task execution


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the scenario's task; deterministic for a fixed config."""
    if cfg.task in _GEOMETRIC:
        spec = build_spec(cfg)
        P = build_torsion_field(cfg, spec)
    if cfg.task == "oracle-verify":
        tol = cfg.tolerance if cfg.tolerance is not None else DEFAULT_TOLERANCE
        points = spec.sample_points(min(cfg.grid_points, 5),
                                    t_range=(cfg.grid_start, cfg.grid_end))
        checks = oracle_comparison(spec, P, cfg.connection, points, tol)
    elif cfg.task == "einstein-check":
        tol = cfg.tolerance if cfg.tolerance is not None else CLOSED_FORM_TOL
        grid = chebyshev_grid(cfg.grid_start, cfg.grid_end, cfg.grid_points)
        if P is None or P.location == "base":
            checks = grw_einstein_residuals(spec, cfg.lam, grid, tol)
        else:
            checks = pseudo_einstein_residuals(spec, P, cfg.lam, grid, tol)
    elif cfg.task == "scalar-check":
        tol = cfg.tolerance if cfg.tolerance is not None else ORACLE_TOL
        grid = chebyshev_grid(cfg.grid_start, cfg.grid_end, cfg.grid_points)
        row, closed = multiwarped_scalar(spec, P, grid, tol)
        checks = [row, constant_scalar_separation_check(spec, P, grid, closed=closed)]
    elif cfg.task in _FAMILY:
        checks = _family_checks(cfg)
    elif cfg.task == "nonexistence-scan":
        scan, kwargs = _arguments("scan", SCANS, cfg.scan)
        checks = [scan(**kwargs)]
    else:
        raise ConfigParseError(f"unhandled task {cfg.task!r}")

    return RunReport(task=cfg.task, scenario=cfg.echo_lines(), checks=checks,
                     version=__version__, seed=cfg.seed)


def _family_checks(cfg):
    generate, kwargs = _arguments("family", FAMILY_GENERATORS, cfg.family)
    families = generate(**kwargs)
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-10
    ts = np.linspace(0.0, 1.0, 33)
    rng = np.random.default_rng(cfg.seed if cfg.seed is not None else 0)
    checks = [CheckRow(f"families-found[{len(families)}]", 0.0, 1.0, "pass")]
    for fam in families:
        if fam.numeric_only:
            checks.append(CheckRow(f"{fam.family_id}[numeric-only]", 0.0, tol, "pass"))
            continue
        draws = [fam.max_residual(ts, fam.sample_params(rng)) for _ in range(3)]
        # max(0.0, nan) is 0.0: a NaN on any draw is the row's residual
        worst = math.nan if any(map(math.isnan, draws)) else max(draws)
        checks.append(CheckRow.of(f"{fam.family_id}[residuals]", worst, tol))
        if cfg.task == "family-verify":
            checks.append(ode_cross_check(fam, fam.sample_params(rng)))
    return checks


# ---------------------------------------------------------------------------
# Entry point


def _setup_logging():
    level_name = os.environ.get("WARPCURV_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="warpcurv: %(levelname)s: %(message)s")


def _family_config(args):
    """The scenario of `warpcurv family`: its kind, --params, --format and --seed."""
    cfg = ScenarioConfig(task="family-verify", raw={"task": "family-verify"})
    pairs = []
    for item in args.params.split(";") if args.params else []:
        if "=" not in item:
            raise ConfigParseError(f"bad --params entry {item!r}")
        name, _, text = item.partition("=")
        pairs.append((f"family.{name.strip()}", text.strip()))
    for key, text in pairs + [("family.kind", args.kind)]:
        _set(cfg, key, text)
        cfg.raw[key] = text
    _set(cfg, "format", args.format, "--format")
    if args.seed is not None:
        _set(cfg, "seed", args.seed, "--seed")
    _check_scenario(cfg)
    return cfg


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
    p_verify.add_argument("--format", help="text, csv or json")
    p_verify.add_argument("--tolerance")
    p_verify.add_argument("--grid")

    p_family = sub.add_parser("family", help="generate and verify a solution family")
    p_family.add_argument("kind", help=", ".join(sorted(FAMILY_GENERATORS)))
    p_family.add_argument("--params", default="",
                          help="semicolon-separated key=value family parameters, "
                               "e.g. 'l=2;lam=0;lam_fiber=0'")
    p_family.add_argument("--format", default="text", help="text, csv or json")
    p_family.add_argument("--seed")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            with open(args.scenario, "r", encoding="utf-8") as fh:
                cfg = parse_scenario(fh.read())
            for key, label, text in (("format", "--format", args.format),
                                     ("tolerance", "--tolerance", args.tolerance),
                                     ("grid.points", "--grid", args.grid)):
                if text is not None:
                    cfg.raw[key] = str(_set(cfg, key, text, label))
                    _check_read(cfg.task, key, label)
        else:
            cfg = _family_config(args)
        start = time.perf_counter()
        report = run_scenario(cfg)
        elapsed = time.perf_counter() - start
    except (NumericalInstability, StepTooCoarse) as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 3
    except (WarpcurvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.buffer.write(emit_report(report, cfg.out_format))
    logger.info("wall clock: %.3fs", elapsed)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
