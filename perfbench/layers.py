"""Per-layer metrics: which spans they read and which end-to-end metric each
should move, on which workload.

The layers are warpcurv's modules.  A metric is `<module>.<function>.<stat>`
with stat one of `calls`, `self_ms` (run total), `ms_per_call` (inclusive),
`ms_per_call.nbar<k>` or `ms_per_point.nbar<k>` (inclusive, over scenarios
whose product has total dimension k).  The table below is the mapping later
perf changes cite; BENCHMARK.json lists the same metric names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tracing import MODULES, ancestors_named, summarize

OS, GR, FS = "oracle-sweep", "grid-residuals", "families-scan"
NBARS = (3, 5, 9)


@dataclass(frozen=True)
class Row:
    span: str  # span name, or a group name listed in GROUPS
    stats: tuple
    moves: str  # end-to-end metric(s) the row should move, and where
    exercised_on: tuple  # workloads on which the span must record calls


GROUPS = {
    "families.scan": ("families.scan_grw_einstein_oscillatory",
                      "families.scan_kasner2_einstein_oscillatory",
                      "families.scan_kasner3_einstein_linear"),
}

ROWS = (
    Row("chart_core.levi_civita_coefficients", ("calls", "self_ms"),
        "scenario_p50_ms, scenario_p90_ms on oracle-sweep; scenario_p90_ms on grid-residuals",
        (OS, GR)),
    Row("chart_core.curvature_from_coefficients", ("calls", "self_ms"),
        "scenario_p50_ms on oracle-sweep", (OS,)),
    Row("chart_core.assemble_metric", ("calls",), "scenario_p50_ms on oracle-sweep", (OS,)),
    Row("chart_core.metric_derivatives", ("calls",), "scenario_p50_ms on oracle-sweep", (OS,)),
    Row("connections.connection_curvature", tuple(f"ms_per_call.nbar{k}" for k in NBARS),
        "scenario_p90_ms on oracle-sweep (n_bar 9); scenario_p50_ms on grid-residuals (n_bar 3)",
        (OS, GR)),
    Row("connections.modified_coefficients", ("calls", "self_ms"),
        "scenario_p90_ms on oracle-sweep; scenario_p50_ms on grid-residuals", (OS, GR)),
    Row("geometry.check_point", ("calls", "self_ms"), "scenario_p50_ms on oracle-sweep", (OS,)),
    Row("geometry.ambient_components", ("calls",), "scenario_p50_ms on oracle-sweep", (OS,)),
    Row("exprs.jet_env", ("calls",),
        "scenario_p50_ms on grid-residuals and families-scan", (GR, FS)),
    Row("exprs.eval_jet", ("calls", "self_ms"),
        "scenario_p50_ms on grid-residuals and families-scan", (GR, FS)),
    # Family and scan scenarios carry no expressions and no product spec.
    Row("exprs.parse_expr", ("self_ms",), "setup_s on all workloads", (OS, GR)),
    Row("cli.parse_scenario", ("self_ms",), "setup_s on all workloads", (OS, GR, FS)),
    Row("cli.build_spec", ("self_ms",), "setup_s on all workloads", (OS, GR)),
    Row("structured.cache_build", ("calls", "self_ms"),
        "scenario_p50_ms on grid-residuals", (GR, OS)),
    Row("structured.structured_covariant_derivative", ("calls",),
        "scenario_p90_ms on oracle-sweep", (OS,)),
    Row("structured.structured_curvature", ("calls", "self_ms"),
        "scenario_p90_ms on oracle-sweep", (OS,)),
    Row("structured.structured_ricci_matrix", tuple(f"ms_per_call.nbar{k}" for k in NBARS),
        "scenario_p90_ms on oracle-sweep", (OS,)),
    Row("verify.oracle_comparison",
        ("self_ms",) + tuple(f"ms_per_point.nbar{k}" for k in NBARS),
        "scenario_p90_ms on oracle-sweep", (OS,)),
    Row("einstein.warping_samples", ("calls", "self_ms"),
        "scenario_p50_ms on grid-residuals", (GR,)),
    Row("einstein.grw_einstein_residuals", ("self_ms",),
        "scenario_p50_ms on grid-residuals", (GR,)),
    Row("einstein.pseudo_einstein_residuals", ("self_ms",),
        "scenario_p50_ms on grid-residuals", (GR,)),
    Row("einstein.multiwarped_scalar", ("self_ms",), "scenario_p50_ms on grid-residuals", (GR,)),
    Row("einstein.constant_scalar_separation_check", ("self_ms",),
        "scenario_p50_ms on grid-residuals", (GR,)),
    Row("families.rk4_integrate", ("calls", "self_ms"),
        "scenario_p50_ms, scenarios_per_s on families-scan", (FS,)),
    # Only solve_numeric_profile reaches the first-order integrator, and no
    # scenario task calls it: the row reads zero until the CLI path does.
    Row("families.rk4_integrate_first_order", ("calls", "self_ms"),
        "scenario_p50_ms, scenarios_per_s on families-scan", ()),
    Row("families.ode_cross_check", ("ms_per_call",),
        "scenario_p50_ms, scenarios_per_s on families-scan", (FS,)),
    Row("families.profile_derivatives", ("calls", "self_ms"),
        "scenario_p50_ms, scenarios_per_s on families-scan", (FS,)),
    Row("families.max_residual", ("self_ms",),
        "scenario_p50_ms, scenarios_per_s on families-scan", (FS,)),
    Row("families.scan", ("ms_per_call", "self_ms"), "scenario_p90_ms on families-scan", (FS,)),
    Row("cli.run_scenario", ("self_ms",),
        "scenario_p50_ms on grid-residuals (its lightest scenarios)", (OS, GR, FS)),
    Row("cli.emit_report", ("self_ms",),
        "scenario_p50_ms on grid-residuals (its lightest scenarios)", (OS, GR, FS)),
)

# Metrics outside the span table: (name, unit, better, what it is).
EXTRA = (
    ("chart_core.coeff_rebuilds_per_curvature", "ratio", "lower",
     "levi_civita_coefficients calls inside curvature_from_coefficients per "
     "curvature_from_coefficients call (1 + 4 n_bar today); moves scenario_p90_ms on oracle-sweep"),
    *((f"{m}.errors", "count", "lower",
       f"typed warpcurv exceptions leaving a wrapped {m} call; moves failed_ratio")
      for m in MODULES),
    ("verify.oracle_max_dev", "abs", "lower",
     "largest structured-vs-oracle deviation over the oracle-backed rows of round 0"),
    ("trace.untraced_s", "s", "lower", "wall time of the traced scenario list, untraced"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall time of that list"),
)

# Layers a workload bypasses by design: they must record no calls there.
BYPASSED = {FS: ("chart_core", "connections", "structured"), OS: ("families",)}


def _unit(stat):
    return "count" if stat == "calls" else "ms"


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = [(f"{row.span}.{stat}", _unit(stat), "lower") for row in ROWS for stat in row.stats]
    out += [(name, unit, better) for name, unit, better, _ in EXTRA]
    return out


def span_names():
    """Every span name the table reads; install() must have produced each."""
    names = []
    for row in ROWS:
        names.extend(GROUPS.get(row.span, (row.span,)))
    return names


class LayerCheckError(RuntimeError):
    """A per-layer metric cannot be measured as the table says."""


def derive(rec, workload, scenario_meta):
    """Per-layer metric values from a traced run.

    `scenario_meta[sid] = (n_bar, points)` for every scenario id the recorder
    saw.  Raises LayerCheckError when a span in the table was never wrapped,
    records no calls on a workload that should exercise it, or records calls
    in a layer the workload bypasses.
    """
    known = set(rec.names)
    missing = [n for n in span_names() if n not in known]
    if missing:
        raise LayerCheckError(f"spans not wrapped (renamed in src/?): {missing}")
    stats, dur = summarize(rec)

    def group(span):
        calls = incl = self_s = 0
        for name in GROUPS.get(span, (span,)):
            c, i, s = stats.get(name, (0, 0.0, 0.0))
            calls, incl, self_s = calls + c, incl + i, self_s + s
        return calls, incl, self_s

    by_nbar = {}  # (name id, n_bar) -> [calls, inclusive s, points]
    for i in range(len(rec)):
        n_bar, points = scenario_meta[rec.scenario[i]]
        acc = by_nbar.setdefault((rec.name_id[i], n_bar), [0, 0.0, 0])
        acc[0] += 1
        acc[1] += dur[i]
        acc[2] += points

    values = {}
    for row in ROWS:
        calls, incl, self_s = group(row.span)
        if calls == 0 and workload in row.exercised_on:
            raise LayerCheckError(f"{row.span} recorded no calls on {workload}")
        for stat in row.stats:
            if stat == "calls":
                v = calls
            elif stat == "self_ms":
                v = 1e3 * self_s
            elif stat == "ms_per_call":
                v = 1e3 * incl / calls if calls else 0.0
            else:
                kind, k = stat.split(".nbar")
                c, s, pts = by_nbar.get((rec.intern(row.span), int(k)), (0, 0.0, 0))
                base = c if kind == "ms_per_call" else pts
                v = 1e3 * s / base if base else 0.0
            values[f"{row.span}.{stat}"] = v

    lcc = rec.intern("chart_core.levi_civita_coefficients")
    cfc = rec.intern("chart_core.curvature_from_coefficients")
    rebuilds = sum(1 for i in range(len(rec))
                   if rec.name_id[i] == lcc and ancestors_named(rec, i, cfc))
    curvatures = stats.get("chart_core.curvature_from_coefficients", (0,))[0]
    values["chart_core.coeff_rebuilds_per_curvature"] = rebuilds / curvatures if curvatures else 0.0
    for m in MODULES:
        values[f"{m}.errors"] = rec.errors.get(m, 0)

    for prefix in BYPASSED.get(workload, ()):
        hit = sorted(n for n, s in stats.items() if n.startswith(prefix + ".") and s[0])
        if hit:
            raise LayerCheckError(f"{workload} should bypass {prefix} but called {hit}")
    return values
