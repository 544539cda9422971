"""The benchmark's per-layer table still matches the library's call paths.

Every span that perfbench/layers.py reads must be wrapped and exercised on
the workloads that name it, so a renamed or bypassed function shows up here
and not only in a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import layers, tracing  # noqa: E402
from perfbench.scenarios import generate_round  # noqa: E402
from perfbench.worker import Runner  # noqa: E402
from warpcurv import cli, errors, exprs, families  # noqa: E402


@pytest.mark.parametrize("workload", ["oracle-sweep", "grid-residuals", "families-scan"])
def test_round_zero_exercises_every_layer(workload):
    scenarios = generate_round(workload, 11, 0, ROOT)
    runner = Runner(cli, errors)
    rec = tracing.SpanRecorder()
    uninstall = tracing.install(rec)
    try:
        for k, sc in enumerate(scenarios):
            rec.begin_scenario(k)
            runner.run(sc)
    finally:
        uninstall()
    assert runner.failed == 0, runner.problems
    meta = {k: (sc.n_bar, sc.points) for k, sc in enumerate(scenarios)}
    values = layers.derive(rec, workload, meta)  # raises LayerCheckError
    if workload == "families-scan":
        # t-grid derivatives come from one batched walk per expression; the
        # only scalar jets left are the RK4 cross-checks' initial data
        assert values["exprs.eval_jet.calls"] == values["families.rk4_integrate.calls"]
    else:
        # the oracle builds each point's coefficient field exactly once
        assert values["chart_core.coeff_rebuilds_per_curvature"] == 1.0


def test_family_checks_walk_profile_grids_for_values_only(monkeypatch):
    # check_positive reads profile values and ode_cross_check compares values
    # on its RK4 grid, so neither walks a grid at order 2; the cross-check's
    # initial value and slope are one order-2 walk of a single point
    # (eval_jet), and the residual rows (profile_derivatives) stay order 2
    walks = []
    eval_stack = exprs.eval_stack

    def recording(trees, names, pts, order=2):
        callers, frame = set(), sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        walks.append((order, len(pts), callers))
        return eval_stack(trees, names, pts, order)

    monkeypatch.setattr(exprs, "eval_stack", recording)
    # every closed-form family steps its ODE as coefficients, the exact RK4
    # affine map, and not a right-hand-side callable
    stepped = []
    rk4_integrate = families.rk4_integrate

    def recording_rk4(rhs, *args):
        stepped.append((sys._getframe(1).f_code.co_name, rhs))
        return rk4_integrate(rhs, *args)

    monkeypatch.setattr(families, "rk4_integrate", recording_rk4)
    kinds = set()
    for sc in generate_round("families-scan", 11, 0, ROOT):
        cfg = cli.parse_scenario(sc.text)
        if cfg.task == "family-verify":
            kinds.add(cfg.family["kind"])
            assert cli.run_scenario(cfg).all_passed
    assert kinds == set(cli.FAMILY_GENERATORS)
    positivity = [w for w in walks if "check_positive" in w[2]]
    cross = [w for w in walks if "ode_cross_check" in w[2]]
    residuals = [w for w in walks if "profile_derivatives" in w[2]]
    assert positivity and all(order == 0 for order, _, _ in positivity)
    assert sorted({(order, n) for order, n, _ in cross}) == [(0, 1001), (2, 1)]
    assert all("eval_jet" in callers for order, _, callers in cross if order)
    assert residuals and all(order == 2 for order, _, _ in residuals)
    coeffs = [rhs for caller, rhs in stepped if caller == "ode_cross_check"]
    assert coeffs and len(coeffs) == len(cross) // 2
    assert all(type(rhs) is tuple and len(rhs) == 3
               and all(type(c) is float for c in rhs) for rhs in coeffs)
