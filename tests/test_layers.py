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
from warpcurv import cli, errors  # noqa: E402


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
