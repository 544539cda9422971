"""Tests of the benchmark itself: generators, verdicts, tracing, metric names.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import layers, tracing  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.scenarios import WORKLOADS, generate_round  # noqa: E402
from perfbench.worker import Runner  # noqa: E402
from warpcurv import cli, errors  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    for rnd in (0, 3):
        assert (generate_round(workload, 5, rnd, ROOT)
                == generate_round(workload, 5, rnd, ROOT))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seeds_and_rounds_give_other_inputs_of_the_same_shape(workload):
    a = generate_round(workload, 5, 1, ROOT)
    b = generate_round(workload, 6, 1, ROOT)
    c = generate_round(workload, 5, 2, ROOT)
    texts = lambda scs: [s.text for s in scs if not s.sid.startswith("golden/")]  # noqa: E731
    assert texts(a) != texts(b) and texts(a) != texts(c)
    shape = lambda scs: sorted((s.task, s.expect) for s in scs)  # noqa: E731
    assert shape(a) == shape(b) == shape(c)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_expected_verdicts_hold_on_a_small_seed(workload):
    runner = Runner(cli, errors)
    for sc in generate_round(workload, 2, 0, ROOT):
        runner.run(sc)
    assert runner.failed == 0, runner.problems
    assert runner.attempted == len(generate_round(workload, 2, 0, ROOT))


def test_a_wrong_expectation_is_counted_as_failed():
    sc = generate_round("grid-residuals", 2, 0, ROOT)[-1]
    wrong = type(sc)(sc.sid, sc.text, "fail" if sc.expect == "pass" else "pass", sc.task)
    runner = Runner(cli, errors)
    runner.run(wrong)
    assert runner.failed == 1


def test_tracing_records_nested_spans_and_restores_functions():
    from warpcurv import chart_core, connections

    original = connections.levi_civita_coefficients
    rec = tracing.SpanRecorder()
    uninstall = tracing.install(rec)
    try:
        assert connections.levi_civita_coefficients is chart_core.levi_civita_coefficients
        assert connections.levi_civita_coefficients is not original
        rec.begin_scenario(0)
        sc = next(s for s in generate_round("grid-residuals", 2, 0, ROOT)
                  if s.task == "scalar-check")
        Runner(cli, errors).run(sc)
    finally:
        uninstall()
    assert connections.levi_civita_coefficients is original
    stats, dur = tracing.summarize(rec)
    for calls, incl, self_s in stats.values():
        assert calls > 0 and 0.0 <= self_s <= incl + 1e-12
    assert stats["cli.run_scenario"][0] == 1
    assert min(dur) >= 0.0


def test_derive_fails_loudly_when_a_layer_is_not_exercised():
    rec = tracing.SpanRecorder()
    uninstall = tracing.install(rec)
    try:
        rec.begin_scenario(0)
        sc = generate_round("families-scan", 2, 0, ROOT)[0]
        Runner(cli, errors).run(sc)
    finally:
        uninstall()
    with pytest.raises(layers.LayerCheckError):
        layers.derive(rec, "oracle-sweep", {0: (sc.n_bar, sc.points)})


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
