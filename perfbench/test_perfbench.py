"""Self-test of the benchmark at a tiny scale.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit
and a sample count, that a wrong answer counts as a failed op, and that
the best-of-passes statistic takes per-query minima.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import harness
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    cfg = harness.Config(
        cache_dir=tmp_path_factory.mktemp("perfbench"), sf=0.02, level=13, builds=2, seconds=0.05
    )
    return cfg, harness.make_inputs(cfg)


def _check_names(metrics, spec):
    assert sorted(m.name for m in metrics) == sorted(s["name"] for s in spec)
    units = {s["name"]: s["unit"] for s in spec}
    for m in metrics:
        assert m.unit == units[m.name], m.name
        assert m.samples >= 1 and m.basis, m.name
        assert np.isfinite(m.value), m.name


def test_best_of_passes_takes_per_query_minima():
    times = np.array([[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 1.5, 0.5]])
    assert harness.best_of_passes(times).tolist() == [2.0, 1.0, 0.5]
    m = {x.name: x for x in harness.latency_metrics(times)}
    assert m["select_qps"].value == pytest.approx(3 / 3.5)
    assert m["select_p50_ms"].value == pytest.approx(1000.0)
    assert m["select_p50_ms"].samples == 3 and "3 passes" in m["select_p50_ms"].basis


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_end_to_end_metrics_are_all_emitted(tiny, workload):
    cfg, inputs = tiny
    metrics, passes, attempted, failed = harness.end_to_end(workload, inputs, cfg)
    _check_names(metrics, SPEC["end_to_end"])
    assert failed == 0
    assert attempted == passes.times.size + cfg.builds
    assert len(passes.times) >= harness.WORKLOADS[workload]
    out = json.loads(run.result_json(metrics, attempted, failed))
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True


def test_corrupted_reference_is_a_failed_op(tiny):
    cfg, inputs = tiny
    h = inputs.skew[0]
    ref = dict(inputs.refs[h])
    ref[harness.COUNT_KEY] += 1
    bad = replace(inputs, refs=inputs.refs[:h] + [ref] + inputs.refs[h + 1:])
    _, passes, attempted, failed = harness.end_to_end("cells_l17", bad, cfg)
    # The skew polygon sits once in the base set and SKEW_REPS times after it.
    assert failed == len(passes.times) * (1 + harness.SKEW_REPS)
    assert json.loads(run.result_json([], attempted, failed))["correct"] is False


def test_undercounting_the_polygon_is_a_failed_op(tiny):
    _, inputs = tiny
    h = 0
    ans = dict(inputs.refs[h])
    assert harness.answer_ok(ans, inputs.refs[h], inputs.exact[h])
    assert not harness.answer_ok(ans, inputs.refs[h], ans[harness.COUNT_KEY] + 1)


def test_traced_run_emits_every_layer_metric(tiny):
    import layers

    cfg, inputs = tiny
    metrics, attempted, failed, tracer, _ = layers.traced_run("cells_l17", inputs, cfg, run.ROOT)
    _check_names(metrics, SPEC["per_layer"])
    assert failed == 0 and attempted > 0
    by_name = {m.name: m.value for m in metrics}
    assert by_name["covering.calls_per_op"] == 0.0  # no covering inside a cells_l17 op
    assert 0.5 < by_name["covering.share"] <= 1.0  # the polygon path is mostly covering
    spans = tracer.spans
    assert all(s[4] >= s[3] for s in spans)
    assert all(spans[s[1]][2] == s[2] for s in spans if s[1] is not None)
