"""Tests of the benchmark itself.

    python -m pytest perfbench/test_smoke.py

The smoke test runs each workload to 2 h of model time instead of 10 h, on
seed 1 so that only the invariant checks apply and with the error report
off, and asserts that the result line carries every metric BENCHMARK.json
names, with its unit.  Two more tests pin the tracer's self time and its
parent links across pool threads.
"""

import json
import os
from dataclasses import replace

import pytest

import run as bench
import tracing

SPEC_PATH = os.path.join(bench.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match_spec(spec):
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_result_line_has_every_metric(spec, workload, trace, monkeypatch, capsys):
    # the pinned reference is at 10 h, so the error report is off at 2 h
    monkeypatch.setattr(bench, "HORIZON_S", 7200.0)
    monkeypatch.setattr(bench, "WORKLOADS", {
        name: replace(w, error_report=False) for name, w in bench.WORKLOADS.items()})
    monkeypatch.setattr(bench, "MIN_STEPS", 0)
    assert bench.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        if not trace:
            assert m["value"] > 0, name


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [tracing.Span(1, 0, "parent", 0.0, 10.0),
             tracing.Span(2, 1, tracing.NODE_SPAN, 1.0, 6.0),
             tracing.Span(3, 1, tracing.NODE_SPAN, 2.0, 7.0),   # overlaps span 2
             tracing.Span(4, 1, tracing.NODE_SPAN, 8.0, 9.0)]
    summary = tracing.Summary(spans)
    assert summary.self_s["parent"] == pytest.approx(10.0 - 7.0)
    assert summary.pooled_wall_s["parent"] == pytest.approx(10.0)
    assert summary.total_s[tracing.NODE_SPAN] == pytest.approx(11.0)


def test_pool_tasks_inherit_submitting_span():
    tracer = tracing.Tracer()

    def submit_all():
        with tracer.executor_class()(max_workers=2) as pool:
            return list(pool.map(lambda x: x * x, range(4)))

    assert tracer.wrap("parent", submit_all)() == [0, 1, 4, 9]
    parent = next(s for s in tracer.spans if s.name == "parent")
    nodes = [s for s in tracer.spans if s.name == tracing.NODE_SPAN]
    assert len(nodes) == 4 and all(s.parent == parent.sid for s in nodes)
