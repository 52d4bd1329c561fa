"""The benchmark's own tests: tiny smoke runs and the output checks.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import os

import pytest

import run
import spans
import workloads


@pytest.fixture(scope="module")
def tiny_outputs():
    """One untraced tiny repetition per workload: (ops, per-op results)."""
    out = {}
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, 5, tiny=True)
        out[name] = (ops, run.run_rep({"ops": ops, "trace": False}, name)["ops"])
    return out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_checks_and_reports_every_metric(name, trace):
    summary = run.run_workload(name, 3, 0.0, trace, tiny=True)
    assert summary["messages"] == []
    line = run.result_line(summary, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = spans.LAYER_METRICS if trace else run.END_TO_END
    assert list(line["metrics"]) == [metric for metric, _, _ in expected]
    for metric, unit, _ in expected:
        assert line["metrics"][metric]["unit"] == unit


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_outputs_match_their_own_reference(tiny_outputs, name):
    ops, results = tiny_outputs[name]
    reference = json.loads(json.dumps(workloads.extract(name, results)))
    assert workloads.check(name, ops, results, reference) == ([], 0.0)


@pytest.mark.parametrize(
    "name, locate",
    [
        ("cost_points", lambda ref: (ref["points"][0]["breakdown"], "total")),
        ("sweep", lambda ref: (ref["curve"][0], 2)),
        ("schedule", lambda ref: (ref, "combined_cumulative")),
    ],
)
def test_check_rejects_total_perturbed_by_one_part_per_million(tiny_outputs, name, locate):
    ops, results = tiny_outputs[name]
    reference = copy.deepcopy(workloads.extract(name, results))
    holder, key = locate(reference)
    holder[key] *= 1.0 + 1e-6
    failures, max_dev = workloads.check(name, ops, results, reference)
    assert failures and failures[0][0] == "op0"
    assert max_dev == pytest.approx(1e-6, rel=1e-3)


def test_check_rejects_changed_exit_code(tiny_outputs):
    ops, results = tiny_outputs["cost_points"]
    reference = copy.deepcopy(workloads.extract("cost_points", results))
    reference["points"][1]["exit_code"] = 3
    failures, _ = workloads.check("cost_points", ops, results, reference)
    assert [unit for unit, _ in failures] == ["op1"]


def test_invariants_reject_broken_savings(tiny_outputs):
    ops, results = tiny_outputs["schedule"]
    broken = copy.deepcopy(results)
    savings = broken[0]["results"]["savings_vs"]
    savings["mtp"] += 1e-6
    failures, _ = workloads.check("schedule", ops, broken, None)
    assert failures and "savings_vs[mtp]" in failures[0][1]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
