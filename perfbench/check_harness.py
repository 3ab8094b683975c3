"""Tests of the benchmark harness itself, at tiny sizes.

Not collected by the repository's default ``pytest`` run (they start about
a dozen server processes); run them with::

    python3 -m pytest -q perfbench/check_harness.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from loadgen import Call  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import WORKLOADS as SPECS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_tiny(tmp_path, workload, trace, *extra):
    """One tiny run; returns (exit code, result line, appended record)."""
    out = tmp_path / "results.jsonl"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--tiny", "--out", str(out),
         "--workdir", str(tmp_path / "work"), *extra],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    lines = completed.stdout.strip().splitlines()
    assert lines, completed.stderr
    records = out.read_text().splitlines()
    return completed.returncode, json.loads(lines[-1]), json.loads(records[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(tmp_path, workload, trace):
    code, result, record = run_tiny(tmp_path, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0, record["defects"]
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert np.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0
    assert record["host"]["nproc"] >= 1 and record["seed"] == 3
    assert all(
        phase["sent"] == phase["succeeded"] + phase["failed"] for phase in record["phases"].values()
    )
    if trace:
        # Self times never add up to more than the traced serving window.
        layers = record["layers"]
        assert sum(layers["self_ms"].values()) <= layers["serving_window_ms"] * (1 + 1e-9)
        assert 0 < result["metrics"]["bench.traced_busy_share"]["value"] <= 1


def test_overlap_reproducer_judges_its_mixed_schedule(tmp_path):
    # At the seed overlapping reads and writes may fail (run.py, defect 1);
    # whatever happens, the failures and the exit code must agree.
    code, result, record = run_tiny(tmp_path, "churn-overlap", 0)
    assert "churn-overlap" not in WORKLOADS and SPECS["churn-overlap"].mixed_rate
    assert record["phases"]["mixed"]["sent"] > 0
    assert (code == 0) == result["correct"] == (result["failed"] == 0)


def test_injected_wrong_answer_is_counted(tmp_path):
    code, result, record = run_tiny(tmp_path, "lastfm-minhash", 0, "--inject-wrong", "7")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert any("is not a point" in defect for defect in record["defects"])


def _read(query_index, indices, sent=1.0, done=2.0):
    body = {"indices": indices, "found": bool(indices), "value": None}
    return Call("read", {"query": query_index}, sent, sent, done, 200, body, 0, 0)


def test_empty_answer_for_a_live_own_point_is_wrong():
    base = [frozenset({1, 2, 3}), frozenset({4, 5, 6})]
    oracle = Oracle("set", 0.2, base)
    assert oracle.check_read(_read(0, [0]), [base[0]], 1, True)
    assert not oracle.check_read(_read(0, []), [base[0]], 1, True)
    # Once a delete of the query's own slot was sent, an empty answer may be right.
    delete = Call("delete", {"index": 1}, 3.0, 3.0, 4.0, 200, {}, 0, 0)
    assert oracle.record_mutation(delete)
    assert oracle.check_read(_read(1, [], sent=3.5, done=5.0), [base[1]], 1, True)
    assert not oracle.check_read(_read(1, [1], sent=5.0, done=6.0), [base[1]], 1, True)


def test_dense_recall_counts_empty_answers():
    base = [np.zeros(3), np.full(3, 10.0)]
    oracle = Oracle("dense", 1.0, base)
    near, far = np.full(3, 0.1), np.full(3, 5.0)
    assert oracle.check_read(_read(0, [0]), [near], 1, True)
    assert oracle.check_read(_read(0, []), [near], 1, True)
    assert oracle.check_read(_read(0, []), [far], 1, True)  # nothing within radius
    assert oracle.recall() == pytest.approx(0.5)


def test_missing_sources_exit_without_result(tmp_path):
    for name in ("run.py", "workloads.py", "loadgen.py", "oracle.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0 and completed.stdout == ""


def _span(name_id, start, end, span_id, parent, thread=1):
    return [name_id, start, end, span_id, parent, 1, thread]


def test_self_time_nested_and_concurrent_spans():
    names = ["outer", "inner", "worker"]
    spans = np.array([
        _span(0, 0, 100, 1, 0),          # outer: 0..100
        _span(1, 10, 30, 2, 1),          # inner child: 10..30
        _span(2, 40, 80, 3, 1, 2),       # worker child on another thread
        _span(2, 60, 90, 4, 1, 3),       # a second worker, overlapping
    ], dtype=np.int64)
    self_ms, total_ms, calls, busy_ms = tracer.self_times(spans, names)
    ns = {name: value * 1e6 for name, value in self_ms.items()}
    # outer holds 0..10, 30..40 and 90..100; workers split 60..80 evenly.
    assert ns["outer"] == pytest.approx(30)
    assert ns["inner"] == pytest.approx(20)
    assert ns["worker"] == pytest.approx(50)
    assert sum(ns.values()) == pytest.approx(busy_ms * 1e6) == pytest.approx(100)
    assert calls == {"outer": 1, "inner": 1, "worker": 2}
    assert total_ms["worker"] * 1e6 == pytest.approx(70)


def test_compare_verdicts():
    import compare

    metric = {"name": "latency_ms", "better": "lower", "bound": 0.1}

    def runs(values, failed=0):
        return [{"seed": i, "metrics": {"latency_ms": {"value": v}},
                 "phases": {"open": {"sent": 100, "failed": failed}}}
                for i, v in enumerate(values)]

    def verdict(new_values, failed=0):
        return compare.verdict(metric, base, runs(new_values, failed))[-1]

    base = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    assert verdict([80, 81, 79, 80, 82, 78, 80, 81, 79, 80]) == "better"
    # A gain does not count when more operations fail.
    assert verdict([80, 81, 79, 80, 82, 78, 80, 81, 79, 80], failed=1) == "unchanged"
    assert verdict([120] * 10) == "worse"
    assert verdict([101, 100, 99, 100, 103, 98, 99, 101, 100, 100]) == "unchanged"
    assert verdict([70, 130, 75, 125, 80, 120, 100, 100, 90, 110]) == "unresolved"
