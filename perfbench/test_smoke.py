"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload for one second in both modes and checks the output
contract in BENCHMARK.json, the nesting of the traced spans, and that
per-span self times add up to the traced wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import workloads
from tracer import read_spans

RUN = str(workloads.BENCH_DIR / "run.py")
SPEC = json.loads((workloads.REPO_ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd=workloads.REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_prints_every_metric(workload, trace):
    completed = run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace),
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert lines[0].startswith("# commit ")
    assert lines[1].startswith("# python ") and "cpu_count" in lines[1]
    assert "loadavg" in lines[1]

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = set(lines[:-1])
    for metric in spec:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert isinstance(measured["value"], (int, float))
        assert (
            f"   {metric['name']} {measured['value']!r} {metric['unit']}"
            in printed
        )
    if not trace:
        for name in ("norm_epochs_per_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
        assert "   report_error_rate 0.0 ratio" in printed
        return

    header, spans = read_spans(
        workloads.OUT_DIR / f"spans-{workload}-seed3.jsonl"
    )
    child_ns = [0] * len(spans)
    for name, start, end, parent, epoch in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_epoch = spans[parent]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])
            child_ns[parent] += end - start
            assert p_epoch in (-1, epoch)
    self_ns = sum(
        end - start - child for (_, start, end, _, _), child in
        zip(spans, child_ns)
    )
    assert abs(self_ns - header["wall_ns"]) <= 0.01 * header["wall_ns"]
    assert any(epoch >= 0 for *_, epoch in spans)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(workloads.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        workloads.BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sss-partial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        check=False,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
