"""Tests of the benchmark itself: each workload once at a tiny capture length.

    python3 -m pytest perfbench/tests -q

Takes a few minutes; the repository's own suite does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)

TINY_S = {"takeover_4prn": 0.5, "replay_1prn": 0.5, "detector_sweep": 1.0}


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--duration", str(TINY_S[workload]))
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return info, result["metrics"]


def test_benchmark_json_matches_workloads():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload):
    info, metrics = _bench(workload, trace=0)
    assert info["seed"] == 1 and info["env"]["OPENBLAS_NUM_THREADS"] == "1"
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())
    assert 0 < info["base_rss_mb"] <= metrics["peak_rss_mb"]["value"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_has_every_layer_metric_and_span(workload):
    info, metrics = _bench(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    missing = set(WORKLOADS[workload].spans) - set(info["spans"])
    assert not missing, f"{workload}: spans not reached: {sorted(missing)}"
    for span in WORKLOADS[workload].spans:
        if span.startswith("cli.cmd_"):
            assert metrics[f"cli.{span[len('cli.cmd_'):]}.s"]["value"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "--workload", "replay_1prn", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
