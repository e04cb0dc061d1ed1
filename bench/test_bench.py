"""Self-test for the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(_run(workload, trace=0))
    _assert_metrics(result, SPEC["end_to_end"])
    for name in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
                 "peak_rss_mb", "pass_rate"):
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first = _result(_run(workload, trace=1))
    _assert_metrics(first, SPEC["per_layer"])
    second = _result(_run(workload, trace=1))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    drift = {name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
             for name in counts
             if first["metrics"][name]["value"] != second["metrics"][name]["value"]}
    assert not drift, drift


def test_layers_each_workload_moves():
    by_workload = {w: _result(_run(w, trace=1))["metrics"] for w in WORKLOADS}

    def value(workload: str, name: str) -> float:
        return by_workload[workload][name]["value"]

    assert value("gaps", "engine.edges.bu") > value("gaps", "engine.edges.llc")
    assert value("gaps", "engine.gap_edges.bu") > value("gaps", "engine.gap_edges.llc")
    assert value("gaps", "chart.preds_lookahead") > 0
    assert value("gaps", "chart.edges_duplicate") > 0
    assert value("pp_forest", "engine.unpack_calls") > 0
    assert value("pp_forest", "chart.edges_packed") > 0
    assert value("rescore", "semantics.combine_calls") > 0
    assert value("rescore", "scoring.cover_calls") > 0
    for workload in ("gaps", "rescore"):
        assert value(workload, "engine.unpack_calls") == 0
    for workload in ("gaps", "pp_forest"):
        assert value(workload, "semantics.combine_calls") == 0
        assert value(workload, "scoring.cover_calls") == 0
    for workload in ("pp_forest", "rescore"):
        assert value(workload, "chart.add_prediction_calls") == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
