"""The work of each benchmark workload, counted: every per-layer metric
whose unit is `count`, from one traced run of

    python3 bench/run.py --workload W --seed 7 --seconds 0.2 --trace 1 --tiny

compared with `tests/golden/work_counts.json`. A change that makes the
parser do more or less work (edges, predictions, unifications, renames,
spans) moves a count here. After an intended move, rewrite the file with

    PYTHONPATH=src python tests/test_work_counts.py

which prints each count it moves as `workload name old -> new`, and say
in CHANGES.md which counts moved and why.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "work_counts.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def work_counts(workload: str) -> dict[str, float]:
    """The count metrics of one tiny traced run of the workload."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_match_golden(workload):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]
    assert work_counts(workload) == expected


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    new = {w: work_counts(w) for w in WORKLOADS}
    for w, counts in new.items():
        for name, value in counts.items():
            before = old.get(w, {}).get(name)
            if before != value:
                print(f"{w} {name} {before} -> {value}")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
