"""Smoke test of the benchmark itself, at tiny input scale.

    python3 -m pytest perfbench/test_perfbench.py

Every workload is run untraced and traced; the result line must carry every
metric of BENCHMARK.json with its unit, and every recorded span must lie
inside its parent with a self time no larger than its duration.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_has_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        spans_file = ROOT / ".perfbench" / "results" / f"{workload}-seed0-trace1.spans.jsonl"
        spans = {}
        for line in spans_file.read_text().splitlines():
            span = json.loads(line)
            spans[(span["command"], span["id"])] = span
        assert spans
        for span in spans.values():
            assert span["start"] <= span["end"]
            assert span["self_s"] <= span["end"] - span["start"]
            parent = spans.get((span["command"], span["parent"]))
            if parent is not None:
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "readme-compare", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
