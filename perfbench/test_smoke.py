"""Smoke test of the benchmark: every metric named in BENCHMARK.json is
emitted, with its unit, by one quick run of each workload and mode.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*BENCH["command"], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"]
              for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted)
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit, name
        assert math.isfinite(got[name]["value"]), name
        # the human-readable report prints the same metric with its unit
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines()), name
    if not trace:
        ok = (result["attempted"] - result["failed"]) / result["attempted"]
        assert got["ok_frac"]["value"] == ok


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "spectrum", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
