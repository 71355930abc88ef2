"""Smoke runs of the demo scripts, each in a fresh interpreter."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(path, tmp_path, env):
    argv = [sys.executable, str(path)]
    if '"--out"' in path.read_text(encoding="utf-8"):
        argv += ["--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(path, tmp_path, src_env):
    run_script(path, tmp_path, src_env)


def test_qhahn_spectrum_matches_closed_form(tmp_path, src_env):
    out = run_script(ROOT / "scripts" / "run_qhahn.py", tmp_path, src_env)
    rows = [line.split() for line in out.splitlines()
            if re.match(r"\s+\d+\s", line)]
    gaps = {int(r[0]): float(r[3]) for r in rows}
    assert sorted(gaps) == list(range(6))
    assert all(gaps[n] < 1e-10 for n in range(1, 6)), gaps
