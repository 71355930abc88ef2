#!/usr/bin/env python3
"""taucalc benchmark: one command for every metric of one workload.

    python3 perfbench/run.py --workload {spectrum,boundary,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root. It times a fresh interpreter importing
``taucalc.cli`` (``setup_s``), then runs the workload in a fresh worker
process (``worker.py``), prints an environment line, one line per metric
with its unit, and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--smoke`` runs one cycle of each phase, to check that
every metric is emitted. The full record (environment, failure kinds
and an example of each, spans of a traced run) goes to
``.perfbench_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("spectrum", "boundary", "cli")
SETUP_SAMPLES = 5
WORKER_SLACK_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def setup_seconds(samples: int) -> float:
    """Median wall time of a fresh interpreter importing taucalc.cli.

    One unmeasured import first, so bytecode compilation is not counted.
    """
    cmd = [sys.executable, "-c", "import taucalc.cli"]
    times = []
    for k in range(samples + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                       timeout=60)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle per phase")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "taucalc" / "__init__.py").is_file():
        print(f"perfbench: no taucalc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    setup_s = None
    if not args.trace:
        setup_s = setup_seconds(1 if args.smoke else SETUP_SAMPLES)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=args.seconds + WORKER_SLACK_S)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    record = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"workload {args.workload}: {result['attempted']} ops, "
          f"{result['failed']} failed {result['failures']}, "
          f"{result['bad_outputs']} bad outputs; "
          + ", ".join(f"{k}={v}" for k, v in sorted(result["info"].items())))
    for name, m in sorted(metrics.items()):
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": result["bad_outputs"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
