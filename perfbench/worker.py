"""Run one workload in a fresh process and print its figures as JSON.

Started by ``run.py``; the last line of standard output is one JSON
object. Untraced (``--trace 0``): a warm-up cycle, then whole cycles of
ops until ``--seconds`` have passed (one cycle with ``--smoke``), each op
timed and then checked.
Traced (``--trace 1``): every op runs twice, untraced and with spans on,
in alternating order; the difference between the two is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from taucalc import validation  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
ACCURACY = ("spectrum_relerr_truncated", "spectrum_relerr_converged",
            "resolvent_closed_form_gap")
ACCURACY_PCT = 90.0
LAYER_SPANS = ("grid.build_grid", "scenarios.build",
               "chain.chain_eigenvalues", "riccati.gauge_system",
               "riccati.resolvent", "riccati.triangular_resolvent",
               "riccati.solve_system", "riccati.general_solution", "io.write",
               "cli.grid", "cli.chain", "cli.chain_config", "cli.validate")
LAYER_COUNTERS = {"grid.points": "count", "chain.factor_dim": "count",
                  "chain.factor_bytes_dense": "bytes",
                  "riccati.resolvent.steps": "count"}


@dataclass(slots=True)
class Record:
    """Outcome of one timed op."""

    op: workloads.Op
    seconds: float
    failure: str | None
    bad_output: bool
    values: dict


def execute(wl, op, tracer, examples: dict) -> Record:
    """Time one op, then check its output outside the timed region."""
    failure, bad, values = None, False, {}
    t0 = time.perf_counter()
    try:
        result = wl.run(op, tracer)
    except Exception as exc:  # a raise is a failed op, never fatal
        failure = f"raised {type(exc).__name__}"
        examples.setdefault(failure, traceback.format_exc(limit=4))
    seconds = time.perf_counter() - t0
    if failure is None:
        try:
            values = wl.check(op, result)
        except workloads.OpFailed as exc:
            failure = str(exc)
        except workloads.CheckFailed as exc:
            failure, bad = "bad output", True
            examples.setdefault(failure, f"{op}: {exc}")
    wl.cleanup()
    return Record(op, seconds, failure, bad, values)


def run_loop(wl, rng, seconds: float, smoke: bool, tracer, examples):
    """Whole cycles until ``seconds`` have passed (one cycle in smoke mode)."""
    records = []
    start = time.perf_counter()
    while not records or (not smoke
                          and time.perf_counter() - start < seconds):
        records += [execute(wl, op, tracer, examples) for op in wl.cycle(rng)]
    return records


def tail(latencies_ms):
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(latencies_ms)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(latencies_ms, pct))
    return 100.0, float(np.max(latencies_ms))


def worst(records, name, pct=100.0):
    """The ``pct`` percentile over ops of a per-op accuracy value."""
    values = [r.values[name] for r in records if name in r.values]
    return float(np.percentile(values, pct)) if values else None


def end_to_end(records) -> tuple[dict, dict]:
    lat_ms = np.array([r.seconds for r in records]) * 1e3
    failed = sum(r.failure is not None for r in records)
    pct, tail_ms = tail(lat_ms)
    metrics = {
        "ops_per_s": (len(records) / (lat_ms.sum() / 1e3), "1/s"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "ok_frac": ((len(records) - failed) / len(records), "ratio"),
    }
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r.seconds * 1e3)
    info = {"latency_tail_percentile": pct, "latency_samples": len(records),
            "fail_frac": failed / len(records),
            "latency_p50_ms_by_kind": {k: float(np.median(v))
                                       for k, v in sorted(by_kind.items())}}
    return metrics, info


def accuracy(wl, records, examples, info) -> dict:
    """Worst decile over ops of each accuracy metric (the maximum goes to
    ``info``); metrics the workload's own ops do not produce come from
    the fixed reference probe."""
    out = {}
    probes = workloads.probe_ops()
    for name in ACCURACY:
        source = records if name in wl.produces else []
        if not any(name in r.values for r in source):
            source = [execute(pw, op, tracing.Tracer(False), examples)
                      for pw, op in probes[name]]
            bad = [r.failure for r in source if r.failure]
            if bad:
                raise RuntimeError(f"reference probe for {name} failed: "
                                   f"{bad}; {examples}")
        out[name] = (worst(source, name, ACCURACY_PCT), "ratio")
        info[f"{name}_max"] = worst(source, name)
    return out


def peak_rss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> dict:
    """OpenBLAS thread counts of the numpy and scipy builds in use."""
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "git_sha": sha or None, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "clients": 1, "loop": "closed",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, out_dir: Path, workdir: Path) -> int:
    env = environment(args)
    wl = workloads.make(args.workload, workdir)
    examples: dict = {}
    off = tracing.Tracer(False)

    first_s = workloads.first_eigen_call()
    # Warm-up: one cycle on fixed reference inputs, never counted. The
    # peak RSS is read right after it: with the same allocation sequence
    # in every run it is steady, while the peak over the whole timed loop
    # moves with the seeded sizes through malloc's dynamic mmap threshold.
    for op in wl.cycle(np.random.default_rng(0)):
        execute(wl, op, off, {})
    peak_rss_mb = peak_rss()

    rng = np.random.default_rng(args.seed)
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        records, traced, metrics = traced_loop(wl, rng, args, examples,
                                               spans)
        _, info = end_to_end(records)
        info["spans_file"] = str(spans.relative_to(ROOT))
        metrics["chain.chain_eigenvalues.first_s"] = (first_s, "s")
        records = records + traced
    else:
        records = run_loop(wl, rng, args.seconds, args.smoke, off, examples)
        metrics, info = end_to_end(records)
        metrics.update(accuracy(wl, records, examples, info))
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        info["peak_rss_mb_whole_run"] = peak_rss()
        info["chain.chain_eigenvalues.first_s"] = first_s
        for extra in ("solve_step_residual", "family_residual"):
            if any(extra in r.values for r in records):
                info[f"{extra}_max"] = worst(records, extra)

    print(json.dumps({
        "env": env,
        "attempted": len(records),
        "failed": sum(r.failure is not None for r in records),
        "bad_outputs": sum(r.bad_output for r in records),
        "failures": dict(Counter(r.failure for r in records if r.failure)),
        "examples": examples,
        "ops_by_kind": dict(Counter(r.op.kind for r in records)),
        "info": info,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_loop(wl, rng, args, examples, spans: Path):
    """Run each op twice, untraced and traced in alternating order, until
    ``--seconds`` have passed; then time each validation criterion on
    fresh fixtures. Pairing the two runs of an op keeps drift in machine
    speed out of the overhead estimate. Returns the untraced and traced
    records and the per-layer metrics."""
    tracer = tracing.Tracer(True)
    off = tracing.Tracer(False)
    untraced, traced = [], []

    def run_traced(op):
        tracer.op = len(traced)
        tracer.install()
        try:
            traced.append(execute(wl, op, tracer, examples))
        finally:
            tracer.uninstall()
            tracer.op = None

    start = time.perf_counter()
    while not traced or (not args.smoke
                         and time.perf_counter() - start < args.seconds):
        for op in wl.cycle(rng):
            if len(traced) % 2:
                run_traced(op)
                untraced.append(execute(wl, op, off, examples))
            else:
                untraced.append(execute(wl, op, off, examples))
                run_traced(op)

    criteria = {}
    tracer.install()
    try:
        for name in validation.CRITERIA:
            with tracer.span(f"validation.{name}") as span:
                validation.run_criteria([name], data=validation.SuiteData())
            criteria[name] = (span.end - span.start, "s")
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(LAYER_SPANS, LAYER_COUNTERS, len(traced))
    metrics.update({f"validation.{k}.s": v for k, v in criteria.items()})
    metrics["trace.overhead_frac"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
        - 1.0, "ratio")
    metrics["trace.spans_per_op"] = (
        sum(s.op is not None for s in tracer.spans) / len(traced), "count")
    tracer.write(spans)
    return untraced, traced, metrics


if __name__ == "__main__":
    raise SystemExit(main())
