"""In-memory spans around the library's public layer calls.

A traced run wraps a fixed list of public taucalc functions so that
every call records a span: name, start, end, parent span and op id. The
benchmark opens spans of its own with ``Tracer.span`` around its calls
into the CLI and the validation suite. Wrapping replaces the function
object in every loaded ``taucalc`` module namespace that binds it, so
calls one layer makes into another (a scenario builder calling
``build_grid``) are recorded too; nothing in the library's source
changes, and an untraced run installs nothing. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _grid_points(args, kwargs, result):
    return {"grid.points": sum(len(br) for br in result.branches)}


def _factor_size(args, kwargs, result):
    level = args[0] if args else kwargs["level"]
    n = sum(len(br) for br in level.grid.branches)
    # the dense factor assembled by chain_eigenvalues is n x (n+1) float64
    return {"chain.factor_dim": n, "chain.factor_bytes_dense": 8 * n * (n + 1)}


def _resolvent_steps(args, kwargs, result):
    return {"riccati.resolvent.steps": result.steps}


# (span name, module, attribute, counter hook)
TARGETS = (
    ("grid.build_grid", "taucalc.grid", "build_grid", _grid_points),
    ("scenarios.build", "taucalc.scenarios", "qhahn_chain", None),
    ("scenarios.build", "taucalc.scenarios", "constant_gauge_chain", None),
    ("scenarios.build", "taucalc.scenarios", "fractional_chain", None),
    ("chain.chain_eigenvalues", "taucalc.chain", "chain_eigenvalues",
     _factor_size),
    ("riccati.gauge_system", "taucalc.scenarios", "gauge_riccati_system",
     None),
    ("riccati.gauge_system", "taucalc.riccati", "singular_darboux", None),
    ("riccati.resolvent", "taucalc.riccati", "resolvent", _resolvent_steps),
    ("riccati.triangular_resolvent", "taucalc.riccati",
     "triangular_resolvent", None),
    ("riccati.solve_system", "taucalc.riccati", "solve_system", None),
    ("riccati.general_solution", "taucalc.riccati", "general_solution", None),
    ("io.write", "taucalc.io", "write_grid_csv", None),
    ("io.write", "taucalc.io", "write_function_csv", None),
    ("io.write", "taucalc.io", "write_level_csv", None),
    ("io.write", "taucalc.io", "write_chain", None),
    ("io.write", "taucalc.io", "write_json", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    failed: bool
    counters: dict | None


class Tracer:
    """Collects spans while enabled; ``span`` is a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.op,
                      False, None)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
                if hook is not None:
                    record.counters = hook(args, kwargs, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in each loaded taucalc module that binds it."""
        if not self._patches:
            modules = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == "taucalc"
                                             or n.startswith("taucalc."))]
            for name, module, attr, hook in TARGETS:
                original = getattr(sys.modules[module], attr)
                wrapped = self._wrap(name, original, hook)
                self._patches += [(mod, key, wrapped, original)
                                  for mod in modules
                                  for key, value in vars(mod).items()
                                  if value is original]
        for mod, key, wrapped, _ in self._patches:
            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, _, original in self._patches:
            setattr(mod, key, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - self._t0,
                    "end": s.end - self._t0, "parent": s.parent, "op": s.op,
                    "failed": s.failed, "counters": s.counters}) + "\n")

    def layer_metrics(self, span_names, counters: dict, n_ops: int) -> dict:
        """Per-layer ``{metric: (value, unit)}`` over spans inside timed ops.

        ``<name>.s`` and ``<name>.self_s`` are busy seconds per op
        (inclusive and self time), ``.calls`` and ``.failures`` are counts;
        each counter (name -> unit) is averaged over the calls reporting it.
        """
        own = self.self_times()
        total = defaultdict(float)
        self_total = defaultdict(float)
        calls = defaultdict(int)
        failures = defaultdict(int)
        counter_sum = defaultdict(float)
        counter_calls = defaultdict(int)
        for s, t_self in zip(self.spans, own):
            if s.op is None:
                continue
            total[s.name] += s.end - s.start
            self_total[s.name] += t_self
            calls[s.name] += 1
            failures[s.name] += s.failed
            for key, value in (s.counters or {}).items():
                counter_sum[key] += value
                counter_calls[key] += 1
        out = {}
        for name in span_names:
            out[f"{name}.s"] = (total[name] / n_ops, "s")
            out[f"{name}.self_s"] = (self_total[name] / n_ops, "s")
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.failures"] = (failures[name], "count")
        for key, unit in counters.items():
            mean = (counter_sum[key] / counter_calls[key]
                    if counter_calls[key] else 0.0)
            out[key] = (mean, unit)
        return out
