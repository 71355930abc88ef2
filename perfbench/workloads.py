"""The benchmark's workloads: seeded inputs, one library call sequence per
op, and the checks every op's output must pass.

Each workload hands out its inputs one *cycle* at a time. A cycle holds
one op per input stratum, always in the same order, so every run
measures the same mix of problem sizes, with the same allocation history,
whatever the seed; the seed only moves each input within its stratum.
The library sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from taucalc import chain, cli, riccati, scenarios
from taucalc.gridfn import GridFunction

# Cap on orbit length for inputs meant to run to the delta tolerance; far
# above the ~1,030 points per branch that q = 0.97 needs, and checked.
ORBIT_CAP = 4000


class CheckFailed(Exception):
    """The program returned normally but its output is wrong."""


class OpFailed(Exception):
    """The program reported failure itself (a non-zero CLI exit code)."""


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict = field(default_factory=dict)


class Workload:
    """A source of op cycles; ``run`` is timed, ``check`` is not."""

    produces: tuple[str, ...] = ()   # accuracy metrics its ops record

    def cycle(self, rng) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, tracer):
        raise NotImplementedError

    def check(self, op: Op, result) -> dict:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove what the last op left on disk, also after a crash."""


def _strata(rng, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + (k + rng.random()) * width for k in range(count)]


def _branch_lengths(grid) -> list[int]:
    return [len(br) for br in grid.branches]


# ---------------------------------------------------------------------------
# spectrum: q-Hahn interval chains, dense-SVD spectrum vs the closed form
# ---------------------------------------------------------------------------

# Truncated regime: the orbit is cut where q^depth = TRUNC_TAIL, so the
# truncation error of the lowest eigenvalues is about 1.2 * TRUNC_TAIL for
# every q in the range (the documented accurate regime). Drawing depth
# independently of q would mix in cuts that are far too shallow (relative
# error 2e-2 at q=0.98, depth 200) or so deep that rounding dominates.
# The seed jitters q around fixed centres. The centres keep clear of the
# jump in SVD cost between N=604 and N=680, and keep the median and 75th
# percentile ops on fixed converged inputs, so those latencies are steady
# from seed to seed.
TRUNC_Q_CENTRES = (0.932, 0.94, 0.95, 0.97, 0.978)
TRUNC_Q_JITTER = 0.002
TRUNC_TAIL = 1e-6
# Converged regime: the orbit runs to the delta tolerance.
CONVERGED_Q = (0.9, 0.93, 0.95, 0.97)


def truncated_depth(q: float) -> int:
    return math.ceil(math.log(TRUNC_TAIL) / math.log(q))


class Spectrum(Workload):
    produces = ("spectrum_relerr_truncated", "spectrum_relerr_converged")

    def cycle(self, rng) -> list[Op]:
        qs = [c + rng.uniform(-TRUNC_Q_JITTER, TRUNC_Q_JITTER)
              for c in TRUNC_Q_CENTRES]
        ops = [Op("truncated", {"q": q, "depth": truncated_depth(q)})
               for q in qs]
        ops += [Op("converged", {"q": q, "depth": ORBIT_CAP})
                for q in CONVERGED_Q]
        return ops

    def run(self, op: Op, tracer):
        sc = scenarios.qhahn_chain(q=op.params["q"], depth=op.params["depth"],
                                   n_levels=4)
        return sc, chain.chain_eigenvalues(sc.levels[0], count=4)

    def check(self, op: Op, result) -> dict:
        sc, ev = result
        lengths = _branch_lengths(sc.grid)
        if op.kind == "truncated" and lengths != [op.params["depth"] + 1] * 2:
            raise CheckFailed(f"truncated orbit has lengths {lengths}")
        if op.kind == "converged" and max(lengths) > ORBIT_CAP:
            raise CheckFailed("orbit hit the depth cap before the tolerance")
        ev = np.asarray(ev)
        if ev.shape != (4,) or not np.all(np.isfinite(ev)):
            raise CheckFailed(f"eigenvalues not 4 finite numbers: {ev}")
        if np.any(np.diff(ev) < 0):
            raise CheckFailed(f"eigenvalues not ascending: {ev}")
        if abs(ev[0]) > 1e-8 * ev[1]:
            raise CheckFailed(f"lambda_0 = {ev[0]} is not zero")
        relerr = max(abs(ev[n] - sc.eigenvalue(n)) / sc.eigenvalue(n)
                     for n in (1, 2, 3))
        return {f"spectrum_relerr_{op.kind}": float(relerr)}


# ---------------------------------------------------------------------------
# boundary: orbit-infinite 2x2 resolvents of the regularized gauge system
# ---------------------------------------------------------------------------

# q stops at 0.97: at q = 0.99 the resolvent's d_inf is ~3.7e-13, below
# solve_system's singularity gate, so it raises SingularResolvent (and
# triangular_resolvent gives the same value); that is a documented gate.
BOUNDARY_Q = (0.8, 0.97)
BOUNDARY_STRATA = 8
BOUNDARY_B = (0.5, 2.0)
BOUNDARY_T = (0.25, 3.0)
CLOSED_FORM_GATE = 1e-9     # the acceptance suite's triangular-closed-form
RECURSION_GATE = 1e-10      # solve_system's and general_solution's own gates


def resolvent_gap(res_a, res_b) -> float:
    """Worst max-norm gap between two resolvents, scaled per branch."""
    worst = 0.0
    for ma, mb in zip(res_a.matrices, res_b.matrices):
        scale = max(1.0, float(np.max(np.abs(ma))))
        worst = max(worst, float(np.max(np.abs(ma - mb))) / scale)
    return worst


class Boundary(Workload):
    produces = ("resolvent_closed_form_gap",)

    def cycle(self, rng) -> list[Op]:
        ops = []
        for q in _strata(rng, *BOUNDARY_Q, BOUNDARY_STRATA):
            ops.append(Op("boundary", {
                "q": q,
                "b": float(rng.uniform(*BOUNDARY_B)),
                "psi_phi_ratio": float(rng.uniform(-1.0, 1.0)),
                "ts": tuple(float(t) for t in rng.uniform(*BOUNDARY_T, 3)),
            }))
        return ops

    def run(self, op: Op, tracer):
        q, b = op.params["q"], op.params["b"]
        sc = scenarios.constant_gauge_chain(q=q, b=b, c0=(1 - q * q) * b / 2,
                                            depth=ORBIT_CAP, n_levels=1)
        system = riccati.singular_darboux(
            scenarios.gauge_riccati_system(sc.levels[0]), 0.0, -1.0)
        res = riccati.resolvent(system)
        closed = riccati.triangular_resolvent(system)
        psi, phi = riccati.solve_system(
            system, (1.0, op.params["psi_phi_ratio"]), res=res)
        u0 = GridFunction.constant(system.grid, 0.0)
        family = [riccati.general_solution(system, u0, t)
                  for t in op.params["ts"]]
        return system, res, closed, psi, phi, family

    def check(self, op: Op, result) -> dict:
        system, res, closed, psi, phi, family = result
        if max(_branch_lengths(system.grid)) > ORBIT_CAP:
            raise CheckFailed("orbit hit the depth cap before the tolerance")
        if not res.converged:
            raise CheckFailed(f"resolvent not converged (Cauchy gap "
                              f"{res.cauchy_gap})")
        gap = resolvent_gap(res, closed)
        if not gap < CLOSED_FORM_GATE:
            raise CheckFailed(f"resolvent vs closed form gap {gap}")
        for fn in (psi, phi, *(s.u for s in family)):
            for v, m in zip(fn.values, fn.valid):
                if not m.any() or not np.all(np.isfinite(v[m])):
                    raise CheckFailed(f"non-finite or empty {fn.label}")
        step = riccati.step_residual(system, psi, phi)
        worst_family = max(s.residual for s in family)
        if not (step <= RECURSION_GATE and worst_family <= RECURSION_GATE):
            raise CheckFailed(f"recursion residuals {step}, {worst_family}")
        return {"resolvent_closed_form_gap": gap,
                "solve_step_residual": float(step),
                "family_residual": float(worst_family)}


# ---------------------------------------------------------------------------
# cli: documented entry points through taucalc.cli.main, in process
# ---------------------------------------------------------------------------

# The two chain configs of the CLI test-suite (explicit gauge, xi route).
CONFIGS = {
    "explicit": {
        "map": {"kind": "linear", "q": 0.7},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 20},
        "level0": {
            "B0": "0.09",
            "eta0": "1/(5.444444444444445 - 5.337690631808282*x^2)",
            "h0": "1",
            "f0": "-1/x - 2.2875816993464053*x",
        },
        "chain": {"levels": 2, "step": {"source": "explicit",
                                        "g": "2.0408163265306123",
                                        "d": 1.0}},
    },
    "xi": {
        "map": {"kind": "linear", "q": 0.5},
        "grid": {"mode": "semigroup", "bases": 1.0, "depth": 25},
        "level0": {"B0": "x^2", "eta0": "4*x^2", "h0": "1", "f0": "0"},
        "chain": {"levels": 2, "step": {"source": "xi", "d": 1.0,
                                        "xi0": 14.0}},
    },
}

# (span name, argv head, --depth range or None, files the command emits)
CLI_COMMANDS = (
    ("cli.grid", ("grid", "--preset", "linear"), (24, 36),
     ("grid.csv", "grid.json")),
    ("cli.grid", ("grid", "--preset", "fractional"), (20, 30),
     ("grid.csv", "grid.json")),
    ("cli.grid", ("grid", "--preset", "qhahn"), (112, 168),
     ("grid.csv", "grid.json")),
    ("cli.chain", ("chain", "--preset", "qhahn"), (112, 168),
     ("manifest.json",) + tuple(f"level_{k}.csv" for k in range(6))),
    ("cli.chain", ("chain", "--preset", "constant-gauge"), (16, 24),
     ("manifest.json",) + tuple(f"level_{k}.csv" for k in range(6))),
    ("cli.chain", ("chain", "--preset", "fractional"), (32, 48),
     ("manifest.json",) + tuple(f"level_{k}.csv" for k in range(6))),
    ("cli.chain_config", ("chain", "--config", "explicit"), (16, 24),
     ("manifest.json", "level_0.csv", "level_1.csv")),
    ("cli.chain_config", ("chain", "--config", "xi"), (20, 30),
     ("manifest.json", "level_0.csv", "level_1.csv", "gauge_0.csv",
      "gauge_1.csv")),
    ("cli.validate", ("validate",), None, ("validation.json",)),
)


def _parse_outputs(out_dir: Path, expected) -> None:
    missing = [name for name in expected if not (out_dir / name).is_file()]
    if missing:
        raise CheckFailed(f"missing outputs {missing}")
    for path in sorted(out_dir.iterdir()):
        text = path.read_text(encoding="utf-8")
        try:
            if path.suffix == ".json":
                json.loads(text)
            elif path.suffix == ".csv":
                rows = list(csv.reader(io.StringIO(text)))
                if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
                    raise ValueError("ragged or empty table")
        except ValueError as exc:
            raise CheckFailed(f"{path.name} does not parse: {exc}") from exc


class Cli(Workload):

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.configs = {}
        for name, data in CONFIGS.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            self.configs[name] = str(path)
        self._count = 0

    def cycle(self, rng) -> list[Op]:
        ops = []
        for kind, head, depths, expected in CLI_COMMANDS:
            argv = list(head)
            if argv[1:2] == ["--config"]:
                argv[2] = self.configs[argv[2]]
            if depths is not None:
                argv += ["--depth", str(int(rng.integers(depths[0],
                                                         depths[1] + 1)))]
            ops.append(Op(kind, {"argv": tuple(argv), "expected": expected}))
        return ops

    def run(self, op: Op, tracer):
        self._count += 1
        out_dir = self.workdir / f"op{self._count}"
        argv = [*op.params["argv"], "--out", str(out_dir)]
        sink = io.StringIO()
        with tracer.span(op.kind), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out_dir

    def check(self, op: Op, result) -> dict:
        code, out_dir = result
        if code != 0:
            raise OpFailed(f"exit {code}")
        _parse_outputs(out_dir, op.params["expected"])
        return {}

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir / f"op{self._count}", ignore_errors=True)


def make(name: str, workdir: Path):
    if name == "spectrum":
        return Spectrum()
    if name == "boundary":
        return Boundary()
    if name == "cli":
        return Cli(workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# fixed reference ops
# ---------------------------------------------------------------------------

def probe_ops() -> dict:
    """Fixed reference inputs for accuracy metrics a workload's own ops do
    not produce, so every workload reports every accuracy metric."""
    spectrum, boundary = Spectrum(), Boundary()
    return {
        "spectrum_relerr_truncated": [
            (spectrum, Op("truncated", {"q": q, "depth": truncated_depth(q)}))
            for q in (0.93, 0.955)],
        "spectrum_relerr_converged": [
            (spectrum, Op("converged", {"q": 0.9, "depth": ORBIT_CAP}))],
        "resolvent_closed_form_gap": [
            (boundary, Op("boundary", {"q": q, "b": 1.0,
                                       "psi_phi_ratio": 0.5,
                                       "ts": (0.5, 1.0, 2.0)}))
            for q in (0.8, 0.9, 0.97)],
    }


def first_eigen_call() -> float:
    """Seconds taken by the first chain_eigenvalues call in this process,
    on the acceptance suite's cross-method case."""
    level = scenarios.qhahn_chain(q=0.93, depth=200, n_levels=4).levels[0]
    t0 = time.perf_counter()
    chain.chain_eigenvalues(level, count=4)
    return time.perf_counter() - t0
