"""Truncated numerical orbits of a bijection.

An :class:`OrbitGrid` holds one or two truncated orbits of a
:class:`~taucalc.maps.TauMap` together with the detected limit point.
Three modes are supported:

* ``semigroup`` -- forward orbit of a single base,
* ``interval``  -- the union of the forward orbits of two bases sharing
  a limit (the numerical stand-in for an interval of integration),
* ``group``     -- a two-sided orbit of a single base.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import CoincidentOrbits, LimitMismatch, ZeroDivisor
from .maps import LimitResult, TauMap, limit_point

DEFAULT_MAX_DEPTH = 512
DEFAULT_DELTA_TOL = 1e-15
DEFAULT_FIXED_POINT_TOL = 1e-13

SEMIGROUP = "semigroup"
INTERVAL = "interval"
GROUP = "group"


@dataclass(frozen=True, eq=False)
class OrbitBranch:
    """A single truncated orbit, ordered base-first along forward iteration.

    ``role`` is "b" for a branch whose measure enters positively, "a" for
    the subtracted branch of an interval grid, and "group" for a two-sided
    orbit.  For a group branch ``base_index`` locates the base point.
    """

    points: np.ndarray
    limit: float
    role: str
    base_index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        self.points.setflags(write=False)

    @property
    def deltas(self) -> np.ndarray:
        """Successive differences tau^n - tau^(n+1); length len(points)-1."""
        return self.points[:-1] - self.points[1:]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class OrbitGrid:
    """One or two truncated orbits of a bijection, plus the shared limit.

    The points of all branches are stored once, concatenated in branch
    order: ``points`` and ``deltas`` are flat arrays, ``slices[i]`` picks
    branch ``i`` out of them, and each ``branches[i].points`` is a
    read-only view of its slice.  ``deltas[n]`` is x_n - x_{n+1} where
    ``has_next[n]`` holds and 0 at the last index of each branch.
    """

    tau: TauMap
    mode: str
    branches: tuple[OrbitBranch, ...]
    tol: float
    points: np.ndarray = field(init=False, repr=False)
    deltas: np.ndarray = field(init=False, repr=False)
    has_next: np.ndarray = field(init=False, repr=False)
    slices: tuple[slice, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        points = np.concatenate([b.points for b in self.branches])
        stops = np.cumsum([len(b) for b in self.branches]).tolist()
        slices = tuple(slice(stop - len(b), stop)
                       for b, stop in zip(self.branches, stops))
        set_ = object.__setattr__
        set_(self, "points", points)
        set_(self, "slices", slices)
        set_(self, "branches", tuple(replace(b, points=points[s])
                                     for b, s in zip(self.branches, slices)))
        has_next = self.neighbour_mask(1)
        n = np.flatnonzero(has_next)
        deltas = np.zeros(len(points))
        deltas[n] = points[n] - points[n + 1]
        for name, arr in (("points", points), ("has_next", has_next),
                          ("deltas", deltas)):
            arr.setflags(write=False)
            set_(self, name, arr)

    @property
    def limit(self) -> float:
        return self.branches[-1].limit

    @property
    def depth(self) -> int:
        return max(len(b) for b in self.branches)

    @property
    def size(self) -> int:
        """Number of points over all branches."""
        return len(self.points)

    def branch(self, role: str) -> OrbitBranch:
        for b in self.branches:
            if b.role == role:
                return b
        raise KeyError(role)

    def neighbour_mask(self, steps: int) -> np.ndarray:
        """True at each flat index n whose neighbour n + steps is on n's branch.

        This is the one place that decides where an orbit ends; shifts,
        differences and band formulas take their masks from here, so a
        value never leaks across the seam between two branches.
        """
        out = np.zeros(self.size, dtype=bool)
        for s in self.slices:
            lo, hi = s.start + max(0, -steps), s.stop - max(0, steps)
            if hi > lo:
                out[lo:hi] = True
        return out

    def interior(self, margin: int = 1) -> np.ndarray:
        """True at indices at least ``margin`` steps from both branch ends."""
        return self.neighbour_mask(-margin) & self.neighbour_mask(margin)

    def per_point(self, per_branch) -> np.ndarray:
        """Spread one value per branch over that branch's points."""
        return np.repeat(np.asarray(per_branch),
                         [s.stop - s.start for s in self.slices])

    @property
    def measure_sign(self) -> np.ndarray:
        """-1 on the subtracted branch of an interval grid, +1 elsewhere."""
        return self.per_point([-1.0 if b.role == "a" else 1.0
                               for b in self.branches])

    def branch_max(self, arr: np.ndarray) -> np.ndarray:
        """Each point's value of the maximum of ``arr`` over its branch."""
        return self.per_point(np.maximum.reduceat(
            arr, [s.start for s in self.slices]))

    def suffix_scan(self, ufunc: np.ufunc, arr: np.ndarray) -> np.ndarray:
        """Segmented suffix scan: out[n] = arr[n] op arr[n+1] op ... op arr[end].

        The scan runs tail-first within each branch (``np.add`` gives
        suffix sums, ``np.multiply`` suffix products, ``np.logical_and``
        the mask of points with every deeper point set).  Like
        ``np.cumsum(arr[::-1])[::-1]`` the result is a reversed view.
        """
        rev = arr[::-1]
        out = np.empty_like(rev)
        n = len(arr)
        for s in self.slices:
            seg = slice(n - s.stop, n - s.start)
            ufunc.accumulate(rev[seg], out=out[seg])
        return out[::-1]


def _forward_orbit(tau: TauMap, base: float, limit: float, delta_tol: float,
                   max_depth: int) -> np.ndarray:
    pts = [float(base)]
    scale = 1.0 + abs(limit)
    quiet = 0
    x = float(base)
    for _ in range(max_depth):
        x_next = tau.forward(x)
        delta = x - x_next
        if delta == 0.0:
            if abs(x - limit) <= 1e3 * delta_tol * scale:
                break  # converged so fast the step underflowed
            raise ZeroDivisor(f"fixed point hit on the orbit at x={x}")
        pts.append(x_next)
        quiet = quiet + 1 if abs(delta) < delta_tol * scale else 0
        if quiet >= 3:
            break
        x = x_next
    return np.asarray(pts)


def _backward_orbit(tau: TauMap, base: float, delta_tol: float, max_depth: int,
                    weight: Callable[[float], float] | None) -> np.ndarray:
    """Backward iterates of the base (excluded), nearest first."""
    w = weight if weight is not None else (lambda _x: 1.0)
    pts = []
    x = float(base)
    quiet = 0
    for _ in range(max_depth):
        x_prev = tau.inverse(x)
        delta = x_prev - x
        if delta == 0.0:
            raise ZeroDivisor(f"fixed point hit on the orbit at x={x}")
        pts.append(x_prev)
        quiet = quiet + 1 if abs(delta * w(x_prev)) < delta_tol * (1.0 + abs(x_prev)) else 0
        if quiet >= 3:
            break
        x = x_prev
    return np.asarray(pts[::-1])


def build_grid(tau: TauMap, mode: str = SEMIGROUP,
               bases: float | tuple[float, float] = 1.0,
               tol: float = DEFAULT_FIXED_POINT_TOL,
               delta_tol: float = DEFAULT_DELTA_TOL,
               max_depth: int = DEFAULT_MAX_DEPTH,
               backward_weight: Callable[[float], float] | None = None) -> OrbitGrid:
    """Construct a truncated orbit grid.

    ``bases`` is a single base for semigroup/group mode and a pair
    ``(a, b)`` for interval mode.  Orbit generation stops once three
    consecutive steps fall below ``delta_tol`` relative to the limit, or
    at ``max_depth``.  Group orbits truncate the backward direction with
    the caller-supplied ``backward_weight`` decay (weight 1 if omitted).
    """
    if mode == SEMIGROUP:
        base = float(bases) if np.isscalar(bases) else float(bases[0])
        lim = limit_point(tau, base, tol=tol)
        pts = _forward_orbit(tau, base, lim.value, delta_tol, max_depth)
        branch = OrbitBranch(pts, lim.value, role="b")
        return OrbitGrid(tau, SEMIGROUP, (branch,), tol)

    if mode == INTERVAL:
        a, b = float(bases[0]), float(bases[1])
        lim_a = limit_point(tau, a, tol=tol)
        lim_b = limit_point(tau, b, tol=tol)
        scale = 1.0 + abs(lim_b.value)
        if abs(lim_a.value - lim_b.value) > 1e-10 * scale:
            raise LimitMismatch(
                f"orbit limits differ: {lim_a.value} vs {lim_b.value}")
        pts_a = _forward_orbit(tau, a, lim_a.value, delta_tol, max_depth)
        pts_b = _forward_orbit(tau, b, lim_b.value, delta_tol, max_depth)
        _check_disjoint(pts_a, pts_b, lim_b.value, delta_tol)
        return OrbitGrid(tau, INTERVAL,
                         (OrbitBranch(pts_a, lim_a.value, role="a"),
                          OrbitBranch(pts_b, lim_b.value, role="b")), tol)

    if mode == GROUP:
        base = float(bases) if np.isscalar(bases) else float(bases[0])
        lim = limit_point(tau, base, tol=tol)
        fwd = _forward_orbit(tau, base, lim.value, delta_tol, max_depth)
        back = _backward_orbit(tau, base, delta_tol, max_depth, backward_weight)
        pts = np.concatenate([back, fwd])
        branch = OrbitBranch(pts, lim.value, role="group", base_index=len(back))
        return OrbitGrid(tau, GROUP, (branch,), tol)

    raise ValueError(f"unknown grid mode {mode!r}")


def _coincident_pairs(pts_a: np.ndarray, pts_b: np.ndarray, limit: float,
                      delta_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), sorted, where a-point i coincides with b-point j.

    Both tails crowd the shared limit, so coincidence is judged relative
    to the distance from the limit, |a_i - b_j| < 1e-8 (da_i + db_j), and
    unresolvable tail pairs (both within ``1e3 * delta_tol`` of the
    limit) are skipped.  Since db_j <= da_i + |a_i - b_j|, a hit lies
    within 2e-8 da_i / (1 - 1e-8) of a_i: only the b-points in a window
    of twice that radius are tested, found by bisection on the sorted
    b-points, so the cost is O((N_a + N_b) log N_b).
    """
    da = np.abs(pts_a - limit)
    db = np.abs(pts_b - limit)
    floor = 1e3 * delta_tol * (1.0 + abs(limit))
    order = np.argsort(pts_b, kind="stable")
    sorted_b = pts_b[order]
    reach = 4e-8 * da
    lo = np.searchsorted(sorted_b, pts_a - reach, side="left")
    hi = np.searchsorted(sorted_b, pts_a + reach, side="right")
    counts = hi - lo
    # candidate r of a-point i (r counted over all candidates) is
    # sorted_b[lo[i] + r - (candidates of the a-points before i)]
    i = np.repeat(np.arange(len(pts_a)), counts)
    starts = np.cumsum(counts) - counts
    j = order[np.arange(counts.sum()) - np.repeat(starts - lo, counts)]
    hits = ((np.abs(pts_a[i] - pts_b[j]) < 1e-8 * (da[i] + db[j]))
            & (np.maximum(da[i], db[j]) > floor))
    i, j = i[hits], j[hits]
    k = np.lexsort((j, i))
    return i[k], j[k]


def _check_disjoint(pts_a: np.ndarray, pts_b: np.ndarray, limit: float,
                    delta_tol: float) -> None:
    i, j = _coincident_pairs(pts_a, pts_b, limit, delta_tol)
    if len(i):
        raise CoincidentOrbits(f"orbit point {pts_a[i[0]]} of base a "
                               f"coincides with {pts_b[j[0]]} of base b")


def contraction_estimate(tau: TauMap, grid: OrbitGrid) -> float:
    """Largest sampled slope |tau(x)-tau(y)| / |x-y| over adjacent grid points."""
    worst = 0.0
    for branch in grid.branches:
        pts = branch.points
        if len(pts) < 3:
            continue
        num = np.abs(np.diff(pts[1:]))   # |tau(x_i) - tau(x_{i+1})|
        den = np.abs(np.diff(pts[:-1]))
        # Pairs whose spacing is at rounding level carry no slope signal.
        usable = den > 1e-12 * (1.0 + np.abs(pts[:-2]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(den > 0.0, num / den, np.inf)
        if usable.any():
            ratios = ratios[usable]
        worst = max(worst, float(np.max(ratios)))
    return worst


__all__ = [
    "OrbitBranch", "OrbitGrid", "build_grid", "contraction_estimate",
    "LimitResult", "SEMIGROUP", "INTERVAL", "GROUP",
    "DEFAULT_MAX_DEPTH", "DEFAULT_DELTA_TOL",
]
