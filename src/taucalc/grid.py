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

import numpy as np

from .errors import (CoincidentOrbits, DomainEscape, GridMismatch,
                     LimitMismatch, LimitNotConverged, ZeroDivisor)
from .maps import (DEFAULT_DELTA_TOL, LimitResult, TauMap, limit_point,
                   stepped_walk)

DEFAULT_MAX_DEPTH = 512
# an exact-zero guard for divisors and pivots: values merely small (the
# tail of B(x) = x, say) stay legal, only true vanishing is an error
ZERO_TOL = 1e-280

SEMIGROUP = "semigroup"
INTERVAL = "interval"
GROUP = "group"


@dataclass(frozen=True, eq=False)
class OrbitBranch:
    """A single truncated orbit, ordered base-first along forward iteration.

    ``role`` is "b" for a branch whose measure enters positively, "a" for
    the subtracted branch of an interval grid, and "group" for a two-sided
    orbit.  For a group branch ``base_index`` locates the base point.
    ``converged`` is False when the forward orbit stopped at the depth cap
    before its steps fell below the step tolerance.
    """

    points: np.ndarray
    limit: float
    role: str
    base_index: int = 0
    converged: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        self.points.setflags(write=False)

    @property
    def deltas(self) -> np.ndarray:
        """Successive differences tau^n - tau^(n+1); length len(points)-1."""
        return self.points[:-1] - self.points[1:]

    @property
    def limit_gap(self) -> float:
        """Distance |x_last - limit| from the deepest point to the limit."""
        return float(abs(self.points[-1] - self.limit))

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

    Segmented scans walk each branch without a Python loop per point:
    :meth:`suffix_scan` runs a ufunc tail-first, :meth:`outward_scan`
    runs one from each base outward (a diagonal recursion such as the
    Pearson weight), and one 2x2 walk composes maps, outward for
    :meth:`mobius_scan` (a projective recursion) and inward for
    :meth:`suffix_products` (a resolvent).  Index structures that depend
    on the grid alone (neighbour masks and their indices, the layout of
    the walk in each direction) are plans: each is built on first use,
    stored read-only on the grid and lives and dies with it.
    """

    tau: TauMap
    mode: str
    branches: tuple[OrbitBranch, ...]
    points: np.ndarray = field(init=False, repr=False)
    deltas: np.ndarray = field(init=False, repr=False)
    has_next: np.ndarray = field(init=False, repr=False)
    slices: tuple[slice, ...] = field(init=False, repr=False)
    _plans: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        points = np.concatenate([b.points for b in self.branches])
        stops = np.cumsum([len(b) for b in self.branches]).tolist()
        slices = tuple(slice(stop - len(b), stop)
                       for b, stop in zip(self.branches, stops))
        set_ = object.__setattr__
        set_(self, "_plans", {})
        set_(self, "points", points)
        set_(self, "slices", slices)
        set_(self, "branches", tuple(replace(b, points=points[s])
                                     for b, s in zip(self.branches, slices)))
        has_next, n = self.reach(0, 1)
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

    def _plan(self, key, build, *args) -> tuple[np.ndarray, ...]:
        """The plan ``key``: the arrays ``build(*args)`` returns, made
        read-only and kept on the grid from the first call on."""
        plan = self._plans.get(key)
        if plan is None:
            plan = build(*args)
            for arr in plan:
                arr.setflags(write=False)
            self._plans[key] = plan
        return plan

    def reach(self, behind: int, ahead: int) -> tuple[np.ndarray, np.ndarray]:
        """(mask, flat indices) of the points n whose neighbours n - behind
        and n + ahead both lie on n's branch.

        This is the one place that decides where an orbit ends; shifts,
        differences and band formulas take their masks and indices from
        here, so a value never leaks across the seam between two branches.
        """
        key = ("reach", behind, ahead)
        if key in self._plans:  # every call but the first: no closure made
            return self._plans[key]

        def build():
            mask = np.zeros(self.size, dtype=bool)
            for s in self.slices:
                lo, hi = s.start + behind, s.stop - ahead
                if hi > lo:
                    mask[lo:hi] = True
            return mask, np.flatnonzero(mask)
        return self._plan(key, build)

    def neighbour_mask(self, steps: int) -> np.ndarray:
        """True at each flat index n whose neighbour n + steps is on n's branch."""
        return self.reach(max(0, -steps), max(0, steps))[0]

    def neighbour_index(self, steps: int) -> np.ndarray:
        """The flat indices where :meth:`neighbour_mask` holds, ascending."""
        return self.reach(max(0, -steps), max(0, steps))[1]

    def shifted(self, arr: np.ndarray, steps: int) -> np.ndarray:
        """``arr`` moved along each branch on its last axis: out[..., n] =
        arr[..., n + steps] where :meth:`neighbour_mask` holds, 0 (False)
        elsewhere.  Each row of a (k, N) block moves on its own."""
        behind, ahead = max(0, -steps), max(0, steps)
        keep = self.reach(behind, ahead)[0]
        hi = max(behind, self.size - ahead)
        out = np.zeros(arr.shape, dtype=arr.dtype)
        np.copyto(out[..., behind:hi], arr[..., ahead:hi + steps],
                  where=keep[behind:hi])
        return out

    def _check_steps(self, steps: int) -> None:
        """Refuse a shift by ``steps`` that no point of the shortest branch
        survives: GridMismatch."""
        depth = min(s.stop - s.start for s in self.slices)
        if abs(steps) >= depth:
            raise GridMismatch(f"|steps|={abs(steps)} exceeds branch depth "
                               f"{depth}")

    def interior(self, margin: int = 1) -> np.ndarray:
        """True at indices at least ``margin`` steps from both branch ends."""
        return self.reach(abs(margin), abs(margin))[0]

    def interior_index(self, margin: int = 1) -> np.ndarray:
        """The flat indices where :meth:`interior` holds, ascending."""
        return self.reach(abs(margin), abs(margin))[1]

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
        the mask of points with every deeper point set), along the last
        axis, so each row of a (k, N) block is scanned on its own.  Like
        ``np.cumsum(arr[::-1])[::-1]`` the result is a reversed view.
        """
        rev = arr[..., ::-1]
        out = np.empty_like(rev)
        n = arr.shape[-1]
        for s in self.slices:
            seg = slice(n - s.stop, n - s.start)
            ufunc.accumulate(rev[..., seg], axis=-1, out=out[..., seg])
        return out[..., ::-1]

    def outward_scan(self, ufunc: np.ufunc, steps, ok: np.ndarray):
        """Segmented scan outward from each branch base: out = the identity
        of ``ufunc`` at the base, out[n+1] = out[n] op forward[n] ahead of
        it and out[n] = out[n+1] op backward[n] behind a group base.

        ``steps = (forward, backward)`` are flat arrays whose entry n steps
        between points n and n+1, outward either way; ``ok[n]`` marks step
        n usable.  Returns ``(values, valid)`` with the validity cut of
        :meth:`mobius_scan`: ``valid`` runs from the base up to the first
        unusable step, and values are 0 past it.  Each leg is one
        ``ufunc.accumulate`` (``np.multiply`` gives running products), run
        with numpy's floating-point warnings off: the caller judges poles
        and overflow on what it gets back.
        """
        forward, backward = (np.asarray(x) for x in steps)
        ok = np.asarray(ok, dtype=bool)
        out = np.zeros(self.size, np.result_type(forward, backward))
        valid = np.zeros(self.size, dtype=bool)
        # a backward leg walks [start, base) from its end: in reversed
        # order it is a forward leg, entered by the step at the same index
        rev, out_rev, ok_rev, valid_rev = (backward[::-1], out[::-1],
                                           ok[::-1], valid[::-1])
        n = self.size
        with np.errstate(all="ignore"):
            for br, s in zip(self.branches, self.slices):
                k0 = s.start + br.base_index
                out[k0], valid[k0] = ufunc.identity, True
                ufunc.accumulate(forward[k0:s.stop - 1], out=out[k0 + 1:s.stop])
                np.logical_and.accumulate(ok[k0:s.stop - 1],
                                          out=valid[k0 + 1:s.stop])
                if br.base_index:
                    seg = slice(n - k0, n - s.start)
                    ufunc.accumulate(rev[seg], out=out_rev[seg])
                    np.logical_and.accumulate(ok_rev[seg], out=valid_rev[seg])
        out[~valid] = 0
        return out, valid

    def mobius_scan(self, steps, seeds, ok: np.ndarray, pole_tol: float):
        """Walk r[n+1] = (a r[n] + b)/(c r[n] + d) outward from each branch base.

        ``steps = (a, b, c, d)`` are flat arrays or constants; entry n maps
        point n to n+1, and behind a group base the walk runs backward
        through [[d, -b], [-c, a]].  ``seeds`` holds r at the bases (one
        number or one per branch); ``ok[n]`` marks step n usable.  Returns
        ``(values, valid, pole)``: ``valid`` runs from the base up to the
        first unusable step (values are 0 past it), and ``pole`` flags each
        point whose incoming step had |den| < pole_tol max(1, |den terms|).
        The composite maps are prefix products of the 2x2 steps along the
        outward rows of :meth:`_walk_layout`, built by log-depth doubling
        and rescaled by exact powers of two.
        """
        n = self.size
        # each step [[a, b], [c, d]], its walk backward and the identity
        maps = np.empty((2, 2, 2 * n + 1), np.result_type(float, *steps))
        fwd, back = maps[..., :n], maps[..., n:-1]
        fwd[0, 0], fwd[0, 1], fwd[1, 0], fwd[1, 1] = steps
        back[0, 0], back[0, 1], back[1, 0], back[1, 1] = (
            fwd[1, 1], -fwd[0, 1], -fwd[1, 0], fwd[0, 0])
        maps[..., -1] = np.eye(2)
        idx, live, col = self._plan(("walk", True), self._walk_layout, True)
        # an unusable step is taken as the identity and ends the validity
        ok = np.asarray(ok, dtype=bool)
        use = live & np.concatenate([ok, ok, [True]])[col]
        valid = np.logical_and.accumulate(use, axis=1)
        m = np.take(maps, np.where(use, col, -1), axis=2)
        P = _doubling_scan(m)[0]
        sigma = self.per_point(np.zeros(len(self.branches)) + seeds)[idx[:, :1]]
        pole = np.zeros(idx.shape, dtype=bool)
        with np.errstate(all="ignore"):
            r = (P[0, 0] * sigma + P[0, 1]) / (P[1, 0] * sigma + P[1, 1])
            term, const = m[1, 0, :, 1:] * r[:, :-1], m[1, 1, :, 1:]
            scale = np.maximum(1.0, np.maximum(np.abs(term), np.abs(const)))
            pole[:, 1:] = valid[:, 1:] & (np.abs(term + const) < pole_tol * scale)
        values = np.zeros_like(r, shape=self.size)
        flags = np.zeros((2, self.size), dtype=bool)
        values[idx[valid]] = r[valid]
        flags[0, idx[valid]] = flags[1, idx[pole]] = True
        return values, flags[0], flags[1]

    def suffix_products(self, mats: np.ndarray) -> np.ndarray:
        """Segmented suffix products out[n] = mats[end] ... mats[n+1] mats[n]
        of a (size, 2, 2) stack, ``end`` the last point of n's branch.

        Each branch is one inward row of :meth:`_walk_layout`, read from
        its last point back to its first.  The maps go in transposed, which
        turns the suffix into :func:`_doubling_scan`'s later-map-on-the-left
        prefix; the kept power-of-two exponents rebuild the unscaled
        products, so only the products that are themselves out of range
        overflow.  The four entries of a partial product share one
        exponent: an entry that falls more than the float64 range below
        the largest one of its matrix is lost, even where the full suffix
        would bring it back into range.
        """
        idx, live, col = self._plan(("walk", False), self._walk_layout, False)
        P, E = _doubling_scan(np.take(mats.transpose(2, 1, 0), col, axis=2))
        out = np.empty_like(mats)
        out[idx[live]] = ldexp(P, E).transpose(2, 3, 1, 0)[live]
        return out

    def _walk_layout(self, outward: bool):
        """The layout of the one 2x2 walk in one direction: one padded row
        per walk, each a first point, a direction and a length.  Outward,
        each branch runs from its base to its end and, behind a group base,
        back to its start; inward, from its end back to its start.  Returns
        every slot's point index, its liveness and the column of the map
        it takes: outward the step entering it (step n - 1 at column n - 1,
        step n walked backward at size + n, the identity at 2 size), inward
        the point's own map (the pad enters no live slot's prefix).
        """
        rows = []   # an inward row is a backward leg from the branch end
        for br, s in zip(self.branches, self.slices):
            k0 = s.start + br.base_index if outward else s.stop - 1
            if outward:
                rows.append((k0, 1, s.stop - k0))
            if k0 > s.start or not outward:
                rows.append((k0, -1, k0 - s.start + 1))
        first, sign, length = np.array(rows).T[..., None]
        j = np.arange(length.max())
        live = j < length
        idx = np.where(live, first + sign * j, 0)
        if not outward:
            return idx, live, idx
        step = np.where(sign > 0, idx - 1, idx + self.size)
        return idx, live, np.where(live & (j > 0), step, 2 * self.size)

    def locate(self, n: int) -> tuple[int, int]:
        """(branch index, position within the branch) of flat index ``n``."""
        b = int(np.searchsorted([s.stop for s in self.slices], n, side="right"))
        return b, int(n) - self.slices[b].start


def _power_of_two_normalized(m: np.ndarray, out: np.ndarray | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """(m 2^-e, e): each map of a (2, 2, ...) stack scaled by the power of
    two that brings its largest entry modulus into [0.5, 1)."""
    e = np.frexp(np.abs(m).max(axis=(0, 1)))[1]
    return ldexp(m, -e, out), e


def _doubling_scan(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix products along each row of a (2, 2, rows, width) stack, later
    maps on the left: P[..., j] 2^E[j] = m[..., j] ... m[..., 1] m[..., 0].

    Log-depth doubling (Hillis & Steele 1986; Blelloch 1990): each level
    sets P[..., j] <- P[..., j] P[..., j - span].  Every product is brought
    to power-of-two-normalised mantissas (see
    :func:`_power_of_two_normalized`), and the integer exponents of the two
    factors and of the rescaling are summed level by level, so the
    rescaling itself loses nothing.  Returns (mantissas, exponents).
    """
    P, E = _power_of_two_normalized(m)
    span = 1
    while span < m.shape[-1]:
        hi, lo = P[..., span:], P[..., :-span]
        e = _power_of_two_normalized(
            hi[:, :1] * lo[None, 0] + hi[:, 1:] * lo[None, 1], out=hi)[1]
        E[:, span:] += E[:, :-span] + e
        span *= 2
    return P, E


def ldexp(P: np.ndarray, E: np.ndarray, out: np.ndarray | None = None
          ) -> np.ndarray:
    """P 2^E, exact wherever the result is in range; complex P scales its
    real and imaginary parts, so no factor 2^E is ever formed."""
    if not np.iscomplexobj(P):
        return np.ldexp(P, E, out=out)
    if out is None:
        out = np.empty_like(P)
    out.real, out.imag = np.ldexp(P.real, E), np.ldexp(P.imag, E)
    return out


def _leg(tau: TauMap, base: float, max_depth: int,
         backward: bool = False) -> tuple[np.ndarray, float, bool]:
    """(points, limit, settled) of one leg of the orbit of ``base``, cut
    from its walk as :func:`build_grid` describes."""
    res = (stepped_walk(tau, tau.inverse, base, max_depth) if backward
           else limit_point(tau, base))
    walk = res.walk
    if res.converged and len(walk) == 1:
        raise ZeroDivisor(f"fixed point hit on the orbit at x={base}")
    if backward:   # the leg ends at its last finite point in the domain
        inside = np.isfinite(walk[1:]) & tau.contains(walk[1:])
        walk = walk[:1 + np.logical_and.accumulate(inside).sum()]
    else:
        outside = np.flatnonzero(~tau.contains(walk))
        if len(outside):
            raise DomainEscape(f"forward orbit of base {base} leaves the "
                               f"domain {tau.domain} at x={walk[outside[0]]}")
        if not res.converged:
            raise LimitNotConverged(
                f"fixed-point iteration from base {base} did not settle "
                f"within {res.iterations} steps")
    scale = 1.0 + (np.abs(walk[1:]) if backward else abs(res.value))
    quiet = np.abs(walk[1:] - walk[:-1]) < DEFAULT_DELTA_TOL * scale
    run = np.flatnonzero(quiet[2:] & quiet[1:-1] & quiet[:-2])
    # steps until the leg settles; a walk that stops before a quiet run
    # settles with the step after its end, which does not move
    end = int(run[0]) + 3 if len(run) else len(walk)
    return walk[:min(end, max_depth) + 1], res.value, end <= max_depth


def build_grid(tau: TauMap, mode: str = SEMIGROUP,
               bases: float | tuple[float, float] = 1.0,
               max_depth: int = DEFAULT_MAX_DEPTH) -> OrbitGrid:
    """Construct a truncated orbit grid.

    ``bases`` is a single base for semigroup/group mode and a pair
    ``(a, b)`` for interval mode.  Each forward leg is cut from one
    :func:`~taucalc.maps.limit_point` walk.  A forward branch ends after
    three consecutive steps below ``DEFAULT_DELTA_TOL`` (1 + |limit|),
    where the walk ends, or unsettled (``converged=False``) at
    ``max_depth``; a walk that leaves ``tau.domain`` raises
    :class:`DomainEscape` and one that does not settle within
    ``maps.WALK_MAX_STEPS`` steps :class:`LimitNotConverged`.  A group
    orbit's backward leg steps tau.inverse up to ``max_depth``, is cut by
    the same rule relative to 1 + |x_next| and ends at its last finite
    point in the domain; every walk stops at its first point outside.
    A base on a fixed point raises :class:`ZeroDivisor`, and a map step
    that raises an ArithmeticError :class:`DomainEscape`.  A ``max_depth``
    below 1, an unknown mode or ``bases`` of another shape (a one-element
    sequence stands for its base) raise ValueError.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    if mode not in (SEMIGROUP, GROUP, INTERVAL):
        raise ValueError(f"unknown grid mode {mode!r}")
    one = mode != INTERVAL
    if np.shape(bases) not in (((), (1,)) if one else ((2,),)):
        raise ValueError(f"a {mode} grid takes "
                         f"{'one base' if one else 'two bases'}, got {bases!r}")
    if one:
        base = float(np.ravel(bases)[0])
        # a group base on a fixed point of tau.inverse is reported as such,
        # before a forward leg that leaves the domain from it
        back = (_leg(tau, base, max_depth, backward=True)[0][:0:-1]
                if mode == GROUP else ())
        pts, lim, done = _leg(tau, base, max_depth)
        if mode == SEMIGROUP:
            branch = OrbitBranch(pts, lim, role="b", converged=done)
        else:
            branch = OrbitBranch(np.concatenate([back, pts]), lim, role="group",
                                 base_index=len(back), converged=done)
        return OrbitGrid(tau, mode, (branch,))

    pts_a, lim_a, done_a = _leg(tau, float(bases[0]), max_depth)
    pts_b, lim_b, done_b = _leg(tau, float(bases[1]), max_depth)
    if abs(lim_a - lim_b) > 1e-10 * (1.0 + abs(lim_b)):
        raise LimitMismatch(f"orbit limits differ: {lim_a} vs {lim_b}")
    _check_disjoint(pts_a, pts_b, lim_b, DEFAULT_DELTA_TOL)
    return OrbitGrid(tau, INTERVAL,
                     (OrbitBranch(pts_a, lim_a, role="a", converged=done_a),
                      OrbitBranch(pts_b, lim_b, role="b", converged=done_b)))


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


def contraction_estimate(grid: OrbitGrid) -> float:
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
    "DEFAULT_MAX_DEPTH", "DEFAULT_DELTA_TOL", "ZERO_TOL",
]
