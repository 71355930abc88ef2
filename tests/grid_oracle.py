"""Orbit grids built with two walks per leg, as a reference.

``build_grid_two_walks`` is the grid builder before the points were cut
from the limit walk: :func:`limit_point_polished` iterates tau from the
base to find the limit, then ``orbit`` iterates again from the same base
to store the points.  It keeps that builder's quirks: a base on a fixed
point of the forward map gives a one-point branch, and a backward leg
that overflows stores ``inf``.  It skips the limit-mismatch and
disjointness checks, which do not change the points.  Tests check that
:func:`taucalc.grid.build_grid` gives the same branches bit for bit.
"""

import numpy as np

from taucalc.errors import LimitNotConverged, ZeroDivisor
from taucalc.grid import GROUP, INTERVAL, SEMIGROUP, OrbitBranch
from taucalc.maps import DEFAULT_DELTA_TOL

POLISH_TOL = 2.0 ** -56 * DEFAULT_DELTA_TOL


def limit_point_polished(tau, x0, tol=1e-13, max_iter=10000):
    """(limit, converged): detection at ``tol``, then the polish that ends
    on a zero step or once its error estimate is below POLISH_TOL r^4
    (formed as r r (r r))."""
    x = x0
    for _ in range(max_iter):
        x_next = tau.forward(x)
        step = abs(x_next - x)
        if step < tol * (1.0 + abs(x)):
            for _ in range(max_iter):
                x_more = tau.forward(x_next)
                if x_more == x_next:
                    break
                r, step = abs(x_more - x_next) / step, abs(x_more - x_next)
                x_next = x_more
                if r < 1.0 and step * r / (1.0 - r) < POLISH_TOL * (
                        r * r * (r * r)) * (1.0 + abs(x_next)):
                    break
            return x_next, True
        x = x_next
    return x, False


def orbit(step, base, limit, max_depth):
    """The base and its iterates under ``step``, and whether they settled
    (three steps below DEFAULT_DELTA_TOL relative to 1 + |limit|, or to
    1 + |x_next| with no limit, or a step that does not move)."""
    pts, x, quiet = [float(base)], float(base), 0
    for _ in range(max_depth):
        x_next = step(x)
        scale = 1.0 + abs(x_next if limit is None else limit)
        if x_next == x:
            if (len(pts) == 1 if limit is None else
                    abs(x - limit) > 1e3 * DEFAULT_DELTA_TOL * scale):
                raise ZeroDivisor(f"fixed point hit on the orbit at x={x}")
            break
        pts.append(x_next)
        quiet = quiet + 1 if abs(x - x_next) < DEFAULT_DELTA_TOL * scale else 0
        if quiet >= 3:
            break
        x = x_next
    else:
        return np.asarray(pts), False
    return np.asarray(pts), True


def limit(tau, base):
    value, converged = limit_point_polished(tau, base)
    if not converged:
        raise LimitNotConverged(f"no limit from base {base}")
    return value


def build_grid_two_walks(tau, mode, bases, max_depth):
    """The branches the two-walk builder gives, in branch order."""
    if mode in (SEMIGROUP, GROUP):
        base = float(bases) if np.isscalar(bases) else float(bases[0])
        lim = limit(tau, base)
        pts, done = orbit(tau.forward, base, lim, max_depth)
        if mode == SEMIGROUP:
            return (OrbitBranch(pts, lim, role="b", converged=done),)
        back = orbit(tau.inverse, base, None, max_depth)[0][:0:-1]
        return (OrbitBranch(np.concatenate([back, pts]), lim, role="group",
                            base_index=len(back), converged=done),)
    assert mode == INTERVAL
    branches = []
    for role, base in zip("ab", bases):
        lim = limit(tau, float(base))
        pts, done = orbit(tau.forward, base, lim, max_depth)
        branches.append(OrbitBranch(pts, lim, role=role, converged=done))
    return tuple(branches)
