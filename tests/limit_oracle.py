"""The orbit limit polished until it stops moving.

``limit_point_still`` is the fixed-point iteration of
:func:`taucalc.maps.limit_point` with its former polish: after
convergence it keeps iterating until the point no longer moves, for up
to another ``max_iter`` steps.  On a zero fixed point that runs into
underflow or the step cap.  Tests check that the differences
``points - limit`` of a grid come out bit-identical with either limit.

``polish_stop_full`` is the polish stop of a running-products walk with
the polish test run on every step after detection; the library tests
only the steps its derived bound leaves, and must stop at the same index.
"""

import numpy as np

from taucalc.maps import _POLISH_TOL, LimitResult, TauMap


def limit_point_still(tau, x0, tol=1e-13, max_iter=10000):
    x = x0
    walk = [x]
    for i in range(1, max_iter + 1):
        x_next = tau.forward(x)
        walk.append(x_next)
        if abs(x_next - x) < tol * (1.0 + abs(x)):
            for _ in range(max_iter):
                x_more = tau.forward(x_next)
                if x_more == x_next:
                    break
                x_next = x_more
                walk.append(x_next)
            return LimitResult(value=x_next, iterations=i, converged=True,
                               walk=np.array(walk))
        x = x_next
    return LimitResult(value=x, iterations=max_iter, converged=False,
                       walk=np.array(walk))


def counting_map(tau):
    """``tau`` with a counter of its forward calls, read as ``calls[0]``."""
    calls = [0]

    def forward(x):
        calls[0] += 1
        return tau.forward(x)

    return TauMap(forward, tau.inverse, tau.domain, tau.name), calls


def polish_stop_full(w, lo):
    """``taucalc.maps._polish_stop`` as it was before it tested only the
    window before the walk's end: the polish test on every step from
    ``w[lo]`` on.  The stop index must come out the same."""
    step = np.abs(w[lo - 1:] - w[lo - 2:-1])
    still = (w[lo:] == w[lo - 1:-1]) | (w[lo:] == w[lo - 2:-2])
    last, r = step[1:], step[1:] / step[:-1]
    passed = (r < 1.0) & (last * r / (1.0 - r) < _POLISH_TOL * (
        r * r * (r * r)) * (1.0 + np.abs(w[lo:])))
    ends = np.flatnonzero(still | passed)
    if not len(ends):
        return len(w) - 1
    return lo + int(ends[0]) - bool(still[ends[0]])
