"""The orbit limit polished until it stops moving.

``limit_point_still`` is the fixed-point iteration of
:func:`taucalc.maps.limit_point` with its former polish: after
convergence it keeps iterating until the point no longer moves, for up
to another ``max_iter`` steps.  On a zero fixed point that runs into
underflow or the step cap.  Tests check that the differences
``points - limit`` of a grid come out bit-identical with either limit.
"""

import numpy as np

from taucalc.maps import LimitResult, TauMap


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
