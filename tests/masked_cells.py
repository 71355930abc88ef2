"""The mask-poison pattern: an output valid at x reads valid cells alone.

A cell of one input is masked out at an interior point, at each end of
every branch or at the point next to it, and filled in turn with its own
value and with each of ``FILLS``.  Every output must then stay the same
on its valid window, bit for bit, or the call must raise the same
``CalculusError`` type whatever the cell holds.
"""

import numpy as np

from taucalc import GridFunction
from taucalc.errors import CalculusError

FILLS = (np.nan, np.inf, -np.inf, 1e300, -5.0, 0.0, 3.0)


def poison_points(grid):
    """Flat index 10 and, on each branch, both end points and the points
    next to them."""
    ends = [(s.start, s.start + 1, s.stop - 2, s.stop - 1) for s in grid.slices]
    return sorted({10, *np.ravel(ends).tolist()})


def masked(fn, n, fill=None):
    """``fn`` with its cell ``n`` masked out, holding ``fill`` (its own
    value for None)."""
    values, valid = fn.flat.copy(), fn.flat_valid.copy()
    valid[n] = False
    if fill is not None:
        values[n] = fill
    return GridFunction(fn.grid, values, valid)


def observed(call):
    """The bytes of each output of ``call()``, a function read on its valid
    window with its mask; or the type of the CalculusError it raises."""
    try:
        out = call()
    except CalculusError as exc:
        return type(exc)
    return [(f.flat[..., f.flat_valid].tobytes(), f.flat_valid.tobytes())
            if isinstance(f, GridFunction) else np.asarray(f).tobytes()
            for f in (out if isinstance(out, tuple) else (out,))]


def assert_never_read(run, fn, points):
    """``run(g)``, for g = ``fn`` masked out at each of ``points`` and filled
    with each of ``FILLS``, observes what it does with the cell's own
    value."""
    for n in points:
        want = observed(lambda: run(masked(fn, n)))
        for fill in FILLS:
            assert observed(lambda: run(masked(fn, n, fill))) == want, (n, fill)
