"""Sequential per-point references for the resolvent's suffix products.

``sequential_resolvent`` is the resolvent as one Python loop per point:
along each branch it forms S[k] = S[k+1] @ Lambda(x_k) from the deepest
valid point back to the start, sets S = I past the deepest valid point
and peels the two deepest factors off the base product with
``np.linalg.solve`` for the Cauchy gap.  ``mp_suffix_products`` forms
the same products in mpmath at ``dps`` digits.  Tests compare
:func:`taucalc.riccati.resolvent`, built on the doubling scan of
``OrbitGrid.suffix_products``, against both.
"""

import mpmath
import numpy as np

ZERO_TOL = 1e-280


def deepest_valid(grid, valid):
    """Flat index of the deepest valid point of each branch (-1 if none)."""
    return [s.start + int(np.flatnonzero(valid[s])[-1]) if valid[s].any()
            else s.start - 1 for s in grid.slices]


def sequential_resolvent(sys):
    """(flat products, steps, Cauchy gap) by the per-point loop."""
    grid = sys.grid
    lam = sys.entry_arrays()
    full = np.empty((grid.size, 2, 2), dtype=complex)
    steps, gap = 0, 0.0
    for s, deep in zip(grid.slices, deepest_valid(grid, sys.valid_mask())):
        lam_b, S = lam[s], full[s]
        last = deep - s.start
        S[last] = lam_b[last]
        for k in range(last - 1, -1, -1):
            S[k] = S[k + 1] @ lam_b[k]
        S[last + 1:] = np.eye(2)
        steps += last + 1
        if last >= 2:
            p_full = S[0]
            drop1 = np.linalg.solve(lam_b[last], p_full) \
                if abs(np.linalg.det(lam_b[last])) > ZERO_TOL else p_full
            drop2 = np.linalg.solve(lam_b[last - 1], drop1) \
                if abs(np.linalg.det(lam_b[last - 1])) > ZERO_TOL else drop1
            gap = max(gap, float(np.max(np.abs(p_full - drop1))),
                      float(np.max(np.abs(drop1 - drop2))))
    return full, steps, gap


def mp_suffix_products(sys, dps=40):
    """The suffix products S[k] = Lambda(x_last) ... Lambda(x_k) of every
    branch in mpmath at ``dps`` digits, as a list of mpmath matrices
    (identity past the deepest valid point)."""
    grid = sys.grid
    lam = sys.entry_arrays()
    out = [None] * grid.size
    with mpmath.workdps(dps):
        for s, deep in zip(grid.slices, deepest_valid(grid, sys.valid_mask())):
            S = mpmath.eye(2)
            for k in range(s.stop - 1, s.start - 1, -1):
                if k <= deep:
                    m = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row]
                                       for row in lam[k]])
                    S = S * m
                out[k] = S.copy()
    return out
