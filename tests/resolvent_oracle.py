"""Sequential per-point references for the resolvent's suffix products.

``sequential_resolvent`` is the resolvent as one Python loop per point:
along each branch it forms S[k] = S[k+1] @ Lambda(x_k) from the deepest
valid point back to the start, sets S = I past the deepest valid point
and peels the two deepest factors off the base product with
``np.linalg.solve`` for the Cauchy gap.  ``mp_suffix_products`` forms
the same products in mpmath at ``dps`` digits.  Tests compare
:func:`taucalc.riccati.resolvent`, built on the doubling scan of
``OrbitGrid.suffix_products``, against both.

``lu_solve_system`` is the boundary-value solve by batched LAPACK
``np.linalg.det`` and ``np.linalg.solve``, and ``reference_general_solution``
builds one member of the ratio-solution family from scratch on every call,
with the per-branch denominator gate; tests compare
:func:`taucalc.riccati.solve_system` and
:func:`taucalc.riccati.general_solution` against them.
"""

import mpmath
import numpy as np

from taucalc import GridFunction, shift
from taucalc.errors import (GridMismatch, NonPositiveFactor,
                            ParticularNotSolution, SingularResolvent,
                            ZeroDivisor)
from taucalc.riccati import (RiccatiSolution, resolvent, rhom_residual,
                             step_residual)

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


def lu_solve_system(sys, boundary, res=None):
    """(psi, phi) = Lambda_inf^{-1} boundary by LU, with the singularity gate
    |det| < 1e-14 (branch max entry)^2 and the 1e-10 step-residual check."""
    if res is None:
        res = resolvent(sys)
    bvec = np.asarray(boundary, dtype=complex).reshape(2)
    grid = sys.grid
    mats = res.flat
    mask = sys.valid_mask()
    dets = np.linalg.det(mats)
    size = grid.branch_max(np.max(np.abs(mats), axis=(1, 2)))
    scale = np.where(size > 0.0, size, 1.0)
    if np.any(np.abs(dets[mask]) < 1e-14 * scale[mask] ** 2):
        raise SingularResolvent("resolvent is singular at a grid point")
    rhs = np.broadcast_to(bvec[:, None], (grid.size, 2, 1))
    sol = np.linalg.solve(mats, rhs)[:, :, 0]
    psi = GridFunction(grid, sol[:, 0], mask, label="psi")
    phi = GridFunction(grid, sol[:, 1], mask, label="phi")
    worst = step_residual(sys, psi, phi)
    if worst > 1e-10:
        raise SingularResolvent(
            f"solution violates the one-step recursion: residual {worst}")
    return psi, phi


def reference_general_solution(sys, u0, t):
    """u^t = u0 + t E / (1 - t S), every part formed on this call; the
    denominators are judged against the per-branch largest one (at least 1)."""
    res0 = rhom_residual(sys, u0)
    if res0 > 1e-10:
        raise ParticularNotSolution(
            f"u0 violates the homographic recursion: residual {res0}")
    u0_tau = shift(u0)
    den_a = sys.a + sys.b * u0
    den_d = sys.d - sys.b * u0_tau
    grid = sys.grid
    mask = den_a.flat_valid & den_d.flat_valid & u0.flat_valid
    live = grid.suffix_scan(np.logical_or, mask)
    points_per_branch = np.add.reduceat(live, [s.start for s in grid.slices])
    if np.any(points_per_branch < 3):
        raise GridMismatch("orbit too short for the solution family")
    av, dv, bv = den_a.flat[live], den_d.flat[live], sys.b.flat[live]
    size = np.zeros(grid.size)
    size[live] = np.maximum(np.abs(av), np.abs(dv))
    scale = np.fmax(grid.branch_max(size), 1.0)[live]
    if np.any(np.abs(av) < 1e-14 * scale) or np.any(np.abs(dv) < 1e-14 * scale):
        raise NonPositiveFactor(
            "solution family needs nonvanishing denominators")
    ratio = np.ones(grid.size, np.result_type(av, dv))
    ratio[live] = av / dv
    E = grid.suffix_scan(np.multiply, ratio)
    weighted = np.zeros(grid.size, np.result_type(bv, av, E))
    weighted[live] = (bv / av) * E[live]
    S = grid.suffix_scan(np.add, weighted)[live]
    den = 1.0 - t * S
    if np.any(np.abs(den) < 1e-13 * (1.0 + abs(t) * np.abs(S))):
        raise ZeroDivisor("parameter t hits a pole of the family")
    u = np.array(u0.flat, np.result_type(u0.flat, E, den))
    u[live] = u[live] + t * E[live] / den
    u_fn = GridFunction(grid, u, mask & live, label="u^t")
    return RiccatiSolution(u=u_fn, t=float(t), u0=u0,
                           residual=rhom_residual(sys, u_fn))
