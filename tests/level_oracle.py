"""The level pipeline as GridFunction expressions, as a reference.

``make_level``, ``weight_from_pearson``, ``pearson_residual`` and
``advance_level`` here are the forms that ``taucalc.chain`` and
``taucalc.hilbert`` had before they computed on flat arrays: every
operator of an expression builds a GridFunction, and the shifts go
through ``taucalc.calculus.shift``.  Tests check that both forms give the
same values, masks, NaNs, warnings and errors bit for bit.
"""

import numpy as np

from taucalc.calculus import deltas_fn, shift
from taucalc.chain import ChainLevel
from taucalc.errors import GridMismatch, InconsistentWeights, ZeroDivisor
from taucalc.grid import ZERO_TOL
from taucalc.gridfn import GridFunction, joint_scale, max_abs_diff
from taucalc.hilbert import weighted_grid


def pearson_residual(B, eta, w):
    if B.grid is not w.grid:
        raise GridMismatch("Pearson data and weight live on different grids")
    lhs, rhs = shift(B * w.rho), eta * w.rho
    return max_abs_diff(lhs, rhs) / joint_scale(lhs, rhs)


def weight_from_pearson(B, eta):
    B.check_same_grid(eta)
    grid = B.grid
    B_next = shift(B)
    bn, e = B_next.flat, eta.flat
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho, mask = grid.outward_scan(np.multiply, (e * (1 / bn), bn * (1 / e)),
                                      eta.flat_valid & B_next.flat_valid)
    if np.any(mask & ((np.abs(e) < ZERO_TOL) | (np.abs(B.flat) < ZERO_TOL))):
        side = np.sign(np.arange(grid.size) - grid.per_point(
            [s.start + br.base_index
             for br, s in zip(grid.branches, grid.slices)]))
        divisor = np.where(side < 0, e, B.flat)
        prev = np.where(side < 0, grid.shifted(rho, 1), grid.shifted(rho, -1))
        pole = (mask & (side != 0) & (np.abs(divisor) < ZERO_TOL)
                & np.isfinite(prev))
        if pole.any():
            k = np.flatnonzero(pole)[0]
            raise ZeroDivisor(f"{'eta' if side[k] < 0 else 'B'} vanishes at "
                              f"orbit point index {grid.locate(k)[1]}")
    w = weighted_grid(GridFunction(grid, rho, mask, label="rho"))
    res = pearson_residual(B, eta, w)
    if res > 1e-11:
        raise InconsistentWeights(
            f"Pearson recursion residual {res} exceeds 1e-11")
    return w


def make_level(B, eta, h, f, k=0):
    grid = B.grid
    for fn in (eta, h, f):
        if fn.grid is not grid:
            raise GridMismatch("level data sampled on a different grid")
    phi = f + h / deltas_fn(grid)
    w = weight_from_pearson(B, eta)
    return ChainLevel(k=k, w=w, B=B, eta=eta, h=h, f=f, phi=phi)


def advance_level(level, h_next):
    g, d = level.g, level.d
    if g is None:
        raise ValueError("step gauge g missing: stamp it on the level first")
    grid = level.grid
    B_next = g * level.B
    eta_next = shift(g * level.eta)
    if pearson_residual(level.B, level.eta, level.w) > 1e-9:
        raise InconsistentWeights(
            "eta*rho and T(B*rho) disagree: Pearson violated upstream")
    rho_next = level.eta * level.w.rho
    phi_next = (level.h / (d * h_next)) * shift(level.phi / g)
    f_next = phi_next - h_next / deltas_fn(grid)
    w_next = weighted_grid(rho_next)
    return ChainLevel(k=level.k + 1, w=w_next, B=B_next, eta=eta_next,
                      h=h_next, f=f_next, phi=phi_next)
