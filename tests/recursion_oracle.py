"""Sequential per-point references for the orbit recursions.

``sequential_mobius`` walks r[n+1] = (a r[n] + b)/(c r[n] + d) one point
at a time from each branch base, forward and (behind a group base)
backward through the inverse map; ``sequential_outward`` does the same
for a scan r[n+1] = r[n] op forward[n] (backward: r[n] = r[n+1] op
backward[n]).  The other three walk the Pearson weight, the coefficient
ratio phi0/h0 and the gauge combination xi one point at a time, as plain
loops; the ratio and xi loops start at the first stored point of each
branch, which is the base on semigroup and interval grids.  Tests compare
the scan-based library functions against these loops: the ratio and xi
are read out of the grid's one 2x2 walk by ``OrbitGrid.mobius_scan``,
the weight is a running product of ``OrbitGrid.outward_scan``.
``mobius_weight`` is the weight walked as a Möbius recursion by
``sequential_mobius``, one point at a time, kept as the oracle for the
running product's masks and poles; no oracle here runs the library's
scans.
"""

import numpy as np

from taucalc.calculus import shift
from taucalc.errors import ZeroDivisor
from taucalc.grid import ZERO_TOL
from taucalc.gridfn import GridFunction


def sequential_mobius(grid, steps, seeds, ok, pole_tol):
    a, b, c, d = (np.asarray(x, dtype=complex) for x in steps)
    r = np.zeros(grid.size, dtype=complex)
    valid = np.zeros(grid.size, dtype=bool)
    pole = np.zeros(grid.size, dtype=bool)
    for br, s, seed in zip(grid.branches, grid.slices, seeds):
        k0 = s.start + br.base_index
        r[k0], valid[k0] = seed, True
        for j in range(k0, s.stop - 1):
            if not (valid[j] and ok[j]):
                break
            term, den = c[j] * r[j], c[j] * r[j] + d[j]
            pole[j + 1] = abs(den) < pole_tol * max(1.0, abs(term), abs(d[j]))
            r[j + 1], valid[j + 1] = (a[j] * r[j] + b[j]) / den, True
        for j in range(k0 - 1, s.start - 1, -1):
            if not (valid[j + 1] and ok[j]):
                break
            term, den = -c[j] * r[j + 1], -c[j] * r[j + 1] + a[j]
            pole[j] = abs(den) < pole_tol * max(1.0, abs(term), abs(a[j]))
            r[j], valid[j] = (d[j] * r[j + 1] - b[j]) / den, True
    return r, valid, pole


def sequential_outward(grid, ufunc, steps, ok):
    forward, backward = steps
    out = np.zeros(grid.size, dtype=np.result_type(forward, backward))
    valid = np.zeros(grid.size, dtype=bool)
    for br, s in zip(grid.branches, grid.slices):
        k0 = s.start + br.base_index
        out[k0], valid[k0] = ufunc.identity, True
        for j in range(k0, s.stop - 1):
            if not (valid[j] and ok[j]):
                break
            out[j + 1], valid[j + 1] = ufunc(out[j], forward[j]), True
        for j in range(k0 - 1, s.start - 1, -1):
            if not (valid[j + 1] and ok[j]):
                break
            out[j], valid[j] = ufunc(out[j + 1], backward[j]), True
    return out, valid


def mobius_weight(B, eta):
    """rho, its mask and its pole check of the Mobius recursion with steps
    [[eta_n, 0], [0, B_{n+1}]], walked by ``sequential_mobius``; past a
    pole the walk is inf or nan, and numpy's warnings are off."""
    grid = B.grid
    B_next = shift(B)
    zero = np.zeros(grid.size)
    with np.errstate(all="ignore"):
        rho, mask, pole = sequential_mobius(
            grid, (eta.flat, zero, zero, B_next.flat),
            np.ones(len(grid.branches)), eta.flat_valid & B_next.flat_valid,
            ZERO_TOL)
    if pole.any():
        b, pos = grid.locate(np.flatnonzero(pole)[0])
        which = "eta" if pos < grid.branches[b].base_index else "B"
        raise ZeroDivisor(f"{which} vanishes at orbit point index {pos}")
    return GridFunction(grid, rho, mask, label="rho")


def pearson_weight_loop(B, eta, grid):
    bv, ev = B.flat, eta.flat
    bm, em = B.flat_valid, eta.flat_valid
    rho = np.zeros(grid.size, dtype=complex)
    mask = np.zeros(grid.size, dtype=bool)
    for br, s in zip(grid.branches, grid.slices):
        k0 = s.start + br.base_index
        rho[k0] = 1.0
        mask[k0] = True
        for j in range(k0, s.stop - 1):
            if not (mask[j] and em[j] and bm[j + 1]):
                continue
            rho[j + 1] = ev[j] * rho[j] / bv[j + 1]
            mask[j + 1] = True
        for j in range(k0 - 1, s.start - 1, -1):
            if not (mask[j + 1] and em[j] and bm[j + 1]):
                continue
            rho[j] = rho[j + 1] * bv[j + 1] / ev[j]
            mask[j] = True
    return GridFunction(grid, rho, mask, label="rho")


def coefficient_ratio_loop(coef, seeds):
    grid = coef.alpha.grid
    av, am = coef.alpha.flat, coef.alpha.flat_valid
    bv, bm = coef.beta.flat, coef.beta.flat_valid
    gv, gm = coef.gamma.flat, coef.gamma.flat_valid
    d = grid.deltas
    r = np.zeros(grid.size, dtype=complex)
    mask = np.zeros(grid.size, dtype=bool)
    for s, seed_i in zip(grid.slices, seeds):
        r[s.start] = seed_i
        mask[s.start] = True
        for j in range(s.start, s.stop - 2):
            if not (mask[j] and am[j + 1] and bm[j + 1] and gm[j + 1]):
                continue
            den = r[j] * av[j + 1] * d[j + 1]
            num = -gv[j + 1] / d[j] - r[j] * bv[j + 1]
            r[j + 1] = num / den
            mask[j + 1] = True
    return GridFunction(grid, r, mask, label="phi0/h0")


def gauge_xi_loop(level, xi0):
    grid = level.grid
    dlt = grid.deltas
    Bv, pv, ev = level.B.flat, level.phi.flat, level.eta.flat
    Bm, pm, em = level.B.flat_valid, level.phi.flat_valid, level.eta.flat_valid
    xi = np.zeros(grid.size, dtype=complex)
    mask = np.zeros(grid.size, dtype=bool)
    for s in grid.slices:
        xi[s.start] = xi0
        mask[s.start] = True
        for j in range(s.start, s.stop - 2):
            if not (mask[j] and Bm[j + 1] and pm[j + 1] and em[j + 1]):
                continue
            step = Bv[j + 1] / (dlt[j] * dlt[j + 1])
            xi[j + 1] = xi[j] * pv[j + 1] ** 2 * ev[j + 1] / (xi[j] + step)
            mask[j + 1] = True
    return GridFunction(grid, xi, mask, label="xi")
