"""Ladder operators and the chain of factorized second-order equations.

A level carries the data (rho, B, eta, h, f) on a shared grid, with
``phi = f + h/(id - tau)``.  The lowering operator is

    (A psi)[n] = phi[n] psi[n] - (h[n]/delta_n) psi[n+1],

its adjoint with respect to the weighted pairings of consecutive levels
(``rho_{k+1} = eta rho_k``) is

    (A* psi)[n] = eta[n] phi[n] psi[n] - kappa[n] psi[n-1],
    kappa[n] = h[n-1] B[n] / delta_n,

and the chain postulate A_k A_k* = d_k A_{k+1}* A_{k+1} + c_k ties
consecutive levels together.  The composition A*A acts as the
three-point operator alpha T + beta + gamma T^{-1}, which links the
chain back to the original second-order eigenproblem.

The operators apply to a probe block of shape (k, N) row by row in one
array pass, as the grid-function operators do.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .calculus import deltas_fn, shift, step_quotient
from .errors import (GridMismatch, InconsistentWeights, NonPositiveFactor,
                     RiccatiBlowup, SingularLimit, ZeroAlpha, ZeroDivisor,
                     ZeroLift)
from .grid import ZERO_TOL, OrbitGrid
from .gridfn import GridFunction, joint_scale, max_abs_diff
from .hilbert import (WeightedGrid, adjoint_shift, norm, pearson_residual,
                      weight_from_pearson, weighted_grid)

# C signature of dlarrb(N, D, LLD, IFIRST, ILAST, RTOL1, RTOL2, OFFSET, W,
# WGAP, WERR, WORK, IWORK, PIVMIN, SPDIAM, TWIST, INFO), with d = double
_DLARRB_SIGNATURE = ("void (int *, d *, d *, int *, int *, d *, d *, int *, "
                     "d *, d *, d *, d *, int *, d *, d *, int *, int *)")
# C signature of dlar1v(N, B1, BN, LAMBDA, D, L, LD, LLD, PIVMIN, GAPTOL, Z,
# WANTNC, NEGCNT, ZTZ, MINGMA, R, ISUPPZ, NRMINV, RESID, RQCORR, WORK)
_DLAR1V_SIGNATURE = ("void (int *, int *, int *, d *, d *, d *, d *, d *, "
                     "d *, d *, d *, int *, int *, d *, d *, int *, int *, "
                     "d *, d *, d *, d *)")
# C signature of dlaneg(N, D, LLD, SIGMA, PIVMIN, R), which returns the
# Sturm count of L D L^T - SIGMA
_DLANEG_SIGNATURE = "int (int *, d *, d *, d *, d *, int *)"
# shared Sturm pass's bracket width relative to its upper end: the Rayleigh
# walk, cut at the bracket, converges from anywhere inside it
_COARSE_RTOL = 0.25
# Rayleigh steps stop below this relative correction: the next is rounding
_RQ_RTOL = 1e-8
# Rayleigh steps per eigenvalue at most: from a bracket of relative width
# 1/4 it takes three or four
_RQ_STEPS = 8
# last bisection's half-width in corr^2/lambda: slack for gaps below lambda
_RQ_WIDTH = 16
# the pointwise step constants must agree to this, relative to the
# constituent-term magnitude
_STEP_CONSTANT_TOL = 1e-8
# random probe functions per factorization-postulate check
_PROBES = 6
# scale-relative residual of xi's recursion read backward
_XI_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ChainLevel:
    """One level of the factorization chain.

    ``g``, ``c`` and ``d`` describe the step from this level to the next
    (the gauge in B_{k+1} = g B_k and the constants of the postulate);
    they may be left unset on a terminal level.
    """

    k: int
    w: WeightedGrid
    B: GridFunction
    eta: GridFunction
    h: GridFunction
    f: GridFunction
    phi: GridFunction
    g: GridFunction | None = None
    c: complex = 0.0
    d: complex = 1.0

    def __post_init__(self) -> None:
        if self.d == 0:
            raise ZeroDivisor("step constant d must be nonzero")

    @property
    def grid(self) -> OrbitGrid:
        return self.w.grid


@dataclass(frozen=True, eq=False)
class EigenPair:
    """An eigenfunction with its eigenvalue and the level it lives on."""

    psi: GridFunction
    value: complex
    level: int


@dataclass(frozen=True, eq=False)
class CoefficientTriple:
    """Coefficients of the three-point equation alpha T + beta + gamma T^-1,
    each valid where its own mask holds."""

    alpha: GridFunction
    beta: GridFunction
    gamma: GridFunction


class PostulateGaps(NamedTuple):
    """Worst scaled gaps of the postulate check over its probes: each side
    by the operators against the other, the same by the three-point forms,
    and each side by the operators against its three-point form."""

    operators: float
    bands: float
    left_paths: float
    right_paths: float


def make_level(B: GridFunction, eta: GridFunction, h: GridFunction,
               f: GridFunction, k: int = 0) -> ChainLevel:
    """Assemble a chain level on the grid of its data, building the weight
    by the Pearson recursion."""
    grid = B.grid
    for fn in (eta, h, f):
        if fn.grid is not grid:
            raise GridMismatch("level data sampled on a different grid")
    # phi = f + h/(id - tau) on whole arrays, in the expression's order;
    # masked-out entries may hold inf/nan, their results discarded
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        phi = f.flat + h.flat / grid.deltas
    mask = f.flat_valid & (h.flat_valid & grid.has_next)
    w = weight_from_pearson(B, eta)
    return ChainLevel(k=k, w=w, B=B, eta=eta, h=h, f=f,
                      phi=GridFunction.fresh(grid, phi, mask))


def apply_A(level: ChainLevel, psi: GridFunction) -> GridFunction:
    """The lowering operator: h * d_tau(psi) + f * psi."""
    if psi.grid is not level.grid:
        raise GridMismatch("function lives on a different grid")
    grid = level.grid
    nxt = grid.has_next
    p, pm = psi.flat, psi.flat_valid
    # h/delta and the diagonal h/delta + f, 0 at the branch ends; masked-out
    # entries may hold inf/nan, their arithmetic is discarded
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_d = np.where(nxt, level.h.flat / grid.deltas, 0.0)
        out = np.where(nxt, (h_d + level.f.flat) * p, 0.0)
        out -= h_d * grid.shifted(p, 1)
    mask = (pm & grid.shifted(pm, 1) & level.h.flat_valid
            & level.f.flat_valid)
    return GridFunction.fresh(grid, out, mask, label="A psi")


def apply_Astar(level: ChainLevel, psi: GridFunction) -> GridFunction:
    """The raising operator, adjoint of apply_A across weights rho and eta*rho.

    Realized as eta*f*psi + (1 - T*)(eta*h*psi/(id - tau)) with the
    backward-shift adjoint of this level's weight; the shifted term
    drops out at the base point of each semigroup branch.
    """
    if psi.grid is not level.grid:
        raise GridMismatch("function lives on a different grid")
    grid, e = level.grid, level.eta
    # the GridFunction expression's arithmetic, in its order, on whole
    # arrays; masked-out entries may hold inf/nan, their results discarded
    with np.errstate(invalid="ignore", over="ignore"):
        num = e.flat * level.h.flat * psi.flat
        direct = e.flat * level.f.flat * psi.flat
    num_mask = e.flat_valid & level.h.flat_valid & psi.flat_valid
    core = step_quotient(GridFunction.fresh(grid, num, num_mask))
    back = adjoint_shift(core, level.w)
    with np.errstate(invalid="ignore", over="ignore"):
        out = direct + core.flat - back.flat
    mask = (e.flat_valid & level.f.flat_valid & psi.flat_valid
            & core.flat_valid & back.flat_valid)
    return GridFunction.fresh(grid, out, mask)


def advance_level(level: ChainLevel, h_next: GridFunction) -> ChainLevel:
    """Build level k+1 from level k, its stamped step data (g, d) and h_{k+1}.

    B_{k+1} = g B_k, eta_{k+1} = T(g eta_k), rho_{k+1} = eta_k rho_k
    (cross-checked against T(B_k rho_k)), and the transformation rule
    phi_{k+1} = (h_k/(d h_{k+1})) T(phi_k / g).  Each is formed on flat
    arrays in the order of its GridFunction expression, so values, masks,
    warnings and errors are the expression's bit for bit, and only the
    five functions of the new level are built.
    """
    g, d = level.g, level.d
    if g is None:
        raise ValueError("step gauge g missing: stamp it on the level first")
    grid = level.grid
    B, eta, rho, h, phi = level.B, level.eta, level.w.rho, level.h, level.phi
    g.check_same_grid(B)
    g.check_same_grid(eta)
    grid._check_steps(1)
    if pearson_residual(B, eta, level.w) > 1e-9:
        raise InconsistentWeights(
            "eta*rho and T(B*rho) disagree: Pearson violated upstream")
    eta.check_same_grid(rho)
    h.check_same_grid(h_next)
    phi.check_same_grid(g)
    # each expression's arithmetic, in its order, on whole arrays; masked-out
    # entries may hold inf/nan, their results discarded
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        B_next = g.flat * B.flat
        eta_next = grid.shifted(g.flat * eta.flat, 1)
        rho_next = eta.flat * rho.flat
        phi_next = ((h.flat / (h_next.flat * d))
                    * grid.shifted(phi.flat / g.flat, 1))
        f_next = phi_next - h_next.flat / grid.deltas
    gm, hm = g.flat_valid, h_next.flat_valid
    phi_ok = (h.flat_valid & hm) & grid.shifted(phi.flat_valid & gm, 1)
    parts = [(B_next, gm & B.flat_valid),
             (eta_next, grid.shifted(gm & eta.flat_valid, 1)),
             (rho_next, eta.flat_valid & rho.flat_valid),
             (phi_next, phi_ok), (f_next, phi_ok & (hm & grid.has_next))]
    B_next, eta_next, rho_next, phi_next, f_next = (
        GridFunction.fresh(grid, values, mask) for values, mask in parts)
    return ChainLevel(k=level.k + 1, w=weighted_grid(rho_next), B=B_next,
                      eta=eta_next, h=h_next, f=f_next, phi=phi_next)


def build_chain(level0: ChainLevel, n_levels: int, h: GridFunction,
                step) -> tuple[ChainLevel, ...]:
    """The factorization ladder: ``n_levels`` levels from ``level0``.

    Each level is stamped with its step data ``(g, c, d) = step(level)``
    and then advanced to the next with h_{k+1} = ``h``; the last level is
    stamped but not advanced.
    """
    levels = []
    level = level0
    for k in range(n_levels):
        g, c, d = step(level)
        level = replace(level, g=g, c=c, d=d)
        levels.append(level)
        if k + 1 < n_levels:
            level = advance_level(level, h)
    return tuple(levels)


def solve_step_constant(level: ChainLevel, h_next: GridFunction,
                        g: GridFunction, d: complex) -> complex:
    """The constant c making the level-step consistency equation hold.

    The equation is affine in c with unit coefficient, so c is read off
    pointwise; InconsistentWeights is raised when the pointwise values
    do not agree to ``_STEP_CONSTANT_TOL`` against the constituent-term
    magnitude (i.e. when no constant c can close the step).

    The equation t1 - t2 + c = rhs is read at the indices n with n-1 and
    n+2 on the same branch where every input is valid, each point scaled
    by its constituent-term magnitude max(1, |t1|, |t2|).
    """
    grid = level.grid
    n = grid.reach(1, 2)[1]
    if n.size == 0:
        raise GridMismatch("orbit too short to determine the step constant")
    dlt = grid.deltas
    dn, dm1, dp1 = dlt[n], dlt[n - 1], dlt[n + 1]
    Bv, ev, hv, h2v, pv, gv = (fn.flat for fn in (
        level.B, level.eta, level.h, h_next, level.phi, g))
    Bm, em, hm, h2m, pm, gm = (fn.flat_valid for fn in (
        level.B, level.eta, level.h, h_next, level.phi, g))
    # masked-out entries may hold inf/nan; they are left out by ``ok``
    with np.errstate(invalid="ignore", over="ignore"):
        t1 = d * gv[n] * Bv[n] * h2v[n - 1] ** 2 / (dn * dm1)
        t2 = pv[n] ** 2 * ev[n]
        rhs = (1.0 / (d * gv[n + 1])) * (
            d * gv[n + 1] * Bv[n + 1] * hv[n] ** 2 / (dp1 * dn)
            - pv[n + 1] ** 2 * ev[n + 1] * hv[n] ** 2 / h2v[n] ** 2)
    ok = (Bm[n] & Bm[n + 1] & em[n] & em[n + 1] & hm[n]
          & h2m[n - 1] & h2m[n] & pm[n] & pm[n + 1]
          & gm[n] & gm[n + 1])
    scale = np.maximum(1.0, np.maximum(np.abs(t1), np.abs(t2)))
    cs = (rhs - t1 + t2)[ok]
    sc = scale[ok]
    # Toward the orbit limit the constituent terms grow like 1/delta^2
    # and an O(1) constant becomes numerically invisible there, so the
    # estimate is taken from the best-conditioned points only; the
    # consistency check below still covers every point (scaled).
    resolvable = sc <= 1e3 * float(np.min(sc))
    c = np.median(cs[resolvable])
    if np.max(np.abs(cs - c) / sc) > _STEP_CONSTANT_TOL:
        raise InconsistentWeights(
            "no constant closes the level step for this (g, h, d)")
    return c


def bands_AAstar(level: ChainLevel) -> CoefficientTriple:
    """The three-point form of A A*, from the closed band formulas.

    alpha and beta are valid two or more points before a branch's end,
    where phi, eta and h are valid and B, eta and phi one point ahead;
    gamma at the interior points where phi and B are valid and h one
    point back.
    """
    grid, fns = level.grid, (level.B, level.eta, level.h, level.phi)
    Bv, ev, hv, pv = (fn.flat for fn in fns)
    mB, me, mh, mp = (fn.flat_valid for fn in fns)
    bands = np.zeros((3, grid.size), np.result_type(Bv, ev, hv, pv))
    valid = np.zeros(bands.shape, dtype=bool)
    sup, diag, sub = bands
    d = grid.deltas
    n = grid.neighbour_index(2)
    m = grid.interior_index()
    # entries masked out of the level may hold inf/nan; so do the band
    # entries that read them, which are masked out with them
    with np.errstate(invalid="ignore", over="ignore"):
        diag[n] = pv[n] ** 2 * ev[n] + hv[n] ** 2 * Bv[n + 1] / (d[n] * d[n + 1])
        sup[n] = -(hv[n] / d[n]) * ev[n + 1] * pv[n + 1]
        sub[m] = -pv[m] * hv[m - 1] * Bv[m] / d[m]
    valid[:2, n] = (mp & me & mh)[n] & (mB & me & mp)[n + 1]
    valid[2, m] = (mp & mB)[m] & mh[m - 1]
    return CoefficientTriple(*map(GridFunction.fresh, [grid] * 3, bands, valid,
                                  ("alpha", "beta", "gamma")))


def tridiag_apply(coef: CoefficientTriple, psi: GridFunction) -> GridFunction:
    """Apply alpha T + beta + gamma T^-1 to psi within each branch: valid
    where psi, its two branch neighbours and all three coefficients are."""
    coef.beta.check_same_grid(psi)
    grid = psi.grid
    p, pm = psi.flat, psi.flat_valid
    # masked-out entries may hold inf/nan, their arithmetic is discarded
    with np.errstate(invalid="ignore", over="ignore"):
        out = coef.beta.flat * p
        out += coef.alpha.flat * grid.shifted(p, 1)
        out += coef.gamma.flat * grid.shifted(p, -1)
    mask = (pm & grid.shifted(pm, 1) & grid.shifted(pm, -1)
            & coef.alpha.flat_valid & coef.beta.flat_valid
            & coef.gamma.flat_valid)
    return GridFunction.fresh(grid, out, mask)


def factorization_residual(level: ChainLevel, level_next: ChainLevel,
                           rng=None) -> PostulateGaps:
    """Check the postulate A_k A_k* = d A_{k+1}* A_{k+1} + c on
    ``_PROBES`` random probes, drawn as one (``_PROBES``, N) block.

    Two independent evaluation paths are used: operator application via
    the weighted adjoints, and the explicit three-band expansions; the
    paths must agree with each other as well.  Returns the four gaps,
    each the worst probe's, scaled by the operator path's sides.
    """
    rng = np.random.default_rng(rng)
    c, d = level.c, level.d
    psi = GridFunction.fresh(level.grid, rng.standard_normal(
        (_PROBES, level.grid.size))).window(5)
    lhs_op = apply_A(level, apply_Astar(level, psi))
    rhs_op = d * apply_Astar(level_next, apply_A(level_next, psi)) + c * psi
    lhs_bd = tridiag_apply(bands_AAstar(level), psi)
    rhs_bd = tridiag_apply(to_coefficients(level_next), psi) * d + c * psi
    scale = joint_scale(lhs_op, rhs_op)
    pairs = ((lhs_op, rhs_op), (lhs_bd, rhs_bd), (lhs_op, lhs_bd),
             (rhs_op, rhs_bd))
    # a NaN gap is kept, so that it fails every gate
    return PostulateGaps(*(float(np.max(max_abs_diff(a, b) / scale,
                                        initial=0.0)) for a, b in pairs))


def to_coefficients(level: ChainLevel) -> CoefficientTriple:
    """Expand A*A into the three-point form alpha T + beta + gamma T^-1.

    beta and gamma are valid at the interior points where B, eta, h and
    phi are valid and h and phi one point back; alpha at the points with
    a successor where eta, phi and h are valid.
    """
    grid, fns = level.grid, (level.B, level.eta, level.h, level.phi)
    Bv, ev, hv, pv = (fn.flat for fn in fns)
    mB, me, mh, mp = (fn.flat_valid for fn in fns)
    bands = np.zeros((3, grid.size), np.result_type(Bv, ev, hv, pv))
    valid = np.zeros(bands.shape, dtype=bool)
    sup, diag, sub = bands
    d = grid.deltas
    n = grid.neighbour_index(1)
    m = grid.interior_index()
    # entries masked out of the level may hold inf/nan; so do the band
    # entries that read them, which are masked out with them
    with np.errstate(invalid="ignore", over="ignore"):
        diag[n] = ev[n] * pv[n] ** 2
        diag[m] += Bv[m] * hv[m - 1] ** 2 / (d[m] * d[m - 1])
        sup[n] = -ev[n] * pv[n] * hv[n] / d[n]
        sub[m] = -Bv[m] * hv[m - 1] * pv[m - 1] / d[m]
    valid[1:, m] = (mB & me & mh & mp)[m] & (mh & mp)[m - 1]
    valid[0, n] = (me & mp & mh)[n]
    return CoefficientTriple(*map(GridFunction.fresh, [grid] * 3, bands, valid,
                                  ("alpha", "beta", "gamma")))


def from_coefficients(coef: CoefficientTriple, h0: GridFunction,
                      seed) -> ChainLevel:
    """Recover a level-0 factorization from three-point coefficients.

    The ratio r = phi_0/h_0 obeys the linear-fractional recursion

        r[n+1] = (-beta[n+1] r[n] - gamma[n+1]/delta_n)
                 / (alpha[n+1] delta_{n+1} r[n]),

    walked outward from each branch base (backward behind a group base)
    by :meth:`OrbitGrid.mobius_scan`, the read-out of the grid's one 2x2
    walk; (B_0, eta_0) then follow from the inverse formulas and the
    weight from the Pearson recursion.  ``seed`` gives r at the branch
    bases, either one number shared by all branches or one per branch.
    """
    grid = coef.alpha.grid
    if h0.grid is not grid:
        raise GridMismatch("h0 lives on a different grid")
    seeds = np.asarray(seed)
    if seeds.ndim and seeds.shape != (len(grid.branches),):
        raise GridMismatch("need one ratio seed per grid branch")
    dlt = deltas_fn(grid)
    steps = (-shift(coef.beta), -shift(coef.gamma) / dlt, shift(coef.alpha * dlt))
    r, mask, pole = grid.mobius_scan(
        [fn.flat for fn in steps] + [0], seeds,
        np.logical_and.reduce([fn.flat_valid for fn in steps]), ZERO_TOL)
    if pole.any():
        k = np.flatnonzero(pole)[0]
        b, pos = grid.locate(k)
        if pos > grid.branches[b].base_index and abs(coef.alpha.flat[k]) < ZERO_TOL:
            raise ZeroAlpha(f"alpha vanishes at interior orbit point index {pos}")
        raise RiccatiBlowup(
            f"ratio recursion denominator vanished at index {pos}")
    r_fn = GridFunction.fresh(grid, r, mask, label="phi0/h0")
    phi0 = r_fn * h0
    f0 = phi0 - h0 / dlt
    eta0 = -(dlt * coef.alpha) / (phi0 * h0)
    # B_0[n] = delta_n delta_{n-1} / h0[n-1]^2 * (beta[n] + delta_n alpha[n] r[n])
    B0 = (dlt * shift(dlt, -1) / shift(h0, -1) ** 2
          * (coef.beta + dlt * coef.alpha * r_fn))
    B0 = GridFunction.fresh(grid, np.where(B0.flat_valid, B0.flat, 0.0),
                            B0.flat_valid, label="B0")
    return make_level(B0, eta0, h0, f0)


def lift(pair: EigenPair, level: ChainLevel) -> EigenPair:
    """Raise an eigenpair one level: psi -> A psi, lambda -> (lambda - c)/d."""
    if pair.level != level.k:
        raise GridMismatch("eigenpair does not belong to this level")
    psi_next = apply_A(level, pair.psi)
    base = norm(pair.psi, level.w)
    lifted = norm(psi_next, level.w)
    if lifted < 1e-13 * max(base, 1.0):
        raise ZeroLift("function lies in the kernel of the lowering operator")
    value_next = (pair.value - level.c) / level.d
    return EigenPair(psi=psi_next, value=value_next, level=level.k + 1)


def eigen_residual(level: ChainLevel, pair: EigenPair) -> float:
    """Backward-error residual of A*A psi = lambda psi at this level.

    The operator rows grow like 1/delta^2 toward the orbit limit and the
    residual there is dominated by benign cancellation noise, so each
    row is normalized by its own band magnitude: the result is the max
    of |(A*A psi - lambda psi)[n]| / (rowscale[n] * sup|psi|).

    Only the interior rows where beta of :func:`to_coefficients` is valid
    are read.  T* truncates at a branch's first row, where an eigenfunction
    of the untruncated orbit does not satisfy the equation; A's forward
    difference already leaves the last row out, and a group branch's first
    row, its deepest backward point, is left out like any other.
    """
    lhs = apply_Astar(level, apply_A(level, pair.psi))
    res = lhs - pair.value * pair.psi
    psi_max = pair.psi.max_abs()
    if psi_max == 0.0:
        raise ZeroDivisor("zero eigenfunction")
    coef = to_coefficients(level)
    m = res.flat_valid & coef.beta.flat_valid
    if not m.any():
        return 0.0
    rowscale = (np.abs(coef.gamma.flat) + np.abs(coef.beta.flat)
                + np.abs(coef.alpha.flat) + abs(pair.value) + 1.0)
    return float(np.max(np.abs(res.flat[m]) / rowscale[m])) / psi_max


def _edge_values(fn: GridFunction) -> np.ndarray:
    """Value at the last point of each branch, falling back to the deepest
    valid one."""
    grid = fn.grid
    idx = np.arange(grid.size)
    deepest = np.maximum.accumulate(np.where(fn.flat_valid, idx, -1))
    pick = deepest[~grid.has_next]
    if np.any(pick < [s.start for s in grid.slices]):
        raise GridMismatch("no valid values on a branch")
    return fn.flat[pick]


# an invalid, divide or overflow step leaves a NaN or inf in the factor,
# which the eigen-solve refuses rather than warn about
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _assemble_factor(level: ChainLevel) -> tuple[np.ndarray, np.ndarray]:
    """Upper-bidiagonal entries (alpha, beta) of the weighted derivative factor G.

    Eigenvalues of A*A are the squared singular values of G, which stays
    well conditioned relative to the raw matrix whose entries span many
    orders of magnitude.  Row n of G holds D[n] on column n and, where n
    has a successor, U[n] on column n+1.  The value at the orbit limit is
    one extra shared unknown, reached by the last row of each branch
    through the column g; since the limit carries zero measure that
    column is projected out (a Schur complement in the quadratic form).
    This merges the end rows e_a, e_b of an interval grid into the single
    row (g_b D[e_a], -g_a D[e_b]) / |g|, which couples the branches and
    selects the interval spectrum rather than two half-orbit spectra; a
    single branch loses its end row.  Branch a forward, then the merged
    row, then branch b reversed makes G an m x (m+1) upper bidiagonal,
    with alpha[r] on column r and beta[r] on column r+1.  When g = 0
    nothing is projected and each branch stays a square block; the limit
    column of G is then empty.  A level with complex data raises
    NonPositiveFactor: its weights are not positive.  A masked-out value,
    but eta, h and phi at a branch's last point, is read as it stands and
    a NaN or inf passes the sign gates; :func:`chain_eigenvalues` refuses both.
    """
    fields = (level.w.rho, level.eta, level.h, level.phi, level.f)
    if any(np.iscomplexobj(fn.flat) for fn in fields):
        raise NonPositiveFactor("eigen-solve needs real level data")
    grid = level.grid
    ends = np.array([s.stop - 1 for s in grid.slices])
    d = grid.deltas.copy()
    d[ends] = [x - grid.tau.forward(x) for x in grid.points[ends]]
    underflow = ends[d[ends] == 0.0]
    d[underflow] = d[underflow - 1]
    rv, ev, hv, pv = (fn.flat.copy() for fn in fields[:4])
    ev[ends] = _edge_values(level.eta)
    hv[ends] = _edge_values(level.h)
    pv[ends] = _edge_values(level.f) + hv[ends] / d[ends]
    w1 = grid.measure_sign * d * ev * rv
    w0 = grid.measure_sign * d * rv
    if np.any(w1 < 0) or np.any(w0 <= 0):
        raise NonPositiveFactor("eigen-solve needs positive branch weights")
    sq1 = np.sqrt(w1)
    sq0 = np.sqrt(w0)
    n = grid.neighbour_index(1)
    D = sq1 * pv / sq0
    U = np.zeros(grid.size)
    U[n] = -sq1[n] * hv[n] / d[n] / sq0[n + 1]
    g = -sq1[ends] * hv[ends] / d[ends]
    gg = float(g @ g)
    if len(grid.slices) == 1:
        return (D[:-1], U[:-1]) if gg > 0.0 else (D, U)
    a, b = grid.slices
    alpha = np.concatenate([D[a], U[b][::-1]])
    beta = np.concatenate([U[a], D[b][::-1]])
    if gg > 0.0:
        # rows e_a, e_b sit at k, k+1 with alpha[k+1] = beta[k] = 0
        k = a.stop - 1
        g_a, g_b = g / np.sqrt(gg)
        alpha = np.concatenate([alpha[:k], [g_b * alpha[k]], alpha[k + 2:]])
        beta = np.concatenate([beta[:k], [-g_a * beta[k + 1]], beta[k + 2:]])
    return alpha, beta


@functools.cache
def _dlarrb():
    """LAPACK's dlarrb as a ctypes function of 17 addresses, built once."""
    return _lapack_function("dlarrb", _DLARRB_SIGNATURE)


@functools.cache
def _dlar1v():
    """LAPACK's dlar1v as a ctypes function of 21 addresses, built once."""
    return _lapack_function("dlar1v", _DLAR1V_SIGNATURE)


@functools.cache
def _dlaneg():
    """LAPACK's dlaneg as a ctypes function of 6 addresses returning an
    int, built once."""
    return _lapack_function("dlaneg", _DLANEG_SIGNATURE)


@functools.cache
def _cython_lapack():
    """scipy's compiled ``scipy.linalg.cython_lapack``, loaded from its own
    file so that ``scipy/linalg/__init__.py``, which imports some 300
    modules (75 of them scipy's) and about 25 MB the eigen-solve does not
    use, never runs.  A scipy without the file raises ImportError naming
    it.
    """
    import importlib.machinery
    import importlib.util
    import sys
    from pathlib import Path

    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    paths = [Path(root, "linalg", "cython_lapack" + suffix)
             for root in (spec.submodule_search_locations if spec else ())
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no compiled {name}: none of "
                          f"{[str(p) for p in paths]} exists", name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    # the module enters itself in sys.modules as it runs; taken out again,
    # a later import of scipy.linalg loads the file the usual way and binds
    # it to the package, and gets this same object: Cython makes a module
    # once per process
    sys.modules.pop(name, None)
    return module


def _lapack_function(name: str, signature: str):
    """LAPACK's ``name`` as a ctypes function of one address per argument.

    It comes from scipy's table of Cython LAPACK functions, so nothing is
    compiled; the addresses are passed unchecked, so the capsule's C
    signature must be ``signature``, whose result is void or int.
    """
    import ctypes

    capsule = _cython_lapack().__pyx_capi__[name]
    api = ctypes.pythonapi
    c_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    # scipy names double through a typedef ending in _d
    found = re.sub(r"\w*_d \*", "d *", c_name.decode())
    if found != signature:
        raise ImportError(f"scipy's {name} has signature {found!r}, "
                          f"not {signature!r}")
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, c_name)
    restype = {"void": None, "int": ctypes.c_int}[signature.split(" ", 1)[0]]
    return ctypes.CFUNCTYPE(restype,
                            *[ctypes.c_void_p] * signature.count("*"))(address)


def _sturm_brackets(count, k: int, pivmin: float,
                    spdiam: float) -> tuple[list[float], list[float]]:
    """Brackets [lo[j], hi[j]] of eigenvalues 2..k+1 of a positive
    semidefinite L D L^T, with count(lo[j]) < j + 2 <= count(hi[j]), from
    one shared set of its Sturm counts: ``count(sigma)`` is the number of
    eigenvalues below sigma.

    Counts at sigma = 2, 4, 8, ... bracket every index from lo = 0 until
    k + 1 eigenvalues lie below sigma, or sigma passes SPDIAM, which
    bounds them all.  Then one count at a time, at the midpoint of the
    first bracket still wider than ``_COARSE_RTOL`` of its upper end,
    splits that bracket and every bracket equal to it.  Every end is a
    point already counted, so no other bracket holds the midpoint: each
    count narrows every index it can.
    As in dlarrb, a bracket stops at a width of 2 PIVMIN, and its own
    midpoint is counted at most log2(SPDIAM / PIVMIN) + 2 times.  The
    ends are dyadic numbers of a few bits.
    """
    import math

    lo, hi = [0.0] * k, [math.inf] * k
    sigma, j = 2.0, 0   # j: the first index with no upper end yet
    while j < k:
        below = count(sigma)
        top = k if below > k or sigma > spdiam else max(below - 1, j)
        hi[j:top] = [sigma] * (top - j)
        lo[top:] = [sigma] * (k - top)
        sigma, j = 2.0 * sigma, top
    maxitr = int(math.log2(spdiam + pivmin) - math.log2(pivmin)) + 2
    j, steps = 0, 0   # j: the first bracket that may still be too wide
    while j < k:
        left, right = lo[j], hi[j]
        if (right - left <= max(_COARSE_RTOL * right, 2 * pivmin)
                or steps == maxitr):
            j, steps = j + 1, 0
            continue
        mid = 0.5 * (left + right)
        below = count(mid)
        steps += 1
        i = j
        while i < k and lo[i] == left and hi[i] == right:
            if i + 2 <= below:
                hi[i] = mid
            else:
                lo[i] = mid
            i += 1
    return lo, hi


def _gram_eigenvalues(alpha: np.ndarray, beta: np.ndarray,
                      k: int) -> np.ndarray:
    """Eigenvalues 2..k+1, ascending, of B^T B with B = [G; 0]; none, and
    no LAPACK call, for k = 0.

    G is the m x (m+1) upper bidiagonal with diagonal alpha and
    superdiagonal beta.  B^T B = L D L^T with D = (alpha^2, 0) and
    off-diagonal products LLD = beta^2: no subtraction or division, so
    its dstqds Sturm counts (LAPACK's dlaneg, which dlarrb calls) resolve
    each eigenvalue to a few ulps of itself.  Eigenvalue 1 is an exact
    zero (B has rank at most m) and is skipped.  Three passes over that
    L D L^T find the rest:

    1. one shared set of dlaneg counts brackets every eigenvalue to a
       width of ``_COARSE_RTOL`` of its upper end
       (:func:`_sturm_brackets`);
    2. dlar1v's Rayleigh-quotient corrections on twisted factorizations
       (L = beta/alpha, LD = alpha beta) move each bracket's midpoint
       until one falls below ``_RQ_RTOL`` of lambda.  A step that would
       leave the eigenvalue's bracket is cut at the bracket's end, so an
       eigenvalue close to an end (lambda_1, just above 1, of a converged
       q-Hahn chain) is reached from there; a NaN correction (an
       alpha = 0 makes L infinite) or a cut to 0 ends the walk;
    3. dlarrb bisects from the walk's end, with a half-width of
       ``_RQ_WIDTH`` corr^2/lambda for the last step corr, as cut (a step
       leaves an error of order corr^2/gap), at least 4 eps lambda and
       at least PIVMIN; an eigenvalue without a step starts from its
       bracket of pass 1.

    dlarrb widens every start interval until it brackets its index and
    stops at a half-width of 2 eps relative, the relative accuracy of a
    bisection in sigma = sqrt(lambda), so each value returned is
    bracketed by dlarrb's own Sturm counts as in a bisection from [0, 2]:
    a poor start costs sweeps, not accuracy.  With k = 3 on a converged
    q-Hahn orbit, pass 1 takes 11 counts, pass 2 three or four dlar1v
    calls per eigenvalue and pass 3 a few sweeps each, against about 40
    sweeps each for one bisection from [0, 2] to 2 eps.  PIVMIN
    is dlarre's choice; SPDIAM = (max|alpha| + max|beta|)^2 bounds every
    eigenvalue and caps the number of steps.  A factor whose SPDIAM
    overflows is refused.
    """
    n = alpha.size + 1
    if not (beta.size == alpha.size and 0 <= k < n):
        raise ValueError(f"need len(beta) = len(alpha) >= k >= 0, got "
                         f"{beta.size}, {alpha.size} and {k}")
    with np.errstate(over="ignore"):
        dd = np.append(np.square(alpha, dtype=np.float64), 0.0)
        lld = np.square(beta, dtype=np.float64)
        spdiam = (np.abs(alpha).max(initial=0.0)
                  + np.abs(beta).max(initial=0.0)) ** 2
    if not (np.isfinite(dd).all() and np.isfinite(lld).all()
            and np.isfinite(spdiam)):
        raise NonPositiveFactor("eigen-solve needs finite level data and a "
                                "factor whose squares do not overflow")
    if k == 0:
        return np.zeros(0)
    # a zero LLD splits B^T B into blocks; at a zero pivot just above it the
    # Sturm count would form 0 * inf = NaN and miscount.  The least
    # subnormal keeps the blocks apart (it moves no sigma by more than its
    # root, 2.2e-162) and turns that product into the -inf of a zero pivot
    lld[lld == 0.0] = np.finfo(float).smallest_subnormal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        el = np.divide(beta, alpha, dtype=np.float64)
        ld = np.multiply(alpha, beta, dtype=np.float64)
    eps = np.finfo(float).eps
    pivmin = np.finfo(float).tiny * max(1.0, lld.max())
    # ints: N, IFIRST, ILAST, OFFSET, TWIST, INFO of dlarrb, whose W, WGAP
    # and WERR hold entries IFIRST - OFFSET .. ILAST - OFFSET, that is
    # 1..k; then B1, WANTNC, NEGCNT, R and ISUPPZ(2) of dlar1v, which
    # takes N and BN from the first and fifth, as dlaneg takes N and R
    ints = np.array([n, 2, k + 1, 1, n, 0, 1, 0, 0, 0, 0, 0], dtype=np.intc)
    # reals: RTOL1, RTOL2, PIVMIN, SPDIAM; then LAMBDA, GAPTOL (0: the
    # whole vector), ZTZ, MINGMA, NRMINV, RESID, RQCORR of dlar1v; then
    # SIGMA of dlaneg
    reals = np.array([0.0, 2 * eps, pivmin, spdiam,
                      0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    w, werr, wgap = np.empty(k), np.empty(k), np.zeros(k)
    z, work = np.empty(n), np.empty(4 * n)
    iwork = np.empty(2 * n, dtype=np.intc)
    i = (ints.ctypes.data + ints.itemsize * np.arange(ints.size)).tolist()
    r = (reals.ctypes.data + reals.itemsize * np.arange(reals.size)).tolist()
    bisect = functools.partial(
        _dlarrb(), i[0], dd.ctypes.data, lld.ctypes.data, i[1], i[2], r[0],
        r[1], i[3], w.ctypes.data, wgap.ctypes.data, werr.ctypes.data,
        work.ctypes.data, iwork.ctypes.data, r[2], r[3], i[4], i[5])
    rayleigh = functools.partial(
        _dlar1v(), i[0], i[6], i[4], r[4], dd.ctypes.data, el.ctypes.data,
        ld.ctypes.data, lld.ctypes.data, r[2], r[5], z.ctypes.data, i[7],
        i[8], r[6], r[7], i[9], i[10], r[8], r[9], r[10], work.ctypes.data)
    negcount = functools.partial(_dlaneg(), i[0], dd.ctypes.data,
                                 lld.ctypes.data, r[11], r[2], i[4])

    def count(sigma):
        reals[11] = sigma
        return negcount()

    lo, hi = _sturm_brackets(count, k, pivmin, float(spdiam))
    for j in range(k):
        lam, corr = 0.5 * (lo[j] + hi[j]), None
        ints[9] = 0   # R = 0: dlar1v picks the twist; later steps keep it
        for _ in range(_RQ_STEPS):
            reals[4] = lam
            rayleigh()
            # a step past the bracket is cut at its end; max and min keep
            # a NaN correction, which ends the walk, as does a cut to 0
            cut = min(max(lam + float(reals[10]), lo[j]), hi[j])
            if not cut > 0.0:
                break
            lam, corr = cut, cut - lam
            if abs(corr) <= _RQ_RTOL * lam:
                break
        w[j] = lam
        werr[j] = (hi[j] - lam if corr is None else
                   max(_RQ_WIDTH * corr * corr / lam, 4 * eps * lam, pivmin))
    bisect()
    return w


def chain_eigenvalues(level: ChainLevel, count: int | None = None) -> np.ndarray:
    """The ``count`` smallest eigenvalues of A*A (all by default), ascending.

    The eigenvalues are the squared singular values of the weighted
    derivative factor G with the limit value projected out, an m x (m+1)
    upper bidiagonal (see :func:`_assemble_factor`).  With B = [G; 0] of
    order m+1 they are eigenvalues of B^T B = G^T G, found in O(m) per
    eigenvalue on B^T B's L D L^T form, whose entries are the squares of
    G's (see :func:`_gram_eigenvalues`): one shared set of Sturm counts
    (LAPACK's dlaneg) brackets every eigenvalue coarsely, dlar1v's
    Rayleigh-quotient steps converge each, and a last dlarrb bisection
    from there brackets it to 2 eps, in about a third of the time of one
    bisection from [0, 2] (four eigenvalues at N = 2,046: 0.86 against
    2.7 ms on a shared 2-core x86-64 machine).
    Bisection on that representation resolves every eigenvalue to a few
    ulps relative to itself (Demmel & Kahan 1990), so small eigenvalues
    keep their relative accuracy however large lambda_max grows with the
    grid depth.

    The smallest eigenvalue of B^T B is an exact zero and is never
    bisected.  When the limit column is projected out (m+1 = N) it is the
    kernel of the lowering operator, returned as 0.0, and the next
    ``count - 1`` eigenvalues are bisected.  With square per-branch
    blocks it stands for the empty limit column and is dropped; the
    ``count`` after it are bisected, so near-zero kernel values of the
    blocks are genuine and bisected like the rest.  A ``count`` that is
    not an integer (a bool included) raises TypeError.
    """
    if count is not None:
        import operator

        try:
            if isinstance(count, bool):
                raise TypeError
            count = operator.index(count)
        except TypeError:
            raise TypeError(f"count must be an integer or None, not "
                            f"{count!r}") from None
    alpha, beta = _assemble_factor(level)
    last = ~level.grid.has_next   # where eta, h and phi have a stand-in
    for name, fn in (("rho", level.w.rho), ("eta", level.eta),
                     ("h", level.h), ("phi", level.phi)):
        ok = fn.flat_valid | (last & (name != "rho"))
        if not ok.all():
            pos = level.grid.locate(int(np.argmin(ok)))[1]
            raise NonPositiveFactor(
                "eigen-solve needs finite level data, valid at every point "
                "(eta, h and phi may miss a branch's last): "
                f"{name} is masked out at index {pos}")
    total = level.grid.size
    count = total if count is None else min(count, total)
    if count < 1:
        raise ValueError("need count >= 1")
    kernel = alpha.size + 1 == total
    k = count - 1 if kernel else count
    lam = _gram_eigenvalues(alpha, beta, k)
    return np.concatenate([[0.0], lam]) if kernel else lam


def particular_gauge_xi(level: ChainLevel, d: complex, xi0: float = 1.0
                        ) -> tuple[GridFunction, GridFunction]:
    """A particular solution of the step equation with c = 0 and h = 1.

    With c = 0 and h = 1 the step equation for the gauge g collapses to
    a first-order recursion for xi = phi^2 eta - d g B / (dn dn-1),

        xi[n+1] = xi[n] phi[n+1]^2 eta[n+1] / (xi[n] + B[n+1]/(dn dn+1)),

    with step matrix [[phi[n+1]^2 eta[n+1], 0], [1, B[n+1]/(dn dn+1)]],
    walked from xi = ``xi0`` at each branch base by the 2x2 walk of
    :meth:`OrbitGrid.mobius_scan`, whose rescaled composite maps do not
    overflow on deep orbits.  ZeroDivisor is raised where xi0 puts the
    walk on a pole, and SingularLimit where a step read backward misses
    by more than ``_XI_TOL``.  The gauge g is then read back from xi.
    """
    if (level.h - 1.0).max_abs() > 1e-12:
        raise GridMismatch("closed-form gauge solution needs h = 1")
    if level.c != 0:
        raise GridMismatch("closed-form gauge solution needs c = 0")
    grid = level.grid
    dv = grid.deltas
    Bv, pv, ev = level.B.flat, level.phi.flat, level.eta.flat
    # masked-out entries may hold inf/nan; ``ok`` leaves their steps out
    with np.errstate(invalid="ignore", over="ignore"):
        ae = pv ** 2 * ev
    j = grid.neighbour_index(2)
    a_step, d_step = np.ones_like(ae), np.ones_like(Bv)
    a_step[j], d_step[j] = ae[j + 1], Bv[j + 1] / (dv[j] * dv[j + 1])
    ok = np.zeros(grid.size, dtype=bool)
    ok[j] = (level.B.flat_valid & level.phi.flat_valid
             & level.eta.flat_valid)[j + 1]
    xi, mask, pole = grid.mobius_scan((a_step, 0, 1, d_step), xi0, ok, 1e-13)
    if pole.any():
        raise ZeroDivisor("integration constant hits a pole at index "
                          f"{grid.locate(np.flatnonzero(pole)[0])[1]}")
    if np.any(np.add.reduceat(mask, [s.start for s in grid.slices]) < 4):
        raise SingularLimit("orbit too short for the gauge solution")
    # every step taken must hold read backward as well:
    # xi[n] = (B[n+1]/(dn dn+1)) xi[n+1] / (phi[n+1]^2 eta[n+1] - xi[n+1])
    k = j[mask[j] & mask[j + 1]]
    with np.errstate(divide="ignore", invalid="ignore"):
        res = xi[k] - d_step[k] * xi[k + 1] / (a_step[k] - xi[k + 1])
    worst = float(np.max(np.abs(res), initial=0.0)
                  / max(1.0, np.max(np.abs(xi[k]), initial=0.0)))
    if worst > _XI_TOL:
        raise SingularLimit(f"xi violates its recursion: residual {worst}")
    # g = (phi^2 eta - xi) (id-tau)(tau^-1 - id) / (d B)
    inner = grid.interior()
    # B may be 0 where it is masked out (a gauge's branch end carried into
    # B_{k+1} = g B_k); that quotient is discarded with the mask
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.where(inner, (ae - xi) * dv * grid.shifted(dv, -1) / (d * Bv),
                     0.0)
    g_mask = inner & mask & level.B.flat_valid
    return (GridFunction.fresh(grid, xi, mask, label="xi"),
            GridFunction.fresh(grid, g, g_mask, label="g"))


__all__ = [
    "ChainLevel", "EigenPair", "CoefficientTriple", "PostulateGaps",
    "make_level", "apply_A", "apply_Astar", "advance_level", "build_chain",
    "solve_step_constant", "bands_AAstar", "tridiag_apply",
    "factorization_residual", "to_coefficients",
    "from_coefficients", "lift", "eigen_residual", "chain_eigenvalues",
    "particular_gauge_xi",
]
