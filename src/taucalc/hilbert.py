"""Weighted inner products on orbits and the Pearson weight machinery.

The scalar product is the orbit-weighted sum ``sum delta_n conj(phi) psi
rho``.  The adjoint of the composition operator T is a weighted backward
shift with multiplier ``mu(x) = dtau(tau^-1)(x) rho(tau^-1 x)/rho(x)``,
vanishing at the orbit base points.  Weights at consecutive chain levels
are related through the pair (B, eta) by the one-step Pearson recursion
``rho(tau x) = eta(x) rho(x) / B(tau x)``, whose diagonal step makes each
orbit leg of the weight one running product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import step_quotient, tau_integral
from .errors import (GridMismatch, InconsistentWeights, PositivityWarning,
                     ZeroDivisor, ZeroWeight)
from .grid import GROUP, ZERO_TOL, OrbitGrid
from .gridfn import GridFunction

_POSITIVITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedGrid:
    """An orbit grid with a weight function and per-point positivity flags.

    Positivity of the measure requires ``delta_n rho[n] >= 0`` on a
    forward orbit entering positively and ``<= 0`` on the subtracted
    branch of an interval grid.  ``positivity`` is flat over the grid.
    """

    grid: OrbitGrid
    rho: GridFunction
    positivity: np.ndarray

    def positivity_ok(self) -> bool:
        return bool(self.positivity.all())

    @cached_property
    def mu(self) -> GridFunction:
        """The backward-shift multiplier :func:`mu_from_rho`, built on first
        use and kept with the weight."""
        return mu_from_rho(self)


def weighted_grid(rho: GridFunction, warn: bool = True) -> WeightedGrid:
    """Attach a weight to its grid, checking measure positivity per branch.

    A point is not positive where delta*rho has the wrong sign, or where
    its imaginary part exceeds the tolerance: a measure must be real.
    """
    grid = rho.grid
    v, m = rho.flat, rho.flat_valid
    # delta*rho only where rho is valid: a masked cell may hold inf or nan
    terms = np.multiply(grid.deltas, v, where=m, out=np.zeros_like(v))
    tol = _POSITIVITY_TOL * np.fmax(
        1.0, grid.branch_max(np.where(m, np.abs(v), 0.0)))
    bad = ((grid.measure_sign * terms.real < -tol)
           | (np.abs(terms.imag) > tol))
    flags = ~(bad & m & grid.has_next)
    w = WeightedGrid(grid, rho, flags)
    if warn and not w.positivity_ok():
        n_bad = int((~flags).sum())
        warnings.warn(f"measure not positive at {n_bad} grid points",
                      PositivityWarning, stacklevel=2)
    return w


def inner_product(phi: GridFunction, psi: GridFunction, w: WeightedGrid,
                  check_tail: bool = True):
    """The weighted pairing sum delta_n conj(phi) psi rho over the grid mode;
    one pairing per row for probe blocks."""
    phi.check_same_grid(psi)
    if phi.grid is not w.grid:
        raise GridMismatch("functions and weight live on different grids")
    with np.errstate(invalid="ignore", over="ignore"):
        terms = np.conj(phi.flat) * psi.flat * w.rho.flat
    valid = phi.flat_valid & psi.flat_valid & w.rho.flat_valid
    return tau_integral(GridFunction.fresh(phi.grid, terms, valid),
                        check_tail=check_tail)


def norm(phi: GridFunction, w: WeightedGrid):
    """The weighted norm; one per row for a probe block."""
    re = np.real(inner_product(phi, phi, w, check_tail=False))
    out = np.sqrt(np.where(re < 0.0, 0.0, re))
    return float(out) if out.ndim == 0 else out


def mu_from_rho(w: WeightedGrid) -> GridFunction:
    """The backward-shift multiplier mu[n] = (delta_{n-1}/delta_n) rho[n-1]/rho[n]."""
    grid = w.grid
    v, m = w.rho.flat, w.rho.flat_valid
    if np.any(m & (np.abs(v) < ZERO_TOL)):
        raise ZeroWeight("weight vanishes at a grid point; split the orbit")
    inner, d = grid.interior(), grid.deltas
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = np.where(inner, (grid.shifted(d, -1) / d) * grid.shifted(v, -1)
                       / v, 0.0)
    return GridFunction.fresh(grid, out, inner & grid.shifted(m, -1) & m,
                              label="mu")


def adjoint_shift(phi: GridFunction, w: WeightedGrid) -> GridFunction:
    """The adjoint composition operator: (T*phi)[n] = mu[n] phi[n-1].

    At the base point of a semigroup or interval branch the value is
    exactly zero; on a group branch the first index is a truncation edge
    and stays invalid instead.
    """
    if phi.grid is not w.grid:
        raise GridMismatch("function and weight live on different grids")
    grid = phi.grid
    mu = w.mu
    has_prev = grid.neighbour_mask(-1)
    # masked-out entries may hold inf/nan; their arithmetic is discarded
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.where(has_prev, mu.flat * grid.shifted(phi.flat, -1), 0.0)
    mask = mu.flat_valid & grid.shifted(phi.flat_valid, -1)
    if grid.mode != GROUP:
        # boundary row: T* truncates to zero at each branch base
        mask = np.where(has_prev, mask, phi.flat_valid)
    return GridFunction.fresh(grid, out, mask, label="T*phi")


def weight_from_pearson(B: GridFunction, eta: GridFunction) -> WeightedGrid:
    """Build the weight solving T(B rho) = eta rho with rho = 1 at each base.

    The step rho[n+1] = eta[n] rho[n] / B[n+1] is diagonal, so each leg is
    one running product (:meth:`OrbitGrid.outward_scan`) of the ratios
    eta[n] (1/B[n+1]) ahead of the base and B[n+1] (1/eta[n]) behind a
    group base.  A divisor below ``ZERO_TOL`` entering a point whose
    predecessor is still finite raises :class:`ZeroDivisor` naming it.
    """
    B.check_same_grid(eta)
    grid = B.grid
    grid._check_steps(1)
    bn, e = grid.shifted(B.flat, 1), eta.flat
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho, mask = grid.outward_scan(np.multiply, (e * (1 / bn), bn * (1 / e)),
                                      eta.flat_valid
                                      & grid.shifted(B.flat_valid, 1))
    # a pole needs a divisor below ZERO_TOL at a valid point off the bases
    # (a base is entered by no step, and B = 1 - x^2 vanishes at the bases
    # of a q-Hahn weight): most weights have none, and skip the rule
    bases = [s.start + br.base_index
             for br, s in zip(grid.branches, grid.slices)]
    suspect = mask & ((np.abs(e) < ZERO_TOL) | (np.abs(B.flat) < ZERO_TOL))
    suspect[bases] = False
    if suspect.any():
        # each point's side of its base: -1 behind, 0 at it, +1 ahead
        side = np.sign(np.arange(grid.size) - grid.per_point(bases))
        divisor = np.where(side < 0, e, B.flat)
        # past an earlier pole the walk is inf or nan: it meets no new one
        prev = np.where(side < 0, grid.shifted(rho, 1), grid.shifted(rho, -1))
        pole = (mask & (side != 0) & (np.abs(divisor) < ZERO_TOL)
                & np.isfinite(prev))
        if pole.any():
            k = np.flatnonzero(pole)[0]
            raise ZeroDivisor(f"{'eta' if side[k] < 0 else 'B'} vanishes at "
                              f"orbit point index {grid.locate(k)[1]}")
    w = weighted_grid(GridFunction.fresh(grid, rho, mask, label="rho"))
    res = pearson_residual(B, eta, w)
    if res > 1e-11:
        raise InconsistentWeights(
            f"Pearson recursion residual {res} exceeds 1e-11")
    return w


def pearson_residual(B: GridFunction, eta: GridFunction,
                     w: WeightedGrid) -> float:
    """Scaled residual max|T(B rho) - eta rho| / max(1, |T(B rho)|, |eta rho|)
    of the Pearson recursion, on the points where both sides are valid.

    It is ``max_abs_diff(lhs, rhs) / joint_scale(lhs, rhs)`` of the
    functions lhs = shift(B * rho) and rhs = eta * rho, computed on their
    flat arrays in the same order, so it builds no function.
    """
    if B.grid is not w.grid:
        raise GridMismatch("Pearson data and weight live on different grids")
    grid, rho = w.grid, w.rho
    B.check_same_grid(rho)
    grid._check_steps(1)
    eta.check_same_grid(rho)
    # masked-out entries may hold inf/nan; their arithmetic is discarded
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        lhs = grid.shifted(B.flat * rho.flat, 1)
        rhs = eta.flat * rho.flat
    lhs_ok = grid.shifted(B.flat_valid & rho.flat_valid, 1)
    rhs_ok = eta.flat_valid & rho.flat_valid
    both = lhs_ok & rhs_ok
    diff = np.subtract(lhs, rhs, where=both,
                       out=np.zeros_like(lhs, np.result_type(lhs, rhs)))
    top = np.maximum.reduce(np.abs(diff), initial=0.0, where=both)
    scale = np.fmax(np.fmax(1.0, np.maximum.reduce(
        np.abs(lhs), initial=0.0, where=lhs_ok)), np.maximum.reduce(
        np.abs(rhs), initial=0.0, where=rhs_ok))
    return float(top) / float(scale)


def adjoint_tau_derivative(psi: GridFunction, w_k: WeightedGrid,
                           eta: GridFunction) -> GridFunction:
    """Adjoint of d_tau across levels: (1 - T*) applied to eta psi/(id - tau).

    The pairing moves d_tau from the weight eta*rho side to the weight
    rho side; summation by parts shows the backward-shift multiplier is
    the one of ``w_k`` itself.
    """
    core = step_quotient(eta * psi)
    return core - adjoint_shift(core, w_k)


__all__ = [
    "WeightedGrid", "weighted_grid", "inner_product", "norm", "mu_from_rho",
    "adjoint_shift", "weight_from_pearson",
    "pearson_residual", "adjoint_tau_derivative",
]
