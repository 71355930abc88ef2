"""Shift, difference and integral operators on orbit grids.

All operators act pointwise along each orbit branch.  With points
``x_n = tau^n(base)`` and steps ``delta_n = x_n - x_{n+1}``:

* shift by 1 evaluates the composition with tau, ``(Tf)[n] = f[n+1]``,
* the tau-derivative is the divided difference ``(f[n]-f[n+1])/delta_n``,
* the tau-integral is the telescoping sum ``sum delta_n f[n]``.

Products over the orbit (the tau-exponential, first-order solves) are
suffix products anchored at the orbit limit.

Shifts, differences and integrals act on the last axis, so a probe
block of shape (k, N) goes through each operator in one array pass;
integrals then return one value per row.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (FactorZero, GridMismatch, NonPositiveFactor,
                     NotContractingWarning, TailNotConverged)
from .grid import GROUP, INTERVAL, SEMIGROUP, OrbitGrid, contraction_estimate
from .gridfn import GridFunction

# bound on an orbit sum's last terms, relative to max(1, largest valid |f|)
_TAIL_TOL = 1e-10


def deltas_fn(grid: OrbitGrid) -> GridFunction:
    """The step function x - tau(x) sampled on the grid (last index invalid)."""
    return GridFunction(grid, grid.deltas, grid.has_next, label="x-tau(x)")


def dtau_inverse_fn(grid: OrbitGrid) -> GridFunction:
    """The tau-derivative of the inverse map: delta_{n-1}/delta_n on the grid."""
    out = np.divide(grid.shifted(grid.deltas, -1), grid.deltas,
                    where=grid.interior(), out=np.zeros(grid.size))
    return GridFunction.fresh(grid, out, grid.interior(), label="dtau(tau^-1)")


def shift(f: GridFunction, steps: int = 1) -> GridFunction:
    """Composition with tau^steps: out[n] = f[n+steps], mask shrinking."""
    grid = f.grid
    grid._check_steps(steps)
    return GridFunction.fresh(grid, grid.shifted(f.flat, steps),
                              grid.shifted(f.flat_valid, steps), label=f.label)


def step_quotient(num: GridFunction, label: str = "") -> GridFunction:
    """num/(x - tau(x)) on every point with an orbit successor.

    The last index of each branch has no step and turns invalid (value 0).
    """
    grid = num.grid
    out = np.divide(num.flat, grid.deltas, where=grid.has_next,
                    out=np.zeros_like(num.flat))
    return GridFunction.fresh(grid, out, num.flat_valid & grid.has_next,
                              label=label)


def tau_derivative(f: GridFunction) -> GridFunction:
    """Divided difference (f - Tf)/(x - tau(x)); the last index turns invalid.

    out[n] = (f[n] - f[n+1]) / delta_n on the points with a successor.
    """
    grid = f.grid
    grid._check_steps(1)
    v, m = f.flat, f.flat_valid
    # masked-out entries may hold inf/nan; their arithmetic is discarded
    with np.errstate(invalid="ignore", over="ignore"):
        diff = v - grid.shifted(v, 1)
    out = np.divide(diff, grid.deltas, where=grid.has_next,
                    out=np.zeros_like(diff))
    return GridFunction.fresh(grid, out, m & grid.shifted(m, 1),
                              label=f"d({f.label})" if f.label else "")


def _column(x) -> np.ndarray:
    """One scale per row, shaped to broadcast against the row's entries."""
    return np.asarray(x)[..., None]


def _orbit_terms(f: GridFunction, check_tail: bool) -> np.ndarray:
    """The terms delta_n f[n] of an orbit sum, 0 where f is masked out or
    x_n has no successor.  With ``check_tail``, each branch's last three
    terms must stay below _TAIL_TOL times max(1, the largest valid |f| on
    the branch), each row of a probe block against its own scale."""
    grid = f.grid
    v, m = f.flat, f.flat_valid
    # the terms are C-ordered, so each row of a block sums as it would alone
    terms = np.multiply(grid.deltas, v, where=m & grid.has_next,
                        out=np.zeros_like(v))
    if check_tail:
        starts = np.array([s.start for s in grid.slices])
        limit = _TAIL_TOL * np.fmax(1.0, np.maximum.reduceat(
            np.where(m, np.abs(v), 0.0), starts, axis=-1))[..., None]
        # (branch, term): a branch's last three terms, 2 to 4 points before
        # its end; a shorter branch reads its first point more than once
        last = np.maximum(np.array([s.stop for s in grid.slices])[:, None]
                          - [4, 3, 2], starts[:, None])
        tail = np.abs(terms[..., last])
        if (tail > limit).any():
            raise TailNotConverged(f"last tail terms {tail} exceed "
                                   f"{_TAIL_TOL}*scale={limit}")
    return terms


def tau_integral(f: GridFunction, check_tail: bool = True):
    """Orbit-weighted sum; interval grids subtract the a-branch integral.

    Semigroup: integral from the limit to the base.  Interval: integral
    over [a, b] as orbit(b) minus orbit(a).  Group: two-sided sum.
    The masked terms delta_n f[n] are formed once over the flat grid
    (see :func:`_orbit_terms`, which checks their tail); each branch sums
    its own, the last point excluded.  A probe block gives one integral
    per row; TailNotConverged is raised if any row fails its check.
    """
    grid = f.grid
    if grid.mode not in (SEMIGROUP, GROUP, INTERVAL):
        raise GridMismatch(f"unsupported grid mode {grid.mode}")
    terms = _orbit_terms(f, check_tail)
    sums = [terms[..., s.start:s.stop - 1].sum(axis=-1) for s in grid.slices]
    if grid.mode == INTERVAL:
        ia, ib = (grid.branches.index(grid.branch(r)) for r in ("a", "b"))
        total = sums[ib] - sums[ia]
    else:
        total = sums[0]
    if grid.mode == GROUP and check_tail:
        # Backward tail sits at the start of the branch.
        tail = np.abs(terms[..., :3])
        if (tail > _TAIL_TOL * _column(np.fmax(1.0, f.max_abs()))).any():
            raise TailNotConverged(f"backward tail terms {tail} too large")
    return total[()]


def _suffix_valid(f: GridFunction) -> np.ndarray:
    """True where f is valid at this and every deeper point of the branch;
    the last point of a branch (the limit end) counts as valid."""
    return f.grid.suffix_scan(np.logical_and, f.flat_valid | ~f.grid.has_next)


def tau_antiderivative(f: GridFunction, check_tail: bool = True) -> GridFunction:
    """Per-branch suffix sums: out[n] = integral of f from the limit to x_n.

    The terms and their tail check are those of :func:`tau_integral`."""
    grid = f.grid
    # out[n] = sum_{m>=n} terms[m], summed tail-first for accuracy.
    out = grid.suffix_scan(np.add, _orbit_terms(f, check_tail))
    return GridFunction.fresh(grid, out, _suffix_valid(f),
                              label=f"int({f.label})" if f.label else "")


def _positive_real(arr: np.ndarray, what: str) -> np.ndarray:
    if np.any(np.abs(arr.imag) > 1e-13 * (1.0 + np.abs(arr.real))):
        raise NonPositiveFactor(f"{what}: complex value, real log branch required")
    re = arr.real
    if np.any(np.abs(re) < 1e-300):
        raise FactorZero(f"{what}: vanishing factor")
    if np.any(re <= 0.0):
        raise NonPositiveFactor(f"{what}: non-positive factor")
    return re


def tau_exponential(grid: OrbitGrid) -> GridFunction:
    """Product solution of d_tau(e) = e with e = 1 at the orbit limit."""
    est = contraction_estimate(grid)
    if est >= 1.0:
        warnings.warn(f"contraction estimate {est} >= 1; product may diverge",
                      NotContractingWarning, stacklevel=2)
    fac = 1.0 - grid.deltas  # 1 at the branch ends: the empty product
    if np.any(np.abs(fac) < 1e-14):
        raise FactorZero("factor 1 - (x - tau(x)) vanishes on the orbit")
    return GridFunction.fresh(grid, grid.suffix_scan(np.multiply, 1.0 / fac),
                              label="exp_tau")


def solve_linear_first_order(f: GridFunction, init: complex = 1.0) -> GridFunction:
    """Solve d_tau(psi) = f * psi with psi = init at the orbit limit.

    The suffix product psi[n] = init * prod_{m>=n} 1/(1 - delta_m f[m])
    satisfies the divided-difference equation exactly.
    """
    grid = f.grid
    use = f.flat_valid & grid.has_next
    fac = _positive_real(np.where(use, 1.0 - grid.deltas * f.flat, 1.0),
                         "first-order factor")
    out = init * grid.suffix_scan(np.multiply, 1.0 / fac)
    psi = GridFunction.fresh(grid, out, _suffix_valid(f), label="psi")
    _verify_first_order(psi, f)
    return psi


def _verify_first_order(psi: GridFunction, f: GridFunction) -> None:
    # step form psi[n] (1 - delta f[n]) = psi[n+1]: unlike the divided
    # difference it does not amplify rounding by 1/delta at the tail
    grid = psi.grid
    lhs, rhs = psi * (1.0 - deltas_fn(grid) * f), shift(psi)
    sel = lhs.flat_valid & rhs.flat_valid
    if not sel.any():
        return
    scale = np.fmax(1.0, grid.branch_max(np.where(sel, np.abs(rhs.flat), 0.0)))
    res = float(np.max(np.abs(lhs.flat[sel] - rhs.flat[sel]) / scale[sel]))
    if res > 1e-10:
        raise TailNotConverged(f"first-order solve residual {res} > 1e-10")


__all__ = [
    "deltas_fn", "dtau_inverse_fn", "shift", "step_quotient", "tau_derivative",
    "tau_integral", "tau_antiderivative", "tau_exponential",
    "solve_linear_first_order",
]
