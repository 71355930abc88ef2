"""Change of variables: conjugating the generating map by a homeomorphism.

A strictly monotone invertible change kappa: X -> Y turns the dynamics
tau on X into tau~ = kappa o tau o kappa^{-1} on Y.  Sampled on the
image grid (y_n = kappa(x_n)), transported functions keep their values
while the weight and the coefficient pair pick up ratios of the orbit
increments of the two grids, so that inner products — and hence the
whole eigenproblem — are preserved.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .chain import ChainLevel, make_level
from .errors import DomainEscape, GridMismatch
from .grid import OrbitGrid
from .gridfn import GridFunction
from .maps import TauMap

_MONOTONE_SAMPLES = 1000
# scan points per map when counting fixed points
_FIXED_POINT_SAMPLES = 2000


@dataclass(frozen=True)
class VariableChange:
    """A homeomorphism kappa with explicit inverse between two intervals.

    ``kappa`` and ``kappa_inv`` act elementwise: a float gives a float, an
    array the array of images.
    """

    kappa: Callable[[float], float]
    kappa_inv: Callable[[float], float]
    source: tuple[float, float]
    target: tuple[float, float]
    name: str = ""

    def __post_init__(self) -> None:
        lo, hi = self.source
        xs = np.linspace(lo, hi, _MONOTONE_SAMPLES)
        ys = np.asarray(self.kappa(xs), dtype=float)
        back = np.asarray(self.kappa_inv(ys), dtype=float)
        if np.max(np.abs(back - xs) / (1.0 + np.abs(xs))) > 1e-11:
            raise DomainEscape("kappa_inv is not the inverse of kappa")
        diffs = np.diff(ys)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            warnings.warn("kappa is not monotone on the sampled domain",
                          UserWarning, stacklevel=2)

    def __call__(self, x):
        return self.kappa(x)


def ln_change(source: tuple[float, float]) -> VariableChange:
    """kappa = ln on a positive interval."""
    if source[0] <= 0:
        raise DomainEscape("ln change needs a positive source interval")
    return VariableChange(np.log, np.exp, source,
                          (float(np.log(source[0])), float(np.log(source[1]))),
                          name="ln")


def affine_change(p: float, q: float,
                  source: tuple[float, float]) -> VariableChange:
    """kappa(x) = p*x + q."""
    if p == 0.0:
        raise DomainEscape("affine change needs p != 0")
    lo, hi = sorted((p * source[0] + q, p * source[1] + q))
    return VariableChange(lambda x: p * x + q, lambda y: (y - q) / p,
                          source, (lo, hi), name=f"affine({p},{q})")


def powerlaw_change(p: float, source: tuple[float, float]) -> VariableChange:
    """kappa(x) = x**p on a positive interval."""
    if source[0] <= 0 or p == 0.0:
        raise DomainEscape("power change needs a positive interval and p != 0")
    lo, hi = sorted((source[0] ** p, source[1] ** p))
    return VariableChange(lambda x: x ** p, lambda y: y ** (1.0 / p),
                          source, (lo, hi), name=f"powerlaw({p})")


def conjugate_map(tau: TauMap, ch: VariableChange) -> TauMap:
    """The conjugated dynamics tau~ = kappa o tau o kappa^{-1} on the image."""
    k, ki = ch.kappa, ch.kappa_inv
    return TauMap(lambda y: k(tau.forward(ki(y))),
                  lambda y: k(tau.inverse(ki(y))),
                  ch.target, name=f"{ch.name or 'kappa'}~{tau.name}")


def transport_grid(grid: OrbitGrid, ch: VariableChange) -> OrbitGrid:
    """The pointwise kappa-image of an orbit grid, under the conjugated map.

    Branch points map through kappa one by one (not re-iterated from the
    base), so the index correspondence with the source grid is exact. They
    are output, so they stay per-point calls: on an array, numpy may round
    differently (``x ** 0.5`` takes a sqrt fast path and can move an ulp).
    """
    pts = np.array([ch.kappa(x) for x in grid.points])
    branches = tuple(replace(br, points=pts[s], limit=float(ch.kappa(br.limit)))
                     for br, s in zip(grid.branches, grid.slices))
    return OrbitGrid(conjugate_map(grid.tau, ch), grid.mode, branches)


def _check_correspondence(source: OrbitGrid, ch: VariableChange,
                          target: OrbitGrid) -> None:
    if len(source.branches) != len(target.branches):
        raise GridMismatch("branch counts differ")
    if source.slices != target.slices:
        raise GridMismatch("branch lengths differ")
    img = np.asarray(ch.kappa(source.points), dtype=float)
    if np.max(np.abs(img - target.points) / (1.0 + np.abs(img))) > 1e-12:
        raise GridMismatch("target grid is not the kappa-image of the source")


def transport_function(f: GridFunction, ch: VariableChange,
                       target_grid: OrbitGrid) -> GridFunction:
    """Carry values across: (K f)(y) = f(kappa^{-1} y), index-aligned."""
    _check_correspondence(f.grid, ch, target_grid)
    return GridFunction(target_grid, f.flat, f.flat_valid, f.label)


def _delta_ratio(source: OrbitGrid, target: OrbitGrid) -> GridFunction:
    """The ratio of orbit increments delta^x_n / delta^y_n on the target grid.

    This is the grid sampling of the derivative of kappa^{-1} along the
    image orbit, d_tau~ kappa^{-1}(y_n).
    """
    out = np.divide(source.deltas, target.deltas, where=target.has_next,
                    out=np.ones(target.size))
    return GridFunction.fresh(target, out, target.has_next, label="dx/dy")


def transport_level(level: ChainLevel, ch: VariableChange,
                    target_grid: OrbitGrid) -> ChainLevel:
    """Transport a factorization level across the change of variables.

    The values of eta, f (and g) carry over unchanged; h picks up the
    increment ratio so that h * d_tau is preserved; B picks up the ratio
    of consecutive increment ratios so that the Pearson pair stays
    consistent; the weight rho transports with the increment ratio,
    making the transport a unitary map of the weighted spaces.
    """
    _check_correspondence(level.grid, ch, target_grid)
    r = _delta_ratio(level.grid, target_grid)

    def carry(f: GridFunction) -> GridFunction:
        return GridFunction(target_grid, f.flat, f.flat_valid, f.label)

    eta_t = carry(level.eta)
    f_t = carry(level.f)
    h_t = carry(level.h) / r
    # B~[n] = B[n] * (dx_{n-1}/dy_{n-1}) / (dx_n/dy_n)
    n = target_grid.neighbour_index(-1)
    rv, rm = r.flat, r.flat_valid
    B = np.zeros_like(level.B.flat)
    B_mask = np.zeros(target_grid.size, dtype=bool)
    B[n] = level.B.flat[n] * rv[n - 1] / rv[n]
    B_mask[n] = level.B.flat_valid[n] & rm[n - 1] & rm[n]
    B_t = GridFunction.fresh(target_grid, B, B_mask, label="B")
    out = make_level(B_t, eta_t, h_t, f_t, k=level.k)
    if level.g is not None:
        out = replace(out, g=carry(level.g), c=level.c, d=level.d)
    return out


def transport_weight(rho: GridFunction, ch: VariableChange,
                     target_grid: OrbitGrid) -> GridFunction:
    """rho~ = (dx/dy) * (rho o kappa^{-1}) on the image grid."""
    _check_correspondence(rho.grid, ch, target_grid)
    r = _delta_ratio(rho.grid, target_grid)
    return GridFunction(target_grid, rho.flat, rho.flat_valid, rho.label) * r


def _fixed_point_count(m: TauMap) -> int:
    """Fixed points of ``m`` seen by a uniform scan of tau(x) - x over its
    domain, evaluated as one array."""
    lo, hi = m.domain
    xs = np.linspace(lo, hi, _FIXED_POINT_SAMPLES)
    gap = m.forward(xs) - xs
    tol = 1e-12 * (1.0 + np.abs(xs))
    signs = np.sign(np.where(np.abs(gap) < tol, 0.0, gap))
    # one per run of zeros (a touch or a crossing through zero) and
    # one per sign change between adjacent nonzero samples
    zero = signs == 0.0
    runs = np.count_nonzero(zero[1:] & ~zero[:-1]) + zero[0]
    changes = np.count_nonzero(signs[1:] * signs[:-1] < 0.0)
    return int(runs + changes)


def equivalence_obstruction(map_a: TauMap, map_b: TauMap) -> dict:
    """Fixed-point counting obstruction to topological conjugacy.

    Conjugation carries fixed points to fixed points, so unequal counts
    prove the two maps are not equivalent; equal counts prove nothing.
    Counts are estimated from sign changes of tau(x) - x on a uniform
    scan (endpoints checked separately for boundary fixed points); a
    sample where tau(x) - x is nan counts as neither sign.
    """
    counts = (_fixed_point_count(map_a), _fixed_point_count(map_b))
    verdict = "not_equivalent" if counts[0] != counts[1] else "inconclusive"
    return {"fixed_points": counts, "verdict": verdict}


__all__ = [
    "VariableChange", "ln_change", "affine_change",
    "powerlaw_change", "conjugate_map", "transport_grid",
    "transport_function", "transport_weight",
    "transport_level", "equivalence_obstruction",
]
