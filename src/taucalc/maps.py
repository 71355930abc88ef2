"""Bijections of a real interval and their orbits.

A :class:`TauMap` packages a bijection of an interval together with its
inverse.  Iterating the map generates the orbits on which the whole
calculus lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainEscape

_DOMAIN_TOL = 1e-9
# limit_point's detection tolerance and step cap (grid branches depend on both)
LIMIT_TOL = 1e-13
LIMIT_MAX_ITER = 10000
# build_grid ends an orbit after three steps below this, relative to
# 1 + |limit|; the limit polish of limit_point is derived from it
DEFAULT_DELTA_TOL = 1e-15
_POLISH_TOL = 2.0 ** -56 * DEFAULT_DELTA_TOL


@dataclass(frozen=True)
class TauMap:
    """A bijection of the interval ``domain`` with an explicit inverse."""

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    domain: tuple[float, float]
    name: str = field(default="", compare=False)

    def __call__(self, x: float) -> float:
        return self.forward(x)

    def contains(self, x: float | np.ndarray) -> bool | np.ndarray:
        """Whether x (elementwise for an array) lies in the domain, padded
        by _DOMAIN_TOL (1 + |lo| + |hi|)."""
        lo, hi = self.domain
        pad = _DOMAIN_TOL * (1.0 + abs(lo) + abs(hi))
        return (lo - pad <= x) & (x <= hi + pad)


@dataclass(frozen=True)
class LimitResult:
    """Outcome of fixed-point iteration toward the orbit limit: the limit,
    the steps to detection and the walk x0, tau(x0), ..., ``value``."""

    value: float
    iterations: int
    converged: bool
    walk: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        self.walk.setflags(write=False)


def linear_map(q: float, h: float = 0.0,
               domain: tuple[float, float] | None = None) -> TauMap:
    """The affine bijection x -> q*x + h."""
    if q == 0.0:
        raise ValueError("q must be nonzero for a bijection")
    if domain is None:
        domain = (-1e18, 1e18)
    return TauMap(lambda x: q * x + h, lambda y: (y - h) / q, domain,
                  name=f"linear(q={q},h={h})")


def fractional_map(a: float, domain: tuple[float, float] = (0.0, 1.0)) -> TauMap:
    """The map x -> a*x / ((a-1)*x + 1), preserving (0, 1)."""
    if a <= 0.0 or a == 1.0:
        raise ValueError("need a > 0, a != 1")

    def fwd(x: float) -> float:
        return a * x / ((a - 1.0) * x + 1.0)

    def inv(y: float) -> float:
        # Solving y = a x / ((a-1)x + 1) for x.
        return y / (a - (a - 1.0) * y)

    return TauMap(fwd, inv, domain, name=f"fractional(a={a})")


def power_map(p: float, domain: tuple[float, float] = (0.0, 1.0)) -> TauMap:
    """The map x -> x**p on a subinterval of (0, 1) or (1, inf)."""
    if p <= 0.0 or p == 1.0:
        raise ValueError("need p > 0, p != 1")
    return TauMap(lambda x: x ** p, lambda y: y ** (1.0 / p), domain,
                  name=f"power(p={p})")


def compose_maps(*maps: TauMap) -> TauMap:
    """Composition m1 o m2 o ... o mn (rightmost applied first)."""
    if not maps:
        raise ValueError("need at least one map")

    def fwd(x: float) -> float:
        for m in reversed(maps):
            x = m.forward(x)
        return x

    def inv(y: float) -> float:
        for m in maps:
            y = m.inverse(y)
        return y

    name = "o".join(m.name or "?" for m in maps)
    return TauMap(fwd, inv, maps[-1].domain, name=f"compose({name})")


def iterate(tau: TauMap, x0: float, n: int) -> float:
    """n-fold composition tau^n(x0); negative n uses the inverse."""
    if not tau.contains(x0):
        raise DomainEscape(f"x0={x0} outside domain {tau.domain}")
    step = tau.forward if n >= 0 else tau.inverse
    x = x0
    for _ in range(abs(n)):
        x = step(x)
        if not tau.contains(x):
            raise DomainEscape(f"iterate left domain {tau.domain} at {x}")
    return x


def limit_point(tau: TauMap, x0: float,
                _backward_cap: int | None = None) -> LimitResult:
    """Walk tau from ``x0`` to its limit: iterate until a step is below
    ``LIMIT_TOL`` (1 + |x|), then polish toward the fixed point.

    The result keeps the walk x0, tau(x0), ..., limit (read-only); a step
    that does not move ends it and is not stored.  Detection and polish
    take at most ``LIMIT_MAX_ITER`` steps each; ``_backward_cap`` walks
    tau.inverse with that cap instead (a group grid's backward leg).  The
    polish also stops once the error estimate s r/(1 - r), from the last
    step s and the ratio r of the last two, is below
    2^-56 DEFAULT_DELTA_TOL r^4 (1 + |x|): with a factor 2 to spare, a
    quarter-ulp of the nearest distance DEFAULT_DELTA_TOL r^4 (1 + |limit|)
    a grid point keeps to the limit (a branch stops after three steps
    below DEFAULT_DELTA_TOL), so more polishing changes no point - limit.
    """
    step, cap = ((tau.forward, LIMIT_MAX_ITER) if _backward_cap is None
                 else (tau.inverse, _backward_cap))
    x = float(x0)
    walk = [x]
    for i in range(1, cap + 1):
        x_next = step(x)
        last = abs(x_next - x)
        if last < LIMIT_TOL * (1.0 + abs(x)):
            if x_next != x:
                walk.append(x_next)
            for _ in range(cap):
                x_more = step(x_next)
                if x_more == x_next:
                    break
                r, last = abs(x_more - x_next) / last, abs(x_more - x_next)
                x_next = x_more
                walk.append(x_next)
                if r < 1.0 and last * r / (1.0 - r) < (
                        _POLISH_TOL * r ** 4 * (1.0 + abs(x_next))):
                    break
            return LimitResult(x_next, i, True, np.array(walk))
        walk.append(x_next)
        x = x_next
    return LimitResult(x, cap, False, np.array(walk))
