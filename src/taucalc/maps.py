"""Bijections of a real interval and their orbits.

A :class:`TauMap` packages a bijection of an interval together with its
inverse.  Iterating the map generates the orbits on which the whole
calculus lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainEscape

_DOMAIN_TOL = 1e-9
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

    def contains(self, x: float, tol: float = _DOMAIN_TOL) -> bool:
        lo, hi = self.domain
        pad = tol * (1.0 + abs(lo) + abs(hi))
        return lo - pad <= x <= hi + pad


@dataclass(frozen=True)
class LimitResult:
    """Outcome of fixed-point iteration toward the orbit limit."""

    value: float
    iterations: int
    converged: bool


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


def limit_point(tau: TauMap, x0: float, tol: float = 1e-13,
                max_iter: int = 10000) -> LimitResult:
    """Iterate tau until successive points agree to relative tolerance,
    then polish the iterate toward the fixed point.

    A tolerance-level iterate would make distance-to-limit functions
    vanish at deep grid points, so the polish keeps iterating, at most
    ``max_iter`` more steps, until the point stops moving or the
    remaining error, estimated as s r/(1 - r) from the last step s and
    the ratio r of the last two steps, is below
    2^-56 DEFAULT_DELTA_TOL r^4 (1 + |x|).  An orbit grid stops after
    three steps below DEFAULT_DELTA_TOL (1 + |limit|), so none of its
    points lies nearer the limit than about DEFAULT_DELTA_TOL r^4
    (1 + |limit|); an error below a quarter-ulp of that (2^-55, with a
    factor 2 to spare for the estimate) leaves every difference
    point - limit as further polishing would leave it.
    """
    if tol <= 0.0 or max_iter < 1:
        raise ValueError("need tol > 0 and max_iter >= 1")
    x = x0
    for i in range(1, max_iter + 1):
        x_next = tau.forward(x)
        step = abs(x_next - x)
        if step < tol * (1.0 + abs(x)):
            for _ in range(max_iter):
                x_more = tau.forward(x_next)
                if x_more == x_next:
                    break
                r, step = abs(x_more - x_next) / step, abs(x_more - x_next)
                x_next = x_more
                if r < 1.0 and step * r / (1.0 - r) < (
                        _POLISH_TOL * r ** 4 * (1.0 + abs(x_next))):
                    break
            return LimitResult(value=x_next, iterations=i, converged=True)
        x = x_next
    return LimitResult(value=x, iterations=max_iter, converged=False)
