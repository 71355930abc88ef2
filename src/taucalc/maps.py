"""Bijections of a real interval and their orbits.

A :class:`TauMap` packages a bijection of an interval together with its
inverse.  Iterating the map generates the orbits on which the whole
calculus lives.
"""

from __future__ import annotations

import math
import sys
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
    """A bijection of the interval ``domain`` with an explicit inverse.

    ``forward`` and ``inverse`` act elementwise: a float gives a float, an
    array the array of images.
    """

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    domain: tuple[float, float]
    name: str = field(default="", compare=False)

    def __call__(self, x: float) -> float:
        return self.forward(x)

    def contains(self, x: float | np.ndarray) -> bool | np.ndarray:
        """Whether x (elementwise for an array) lies in the domain, padded
        by _DOMAIN_TOL (1 + |lo| + |hi|)."""
        lo, hi = self._padded()
        return (lo <= x) & (x <= hi)

    def _padded(self) -> tuple[float, float]:
        lo, hi = self.domain
        pad = _DOMAIN_TOL * (1.0 + abs(lo) + abs(hi))
        return lo - pad, hi + pad


@dataclass(frozen=True)
class _ScaleMap(TauMap):
    """The map x -> q*x + 0.0, 0 < |q| < 1, that :func:`linear_map` builds
    for h = +0.0: :func:`limit_point` walks its forward orbits as running
    products of ``q``."""

    q: float = 0.5


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
    name = f"linear(q={q},h={h})"
    # a float 0 < |q| < 1 and h = +0.0: each step is one rounded product
    if (isinstance(q, float) and abs(q) < 1.0
            and isinstance(h, (int, float)) and h == 0.0
            and math.copysign(1.0, h) > 0.0):
        return _ScaleMap(lambda x: q * x + h, lambda y: (y - h) / q, domain,
                         name=name, q=float(q))
    return TauMap(lambda x: q * x + h, lambda y: (y - h) / q, domain, name=name)


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
    2^-56 DEFAULT_DELTA_TOL (r r (r r)) (1 + |x|): with a factor 2 to
    spare, a quarter-ulp of the nearest distance DEFAULT_DELTA_TOL r^4
    (1 + |limit|) a grid point keeps to the limit (a branch stops after
    three steps below DEFAULT_DELTA_TOL), so more polishing changes no
    point - limit.  A walk that has not yet detected its limit ends
    unconverged at its first point after x0 that is not finite or not in
    ``tau.domain`` (that point is the last of the walk).  A step that
    raises an ArithmeticError (a pole, an overflow) or gives a value that
    is not real (a negative base of x ** p) raises :class:`DomainEscape`.

    A forward walk of a contracting scale map x -> q x (:func:`linear_map`
    with 0 < |q| < 1 and h = +0.0) is made of running products instead
    (:func:`_running_products`), with the same result bit for bit.
    """
    if isinstance(tau, _ScaleMap) and _backward_cap is None:
        return _running_products(tau, x0)
    step, cap = ((tau.forward, LIMIT_MAX_ITER) if _backward_cap is None
                 else (tau.inverse, _backward_cap))
    lo, hi = _finite_bounds(tau)
    x = float(x0)
    walk = [x]
    # of the loop's arithmetic, only the map's own steps can raise; a
    # complex step raises TypeError in the domain test or in the float walk
    try:
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
                    if r < 1.0 and last * r / (1.0 - r) < _POLISH_TOL * (
                            r * r * (r * r)) * (1.0 + abs(x_next)):
                        break
                return LimitResult(x_next, i, True,
                                   np.array(walk, dtype=float))
            walk.append(x_next)
            if not lo <= x_next <= hi:
                return LimitResult(x_next, i, False, np.array(walk))
            x = x_next
    except (ArithmeticError, TypeError) as exc:
        raise DomainEscape(f"a step of {tau.name or 'the map'} failed on the "
                           f"orbit of {x0} at x={walk[-1]}: {exc}") from exc
    return LimitResult(x, cap, False, np.array(walk))


def _finite_bounds(tau: TauMap) -> tuple[float, float]:
    """(lo, hi) such that lo <= x <= hi exactly where x is finite and
    ``tau.contains(x)``: +-inf and nan compare outside."""
    lo, hi = tau._padded()
    return max(lo, -sys.float_info.max), min(hi, sys.float_info.max)


def _running_products(tau: _ScaleMap, x0: float) -> LimitResult:
    """The forward :func:`limit_point` walk of x -> q*x + 0.0 from ``x0``,
    made of running products of q = ``tau.q``.

    A step is one rounded product, so ``multiply.accumulate`` (with the
    + 0.0 that turns a -0.0 product into +0.0) gives the scalar walk bit
    for bit.  The walk is made in chunks: the first to about its expected
    length, log(|x0|/_POLISH_TOL)/log(1/|q|) + 64 steps (64 from a base
    that has no such length), then doubling, never past the last step
    the cap allows (an orbit run deep into subnormals is slow).
    Detection, the stop at the first point outside the domain and the
    polish stop (see :func:`_polish_stop`) are the scalar tests on a
    whole chunk at once.
    """
    q, cap = tau.q, LIMIT_MAX_ITER
    bottom, top = _finite_bounds(tau)
    x0 = float(x0)
    w = np.array([x0])
    found = None   # the step where the limit was detected
    lo = 1         # the first step not yet tested
    # the walk shrinks by |q| per step, and its polish ends near
    # |x| = _POLISH_TOL (a nan span compares false)
    span = abs(x0) / _POLISH_TOL
    grow = (int(math.log(span) / -math.log(abs(q))) + 64
            if 1.0 < span < math.inf else 64)
    with np.errstate(all="ignore"):
        while True:
            stop = cap if found is None else found + cap
            if lo > stop:
                break
            if lo == len(w):
                seg = np.full(min(grow, stop + 1 - len(w)) + 1, q)
                seg[0] = w[-1]
                np.multiply.accumulate(seg, out=seg)
                seg += 0.0
                w = np.concatenate((w, seg[1:]))
                grow = len(w)
            hi = len(w) - 1
            if found is not None:
                end = _polish_stop(w, lo, hi)
                if end is not None:
                    return LimitResult(float(w[end]), found, True, w[:end + 1])
                lo = hi + 1
                continue
            prev, nxt = w[lo - 1:hi], w[lo:]
            hit = (np.abs(nxt - prev)
                   < LIMIT_TOL * (1.0 + np.abs(prev))).nonzero()[0]
            out = (~((bottom <= nxt) & (nxt <= top))).nonzero()[0]
            if len(out) and not (len(hit) and hit[0] <= out[0]):
                end = lo + int(out[0])
                return LimitResult(float(w[end]), end, False, w[:end + 1])
            if not len(hit):
                lo = hi + 1
                continue
            found = lo + int(hit[0])
            if w[found] == w[found - 1]:   # a step that does not move
                return LimitResult(float(w[found]), found, True, w[:found])
            lo = found + 1
    if found is None:
        return LimitResult(float(w[cap]), cap, False, w[:cap + 1])
    return LimitResult(float(w[stop]), found, True, w[:stop + 1])


def _polish_stop(w: np.ndarray, lo: int, hi: int) -> int | None:
    """Index of the last point of the polish in ``w[lo:hi + 1]``: the
    first step j that does not move (the walk ends at j - 1) or that
    passes the polish test of :func:`limit_point` (it ends at j); None if
    the polish goes on.  The test is the scalar one, operation for
    operation, so each step passes it exactly when the scalar walk's does.
    """
    step = np.abs(w[lo - 1:hi + 1] - w[lo - 2:hi])
    still = (w[lo:hi + 1] == w[lo - 1:hi]).nonzero()[0]
    n = int(still[0]) if len(still) else hi + 1 - lo
    last, r = step[1:n + 1], step[1:n + 1] / step[:n]
    passed = ((r < 1.0) & (last * r / (1.0 - r) < _POLISH_TOL * (
        r * r * (r * r)) * (1.0 + np.abs(w[lo:lo + n])))).nonzero()[0]
    if len(passed):
        return lo + int(passed[0])
    return lo + n - 1 if len(still) else None
