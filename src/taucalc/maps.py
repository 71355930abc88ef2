"""Bijections of a real interval and their orbits.

A :class:`TauMap` packages a bijection of an interval together with its
inverse.  Iterating the map generates the orbits on which the whole
calculus lives.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainEscape

_DOMAIN_TOL = 1e-9
# limit_point's detection tolerance (grid branches depend on it)
LIMIT_TOL = 1e-13
# build_grid ends an orbit after three steps below this, relative to
# 1 + |limit|; the limit polish of limit_point is derived from it
DEFAULT_DELTA_TOL = 1e-15
_POLISH_TOL = 2.0 ** -56 * DEFAULT_DELTA_TOL
# the most steps of any forward walk: 8 MiB of running products
WALK_MAX_STEPS = 2 ** 20 - 1


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
    the steps to detection (or the cap) and the walk x0, ..., ``value``."""

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


def limit_point(tau: TauMap, x0: float) -> LimitResult:
    """Walk tau from ``x0`` to its limit: iterate until a step is below
    ``LIMIT_TOL`` (1 + |x|), then polish toward the fixed point.

    The result keeps the walk x0, tau(x0), ..., limit (read-only); a polish
    step that does not move, or returns to the point before (a two-cycle of
    the rounded map), ends it and is not stored.  Detection and polish share
    ``WALK_MAX_STEPS`` steps; a walk that does not detect its limit within
    them ends unconverged there.  The polish also stops once the error
    estimate s r/(1 - r), from the last step s and the ratio r of the last
    two, is below 2^-56 DEFAULT_DELTA_TOL (r r (r r)) (1 + |x|): with a
    factor 2 to spare, a quarter-ulp of the nearest distance
    DEFAULT_DELTA_TOL r^4 (1 + |limit|) a grid point keeps to the limit (a
    branch stops after three steps below DEFAULT_DELTA_TOL), so more
    polishing changes no point - limit.  A walk that has not yet detected its
    limit ends unconverged at its first point after x0 that is not finite or
    not in ``tau.domain`` (that point is the last of the walk).  A step that
    raises an ArithmeticError (a pole, an overflow) or gives a value that is
    not real (a negative base of x ** p) raises :class:`DomainEscape`.

    A walk of a contracting scale map x -> q x (:func:`linear_map` with
    0 < |q| < 1 and h = +0.0) is made of running products instead
    (:func:`_running_products`), bit for bit the stepped walk.
    """
    if isinstance(tau, _ScaleMap):
        return _running_products(tau, x0)
    return stepped_walk(tau, tau.forward, x0, WALK_MAX_STEPS)


def stepped_walk(tau: TauMap, step: Callable[[float], float], x0: float,
                 cap: int) -> LimitResult:
    """The :func:`limit_point` walk made one ``step`` (tau.forward, or
    tau.inverse for a group grid's backward leg) at a time, within ``cap``."""
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
                for _ in range(cap - i):
                    x_more = step(x_next)
                    if x_more == x_next or x_more == x:
                        break
                    r, last = abs(x_more - x_next) / last, abs(x_more - x_next)
                    x, x_next = x_next, x_more
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


def _walk_length(q: float, x0: float) -> int:
    """Steps within which the :func:`limit_point` walk of
    x -> q*x + 0.0 from ``x0`` stops.  With s = |x| |1 - q| and r = |q| the
    polish test passes at the step after a point below
    T = _POLISH_TOL |q|^3 (1 - |q|)/|1 - q|: at k = log(|x0|/T)/log(1/|q|).
    Where steps are a few ulps, rounding can hold r at 1 (or off |q|) for
    up to 1/(1 - |q|) steps more, and a walk of subnormals moves at most
    |x0|/2^-1074 times; 2 more hold step k + 1 and a step that does not
    move.  A base of 0, +-inf or nan stops at its first step."""
    a, ax = abs(q), abs(x0)
    if not 0.0 < ax < math.inf:
        return 1
    log_t = (math.log(_POLISH_TOL) + 3.0 * math.log(a) + math.log1p(-a)
             - math.log(abs(1.0 - q)))
    fall = max(0.0, (math.log(ax) - log_t) / -math.log(a))
    return math.ceil(fall + min(ax / 5e-324, 1.0 / (1.0 - a))) + 2


def _running_products(tau: _ScaleMap, x0: float) -> LimitResult:
    """The :func:`limit_point` walk of x -> q*x + 0.0 from ``x0``,
    made of running products of q = ``tau.q``.

    A step is one rounded product, so ``multiply.accumulate`` (with the
    + 0.0 that turns a -0.0 product into +0.0) gives the scalar walk bit
    for bit.  It is formed once, to its :func:`_walk_length`, and
    detection, the domain exit and the polish stop (:func:`_polish_stop`)
    are the scalar tests on the whole array.  A walk longer than
    ``WALK_MAX_STEPS`` ends unconverged at x0, unformed, at that bound.
    """
    x0, n = float(x0), _walk_length(tau.q, x0)
    if n > WALK_MAX_STEPS:
        return LimitResult(x0, WALK_MAX_STEPS, False, np.array([x0]))
    w = np.full(n + 1, tau.q)
    w[0] = x0
    bottom, top = _finite_bounds(tau)
    with np.errstate(all="ignore"):
        np.multiply.accumulate(w, out=w)
        w[1:] += 0.0
        prev, nxt = w[:-1], w[1:]
        hit = np.abs(nxt - prev) < LIMIT_TOL * (1.0 + np.abs(prev))
        stop = np.flatnonzero(hit | ~((bottom <= nxt) & (nxt <= top)))
        found = 1 + int(stop[0]) if len(stop) else n   # detected or left
        if not (len(stop) and hit[found - 1]):
            return LimitResult(float(w[found]), found, False, w[:found + 1])
        if w[found] == w[found - 1]:   # a step that does not move
            return LimitResult(float(w[found]), found, True, w[:found])
        end = _polish_stop(w, found + 1, tau.q)
    return LimitResult(float(w[end]), found, True, w[:end + 1])


def _polish_stop(w: np.ndarray, lo: int, q: float) -> int:
    """Index of the last point of the polish whose first step is
    ``w[lo]``: the point before the first step j that does not move or
    returns to w[j - 2] (the walk ends at j - 1), or the first j that
    passes the polish test of :func:`limit_point` (it ends at j); the end
    of ``w`` if neither comes.  The test is the scalar one, operation for
    operation, so each step passes it exactly when the scalar walk's does.

    ``w`` is a walk of x -> q*x + 0.0, 0 < |q| < 1, so |w| never grows,
    and only the steps j with |w[j - 1]| below :func:`_polish_reach` are
    tested: no step before them can end the walk.
    """
    lo = max(lo, 1 + bisect.bisect_right(w, -_polish_reach(q), lo - 1,
                                         key=lambda x: -abs(x)))
    step = np.abs(w[lo - 1:] - w[lo - 2:-1])
    still = (w[lo:] == w[lo - 1:-1]) | (w[lo:] == w[lo - 2:-2])
    last, r = step[1:], step[1:] / step[:-1]
    passed = (r < 1.0) & (last * r / (1.0 - r) < _POLISH_TOL * (
        r * r * (r * r)) * (1.0 + np.abs(w[lo:])))
    ends = np.flatnonzero(still | passed)
    if not len(ends):
        return len(w) - 1
    return lo + int(ends[0]) - bool(still[ends[0]])


def _polish_reach(q: float) -> float:
    """A bound X such that no step j of a walk of x -> q*x + 0.0 ends its
    polish (:func:`_polish_stop`) while |w[j - 1]| >= X; inf for
    1 - |q| <= 2^-51.

    With u = 2^-53, a step that passes the polish test has
    last < _POLISH_TOL r^3 (1 - r) (1 + |w[j]|), and r^3 (1 - r) <= 27/256,
    so last < 0.11 _POLISH_TOL (1 + |w[j - 1]|) once the rounding of the
    test and an underflow of last * r (possible only for r > 4e-73, where
    the right side is not 0) are allowed for.  A step that moves has
    last >= (1 - u)((1 - |q| - u) |w[j - 1]| - 2^-1075): for q > 0, w[j]
    has the sign of w[j - 1] and |w[j]| <= (|q| + u) |w[j - 1]| + 2^-1075,
    and for q < 0 the other sign, so last >= |w[j - 1]|.  Together,
    |w[j - 1]| < 0.12 _POLISH_TOL / (1 - |q| - 4u).  A
    step that does not move, or returns to w[j - 2], needs
    (1 - |q|) |w[j - 1]| within half an ulp, so |w[j - 1]| <= 2^-1024
    (1 - |q| > 2^-51) or 0: below that bound too.
    """
    gap = 1.0 - abs(q) - 2.0 ** -51
    return 0.12 * _POLISH_TOL / gap if gap > 0.0 else math.inf
