"""First-order 2x2 functional systems and the associated Riccati machinery.

The step form of the system is

    (T psi, T phi)^t = Lambda(x) (psi, phi)^t,

equivalently the derivative form d_tau (psi, phi)^t = LambdaTilde (psi,
phi)^t with Lambda = I - (id - tau) LambdaTilde.  The ratio u = phi/psi
satisfies the homographic recursion

    u(tau x) = (d u + c) / (b u + a),

whose solutions are generated from one particular solution by a
one-parameter group of transforms.  Orbit-infinite products of the step
matrices (resolvents) propagate boundary data at the orbit limit to any
grid point; gauge (Darboux) transforms move the system between
equivalent forms, e.g. to a triangular one with a closed-form resolvent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .calculus import deltas_fn, shift
from .errors import (DegenerateQuadruple, DegenerateSystem, GridMismatch,
                     NegativeBaseRealExponent, NonPositiveFactor,
                     NotTriangular, ParticularNotSolution, SingularGauge,
                     SingularResolvent, ZeroAlpha, ZeroDivisor)
from .grid import ZERO_TOL, OrbitGrid, ldexp
from .gridfn import GridFunction, joint_scale, max_abs_diff

# the Cauchy gap below which a resolvent has converged
_CAUCHY_TOL = 1e-12
# scale-relative residual a solution must meet in its own recursion
_RECURSION_TOL = 1e-10
# adj [[a, b], [c, d]] = [[d, -b], [-c, a]]: the signs of the flipped transpose
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _tail(grid: OrbitGrid, mask: np.ndarray) -> np.ndarray:
    """The points a suffix product or sum may read: on each branch, from
    the deepest valid point back to just after the last masked point
    before it.  A suffix from the deepest valid point reads, at n, every
    point from n to there, so on the tail it reads no masked cell."""
    live = grid.suffix_scan(np.logical_or, mask)
    if not live[[s.start for s in grid.slices]].all():
        raise GridMismatch("system has no valid points on a branch")
    holes = live & ~mask
    if not holes.any():   # then the live points are the points of mask
        return mask
    at = np.arange(grid.size)
    return live & (at > grid.branch_max(np.where(holes, at, -1)))


def _entry_max(m: np.ndarray) -> np.ndarray:
    """The largest entry modulus of each matrix of an (N, 2, 2) stack or
    of each row [a, b, c, d] of an (N, 4) one.  The moduli are laid out
    as four contiguous columns first: numpy reduces a short last axis
    several times slower."""
    return np.maximum.reduce(np.abs(m.reshape(-1, 4).T, order="C"))


def _unit_matrices(m: np.ndarray) -> np.ndarray:
    """Rows [a, b, c, d] of 2x2 matrices, each divided by its largest entry
    modulus (an all-zero row stays zero), returned as the four entry
    columns: a scale-free form in which neither ad nor bc under- or
    overflows."""
    big = _entry_max(m)
    return (m / np.where(big > 0.0, big, 1.0)[:, None]).T


def _criterion_sum(grid: OrbitGrid, lam: np.ndarray, valid: np.ndarray) -> float:
    """sum |delta_n| ||LambdaTilde(x_n)|| (max-norm) over the valid points
    with a successor, read off the steps: |delta| LambdaTilde = |I - Lambda|."""
    with np.errstate(invalid="ignore"):
        tn = _entry_max(np.eye(2) - lam)
    tn = np.where(valid & grid.has_next, tn, 0.0)
    return sum(float(np.sum(tn[s])) for s in grid.slices)


@dataclass(frozen=True, eq=False)
class TwoByTwoSystem:
    """The matrix Lambda(x) = [[a, b], [c, d]] of the step-form system.

    ``_family`` keeps the t-independent part of the last solution family
    :func:`general_solution` built on the system, with the particular
    solution it was built through; it lives and dies with the system.
    """

    a: GridFunction
    b: GridFunction
    c: GridFunction
    d: GridFunction
    _family: _Family | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        grid = self.a.grid
        for f in (self.b, self.c, self.d):
            if f.grid is not grid:
                raise GridMismatch("system entries live on different grids")
        # judged scaled by its largest entry modulus, so that neither ad
        # nor bc under- or overflows
        m = self.entry_arrays()[self.valid_mask()].reshape(-1, 4)
        if not np.isfinite(m).all():
            raise DegenerateSystem("step matrix is not finite at a grid point")
        a, b, c, d = _unit_matrices(m)
        rel = np.abs(a * d - b * c) / (abs(a * d) + abs(b * c) + 1e-300)
        if np.any(rel < 1e-14):
            raise DegenerateSystem("step matrix is singular at a grid point")

    @property
    def grid(self) -> OrbitGrid:
        return self.a.grid

    def tilde(self) -> tuple[GridFunction, GridFunction, GridFunction, GridFunction]:
        """The derivative-form entries LambdaTilde = (I - Lambda)/(id - tau)."""
        dlt = deltas_fn(self.grid)
        return ((1.0 - self.a) / dlt, -self.b / dlt,
                -self.c / dlt, (1.0 - self.d) / dlt)

    def entry_arrays(self) -> np.ndarray:
        """The 2x2 matrices at every grid point, shape (N, 2, 2)."""
        entries = (self.a.flat, self.b.flat, self.c.flat, self.d.flat)
        return np.stack(entries, axis=-1).reshape(-1, 2, 2)

    def valid_mask(self) -> np.ndarray:
        return (self.a.flat_valid & self.b.flat_valid
                & self.c.flat_valid & self.d.flat_valid)


@dataclass(frozen=True, eq=False)
class ResolventResult:
    """The orbit-infinite left product of step matrices and its diagnostics.

    ``flat[k]`` approximates the product Lambda(tau^N x) ... Lambda(x_k)
    at flat grid index k, i.e. the resolvent evaluated at that point, and
    ``matrices[i]`` is the read-only view of branch i.  ``valid`` marks
    the tail (see :func:`_tail`); ``flat`` is I off it.  ``criterion_sum``
    is the scalar convergence functional sum |delta_n| *
    ||LambdaTilde(tau^n x)|| (max-norm).
    """

    grid: OrbitGrid
    flat: np.ndarray
    valid: np.ndarray
    converged: bool
    criterion_sum: float
    steps: int
    cauchy_gap: float

    def __post_init__(self) -> None:
        self.flat.setflags(write=False)
        self.valid.setflags(write=False)

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(self.flat[s] for s in self.grid.slices)


def system_from_second_order(coef) -> TwoByTwoSystem:
    """The step system whose first component solves the three-point equation.

    Lambda = [[(lambda - beta)/alpha, -gamma/alpha], [1, 0]], so that
    T psi paired with psi reproduces alpha T psi + beta psi + gamma
    T^{-1} psi = lambda psi one orbit step at a time.
    """
    alpha, beta, gamma = coef.alpha, coef.beta, coef.gamma
    lam = coef.value
    # |alpha| is judged at each point against |alpha| + |beta| + |gamma|
    # there (the valid ones), so neither the size nor the growth of the
    # coefficients along the orbit moves the verdict
    a = np.abs(alpha.flat)
    row = (a + np.where(beta.flat_valid, np.abs(beta.flat), 0.0)
           + np.where(gamma.flat_valid, np.abs(gamma.flat), 0.0))
    sel = alpha.flat_valid
    if np.any(a[sel] / np.where(row[sel] > 0.0, row[sel], 1.0) < 1e-14):
        raise ZeroAlpha("forward coefficient vanishes at a grid point")
    grid = alpha.grid
    one = GridFunction.constant(grid, 1.0)
    zero = GridFunction.constant(grid, 0.0)
    return TwoByTwoSystem(a=(lam - beta) / alpha, b=-gamma / alpha,
                          c=one, d=zero)


def resolvent(sys: TwoByTwoSystem) -> ResolventResult:
    """Accumulate the infinite product of step matrices along each branch.

    The suffix products Lambda(x_last) ... Lambda(x_k), from the deepest
    valid point x_last of each branch, come from
    :meth:`OrbitGrid.suffix_products`, the grid's one 2x2 walk run inward:
    a log-depth doubling scan whose power-of-two scale is kept exactly, so
    a product overflows only if it is itself out of range.  Off the tail
    of the system's mask (see :func:`_tail`) the resolvent is I.  Partial
    products at each branch's first tail point are monitored for a Cauchy
    gap (max-norm difference of the last three), and the scalar criterion
    sum |delta| * ||LambdaTilde|| is reported; ``converged`` needs a
    finite criterion and a gap below 1e-12.  Nothing is raised on
    failure — callers decide.
    """
    grid = sys.grid
    lam, valid = sys.entry_arrays(), sys.valid_mask()
    criterion = _criterion_sum(grid, lam, valid)
    tail = _tail(grid, valid)
    lam[~tail] = np.eye(2)
    full = grid.suffix_products(lam)
    # Cauchy gap of the partial products P_k = Lambda(x_k) ... Lambda(x_0)
    # from each branch's first tail point x_0, on tails of three points or
    # more: peel the deepest left factors off P_last to recover P_{last-1}
    # and P_{last-2}
    first, last = np.array([(s.start + tail[s].argmax(),
                             s.stop - 1 - tail[s][::-1].argmax())
                            for s in grid.slices]).T
    far = last - first >= 2
    p_full, last = full[first[far]], last[far]
    inv_last, inv_next = _inverse_or_identity(lam[np.stack([last, last - 1])])
    drop1 = inv_last @ p_full
    drop2 = inv_next @ drop1
    gap = float(np.max(np.abs([p_full - drop1, drop1 - drop2]), initial=0.0))
    converged = bool(np.isfinite(criterion)) and gap < _CAUCHY_TOL
    full[~tail] = np.eye(2)
    return ResolventResult(grid=grid, flat=full, valid=tail,
                           converged=converged, criterion_sum=criterion,
                           steps=int(np.count_nonzero(tail)), cauchy_gap=gap)


def _inverse_or_identity(m: np.ndarray) -> np.ndarray:
    """The inverses of a stack of 2x2 matrices by the adjugate, with I in
    place of each matrix whose |det| <= ZERO_TOL (it is not peeled)."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    keep = (np.abs(det) <= ZERO_TOL)[..., None, None]
    adj = m[..., ::-1, ::-1].swapaxes(-1, -2) * _ADJUGATE_SIGNS
    return np.where(keep, np.eye(2),
                    adj / np.where(keep, 1.0, det[..., None, None]))


def solve_system(sys: TwoByTwoSystem, boundary,
                 res: ResolventResult | None = None
                 ) -> tuple[GridFunction, GridFunction]:
    """Propagate boundary data at the orbit limit back to every grid point.

    (psi, phi)(x) = Lambda_inf(x)^{-1} (psi, phi)(limit), by the 2x2
    adjugate of Lambda_inf(x) divided by the power of two of its largest
    entry modulus, so that neither its determinant nor the solution under-
    or overflows before the power is divided out.  Lambda_inf(x) is
    singular where |det| < 1e-14 times the square of the largest entry
    modulus on x's branch; the result is verified against the one-step
    recursion at every interior point (scale-relative residual at most
    1e-10).  The recursion check is the one that binds: a correct solve
    leaves a residual of about u kappa(Lambda_inf), so it refuses
    condition numbers above about 1e6 with SingularResolvent, long before
    the determinant gate (which would allow kappa up to about 1e14).
    The solution is valid on ``res.valid``, where Lambda_inf(x) reads no
    masked cell, and the branch's largest entry modulus is taken over
    those points alone; a ``res`` of another grid raises GridMismatch.
    """
    grid = sys.grid
    if res is None:
        res = resolvent(sys)
    elif res.grid is not grid:
        raise GridMismatch("resolvent was built on another grid")
    b0, b1 = np.asarray(boundary).reshape(2)
    mats, mask = res.flat, res.valid
    big = _entry_max(mats)
    e = np.frexp(big)[1]
    (a, b), (c, d) = ldexp(mats, -e[:, None, None]).transpose(1, 2, 0)
    size = np.ldexp(grid.branch_max(np.where(mask, big, 0.0)), -e)
    scale = np.where(size > 0.0, size, 1.0)
    det = a * d - b * c
    # adj(M) (b0, b1) / det M; points off the tail are left 0
    num = np.stack([d * b0 - b * b1, a * b1 - c * b0])
    if np.any(np.abs(det[mask]) < 1e-14 * scale[mask] ** 2):
        raise SingularResolvent("resolvent is singular at a grid point")
    sol = np.divide(num, det, out=np.zeros_like(num), where=mask)
    sol = ldexp(sol, -e)
    psi = GridFunction.fresh(grid, sol[0], mask, label="psi")
    phi = GridFunction.fresh(grid, sol[1], mask, label="phi")
    worst = step_residual(sys, psi, phi)
    if not worst <= _RECURSION_TOL:   # a nan residual fails too
        raise SingularResolvent(
            f"solution violates the one-step recursion: residual {worst}")
    return psi, phi


def step_residual(sys: TwoByTwoSystem, psi: GridFunction,
                  phi: GridFunction) -> float:
    """Max residual of (T psi, T phi) = Lambda (psi, phi) relative to
    sup|psi, phi| sup|a, b, c, d| (see :func:`_relative`)."""
    lhs1, lhs2 = shift(psi), shift(phi)
    rhs1 = sys.a * psi + sys.b * phi
    rhs2 = sys.c * psi + sys.d * phi
    return _relative(max(max_abs_diff(lhs1, rhs1), max_abs_diff(lhs2, rhs2)),
                     _sup(psi, phi) * _sup(sys.a, sys.b, sys.c, sys.d))


def _sup(*fns: GridFunction) -> float:
    """sup|values| across several functions; like ``max``, it passes over
    a NaN sup."""
    return float(np.fmax.reduce([f.max_abs() for f in fns]))


def _relative(gap: float, scale: float) -> float:
    """gap / scale for an unfloored scale, so that a residual reads the
    same at every magnitude: 0 when both sides are exactly zero (no gap)
    and inf when only the scale is."""
    if not gap:
        return 0.0
    return gap / scale if scale else float("inf")


def triangular_resolvent(sys: TwoByTwoSystem) -> ResolventResult:
    """Closed-form resolvent for an upper-triangular system (c = 0).

    The diagonal entries are the orbit products of a and d written as
    exponentials of orbit integrals of ln a and ln d; the corner F(x)
    solves F = d F(tau x) + b d_inf(tau x) and is evaluated by the
    exponential-sum closed form.  Requires positive a and d (real
    logarithm branch).
    """
    scale = joint_scale(sys.a, sys.b, sys.c, sys.d)
    if sys.c.max_abs() > 1e-14 * scale:
        raise NotTriangular("closed-form resolvent needs c = 0")
    grid = sys.grid
    valid = sys.valid_mask()
    tail = _tail(grid, valid)
    av, dv = sys.a.flat[tail], sys.d.flat[tail]
    if np.any(np.abs(av) < ZERO_TOL) or np.any(np.abs(dv) < ZERO_TOL):
        raise ZeroDivisor("diagonal entry vanishes on the orbit")
    if (np.iscomplexobj(av) or np.iscomplexobj(dv)
            or np.any(av <= 0) or np.any(dv <= 0)):
        raise NonPositiveFactor(
            "closed-form resolvent needs positive diagonal entries")
    # ln prod_{m>=n} a[m] = integral of ln(a)/(t - tau t) from limit to x_n;
    # off the tail every term is the empty sum 0
    log_a, log_d = np.zeros(grid.size), np.zeros(grid.size)
    log_a[tail], log_d[tail] = np.log(av), np.log(dv)
    a_inf = np.exp(grid.suffix_scan(np.add, log_a))
    d_inf = np.exp(grid.suffix_scan(np.add, log_d))
    ratio = grid.suffix_scan(np.add, log_a - log_d)
    corner = np.zeros_like(sys.b.flat)
    corner[tail] = sys.b.flat[tail] / av * np.exp(ratio)[tail]
    F = d_inf * grid.suffix_scan(np.add, corner)
    full = np.zeros((grid.size, 2, 2), F.dtype)
    full[:, 0, 0] = full[:, 1, 1] = 1.0
    full[tail, 0, 0] = a_inf[tail]
    full[tail, 0, 1] = F[tail]
    full[tail, 1, 1] = d_inf[tail]
    lam = sys.entry_arrays()
    lam[:, 1, 0] = 0.0   # c is zero up to the check above: left out
    return ResolventResult(grid=grid, flat=full, valid=tail, converged=True,
                           criterion_sum=_criterion_sum(grid, lam, valid),
                           steps=int(np.count_nonzero(tail)), cauchy_gap=0.0)


def _as_matrix_fn(D, grid: OrbitGrid):
    """Normalize a 2x2 matrix of GridFunctions from a nested pair."""
    try:
        (d11, d12), (d21, d22) = D
    except (TypeError, ValueError) as exc:
        raise GridMismatch("gauge must be a 2x2 nest of grid functions") from exc
    out = []
    for f in (d11, d12, d21, d22):
        if isinstance(f, GridFunction):
            if f.grid is not grid:
                raise GridMismatch("gauge entries live on a different grid")
            out.append(f)
        else:
            out.append(GridFunction.constant(grid, f))
    return out


def _gauge_inverse(D, grid: OrbitGrid):
    """The entries of the gauge D on ``grid`` and those of D^{-1}.

    Both the singularity gate and the inverse are formed from D divided
    at each point by its largest entry modulus, so neither det D nor the
    adjugate under- or overflows: |det D| is judged against the square
    of that entry, and the inverse of the scaled matrix is divided by it
    at the end.
    """
    entries = _as_matrix_fn(D, grid)
    valid = np.logical_and.reduce([f.flat_valid for f in entries])
    m = np.stack([f.flat for f in entries], axis=1)[valid]
    a, b, c, d = _unit_matrices(m)
    det = a * d - b * c
    if np.any(np.abs(det) < 1e-14):
        raise SingularGauge("gauge matrix is singular at a grid point")
    inv = np.zeros((4, grid.size), m.dtype)
    inv[:, valid] = np.stack([d, -b, -c, a]) / det / _entry_max(m)
    return entries, [GridFunction.fresh(grid, row, valid) for row in inv]


def darboux(sys: TwoByTwoSystem, D) -> TwoByTwoSystem:
    """Gauge transform Lambda -> D(tau x)^{-1} Lambda(x) D(x).

    Solutions of the transformed system are D(x)^{-1} times solutions
    of the original one (see :func:`darboux_solution`), and the
    resolvent picks up D at the limit on the left and D(x) on the
    right.
    """
    (d11, d12, d21, d22), inv = _gauge_inverse(D, sys.grid)
    t11, t12, t21, t22 = (shift(f) for f in inv)
    # M = Lambda D
    m11 = sys.a * d11 + sys.b * d21
    m12 = sys.a * d12 + sys.b * d22
    m21 = sys.c * d11 + sys.d * d21
    m22 = sys.c * d12 + sys.d * d22
    return TwoByTwoSystem(a=t11 * m11 + t12 * m21, b=t11 * m12 + t12 * m22,
                          c=t21 * m11 + t22 * m21, d=t21 * m12 + t22 * m22)


def darboux_solution(D, psi: GridFunction, phi: GridFunction
                     ) -> tuple[GridFunction, GridFunction]:
    """Transform a solution pair by D(x)^{-1}."""
    _, (i11, i12, i21, i22) = _gauge_inverse(D, psi.grid)
    return i11 * psi + i12 * phi, i21 * psi + i22 * phi


def _limit_distance(grid: OrbitGrid) -> GridFunction:
    dist = grid.points - grid.per_point([br.limit for br in grid.branches])
    return GridFunction.fresh(grid, dist, label="x - limit")


def singular_darboux(sys: TwoByTwoSystem, delta1: float,
                     delta2: float) -> TwoByTwoSystem:
    """Gauge by D = diag(s^d1, s^d2) with s(x) = x - limit.

    Introduces (or removes) a power singularity at the orbit limit;
    ratio solutions transform as u' = s^(d1 - d2) u.  Real exponents
    need s > 0 on the grid; integer exponents work for either sign.
    """
    s = _limit_distance(sys.grid)
    s_tau = shift(s)
    s1, s2 = _pow(s, delta1), _pow(s, delta2)
    t1, t2 = _pow(s_tau, delta1), _pow(s_tau, delta2)
    # entries per the explicit power-ratio form of D(tau x)^{-1} Lambda D(x)
    return TwoByTwoSystem(a=sys.a * s1 / t1, b=sys.b * s2 / t1,
                          c=sys.c * s1 / t2, d=sys.d * s2 / t2)


def _pow(f: GridFunction, e: float) -> GridFunction:
    """f^e; integer exponents work for any sign, real ones need f > 0."""
    if float(e).is_integer():
        return f ** int(e)
    v, m = f.flat, f.flat_valid
    if np.any(v[m] <= 0):
        raise NegativeBaseRealExponent("real-power gauge needs a positive base")
    base = np.where(m, v, 1.0)  # masked entries are never read
    return GridFunction.fresh(f.grid, np.power(base, e), m)


def rhom_residual(sys: TwoByTwoSystem, u: GridFunction) -> float:
    """Residual of the step form u(tau x) (b u + a) = d u + c relative to
    the sup of both sides (see :func:`_relative`)."""
    lhs = shift(u) * (sys.b * u + sys.a)
    rhs = sys.d * u + sys.c
    return _relative(max_abs_diff(lhs, rhs), _sup(lhs, rhs))


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """One member of the t-family of ratio solutions built from u0."""

    u: GridFunction
    t: float
    u0: GridFunction
    residual: float


class _Family(NamedTuple):
    """The t-independent part of the solution family through ``u0``: the
    flat indices ``at`` of the points where every member is valid (the
    tail of the mask where u0 and both denominators are valid, see
    :func:`_tail`), that mask, and E and S on those points."""

    u0: GridFunction
    at: np.ndarray
    valid: np.ndarray
    E: np.ndarray
    S: np.ndarray
    S_abs: np.ndarray


def _family(sys: TwoByTwoSystem, u0: GridFunction) -> _Family:
    """The family through u0, built on the first call for this u0 (matched
    by identity) and kept on the system; a family that fails a check is
    not kept, so it raises again on the next call."""
    fam = sys._family
    if fam is not None and fam.u0 is u0:
        return fam
    res0 = rhom_residual(sys, u0)
    if not res0 <= _RECURSION_TOL:   # a nan residual fails too
        raise ParticularNotSolution(
            f"u0 violates the homographic recursion: residual {res0}")
    b_u0, b_u0_tau = sys.b * u0, sys.b * shift(u0)
    den_a = sys.a + b_u0          # a + b u0
    den_d = sys.d - b_u0_tau      # -b u0(tau x) + d
    grid = sys.grid
    mask = den_a.flat_valid & den_d.flat_valid & u0.flat_valid
    valid = _tail(grid, mask)
    points_per_branch = np.add.reduceat(valid, [s.start for s in grid.slices])
    if np.any(points_per_branch < 3):
        raise GridMismatch("orbit too short for the solution family")
    at = np.flatnonzero(valid)
    av, dv, bv = den_a.flat[at], den_d.flat[at], sys.b.flat[at]
    # each denominator is judged at each point against the moduli of its
    # two terms there, so no common scale of a, b, c, d moves the verdict
    if (np.any(np.abs(av) <= 1e-14 * (np.abs(sys.a.flat[at])
                                      + np.abs(b_u0.flat[at])))
            or np.any(np.abs(dv) <= 1e-14 * (np.abs(sys.d.flat[at])
                                             + np.abs(b_u0_tau.flat[at])))):
        raise NonPositiveFactor(
            "solution family needs nonvanishing denominators")
    # past the deepest valid point: empty products 1 and empty sums 0
    ratio = np.ones(grid.size, np.result_type(av, dv))
    ratio[at] = av / dv
    E = grid.suffix_scan(np.multiply, ratio)[at]
    weighted = np.zeros(grid.size, np.result_type(bv, av, E))
    weighted[at] = (bv / av) * E
    S = grid.suffix_scan(np.add, weighted)[at]
    fam = _Family(u0, at, valid, E, S, np.abs(S))
    for arr in fam[1:]:
        arr.setflags(write=False)
    # the system is frozen; the slot is its one piece of derived state
    object.__setattr__(sys, "_family", fam)
    return fam


def general_solution(sys: TwoByTwoSystem, u0: GridFunction,
                     t: float) -> RiccatiSolution:
    """The one-parameter family of ratio solutions through u0.

    u^t = u0 + t E / (1 - t S) with E the orbit-product of the ratio
    (a + b u0) / (d - b u0(tau x)) and S its weighted orbit suffix sum;
    t = 0 returns u0 itself and the transforms compose additively in t.
    u0 must solve the homographic recursion to 1e-10 (scale-relative),
    and each denominator must exceed 1e-14 times the sum of its two
    terms' moduli at every point of the family.  E and S at x are formed
    from x and every deeper point, so a member is valid only at the
    points with no masked point between them and the deepest valid one
    of their branch.  The parts that do not depend on t are formed once
    per (system, u0) and kept on the system; each call checks t against
    the poles of the family and forms u^t and its residual.
    """
    fam = _family(sys, u0)
    den = 1.0 - t * fam.S
    if np.any(np.abs(den) < 1e-13 * (1.0 + abs(t) * fam.S_abs)):
        raise ZeroDivisor("parameter t hits a pole of the family")
    step = t * fam.E / den
    u = np.array(u0.flat, np.result_type(u0.flat, step))
    u[fam.at] += step
    u_fn = GridFunction.fresh(sys.grid, u, fam.valid, label="u^t")
    return RiccatiSolution(u=u_fn, t=float(t), u0=u0,
                           residual=rhom_residual(sys, u_fn))


def cross_ratio(u1, u2, u3, u4):
    """The anharmonic ratio (u4-u3)(u1-u2) / ((u3-u1)(u2-u4))."""
    u1, u2, u3, u4 = (np.asarray(u) for u in (u1, u2, u3, u4))
    num = (u4 - u3) * (u1 - u2)
    den = (u3 - u1) * (u2 - u4)
    scale = max(1e-300, float(np.max(np.abs([u1, u2, u3, u4]))) ** 2)
    if np.any(np.abs(den) < 1e-250 * scale):
        raise DegenerateQuadruple("cross-ratio denominator vanishes")
    out = num / den
    return out[()]


__all__ = [
    "TwoByTwoSystem", "ResolventResult", "RiccatiSolution",
    "system_from_second_order", "resolvent", "solve_system", "step_residual",
    "triangular_resolvent", "darboux", "darboux_solution", "singular_darboux",
    "rhom_residual", "general_solution", "cross_ratio",
]
