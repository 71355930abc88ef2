"""Preset model families with closed-form reference data.

Three families of factorization chains are provided, each packaged with
the closed forms that make independent verification possible:

- :func:`qhahn_chain`: polynomial coefficient pairs on a symmetric
  interval orbit of x -> qx; eigenvalues and the orthogonal polynomial
  sequence come out in exact coefficient arithmetic.
- :func:`constant_gauge_chain`: constant B and constant step gauge on a
  semigroup orbit of x -> qx, with a power-function kernel eigenstate
  and a double infinite-product weight.
- :func:`fractional_chain`: the interval-preserving fractional map with
  closed forms for its iterates and orbit derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import deltas_fn, shift
from .chain import (ChainLevel, EigenPair, build_chain, make_level,
                    solve_step_constant)
from .errors import DomainEscape
from .grid import INTERVAL, SEMIGROUP, OrbitGrid, build_grid
from .gridfn import GridFunction
from .maps import fractional_map, linear_map
from .riccati import TwoByTwoSystem

_poly = np.polynomial.polynomial


# ---------------------------------------------------------------------------
# infinite products
# ---------------------------------------------------------------------------

def symmetric_qpochhammer(x, beta: complex, q: float) -> complex | np.ndarray:
    """The double product (-x/beta; q)_inf (x/beta; q)_inf = prod (1 - q^{2n} x^2/beta^2)."""
    xs = np.asarray(x)
    n_terms = max(64, int(np.ceil(np.log(1e-20) / (2 * np.log(abs(q))))))
    factors = 1.0 - q ** (2 * np.arange(n_terms))[:, None] * xs.ravel()[None, :] ** 2 / beta ** 2
    out = np.prod(factors, axis=0).reshape(xs.shape)
    return out[()]


# ---------------------------------------------------------------------------
# polynomial helpers (ascending coefficient arrays)
# ---------------------------------------------------------------------------

def qderivative_poly(c: np.ndarray, q: float) -> np.ndarray:
    """Coefficients of (p(x) - p(qx)) / ((1-q)x) for ascending coefficients c."""
    c = np.asarray(c, dtype=float)
    j = np.arange(len(c))
    return (c * (1.0 - q ** j) / (1.0 - q))[1:]


def _scale_poly(c: np.ndarray, a: float) -> np.ndarray:
    return np.asarray(c, dtype=float) * a ** np.arange(len(c))


def _add_polys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n)
    out[:len(a)] += a
    out[:len(b)] += b
    return out


def _constant_sum(constants: tuple[float, ...], n: int) -> float:
    """The sum of the first n step constants; ValueError, not a partial
    sum, when the chain holds fewer."""
    if not 0 <= n <= len(constants):
        raise ValueError(f"needs {n} step constants; the chain holds "
                         f"{len(constants)}")
    return float(sum(constants[:n]))


# ---------------------------------------------------------------------------
# q-Hahn family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QHahnScenario:
    """A chain with polynomial coefficient pairs on tau(x) = qx.

    ``B_polys[k]`` / ``A_polys[k]`` hold the ascending coefficients of
    the level-k pair; ``constants[k]`` is the step constant, available
    in closed form as minus the slope of A_k.
    """

    q: float
    grid: OrbitGrid
    levels: tuple[ChainLevel, ...]
    constants: tuple[float, ...]
    B_polys: tuple[np.ndarray, ...]
    A_polys: tuple[np.ndarray, ...]

    def eigenvalue(self, n: int) -> float:
        """The n-th eigenvalue of the level-0 composition, sum of step constants."""
        return _constant_sum(self.constants, n)

    def raise_polynomial(self, c: np.ndarray, k: int) -> np.ndarray:
        """Apply the level-k raising operator to a polynomial, exactly.

        (A_k* p)(x) = (B_k(x)/((1-q)x)) (p(x) - p(x/q)) - A_k(x) p(x),
        which maps degree n to degree n+1 in coefficient space.
        """
        c = np.asarray(c, dtype=float)
        j = np.arange(len(c), dtype=float)
        diff = (c * (1.0 - self.q ** (-j)))[1:] / (1.0 - self.q)
        t1 = _poly.polymul(self.B_polys[k], diff) if len(diff) else np.zeros(1)
        t2 = _poly.polymul(self.A_polys[k], c)
        return _add_polys(t1, -np.asarray(t2))

    def polynomial(self, n: int) -> np.ndarray:
        """Coefficients of the degree-n orthogonal polynomial at level 0.

        Built by descent: raising operators applied to the constant
        function, P_n = A_0* A_1* ... A_{n-1}* 1.
        """
        c = np.array([1.0])
        for k in range(n - 1, -1, -1):
            c = self.raise_polynomial(c, k)
        return c

    def sample(self, c: np.ndarray) -> GridFunction:
        """Evaluate ascending polynomial coefficients on the scenario grid."""
        return GridFunction.from_callable(self.grid,
                                          lambda t: _poly.polyval(t, c))


def qhahn_grid(q: float = 0.8, depth: int = 140,
               bases: tuple[float, float] = (-1.0, 1.0)) -> OrbitGrid:
    """The interval orbit grid of x -> qx that :func:`qhahn_chain` lives on."""
    return build_grid(linear_map(q), INTERVAL, bases, max_depth=depth)


def qhahn_chain(q: float = 0.8, B0_coeffs=(1.0, 0.0, -1.0),
                A0_coeffs=(0.0, -1.0), depth: int = 140,
                n_levels: int = 10,
                bases: tuple[float, float] = (-1.0, 1.0)) -> QHahnScenario:
    """Chain with polynomial B_0 (degree <= 2), A_0 (degree <= 1) on an
    interval orbit of x -> qx.

    Levels keep h = 1 and f = 0; the step gauge is g = 1/q with d = 1.
    The coefficient pair stays polynomial at every level:
    B_{k+1} = B_k / q and A_{k+1}(x) = A_k(qx) + (d_q B_{k+1})(x), so
    the step constants c_k = -(slope of A_k) come out exactly.
    """
    B0c = np.asarray(B0_coeffs, dtype=float)
    A0c = np.asarray(A0_coeffs, dtype=float)
    if len(B0c) > 3 or len(A0c) > 2:
        raise DomainEscape("need deg B0 <= 2 and deg A0 <= 1")
    grid = qhahn_grid(q, depth, bases)
    one = GridFunction.constant(grid, 1.0)
    zero = GridFunction.constant(grid, 0.0)
    g = GridFunction.constant(grid, 1.0 / q)

    B_polys = [B0c]
    A_polys = [A0c]
    for _ in range(n_levels):
        B_next = B_polys[-1] / q
        A_polys.append(_add_polys(_scale_poly(A_polys[-1], q),
                                  qderivative_poly(B_next, q)))
        B_polys.append(B_next)
    constants = tuple(-A[1] if len(A) > 1 else 0.0 for A in A_polys[:n_levels])

    B0 = GridFunction.from_callable(grid, lambda t: _poly.polyval(t, B0c))
    A0 = GridFunction.from_callable(grid, lambda t: _poly.polyval(t, A0c))
    eta0 = B0 - deltas_fn(grid) * A0
    levels = build_chain(make_level(B0, eta0, one, zero), n_levels, one,
                         lambda lvl: (g, constants[lvl.k], 1.0))
    return QHahnScenario(q=q, grid=grid, levels=levels,
                         constants=constants, B_polys=tuple(B_polys),
                         A_polys=tuple(A_polys))


# ---------------------------------------------------------------------------
# constant-gauge family on tau(x) = qx
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantGaugeScenario:
    """A chain with constant B and step gauge g = q^{-2} on a semigroup orbit.

    The level-k product phi_k^2 eta_k equals b/x^2 - c_k/(1-q^2) with
    c_k = q^{2k} c0; the kernel of the level-0 raising operator is the
    power function x^s, and psi^2 rho has a closed infinite-product form.
    """

    q: float
    b: float
    c0: float
    s: float
    grid: OrbitGrid
    levels: tuple[ChainLevel, ...]
    constants: tuple[float, ...]

    @property
    def beta_squared(self) -> float:
        return self.b * (1.0 - self.q ** 2) / self.c0

    def kernel_pair(self) -> EigenPair:
        """The power-function kernel state as a level-1 eigenpair.

        x^s is annihilated by the level-0 raising operator, so it is an
        eigenfunction of the level-1 composition with eigenvalue -c_0
        (our step-constant sign; equals +c0 of the closed form).
        """
        psi = GridFunction.from_callable(self.grid, lambda t: t ** self.s)
        return EigenPair(psi=psi, value=-self.constants[0], level=1)

    def eigenvalue_after_lifts(self, n_lifts: int) -> float:
        """Eigenvalue of the kernel state after n lifts: -sum of step constants."""
        return -_constant_sum(self.constants, n_lifts + 1)

    def squared_weight_product(self, x) -> np.ndarray:
        """Closed form of psi_0^2 rho_0 up to one overall constant."""
        beta = np.sqrt(self.beta_squared + 0j)
        return np.asarray(symmetric_qpochhammer(x, beta, self.q)).real


def constant_gauge_grid(q: float = 0.7, depth: int = 20,
                        base: float = 1.0) -> OrbitGrid:
    """The semigroup orbit grid of x -> qx that :func:`constant_gauge_chain`
    lives on."""
    return build_grid(linear_map(q), SEMIGROUP, (base,), max_depth=depth)


def constant_gauge_chain(q: float = 0.7, b: float = 1.0, c0: float = 0.5,
                         s: float = 1.0, depth: int = 20,
                         n_levels: int = 8,
                         base: float = 1.0) -> ConstantGaugeScenario:
    """Chain with B_0 = (1-q)^2 b, h = 1, g = q^{-2}, d = 1 on the orbit of ``base``.

    phi_0(x) = q^s (1-q) x alpha_0(x) / B_0 with alpha_0 = b/x^2 - c0/(1-q^2),
    the unique choice making x^s a kernel function of the raising
    operator. The Pearson weight is then positive and psi_0^2 rho_0 is
    the symmetric infinite product with beta^2 = b(1-q^2)/c0.
    """
    if not 0 < q < 1:
        raise DomainEscape("need 0 < q < 1")
    if c0 <= 0 or b <= 0 or base <= 0:
        raise DomainEscape("need b, c0, base > 0 for a positive weight")
    grid = constant_gauge_grid(q, depth, base)
    x = GridFunction.identity(grid)
    B0c = (1.0 - q) ** 2 * b
    alpha0 = b * x ** (-2) - c0 / (1.0 - q * q) + 0.0 * x
    phi0 = (q ** s * (1.0 - q) / B0c) * x * alpha0
    eta0 = alpha0 / (phi0 * phi0)
    h = GridFunction.constant(grid, 1.0)
    f0 = phi0 - h / deltas_fn(grid)
    g = GridFunction.constant(grid, q ** -2)

    levels = build_chain(
        make_level(GridFunction.constant(grid, B0c), eta0, h, f0), n_levels,
        h, lambda lvl: (g, solve_step_constant(lvl, h, g, 1.0), 1.0))
    return ConstantGaugeScenario(q=q, b=b, c0=c0, s=s, grid=grid,
                                 levels=levels, constants=tuple(
                                     float(lvl.c) for lvl in levels))


# ---------------------------------------------------------------------------
# fractional-map family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalScenario:
    """A constant-gauge chain generated by x -> ax/((a-1)x + 1) on (0, 1).

    B_0 = b (x - tau x)(tau^{-1}x - x) and phi_0^2 eta_0 = a0, constants
    chosen so the whole hierarchy keeps h = 1 and a constant gauge.
    """

    a: float
    a0: float
    b0: float
    grid: OrbitGrid
    levels: tuple[ChainLevel, ...]
    constants: tuple[float, ...]

    def iterate_closed(self, x, k: int) -> np.ndarray:
        """Closed form of the k-th iterate: a^k x / ((a^k - 1)x + 1)."""
        xs = np.asarray(x, dtype=float)
        ak = self.a ** k
        return ak * xs / ((ak - 1.0) * xs + 1.0)

    def orbit_derivative_closed(self, x) -> np.ndarray:
        """Closed form of the orbit derivative of the map itself.

        d_tau tau (x) = (tau x - tau^2 x)/(x - tau x) = a/((a^2-1)x + 1).
        """
        xs = np.asarray(x, dtype=float)
        return self.a / ((self.a ** 2 - 1.0) * xs + 1.0)

    def orbit_derivative_at_iterate(self, x, k: int) -> np.ndarray:
        """Closed form of d_tau tau evaluated along the orbit.

        (d_tau tau)(tau^k x) = a((a^k-1)x+1)/((a^{k+2}-1)x+1).
        """
        xs = np.asarray(x, dtype=float)
        return (self.a * ((self.a ** k - 1.0) * xs + 1.0)
                / ((self.a ** (k + 2) - 1.0) * xs + 1.0))


def fractional_chain(a: float = 0.5, a0: float = 1.0, b0: float = 1.0,
                     depth: int = 40, n_levels: int = 6,
                     base: float = 0.5) -> FractionalScenario:
    """Chain for the fractional map with h = 1, g = 1/a, d = 1.

    eta_0 = a0 * delta^2 (so phi_0^2 eta_0 = a0 with phi_0 = 1/delta,
    i.e. f_0 = 0) and B_0 = b0 (x - tau x)(tau^{-1}x - x).
    """
    tau = fractional_map(a)
    grid = build_grid(tau, SEMIGROUP, (base,), max_depth=depth)
    x = GridFunction.identity(grid)
    dlt = deltas_fn(grid)
    # tau^{-1}(x) - x sampled pointwise from the map inverse
    back_gap = GridFunction.from_callable(
        grid, lambda t: np.array([tau.inverse(v) for v in np.atleast_1d(t)]))
    back_gap = back_gap - x
    B0 = b0 * dlt * back_gap
    eta0 = a0 * dlt * dlt
    h = GridFunction.constant(grid, 1.0)
    f0 = GridFunction.constant(grid, 0.0)
    g = GridFunction.constant(grid, 1.0 / a)

    levels = build_chain(
        make_level(B0, eta0, h, f0), n_levels, h,
        lambda lvl: (g, solve_step_constant(lvl, h, g, 1.0), 1.0))
    return FractionalScenario(a=a, a0=a0, b0=b0, grid=grid, levels=levels,
                              constants=tuple(float(lvl.c)
                                              for lvl in levels))


# ---------------------------------------------------------------------------
# gauge-function Riccati system
# ---------------------------------------------------------------------------

def gauge_riccati_system(level: ChainLevel) -> TwoByTwoSystem:
    """The linearized system of the gauge-function Riccati equation.

    Writing the level-step consistency equation in terms of the gauge
    combination xi = phi^2 eta - d g B / (delta * backward-delta) turns
    it (for step constant 0) into a first-order fractional recursion;
    its linearization is the upper-triangular system

        [[1, delta(x) delta(tau x) / B(tau x)],
         [0, delta(x) delta(tau x) (phi^2 eta)(tau x) / B(tau x)]].
    """
    grid = level.grid
    dlt = deltas_fn(grid)
    B_t = shift(level.B)
    dlt_t = shift(dlt)
    ae_t = shift(level.phi * level.phi * level.eta)
    one = GridFunction.constant(grid, 1.0)
    zero = GridFunction.constant(grid, 0.0)
    return TwoByTwoSystem(a=one, b=dlt * dlt_t / B_t, c=zero,
                          d=dlt * dlt_t * ae_t / B_t)


__all__ = [
    "symmetric_qpochhammer", "qderivative_poly",
    "QHahnScenario", "qhahn_grid", "qhahn_chain",
    "ConstantGaugeScenario", "constant_gauge_grid", "constant_gauge_chain",
    "FractionalScenario", "fractional_chain",
    "gauge_riccati_system",
]
