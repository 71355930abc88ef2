"""Per-probe references for the validation and factorization probe checks.

Each function here is a probe check as one Python loop that builds a
separate ``GridFunction`` for every probe and every intermediate result
and folds the worst value with ``max`` one probe at a time:

* ``calculus_worst`` is the body of ``criterion_calculus``,
* ``adjoints_worst`` is the body of ``criterion_adjoints``,
* ``orthogonality_worst`` is the body of ``criterion_orthogonality``,
  one Gram entry at a time,
* ``covariance_unitary_worst`` is the unitary-transport check of
  ``criterion_covariance``,
* ``factorization_residual_loop`` is ``chain.factorization_residual``.

They draw their random numbers in the same order as the library's
checks, so tests can compare the library's probe-block evaluation with
them by ``==``.
"""

import numpy as np

from taucalc.calculus import (dtau_inverse_fn, shift, tau_antiderivative,
                              tau_derivative, tau_integral)
from taucalc.chain import (apply_A, apply_Astar, bands_AAstar,
                           to_coefficients, tridiag_apply)
from taucalc.covariance import (ln_change, transport_function, transport_grid,
                                transport_weight)
from taucalc.grid import INTERVAL, build_grid
from taucalc.gridfn import GridFunction, joint_scale, max_abs_diff
from taucalc.hilbert import (adjoint_shift, adjoint_tau_derivative,
                             inner_product, mu_from_rho, norm, weighted_grid)
from taucalc.maps import fractional_map, linear_map
from taucalc.scenarios import qderivative_poly

_poly = np.polynomial.polynomial

PROBES = 6


def _poly_fn(grid, coeffs):
    return GridFunction.from_callable(grid, lambda t: _poly.polyval(t, coeffs))


def _resolvable_gap(a, b, resolvable):
    ok = a.flat_valid & b.flat_valid & resolvable
    return float(np.max(np.abs(a.flat[ok] - b.flat[ok]))) if ok.any() else 0.0


def calculus_worst():
    """The four worst values of the calculus criterion, probe by probe."""
    rng = np.random.default_rng(101)
    worst = {"leibniz": 0.0, "fundamental": 0.0,
             "antiderivative-inverse": 0.0, "orbit-substitution": 0.0}
    grids = [build_grid(linear_map(q), INTERVAL, (0.5, 1.0), max_depth=80)
             for q in (0.3, 0.7)]
    grids.append(build_grid(fractional_map(0.5), INTERVAL, (0.25, 0.75),
                            max_depth=80))
    grids.append(build_grid(fractional_map(2.0), INTERVAL, (0.25, 0.75),
                            max_depth=80))
    for grid in grids:
        ia = grid.branches.index(grid.branch("a"))
        ib = grid.branches.index(grid.branch("b"))
        dinv = dtau_inverse_fn(grid)
        resolvable = grid.has_next & (np.abs(grid.deltas)
                                      >= 1e-4 * (1.0 + np.abs(grid.points)))
        for _ in range(50):
            f = _poly_fn(grid, rng.uniform(-1, 1, 6))
            g = _poly_fn(grid, rng.uniform(-1, 1, 6))
            psi = _poly_fn(grid, rng.uniform(-1, 1, 6))
            rho = _poly_fn(grid, rng.uniform(-1, 1, 6))
            lhs = tau_derivative(f * g)
            rhs = shift(f) * tau_derivative(g) + g * tau_derivative(f)
            worst["leibniz"] = max(worst["leibniz"], _resolvable_gap(
                lhs, rhs, resolvable) / joint_scale(lhs, rhs))
            total = tau_integral(tau_derivative(psi))
            ends = psi.values[ib][0] - psi.values[ia][0]
            worst["fundamental"] = max(worst["fundamental"],
                                       abs(total - ends) / joint_scale(psi))
            F = tau_antiderivative(f)
            dF = tau_derivative(F)
            worst["antiderivative-inverse"] = max(
                worst["antiderivative-inverse"],
                _resolvable_gap(dF, f, resolvable) / joint_scale(f, F))
            lhs2 = tau_integral(shift(psi) * rho, check_tail=False)
            rhs2 = tau_integral(psi * dinv * shift(rho, -1), check_tail=False)
            scale2 = max(1.0, abs(lhs2), psi.max_abs() * rho.max_abs())
            worst["orbit-substitution"] = max(worst["orbit-substitution"],
                                              abs(lhs2 - rhs2) / scale2)
    return worst


def adjoints_worst(lvl):
    """The five worst values of the adjoints criterion on level ``lvl``."""
    rng = np.random.default_rng(303)
    margin = 5
    grid, w = lvl.grid, lvl.w
    mu = mu_from_rho(w)
    mu_tau = shift(mu)
    w1 = weighted_grid(lvl.eta * w.rho, warn=False)
    base = ~grid.neighbour_mask(-1)
    worst = {"shift-pairing": 0.0, "TstarT": 0.0, "TTstar": 0.0,
             "multiplication-pairing": 0.0, "derivative-pairing": 0.0}
    for _ in range(30):
        phi, psi = (GridFunction(grid, rng.standard_normal(grid.size))
                    .window(margin) for _ in range(2))
        scale = max(1.0, norm(phi, w) * norm(psi, w))
        lhs = inner_product(shift(phi), psi, w, check_tail=False)
        rhs = inner_product(phi, adjoint_shift(psi, w), w, check_tail=False)
        worst["shift-pairing"] = max(worst["shift-pairing"],
                                     abs(lhs - rhs) / scale)
        ts = adjoint_shift(shift(phi), w)
        pt_scale = max(1.0, mu.max_abs() * phi.max_abs())
        exp = np.where(base, 0.0, mu.flat * phi.flat)
        sel = np.where(base, ts.flat_valid, ts.flat_valid & mu.flat_valid)
        if sel.any():
            worst["TstarT"] = max(worst["TstarT"], float(np.max(
                np.abs(ts.flat[sel] - exp[sel]))) / pt_scale)
        tts = shift(adjoint_shift(phi, w))
        worst["TTstar"] = max(worst["TTstar"],
                              max_abs_diff(tts, mu_tau * phi) / pt_scale)
        f = _poly_fn(grid, rng.uniform(-1, 1, 4))
        lhs = inner_product(f * phi, psi, w1, check_tail=False)
        rhs = inner_product(phi, f.conj() * lvl.eta * psi, w, check_tail=False)
        worst["multiplication-pairing"] = max(
            worst["multiplication-pairing"], abs(lhs - rhs) / scale)
        lhs = inner_product(tau_derivative(phi), psi, w1, check_tail=False)
        rhs = inner_product(phi, adjoint_tau_derivative(psi, w, lvl.eta), w,
                            check_tail=False)
        worst["derivative-pairing"] = max(worst["derivative-pairing"],
                                          abs(lhs - rhs) / scale)
    return worst


def _gram_offdiag_ratio(fns, w):
    n = len(fns)
    G = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = inner_product(fns[i], fns[j], w,
                                              check_tail=False).real
    d = np.sqrt(np.abs(np.diag(G)))
    R = np.abs(G) / np.outer(d, d)
    np.fill_diagonal(R, 0.0)
    return float(np.max(R))


def orthogonality_worst(sc):
    """The two Gram ratios of the orthogonality criterion on the q-Hahn
    scenario ``sc``, each Gram entry from its own pairing."""
    fns = [sc.sample(sc.polynomial(n)) for n in range(9)]
    dfns = [sc.sample(qderivative_poly(sc.polynomial(n), sc.q))
            for n in range(1, 10)]
    return {"gram-level0": _gram_offdiag_ratio(fns, sc.levels[0].w),
            "gram-derivative-level1": _gram_offdiag_ratio(dfns,
                                                          sc.levels[1].w)}


def covariance_unitary_worst(sc):
    """The unitary-transport value of the covariance criterion on the
    constant-gauge scenario ``sc``, probe pair by probe pair."""
    rng = np.random.default_rng(505)
    grid = sc.grid
    pts = grid.branches[0].points
    ch = ln_change((float(np.min(pts)) * 0.9, float(np.max(pts)) * 1.1))
    with np.errstate(divide="ignore"):
        target = transport_grid(grid, ch)
    w_x = sc.levels[0].w
    w_y = weighted_grid(transport_weight(w_x.rho, ch, target), warn=False)
    xs = GridFunction.from_callable(grid, lambda t: t ** sc.s)
    worst = 0.0
    for _ in range(10):
        phi = xs * _poly_fn(grid, rng.uniform(-1, 1, 4))
        psi = xs * _poly_fn(grid, rng.uniform(-1, 1, 4))
        ip_x = inner_product(phi, psi, w_x, check_tail=False)
        ip_y = inner_product(transport_function(phi, ch, target),
                             transport_function(psi, ch, target),
                             w_y, check_tail=False)
        worst = max(worst, abs(ip_x - ip_y) / max(1e-300, abs(ip_x)))
    return worst


def factorization_residual_loop(level, level_next, rng=None):
    """The postulate residual of ``factorization_residual``, probe by probe."""
    rng = np.random.default_rng(rng)
    c, d = level.c, level.d
    bands_lhs = bands_AAstar(level)
    bands_rhs = to_coefficients(level_next)
    worst = 0.0
    for _ in range(PROBES):
        psi = GridFunction(level.grid,
                           rng.standard_normal(level.grid.size)).window(5)
        lhs_op = apply_A(level, apply_Astar(level, psi))
        rhs_op = d * apply_Astar(level_next, apply_A(level_next, psi)) + c * psi
        lhs_bd = tridiag_apply(bands_lhs, psi)
        rhs_bd = tridiag_apply(bands_rhs, psi) * d + c * psi
        scale = joint_scale(lhs_op, rhs_op)
        worst = max(worst,
                    max_abs_diff(lhs_op, rhs_op) / scale,
                    max_abs_diff(lhs_bd, rhs_bd) / scale,
                    max_abs_diff(lhs_op, lhs_bd) / scale,
                    max_abs_diff(rhs_op, rhs_bd) / scale)
    return worst
