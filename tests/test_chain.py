import ctypes
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from taucalc import (GROUP, INTERVAL, SEMIGROUP, EigenPair, GridFunction,
                     apply_A, apply_Astar, build_grid, chain_eigenvalues,
                     eigen_residual, factorization_residual,
                     from_coefficients, lift, linear_map, particular_gauge_xi,
                     shift, solve_step_constant, to_coefficients)
from taucalc import chain
from taucalc.chain import CoefficientTriple, _assemble_factor, make_level
from taucalc.cli import _preset_chain
from taucalc.gridfn import joint_scale, max_abs_diff
from taucalc.hilbert import weighted_grid
from taucalc.validation import SuiteData
from taucalc.errors import (CalculusError, InconsistentWeights,
                            NonPositiveFactor, PositivityWarning,
                            RiccatiBlowup, SingularLimit, ZeroAlpha,
                            ZeroDivisor)

from eigen_oracle import golub_kahan_eigenvalues, one_pass_gram_eigenvalues
from masked_cells import assert_never_read, masked, poison_points
from recursion_oracle import coefficient_ratio_loop, gauge_xi_loop
from taucalc.scenarios import constant_gauge_chain, fractional_chain, qhahn_chain


@pytest.fixture(scope="module")
def cg():
    return constant_gauge_chain()


@pytest.fixture(scope="module")
def qh():
    return qhahn_chain(depth=60, n_levels=4)


def test_qhahn_step_constants(qh):
    # c_1 = (q^2 + q + 1)/q at q = 0.8, then the same recursion twice more
    assert qh.constants[0] == pytest.approx(1.0, rel=1e-12)
    assert qh.constants[1] == pytest.approx(3.05, rel=1e-12)
    assert qh.constants[2] == pytest.approx(5.2525, rel=1e-12)
    assert qh.constants[3] == pytest.approx(7.717625, rel=1e-12)


def test_constant_gauge_step_constants(cg):
    expected = [-0.5 * 0.7 ** (2 * k) for k in range(4)]
    assert np.allclose(cg.constants[:4], expected, rtol=1e-10)


def test_factorization_postulate(qh, cg):
    for scenario in (qh, cg):
        for lo, hi in zip(scenario.levels[:3], scenario.levels[1:4]):
            assert factorization_residual(lo, hi, rng=1) < 1e-9


def test_solve_step_constant_rejects_wrong_gauge(cg):
    lvl = cg.levels[0]
    bad_g = GridFunction.constant(lvl.grid, 1.0)  # true gauge is q^-2
    with pytest.raises(InconsistentWeights):
        solve_step_constant(lvl, cg.levels[1].h, bad_g, 1.0)


def test_kernel_pair_and_lift(cg):
    # the residual leaves out each branch's base row: the base row of the
    # truncated orbit is a boundary row
    pair = cg.kernel_pair()
    lvl = cg.levels[pair.level]
    assert eigen_residual(lvl, pair) < 1e-12
    lifted = lift(pair, lvl)
    assert lifted.level == pair.level + 1
    assert eigen_residual(cg.levels[lifted.level], lifted) < 1e-12


def test_lifted_kernel_pairs_are_eigenpairs(cg):
    # x^s lifted through levels 1-6: the base row, where T* truncates,
    # carried 0.347 down to 7.2e-9 of row-scaled error before it was
    # left out
    pair = cg.kernel_pair()
    for k in range(pair.level, 6):
        assert eigen_residual(cg.levels[k], pair) < 1e-14
        pair = lift(pair, cg.levels[k])
    assert eigen_residual(cg.levels[pair.level], pair) < 1e-14


@pytest.mark.parametrize("q", [0.8, 0.9, 0.97])
def test_qhahn_polynomials_are_eigenpairs(q):
    sc = qhahn_chain(q=q, depth=4000, n_levels=4)
    for n in range(1, 5):
        pair = EigenPair(psi=sc.sample(sc.polynomial(n)),
                         value=sc.eigenvalue(n), level=0)
        assert eigen_residual(sc.levels[0], pair) < 1e-14


def _planted_residuals(monkeypatch, level, pair, offset):
    """eigen_residual of ``pair`` with 1e12 planted in A*A psi at
    ``offset`` points into each branch, one branch at a time, and
    without it."""
    out = []
    for s in level.grid.slices:
        def planted(lvl, fn, at=s.start + offset):
            got = apply_Astar(lvl, fn)
            vals = got.flat.copy()
            vals[at] += 1e12
            return GridFunction(lvl.grid, vals, got.flat_valid)

        with monkeypatch.context() as m:
            m.setattr(chain, "apply_Astar", planted)
            out.append(eigen_residual(level, pair))
    return eigen_residual(level, pair), out


@pytest.mark.parametrize("mode", [SEMIGROUP, INTERVAL, GROUP])
def test_eigen_residual_skips_each_branchs_base_row(monkeypatch, cg, qh,
                                                    mode):
    # an error planted at a branch's first point is not read, one planted
    # at its second point is; a group branch's first point is its deepest
    # backward one, which T* leaves invalid
    if mode == SEMIGROUP:
        pair = cg.kernel_pair()
        level = cg.levels[pair.level]
    else:
        level = qh.levels[0] if mode == INTERVAL else _xi_test_level(GROUP)
        pair = EigenPair(psi=GridFunction.identity(level.grid), value=1.0,
                         level=0)
    assert len(level.grid.slices) == (2 if mode == INTERVAL else 1)
    clean, first = _planted_residuals(monkeypatch, level, pair, 0)
    assert first == [clean] * len(first)
    clean, second = _planted_residuals(monkeypatch, level, pair, 1)
    assert clean < 1.0 < min(second)


def descend(pair, level):
    """Lower an eigenpair one level: psi -> A* psi / lambda_k."""
    value = level.d * pair.value + level.c
    return EigenPair(psi=apply_Astar(level, pair.psi) * (1.0 / value),
                     value=value, level=level.k)


def test_descend_inverts_lift(cg):
    pair = cg.kernel_pair()
    lvl = cg.levels[pair.level]
    back = descend(lift(pair, lvl), lvl)
    # A* A psi = lambda psi, so descending returns psi itself away from
    # the boundary row at the orbit base
    sel = back.psi.valid[0] & pair.psi.valid[0]
    sel[0] = False
    ratio = back.psi.values[0][sel] / pair.psi.values[0][sel]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-8 * abs(ratio[0])


def test_chain_eigenvalues_match_lift_totals(qh):
    lams = chain_eigenvalues(qh.levels[0], count=3)
    assert lams[0] == pytest.approx(0.0, abs=1e-6)
    assert lams[1] == pytest.approx(qh.eigenvalue(1), rel=1e-5)
    assert lams[2] == pytest.approx(qh.eigenvalue(2), rel=1e-5)


def test_coefficient_roundtrip(qh):
    lvl = qh.levels[0]
    coef = to_coefficients(lvl)
    seeds = [lvl.phi.values[i][0] / lvl.h.values[i][0]
             for i in range(len(lvl.grid.branches))]
    rebuilt = from_coefficients(coef, lvl.h, seeds)
    for fn_a, fn_b in ((lvl.B, rebuilt.B), (lvl.eta, rebuilt.eta)):
        for va, vb, ma, mb in zip(fn_a.values, fn_b.values,
                                  fn_a.valid, fn_b.valid):
            sel = ma & mb
            scale = max(1.0, np.max(np.abs(va[sel])))
            assert np.max(np.abs(va[sel] - vb[sel])) / scale < 1e-9


def apply_coefficients(coef, psi):
    """Evaluate alpha T psi + beta psi + gamma T^-1 psi."""
    return (coef.alpha * shift(psi) + coef.beta * psi
            + coef.gamma * shift(psi, -1))


def test_operator_vs_coefficients(qh):
    lvl = qh.levels[0]
    coef = to_coefficients(lvl, value=0.0)
    psi = GridFunction.from_callable(lvl.grid,
                                     lambda x: 1.0 + x - 0.5 * x ** 2).window(3)
    direct = apply_Astar(lvl, apply_A(lvl, psi))
    banded = apply_coefficients(coef, psi)
    for va, vb, ma, mb in zip(direct.values, banded.values,
                              direct.valid, banded.valid):
        sel = ma & mb
        scale = max(1.0, np.max(np.abs(va[sel])))
        assert np.max(np.abs(va[sel] - vb[sel])) / scale < 1e-11


def test_particular_gauge_xi_known_value():
    # xi has fixed point 14 on this level, where the gauge is g = 1
    xi, g = particular_gauge_xi(_xi_test_level(), 1.0, xi0=14.0)
    sel = g.valid[0]
    assert np.max(np.abs(g.values[0][sel] - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# Dense oracle for chain_eigenvalues: the full N x (N+1) weighted factor with
# the limit column projected out explicitly, and a dense SVD.
# ---------------------------------------------------------------------------

def _dense_edge_values(fn):
    grid = fn.grid
    idx = np.arange(grid.size)
    deepest = np.maximum.accumulate(np.where(fn.flat_valid, idx, -1))
    return fn.flat[deepest[~grid.has_next]].real


def dense_factor(level):
    """The N x N factor G_psi with the limit column projected out."""
    grid = level.grid
    total = grid.size
    ends = np.flatnonzero(~grid.has_next)
    d = grid.deltas.copy()
    d[ends] = [x - grid.tau.forward(x) for x in grid.points[ends]]
    underflow = ends[d[ends] == 0.0]
    d[underflow] = d[underflow - 1]
    rv = level.w.rho.flat.real.copy()
    ev = level.eta.flat.real.copy()
    hv = level.h.flat.real.copy()
    pv = level.phi.flat.real.copy()
    ev[ends] = _dense_edge_values(level.eta)
    hv[ends] = _dense_edge_values(level.h)
    pv[ends] = _dense_edge_values(level.f) + hv[ends] / d[ends]
    w1 = grid.measure_sign * d * ev * rv
    w0 = grid.measure_sign * d * rv
    assert np.all(w1 >= 0) and np.all(w0 > 0)
    sq1 = np.sqrt(w1)
    G_full = np.zeros((total, total + 1))
    idx = np.arange(total)
    n = np.flatnonzero(grid.has_next)
    G_full[idx, idx] = sq1 * pv
    G_full[n, n + 1] = -sq1[n] * hv[n] / d[n]
    G_full[ends, total] = -sq1[ends] * hv[ends] / d[ends]
    g_col = G_full[:, total]
    G_psi = G_full[:, :total] / np.sqrt(w0)[None, :]
    gg = float(g_col @ g_col)
    if gg > 0.0:
        G_psi = G_psi - np.outer(g_col, (g_col @ G_psi) / gg)
    return G_psi


def dense_eigenvalues(level):
    return np.sort(scipy.linalg.svdvals(dense_factor(level))) ** 2


def truncated_depth(q):
    return math.ceil(math.log(1e-6) / math.log(q))


@pytest.mark.parametrize("q, depth, count",
                         [(0.7, 20, None), (0.5, 30, None), (0.7, 20, 4)],
                         ids=["0.7-20", "0.5-30", "0.7-20-count4"])
def test_bidiagonal_spectrum_matches_dense_on_semigroup(q, depth, count):
    for lvl in constant_gauge_chain(q=q, depth=depth, n_levels=1).levels[:1]:
        new = chain_eigenvalues(lvl, count=count)
        old = dense_eigenvalues(lvl)[:count]
        assert new.shape == old.shape == (count or lvl.grid.size,)
        assert np.all(np.diff(new) >= 0)
        assert np.max(np.abs(new[1:] - old[1:]) / old[1:]) < 1e-12
        assert abs(new[0]) <= 1e-12 * new[1]


@pytest.mark.parametrize("q", [0.93, 0.97])
def test_bidiagonal_spectrum_matches_dense_on_truncated_qhahn(q):
    sc = qhahn_chain(q=q, depth=truncated_depth(q), n_levels=4)
    new = chain_eigenvalues(sc.levels[0], count=4)
    old = dense_eigenvalues(sc.levels[0])[:4]
    assert new.shape == (4,)
    assert np.max(np.abs(new[1:] - old[1:]) / old[1:]) < 1e-8
    assert abs(new[0]) <= 1e-12 * new[1]


def test_bidiagonal_spectrum_matches_dense_on_asymmetric_interval():
    # unequal branch ends give unequal limit-column entries g_a != g_b
    sc = qhahn_chain(depth=60, n_levels=1, A0_coeffs=(0.3, -1.0),
                     bases=(-0.8, 1.0))
    new = chain_eigenvalues(sc.levels[0], count=6)
    old = dense_eigenvalues(sc.levels[0])[:6]
    assert np.max(np.abs(new[1:] - old[1:]) / old[1:]) < 1e-10
    assert abs(new[0]) <= 1e-12 * new[1]


def decoupled_level(lvl):
    """``lvl`` with h = 0 at both orbit ends, which empties the limit column."""
    ends = ~lvl.grid.has_next
    h0 = GridFunction(lvl.grid, np.where(ends, 0.0, lvl.h.flat),
                      lvl.h.flat_valid)
    return type(lvl)(k=lvl.k, w=lvl.w, B=lvl.B, eta=lvl.eta, h=h0, f=lvl.f,
                     phi=lvl.phi)


def test_bidiagonal_spectrum_decouples_without_limit_column(qh):
    # h = 0 at both orbit ends empties the limit column: nothing is projected
    # and each branch is a square bidiagonal block of its own
    lvl = qh.levels[0]
    flat = decoupled_level(lvl)
    new = chain_eigenvalues(flat)
    old = dense_eigenvalues(flat)
    assert new.shape == old.shape == (lvl.grid.size,)
    # one kernel vector per branch
    assert np.all(np.abs(new[:2]) <= 1e-12 * new[2]) and old[1] == 0.0
    assert np.max(np.abs(new[2:] - old[2:]) / old[2:]) < 1e-8
    # the limit column is what couples the branches into the interval
    # spectrum: with it, only one kernel vector is left
    coupled = chain_eigenvalues(lvl, count=2)
    assert coupled[1] == pytest.approx(qh.eigenvalue(1), rel=1e-5)
    assert new[2] > 2.0 * coupled[1]


# the qhahn preset (q = 0.8, depth 140) ends at q^140 = 2.7e-14 from the
# limit, so its orbit is converged to well within the tolerance too
@pytest.mark.parametrize("q, depth, count", [
    pytest.param(0.9, 4000, 4, id="0.9"),
    pytest.param(0.97, 4000, 4, id="0.97"),
    pytest.param(0.8, 140, 6, id="preset-0.8-140"),
])
def test_bidiagonal_spectrum_matches_closed_form_on_converged_qhahn(
        q, depth, count):
    sc = qhahn_chain(q=q, depth=depth, n_levels=count)
    lams = chain_eigenvalues(sc.levels[0], count=count)
    assert abs(lams[0]) <= 1e-12 * lams[1]
    for n in range(1, count):
        assert lams[n] == pytest.approx(sc.eigenvalue(n), rel=1e-12)


def test_qhahn_spectrum_settles_at_q_0999():
    # the limit walk of x -> 0.999 x takes 73,324 steps (past the former
    # 10,000-step cap); each branch settles at 27,622 points.  The error of
    # the converged spectrum is the truncation |x_last - limit| ~ 1e-12:
    # measured at 1.25 to 1.27 times it
    q = 0.999
    sc = qhahn_chain(q=q, depth=40000, n_levels=3)
    assert all(br.converged for br in sc.grid.branches)
    gap = max(br.limit_gap for br in sc.grid.branches)
    assert gap < 1e-12
    lams = chain_eigenvalues(sc.levels[0], count=4)
    assert abs(lams[0]) <= 1e-12 * lams[1]
    for n in (1, 2, 3):
        assert abs(lams[n] / sc.eigenvalue(n) - 1.0) <= 2.0 * gap
        assert lams[n] == pytest.approx(n * n, rel=1e-5)   # Chebyshev
    # the closed form: lambda_2 - 4 = (1 - q)^2 / q
    assert sc.eigenvalue(2) - 4.0 == pytest.approx((1 - q) ** 2 / q, rel=1e-6)


def test_chain_eigenvalues_counts(qh):
    lvl = qh.levels[0]
    full = chain_eigenvalues(lvl)
    assert full.shape == (lvl.grid.size,)
    assert np.array_equal(chain_eigenvalues(lvl, count=full.size + 5), full)
    assert np.allclose(chain_eigenvalues(lvl, count=3), full[:3],
                       rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError):
        chain_eigenvalues(lvl, count=0)


# levels whose factor is m x (m+1): the limit column is projected out
KERNEL_LEVELS = {
    "interval": lambda: qhahn_chain(depth=60, n_levels=1).levels[0],
    "asymmetric-interval": lambda: qhahn_chain(
        depth=60, n_levels=1, A0_coeffs=(0.3, -1.0),
        bases=(-0.8, 1.0)).levels[0],
    "semigroup": lambda: constant_gauge_chain(q=0.7, depth=20,
                                              n_levels=1).levels[0],
}


def test_library_results_reach_the_constructor_read_only(qh, monkeypatch):
    # the fresh arrays of these results are handed over read-only, so that
    # GridFunction keeps them instead of copying them
    from taucalc.calculus import dtau_inverse_fn, step_quotient, tau_derivative
    from taucalc.hilbert import adjoint_shift, mu_from_rho, weight_from_pearson
    from taucalc.riccati import TwoByTwoSystem, _limit_distance, general_solution
    lvl = qh.levels[0]
    grid = lvl.grid
    psi = GridFunction.from_callable(grid, np.cos)
    x = GridFunction(grid, grid.points)
    seen, made, init = {}, [], GridFunction.__init__

    def spy(self, grid, values, valid=None, label=""):
        seen[id(self)] = [isinstance(a, np.ndarray) and a.flags.writeable
                          for a in (values, valid)]
        made.append((np.shape(values), seen[id(self)]))
        init(self, grid, values, valid, label)

    monkeypatch.setattr(GridFunction, "__init__", spy)
    one = GridFunction.constant(grid, 1.0)
    system = TwoByTwoSystem(one, x * 0.1, one * 0.0, one + x * 0.2)
    made.clear()
    factorization_residual(lvl, qh.levels[1], rng=0)
    # the first function the residual builds is its (6, N) probe block
    assert made[0] == ((6, grid.size), [False, False])
    results = {
        "constant": one,
        "from_callable": GridFunction.from_callable(grid, np.cos),
        "_limit_distance": _limit_distance(grid),
        "general_solution": general_solution(
            system, GridFunction.constant(grid, 0.0), 0.5).u,
        "apply_A": apply_A(lvl, psi),
        "apply_Astar": apply_Astar(lvl, psi),
        "tridiag_apply": chain.tridiag_apply(chain.to_coefficients(lvl), psi),
        "mu_from_rho": mu_from_rho(lvl.w),
        "adjoint_shift": adjoint_shift(psi, lvl.w),
        "weight_from_pearson": weight_from_pearson(lvl.B, lvl.eta).rho,
        "shift": shift(psi, 2),
        "step_quotient": step_quotient(psi),
        "tau_derivative": tau_derivative(psi),
        "dtau_inverse_fn": dtau_inverse_fn(grid),
        "make_level": make_level(lvl.B, lvl.eta, lvl.h, lvl.f).phi,
    }
    step = chain.advance_level(lvl, lvl.h)
    results.update({f"advance_level.{name}": getattr(step, name)
                    for name in ("B", "eta", "f", "phi")})
    results["advance_level.rho"] = step.w.rho
    assert {name: seen[id(out)] for name, out in results.items()} == {
        name: [False, False] for name in results}


def spy_lapack(monkeypatch, binding, record):
    """Append ``record(addresses)`` after every call of ``chain.<binding>``."""
    calls = []
    lapack = getattr(chain, binding)()

    def spy(*args):
        lapack(*args)
        calls.append(record(args))

    monkeypatch.setattr(chain, binding, lambda: spy)
    return calls


def spy_bisection(monkeypatch):
    """Record (order N, IFIRST, ILAST) of every dlarrb call."""
    # N, IFIRST and ILAST are the first, fourth and fifth addresses
    return spy_lapack(monkeypatch, "_dlarrb", lambda args: tuple(
        ctypes.c_int.from_address(args[j]).value for j in (0, 3, 4)))


def spy_rayleigh(monkeypatch):
    """Record the correction RQCORR, the 20th address, of every dlar1v call."""
    return spy_lapack(monkeypatch, "_dlar1v", lambda args:
                      ctypes.c_double.from_address(args[19]).value)


@pytest.mark.parametrize("make", KERNEL_LEVELS.values(), ids=KERNEL_LEVELS)
def test_structural_kernel_zero_is_exact_and_not_bisected(make, monkeypatch):
    lvl = make()
    calls = spy_bisection(monkeypatch)
    steps = spy_rayleigh(monkeypatch)
    lams = chain_eigenvalues(lvl, count=4)
    assert lams[0] == 0.0 and lams[1] > 0.0
    # index 1 of the order-(m+1) Gram matrix B^T B, the kernel, is skipped
    # by every bisection
    assert calls and set(calls) == {(lvl.grid.size, 2, 4)}
    calls.clear()
    steps.clear()
    assert np.array_equal(chain_eigenvalues(lvl, count=1), [0.0])
    assert calls == [] and steps == []


def test_decoupled_kernel_values_are_still_bisected(qh, monkeypatch):
    flat = decoupled_level(qh.levels[0])
    calls = spy_bisection(monkeypatch)
    lams = chain_eigenvalues(flat)
    # m x m blocks: index 1 is the empty limit column, and the near-zero
    # kernel values of the blocks are genuine and bisected
    assert calls and len(set(calls)) == 1
    [(order, first, last)] = set(calls)
    m = order - 1
    assert (first, last) == (2, m + 1) and lams.size == m


def sturm_count(sq, x):
    """Eigenvalues below x of the zero-diagonal symmetric tridiagonal whose
    squared off-diagonal is ``sq``: the negative pivots of T - x = LDL^T."""
    d = -x
    count = int(d < 0)
    for e2 in sq:
        d = -x - e2 / (d if d != 0 else mpmath.mpf(10) ** -100)
        count += int(d < 0)
    return count


@pytest.mark.parametrize("make", [
    lambda: qhahn_chain(q=0.7, depth=truncated_depth(0.7),
                        n_levels=1).levels[0],
    KERNEL_LEVELS["asymmetric-interval"],
    KERNEL_LEVELS["semigroup"],
], ids=["truncated-qhahn", "asymmetric-interval", "semigroup"])
def test_bidiagonal_spectrum_matches_mpmath_sturm_bisection(make):
    # an oracle independent of LAPACK on the same bidiagonal (alpha, beta),
    # bisected by Sturm counts in 50-digit arithmetic
    lvl = make()
    alpha, beta = _assemble_factor(lvl)
    m = len(alpha)
    lams = chain_eigenvalues(lvl, count=4)
    assert lams[0] == 0.0
    with mpmath.workdps(50):
        off = [mpmath.mpf(float(e))
               for e in np.column_stack([alpha, beta]).ravel()]
        sq = [e * e for e in off]
        # exactly one zero eigenvalue, in the middle
        tiny = mpmath.mpf(10) ** -30
        assert (sturm_count(sq, -tiny), sturm_count(sq, tiny)) == (m, m + 1)
        for k in (1, 2, 3):
            lo, hi = mpmath.mpf(0), 2 * max(abs(e) for e in off)
            while hi - lo > mpmath.mpf(10) ** -25 * hi:
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if sturm_count(sq, mid) > m + k else (mid, hi)
            sigma2 = float(((lo + hi) / 2) ** 2)
            assert abs(lams[k] - sigma2) <= 1e-13 * sigma2


EPS = np.finfo(float).eps


def solve_agreement_bound(order):
    """Relative bound on |lambda_new / lambda_oracle - 1| for a factor whose
    B = [G; 0] has order ``order``.

    A relative change of at most eta in every entry of a bidiagonal of
    order n moves each singular value by a factor within (1 +- eta)^(2n-1)
    (Demmel & Kahan 1990).  Each solve's Sturm counts are exact for such a
    change: dstebz on the Golub-Kahan matrix within 2.5 eps of each
    entry, dstqds on L D L^T within 3 eps of alpha^2 and beta^2 after their
    own rounding of 0.5 eps, so within 2 eps of each entry; eta = 4 eps
    covers both.  So does each solve's own stopping width: 2 ulps of sigma
    for dstebz, 2 eps of lambda for dlarrb, at most 4 eps of lambda each.
    In lambda = sigma^2 the factors square, and the two solves add.
    """
    return 2 * ((1 + 4 * EPS) ** (2 * (2 * order - 1)) - 1) + 8 * EPS


def assert_solves_agree(got, want, beta):
    """The new solve's eigenvalues against the oracle's, for a factor with
    superdiagonal ``beta``: within the relative bound, or, below pivmin/eps,
    within dlarrb's least half-width 2 pivmin (twice, for slack).  The
    least subnormal that stands in for a zero beta^2 moves lambda by at
    most 2 sigma 2.2e-162: within 2 eps lambda for sigma >= 1e-146 and
    within 2 pivmin below."""
    pivmin = np.finfo(float).tiny * max(1.0, np.max(beta ** 2))
    bound = solve_agreement_bound(beta.size + 1)
    assert np.all(np.abs(got - want) <= bound * want + 4 * pivmin)


@st.composite
def graded_factors(draw):
    """(alpha, beta, kernel): an m x (m+1) upper bidiagonal factor whose
    entries are graded over 1e-8 .. 1e15 as they are along an orbit, rising
    to one index and falling after it.  With ``kernel`` every beta is
    nonzero, so G has full rank and the Gram matrix one zero; some alpha
    are exactly 0.  Without, one column c of G is empty (beta[c-1] =
    alpha[c] = 0), as when the limit column vanishes, and exact zeros of
    alpha sit only past c, where they do not make G singular."""
    m = draw(st.integers(2, 40))
    kernel = draw(st.booleans())

    def graded():
        exps = sorted(draw(st.lists(st.floats(-8.0, 15.0), min_size=m,
                                    max_size=m)))
        top = draw(st.integers(0, m))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m,
                              max_size=m))
        return np.array(signs) * 10.0 ** np.array(exps[:top]
                                                  + exps[top:][::-1])

    alpha, beta = graded(), graded()
    first_zero = 0
    if not kernel:
        c = draw(st.integers(1, m))
        beta[c - 1] = 0.0
        if c < m:
            alpha[c] = 0.0
        first_zero = c + 1
    if first_zero < m:
        zeros = draw(st.lists(st.integers(first_zero, m - 1), max_size=m // 3))
        alpha[zeros] = 0.0
    return alpha, beta, kernel


def assert_bisections_agree(got, want, beta):
    """Two solves that each end in dlarrb's bisection of the same L D L^T:
    within the sum of their stopping widths.

    Each ends on an interval [l, r] that brackets its index by the same
    Sturm counts, with half-width (r - l)/2 at most 2 eps max(|l|, |r|),
    or at most 2 pivmin (dlarrb's least width), and returns fl((l + r)/2),
    within eps/2 of the midpoint, relative.  So each value is within
    2.5 eps of the bracketed eigenvalue, up to a factor 1 + 2 eps for r
    over lambda, and the two values within twice that of each other."""
    pivmin = np.finfo(float).tiny * max(1.0, np.max(beta ** 2))
    bound = 5 * EPS * (1 + 2 * EPS) * np.maximum(got, want) + 4 * pivmin
    assert np.all(np.abs(got - want) <= bound)


@settings(max_examples=200, deadline=None)
@given(graded_factors())
def test_gram_bisection_matches_golub_kahan_oracle(factor):
    # two LAPACK bisections on different matrices: dlarrb on B^T B's
    # L D L^T of order m+1, dstebz on the Golub-Kahan tridiagonal of order
    # 2m+1; both relatively accurate, so they agree to a few ulps per entry.
    # The solve's Rayleigh steps only move where its last bisection starts:
    # it agrees with one bisection from [0, 2] to within both widths
    alpha, beta, kernel = factor
    m = alpha.size
    total = m + 1 if kernel else m
    want = golub_kahan_eigenvalues(alpha, beta, total, total)
    got = chain._gram_eigenvalues(alpha, beta, m)
    if kernel:
        assert want[0] == 0.0
        want = want[1:]
    assert_solves_agree(got, want, beta)
    assert_bisections_agree(got, one_pass_gram_eigenvalues(alpha, beta, m),
                            beta)


def test_refused_rayleigh_steps_leave_one_bisection(monkeypatch):
    # alpha[-1] = 0 makes L = beta/alpha infinite there.  Every eigenvector
    # but e_N (of beta[-1]^2 = 100, the largest, left out) is twisted above
    # it, so dlar1v's vector below the twist runs through 0 * inf and each
    # correction is NaN: every step is refused, and the last bisection
    # starts from the first one's intervals.  Their ends are dyadic numbers
    # of a few bits, so W -+ WERR gives them back exactly, and the result
    # is the one-pass bisection from [0, 2] bit for bit
    alpha = np.array([1.0, 2.0, 1.0, 3.0, 0.0])
    beta = np.array([0.5, 1.0, 2.0, 0.7, 10.0])
    steps = spy_rayleigh(monkeypatch)
    got = chain._gram_eigenvalues(alpha, beta, 4)
    assert len(steps) == 4 and np.isnan(steps).all()
    assert np.array_equal(got, one_pass_gram_eigenvalues(alpha, beta, 4))


@pytest.mark.parametrize("q", [0.9, 0.93, 0.95])
def test_overshooting_rayleigh_step_is_cut_at_its_bracket(q, monkeypatch):
    # lambda_1 of a converged q-Hahn orbit lies just above 1, the left end
    # of its coarse bracket [1, 1 + 2^-9]: the first step from the midpoint
    # overshoots below 1.  Cut at that end, the walk goes on from 1.0, so
    # dlar1v is called again at another lambda
    alpha, beta = _assemble_factor(
        qhahn_chain(q=q, depth=4000, n_levels=1).levels[0])
    # LAMBDA is the fourth address
    shifts = spy_lapack(monkeypatch, "_dlar1v", lambda args:
                        ctypes.c_double.from_address(args[3]).value)
    got = chain._gram_eigenvalues(alpha, beta, 3)
    first = [lam for lam in shifts if lam < 2.0]
    assert len(first) >= 2 and first[1] == 1.0 != first[0]
    assert_bisections_agree(got, one_pass_gram_eigenvalues(alpha, beta, 3),
                            beta)


@pytest.mark.parametrize("make", [*KERNEL_LEVELS.values(),
                                  lambda: decoupled_level(qhahn_chain(
                                      depth=60, n_levels=1).levels[0])],
                         ids=[*KERNEL_LEVELS, "decoupled"])
def test_chain_eigenvalues_match_golub_kahan_oracle(make):
    lvl = make()
    alpha, beta = _assemble_factor(lvl)
    want = golub_kahan_eigenvalues(alpha, beta, lvl.grid.size, 6)
    got = chain_eigenvalues(lvl, count=6)
    assert_solves_agree(got, want, beta)


@pytest.mark.parametrize("field, value", [("phi", np.nan), ("rho", np.inf)])
def test_eigen_solve_refuses_non_finite_level_data(qh, field, value):
    # a NaN or inf at a masked-out interior point enters the factor and
    # passes the sign gates; it is refused, with no warning, before LAPACK
    lvl = qh.levels[0]
    fn = lvl.w.rho if field == "rho" else getattr(lvl, field)
    values, valid = fn.flat.copy(), fn.flat_valid.copy()
    values[10], valid[10] = value, False
    bad = GridFunction(lvl.grid, values, valid)
    lvl = (replace(lvl, w=weighted_grid(bad)) if field == "rho"
           else replace(lvl, phi=bad))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, beta = _assemble_factor(lvl)
        assert not np.isfinite(np.concatenate([alpha, beta])).all()
        for count in (1, 2):
            with pytest.raises(NonPositiveFactor, match="finite level data"):
                chain_eigenvalues(lvl, count=count)


def _masked_at(lvl, field, n, value=None):
    """``lvl`` with ``field`` masked out at flat index ``n`` (and set to
    ``value`` there, if given)."""
    bad = masked(lvl.w.rho if field == "rho" else getattr(lvl, field), n,
                 value)
    return (replace(lvl, w=weighted_grid(bad)) if field == "rho"
            else replace(lvl, **{field: bad}))


@pytest.mark.parametrize("field", ["rho", "eta", "h", "phi"])
def test_eigen_solve_refuses_masked_level_data(qh, field):
    # the factor reads these four at every point: phi[10] set from -46.57
    # to 5.0 and masked out once moved the spectrum from (0, 1.0000015,
    # 4.0500068) to (0, 0.8841415, 4.5629273) without a word
    lvl = qh.levels[0]
    assert np.allclose(chain_eigenvalues(lvl, count=3), [0, 1.0000015, 4.0500068])
    with pytest.raises(NonPositiveFactor,
                       match=f": {field} is masked out at index 10$"):
        chain_eigenvalues(_masked_at(lvl, field, 10, 5.0), count=3)
    # masked out only at each branch's last point, the level is solved,
    # but for rho: the last row's weight has no stand-in
    ends = np.flatnonzero(~lvl.grid.has_next)
    for end in ends:
        lvl = _masked_at(lvl, field, end)
    if field == "rho":
        pos = lvl.grid.locate(int(ends[0]))[1]
        with pytest.raises(NonPositiveFactor,
                           match=f": rho is masked out at index {pos}$"):
            chain_eigenvalues(lvl, count=3)
    else:
        assert chain_eigenvalues(lvl, count=3).shape == (3,)


@pytest.mark.parametrize("field", ["rho", "eta", "h", "f", "phi"])
def test_eigen_solve_never_reads_a_masked_cell(qh, field):
    # a cell masked out at an interior point, at a branch's last point or
    # at the point before it leaves the spectrum as it was, whatever it
    # holds, or the solve raises the same error whatever it holds
    def solved(level):
        try:
            return chain_eigenvalues(level, count=3)
        except CalculusError as exc:
            return type(exc)

    lvl = qh.levels[0]
    ends = np.flatnonzero(~lvl.grid.has_next)
    for n in (10, *ends, *(ends - 1)):
        want = solved(_masked_at(lvl, field, n))
        for fill in (np.nan, np.inf, -np.inf, 1e300, -5.0, 0.0, 3.0):
            got = solved(_masked_at(lvl, field, n, fill))
            if isinstance(want, type):
                assert got is want, (n, fill)
            else:
                assert np.array_equal(got, want), (n, fill)


@pytest.fixture(scope="module")
def postulate_pairs():
    return [qhahn_chain(q=0.9, depth=60, n_levels=2).levels,
            constant_gauge_chain(q=0.7, depth=40, n_levels=2).levels]


@pytest.mark.parametrize("which", [0, 1], ids=["level", "next"])
@pytest.mark.parametrize("field", ["B", "eta", "h", "f", "phi"])
def test_factorization_residual_never_reads_a_masked_cell(postulate_pairs,
                                                          field, which):
    # both paths of the postulate check, operators and three-point forms,
    # leave out what reads a masked cell of either level
    for pair in postulate_pairs:
        def residual(bad):
            levels = list(pair)
            levels[which] = replace(pair[which], **{field: bad})
            return factorization_residual(*levels, rng=0)

        assert_never_read(residual, getattr(pair[which], field),
                          poison_points(pair[0].grid))


@pytest.mark.parametrize("preset", ["qhahn", "constant-gauge", "fractional"])
def test_band_path_checks_the_postulate_on_every_level_pair(preset):
    # the three-point forms of A_k A_k* and A_{k+1}* A_{k+1} are valid
    # together on every row where both operator products are but each
    # branch's first, and meet there
    levels = _preset_chain(preset, None).levels
    for lo, hi in zip(levels, levels[1:]):
        grid = lo.grid
        psi = GridFunction(grid, np.random.default_rng(lo.k).standard_normal(
            grid.size)).window(5)
        lhs = chain.tridiag_apply(chain.bands_AAstar(lo), psi)
        rhs = (chain.tridiag_apply(to_coefficients(hi), psi) * lo.d
               + lo.c * psi)
        ops = (apply_A(lo, apply_Astar(lo, psi)).flat_valid
               & apply_Astar(hi, apply_A(hi, psi)).flat_valid)
        assert np.array_equal(lhs.flat_valid & rhs.flat_valid,
                              ops & grid.neighbour_mask(-1))
        assert max_abs_diff(lhs, rhs) / joint_scale(lhs, rhs) < 1e-13


def test_fractional_chain_rejects_eigen_solve():
    sc = fractional_chain()
    with pytest.raises(NonPositiveFactor):
        chain_eigenvalues(sc.levels[0])


# ---------------------------------------------------------------------------
# The base-anchored recursions against their sequential loops, and their poles
# ---------------------------------------------------------------------------

def _xi_test_level(mode=SEMIGROUP, depth=25):
    # B = x^2, eta = 4 x^2, h = 1, f = 0 on tau(x) = x/2: phi^2 eta = 16 and
    # B[n+1]/(delta_n delta_n+1) = 2 at every point
    grid = build_grid(linear_map(0.5), mode=mode, bases=1.0, max_depth=depth)
    B = GridFunction.from_callable(grid, lambda x: x ** 2)
    eta = GridFunction.from_callable(grid, lambda x: 4.0 * x ** 2)
    return make_level(B, eta, GridFunction.constant(grid, 1.0),
                      GridFunction.constant(grid, 0.0))


def test_coefficient_ratio_matches_sequential_loop(qh):
    lvl = qh.levels[0]
    coef = to_coefficients(lvl)
    seeds = [lvl.phi.flat[s.start] / lvl.h.flat[s.start]
             for s in lvl.grid.slices]
    rebuilt = from_coefficients(coef, lvl.h, seeds)
    want = coefficient_ratio_loop(coef, seeds)
    got = rebuilt.phi / lvl.h
    sel = want.flat_valid
    assert np.array_equal(got.flat_valid, sel)
    err = np.abs(got.flat[sel] - want.flat[sel]) / np.abs(want.flat[sel])
    assert np.max(err) < 1e-10


def test_gauge_xi_matches_sequential_loop(monkeypatch):
    grid = build_grid(linear_map(0.7), mode=SEMIGROUP, bases=1.0, max_depth=40)
    lvl = make_level(GridFunction.from_callable(grid, lambda x: 1 + x * x),
                     GridFunction.from_callable(grid, lambda x: 2 + x),
                     GridFunction.constant(grid, 1.0),
                     GridFunction.from_callable(grid, lambda x: 0.5 - x))
    xi, _ = particular_gauge_xi(lvl, 1.0, xi0=3.0)
    want = gauge_xi_loop(lvl, 3.0)
    assert np.array_equal(xi.flat_valid, want.flat_valid)
    sel = want.flat_valid
    err = np.abs(xi.flat[sel] - want.flat[sel]) / np.abs(want.flat[sel])
    assert np.max(err) < 1e-12
    # the walk is checked against its own step read backward; a tolerance
    # below rounding level must trip that check
    monkeypatch.setattr(chain, "_XI_TOL", 1e-18)
    with pytest.raises(SingularLimit, match="violates its recursion"):
        particular_gauge_xi(lvl, 1.0, xi0=3.0)


def test_coefficient_roundtrip_on_group_grid_seeds_at_base():
    lvl = _xi_test_level(GROUP, depth=12)
    k0 = lvl.grid.branches[0].base_index
    rebuilt = from_coefficients(to_coefficients(lvl), lvl.h,
                                lvl.phi.flat[k0] / lvl.h.flat[k0])
    sel = lvl.B.flat_valid & rebuilt.B.flat_valid
    assert sel.sum() == lvl.grid.size - 2  # the interior behind the base too
    err = np.abs(rebuilt.B.flat[sel] - lvl.B.flat[sel]) / np.abs(lvl.B.flat[sel])
    assert np.max(err) < 1e-12


def test_gauge_xi_on_group_grid_starts_at_base():
    lvl = _xi_test_level(GROUP, depth=12)
    k0 = lvl.grid.branches[0].base_index
    xi, _ = particular_gauge_xi(lvl, 1.0, xi0=10.0)
    assert xi.flat[k0] == 10.0
    assert xi.flat_valid[0] and xi.flat_valid[k0 + 1]


def test_coefficient_ratio_seed_zero_is_a_pole(qh):
    lvl = qh.levels[0]
    with pytest.raises(RiccatiBlowup, match="index 1$"):
        from_coefficients(to_coefficients(lvl), lvl.h, 0.0)


def test_gauge_xi_pole():
    # xi[1] = 16 xi0 / (xi0 + 2): xi0 = -2 puts the walk on the pole
    with pytest.raises(ZeroDivisor, match="index 1$"):
        particular_gauge_xi(_xi_test_level(), 1.0, xi0=-2.0)


def test_coefficient_ratio_zero_alpha():
    # orbit 1, 0.5, 0.25: r[1] = 16 and alpha(0.25) = 0 on the next step
    grid = build_grid(linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=20)
    coef = CoefficientTriple(*(GridFunction.from_callable(grid, fn) for fn in (
        lambda x: x - 0.25, lambda x: -3.0 + 0 * x, lambda x: 1.0 + 0 * x)))
    with pytest.raises(ZeroAlpha, match="index 2$"):
        from_coefficients(coef, GridFunction.constant(grid, 1.0), 1.0)


def test_build_chain_stamps_every_level_and_advances_all_but_the_last(
        monkeypatch):
    # constant gauge g = q^-2 on tau(x) = 0.7x: c_k = -q^(2k) c0, c0 = 0.5
    lvl0 = replace(constant_gauge_chain(n_levels=1).levels[0], g=None, c=0.0)
    g = GridFunction.constant(lvl0.grid, 0.7 ** -2)
    stamped, advanced = [], []
    advance = chain.advance_level
    monkeypatch.setattr(chain, "advance_level", lambda lvl, h: (
        advanced.append(lvl.k) or advance(lvl, h)))

    def step(lvl):
        stamped.append(lvl.k)
        return g, solve_step_constant(lvl, lvl0.h, g, 1.0), 1.0

    levels = chain.build_chain(lvl0, 3, lvl0.h, step)
    assert [lvl.k for lvl in levels] == stamped == [0, 1, 2]
    assert advanced == [0, 1]
    assert all(lvl.g is g and lvl.d == 1.0 for lvl in levels)
    assert levels[0].w is lvl0.w and lvl0.g is None
    assert [lvl.c.real for lvl in levels] == pytest.approx(
        [-0.5, -0.245, -0.12005], rel=1e-12)
    for lo, hi in zip(levels, levels[1:]):
        assert factorization_residual(lo, hi, rng=lo.k) < 1e-9
    assert chain.build_chain(lvl0, 0, lvl0.h, step) == ()


# ---------------------------------------------------------------------------
# Real levels stay real: float arithmetic against the complex arithmetic
# the same data runs through once each field carries + 0j
# ---------------------------------------------------------------------------

PRESET_CHAINS = {
    "qhahn": lambda: qhahn_chain(depth=60, n_levels=2),
    "constant-gauge": lambda: constant_gauge_chain(n_levels=2),
    "fractional": lambda: fractional_chain(n_levels=2),
}


def assert_within_ulps(real, cplx, scale_of=None, ulps=4):
    """``real`` is float64 and equals the real-valued ``cplx`` to ``ulps``
    units of roundoff of each branch's largest valid |value| (of the
    function ``scale_of``, when given)."""
    assert real.flat.dtype == np.float64 and cplx.flat.dtype == np.complex128
    sel = real.flat_valid
    assert np.array_equal(sel, cplx.flat_valid)
    assert np.all(cplx.flat.imag[sel] == 0.0)
    ref = cplx if scale_of is None else scale_of
    scale = real.grid.branch_max(np.where(sel, np.abs(ref.flat), 0.0))
    gap = np.abs(real.flat[sel] - cplx.flat.real[sel])
    assert np.all(gap <= ulps * np.finfo(float).eps * scale[sel])


def real_part(level):
    """The level of the real parts of a real-valued complex level, as the
    eigen-solve once read it."""
    def re(fn):
        return GridFunction(fn.grid, fn.flat.real, fn.flat_valid)
    return chain.ChainLevel(k=level.k, w=weighted_grid(re(level.w.rho)),
                            B=re(level.B), eta=re(level.eta), h=re(level.h),
                            f=re(level.f), phi=re(level.phi))


@pytest.mark.parametrize("preset", PRESET_CHAINS)
def test_real_level_matches_its_complex_twin(preset):
    lvl0, lvl1 = PRESET_CHAINS[preset]().levels
    data = (lvl0.B, lvl0.eta, lvl0.h, lvl0.f)
    real = make_level(*data)
    cplx = make_level(*(fn + 0j for fn in data))
    for fn in (real.B, real.eta, real.h, real.f, real.phi, real.w.rho):
        assert fn.flat.dtype == np.float64
    assert_within_ulps(real.w.rho, cplx.w.rho)
    assert_within_ulps(real.phi, cplx.phi)
    nxt = chain.advance_level(replace(real, g=lvl0.g, c=lvl0.c, d=lvl0.d),
                              lvl1.h)
    nxt_c = chain.advance_level(
        replace(cplx, g=lvl0.g + 0j, c=lvl0.c, d=lvl0.d), lvl1.h + 0j)
    for name in ("B", "eta", "h", "phi"):
        assert_within_ulps(getattr(nxt, name), getattr(nxt_c, name))
    assert_within_ulps(nxt.w.rho, nxt_c.w.rho)
    # f = phi - h/delta cancels to rounding noise: judged on phi's scale
    assert_within_ulps(nxt.f, nxt_c.f, scale_of=nxt_c.phi)
    if preset == "fractional":   # its factor weights are not positive
        for level in (real, real_part(cplx)):
            with pytest.raises(NonPositiveFactor, match="branch weights"):
                chain_eigenvalues(level, count=4)
        return
    want = chain_eigenvalues(real_part(cplx), count=4)
    got = chain_eigenvalues(real, count=4)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def level_functions(level):
    return (level.B, level.eta, level.h, level.f, level.phi, level.g,
            level.w.rho, level.w.mu)


def test_preset_and_suite_levels_are_float64():
    data = SuiteData()
    scenarios = [_preset_chain(name, None)
                 for name in ("qhahn", "constant-gauge", "fractional")]
    scenarios += [getattr(data, name) for name in (
        "qhahn", "qhahn_cross", "constant_gauge", "constant_gauge_deep",
        "fractional_half", "fractional_two")]
    for sc in scenarios:
        for level in sc.levels:
            assert [fn.flat.dtype for fn in level_functions(level)] == [
                np.float64] * 8


@pytest.mark.parametrize("field", ["rho", "eta", "h", "f", "phi"])
def test_eigen_solve_refuses_complex_level_data(complex_xi_levels, field):
    # each field the factor reads, alone complex
    lvl = complex_xi_levels[0]
    if field == "rho":
        with pytest.warns(PositivityWarning):
            lvl = replace(lvl, w=weighted_grid(lvl.w.rho * (1.0 + 0.1j)))
    else:
        lvl = replace(lvl, **{field: getattr(lvl, field) * (1.0 + 0.1j)})
    with pytest.raises(NonPositiveFactor, match="real level data"):
        _assemble_factor(lvl)
    with pytest.raises(NonPositiveFactor, match="real level data"):
        chain_eigenvalues(complex_xi_levels[1], count=2)
