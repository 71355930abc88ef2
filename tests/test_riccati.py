from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucalc import (GROUP, INTERVAL, GridFunction, SEMIGROUP,
                     TwoByTwoSystem, build_grid, cross_ratio, darboux,
                     darboux_solution, fractional_map, general_solution,
                     linear_map, resolvent, singular_darboux, solve_system,
                     triangular_resolvent)
from taucalc.calculus import deltas_fn
from taucalc.chain import CoefficientTriple, to_coefficients
from taucalc.errors import (CalculusError, DegenerateQuadruple,
                            DegenerateSystem, GridMismatch, NonPositiveFactor,
                            NotTriangular, ParticularNotSolution,
                            SingularGauge, SingularResolvent, ZeroAlpha,
                            ZeroDivisor)
from taucalc.riccati import (rhom_residual, step_residual,
                             system_from_second_order)
from taucalc.scenarios import (constant_gauge_chain, gauge_riccati_system,
                               qhahn_chain)

from resolvent_oracle import (deepest_valid, lu_solve_system,
                              mp_suffix_products, reference_general_solution,
                              sequential_resolvent)


@pytest.fixture(scope="module")
def contracting_system():
    """A triangular contracting system on a fractional-map orbit."""
    grid = build_grid(fractional_map(0.5), mode=SEMIGROUP, bases=0.5,
                      max_depth=60)
    one = GridFunction.constant(grid, 1.0)
    a = GridFunction.from_callable(grid, lambda x: 1.0 + 0.5 * x)
    b = GridFunction.from_callable(grid, lambda x: x / 3.0)
    c = GridFunction.constant(grid, 0.0)
    d = GridFunction.from_callable(grid, lambda x: 1.0 + 0.25 * x ** 2)
    return TwoByTwoSystem(a=a, b=b, c=c, d=d)


def test_resolvent_converges(contracting_system):
    res = resolvent(contracting_system)
    assert res.converged
    assert np.isfinite(res.criterion_sum)
    assert res.cauchy_gap < 1e-12


def test_triangular_matches_brute_force(contracting_system):
    res = resolvent(contracting_system)
    tri = triangular_resolvent(contracting_system)
    for ma, mb in zip(res.matrices, tri.matrices):
        scale = max(1.0, float(np.max(np.abs(ma))))
        assert np.max(np.abs(ma - mb)) / scale < 1e-9


def test_solve_system_step_residual(contracting_system):
    psi, phi = solve_system(contracting_system, (1.0, 0.5))
    assert step_residual(contracting_system, psi, phi) < 1e-10


def test_solve_system_keeps_its_fresh_arrays(contracting_system):
    # handed over read-only, the solution is not copied by the
    # constructor: both functions are rows of one array and share one mask
    psi, phi = solve_system(contracting_system, (1.0, 0.5))
    assert psi.flat.base is not None and psi.flat.base is phi.flat.base
    assert psi.flat_valid is phi.flat_valid


def test_regular_darboux_preserves_solvability(contracting_system):
    grid = contracting_system.grid
    D = ((GridFunction.from_callable(grid, lambda x: 2.0 + x),
          GridFunction.from_callable(grid, lambda x: x)),
         (GridFunction.from_callable(grid, lambda x: 0.5 * x),
          GridFunction.from_callable(grid, lambda x: 1.0 + x)))
    psi, phi = solve_system(contracting_system, (1.0, 0.5))
    sys2 = darboux(contracting_system, D)
    psi2, phi2 = darboux_solution(D, psi, phi)
    assert step_residual(sys2, psi2, phi2) < 1e-9


def test_singular_darboux_preserves_solvability(contracting_system):
    psi, phi = solve_system(contracting_system, (1.0, 0.5))
    sys2 = singular_darboux(contracting_system, 1.0, 0.0)
    s = GridFunction.from_callable(
        contracting_system.grid,
        lambda x: x - contracting_system.grid.limit)
    psi2, phi2 = psi / s, phi
    assert step_residual(sys2, psi2, phi2) < 1e-9


def test_gauge_system_resolvent_is_finite():
    # double-shifted entries leave the deepest two indices invalid; the
    # product must truncate at the deepest valid index, not before/after
    scenario = constant_gauge_chain(q=0.5, depth=120, n_levels=1)
    sys = singular_darboux(gauge_riccati_system(scenario.levels[0]), 0.0, -1.0)
    res = resolvent(sys)
    tri = triangular_resolvent(sys)
    for r in (res, tri):
        assert all(np.all(np.isfinite(m)) for m in r.matrices)
    assert res.cauchy_gap < 1e-12
    # the boundary-value solve meets its own recursion gate (1e-10)
    psi, phi = solve_system(sys, (1.0, 0.5), res=res)
    assert np.isfinite(psi.values[0][0]) and np.isfinite(phi.values[0][0])


def test_group_law(contracting_system):
    u0 = GridFunction.constant(contracting_system.grid, 0.0)
    one_step = general_solution(contracting_system, u0, 0.75)
    two_step = general_solution(
        contracting_system, general_solution(contracting_system, u0, 0.5).u,
        0.25)
    sel = one_step.u.valid[0] & two_step.u.valid[0]
    diff = np.abs(one_step.u.values[0][sel] - two_step.u.values[0][sel])
    assert np.max(diff) < 1e-10
    assert one_step.residual < 1e-10


def test_general_solution_checks_particular(contracting_system):
    bad = GridFunction.constant(contracting_system.grid, 5.0)
    with pytest.raises(ParticularNotSolution):
        general_solution(contracting_system, bad, 0.5)


def test_general_solution_checks_particular_at_every_scale():
    # a = d = 2^k, b = 2^(k - 2), c = 0: u0 = 5 misses the recursion by
    # 5/9 of its sides at every scale (against a floor of 1 it read 3e-90
    # at 2^-300)
    grid = build_grid(linear_map(0.5), max_depth=30)
    for k in (0, -300):
        s = 2.0 ** k
        sys = TwoByTwoSystem(*(GridFunction.constant(grid, v)
                               for v in (s, s / 4, 0.0, s)))
        with pytest.raises(ParticularNotSolution):
            general_solution(sys, GridFunction.constant(grid, 5.0), 0.5)


def test_general_solution_refuses_a_particular_with_nan():
    # u0 = 0 solves u(tau x) = u(x) / (1 + u(x) / 4) but for the NaN at
    # index 3; the residual is nan, which must fail its gate (a ``>`` gate
    # let it through to a misleading pole of the family)
    grid = build_grid(linear_map(0.5), max_depth=30)
    sys = TwoByTwoSystem(*(GridFunction.constant(grid, v)
                           for v in (1.0, 0.25, 0.0, 1.0)))
    values = np.zeros(grid.size)
    values[3] = np.nan
    with pytest.raises(ParticularNotSolution, match="residual nan"):
        general_solution(sys, GridFunction(grid, values), 0.5)


def test_solve_system_refuses_a_nan_step_residual(contracting_system):
    # NaN boundary data give a NaN solution, whose step residual is nan
    with pytest.raises(SingularResolvent, match="residual nan"):
        solve_system(contracting_system, (np.nan, 0.5))


def test_solutions_satisfy_homographic_recursion(contracting_system):
    u0 = GridFunction.constant(contracting_system.grid, 0.0)
    for t in (0.5, 1.0, 2.0):
        sol = general_solution(contracting_system, u0, t)
        assert rhom_residual(contracting_system, sol.u) < 1e-10


def test_cross_ratio_equally_spaced(contracting_system):
    u0 = GridFunction.constant(contracting_system.grid, 0.0)
    sols = [general_solution(contracting_system, u0, float(t)).u
            for t in (0.0, 1.0, 2.0, 3.0)]
    i = 5
    vals = [s.values[0][i] for s in sols]
    assert cross_ratio(*vals) == pytest.approx(0.25, abs=1e-10)


def test_cross_ratio_rejects_degenerate():
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(1.0, 2.0, 1.0, 2.0)


def test_not_triangular_rejected(qgrid):
    one = GridFunction.constant(qgrid, 1.0)
    sys = TwoByTwoSystem(a=one, b=one * 0.5, c=one * 0.5, d=one)
    with pytest.raises(NotTriangular):
        triangular_resolvent(sys)


def test_singular_step_matrix_rejected(qgrid):
    one = GridFunction.constant(qgrid, 1.0)
    with pytest.raises(DegenerateSystem):
        TwoByTwoSystem(a=one, b=one, c=one, d=one)


@pytest.mark.parametrize("scale", [1e200, 1e-300, 0.0])
def test_singular_step_matrix_rejected_at_any_scale(qgrid, scale):
    # ad - bc would be inf - inf at 1e200 and 0/0 on the zero matrix
    f = GridFunction.constant(qgrid, scale)
    with pytest.raises(DegenerateSystem):
        TwoByTwoSystem(a=f, b=f, c=f, d=f)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_step_matrix_rejected(bad):
    # a NaN or inf entry at one valid point; resolvent used to return
    # criterion_sum=nan instead of raising
    grid = build_grid(linear_map(0.5), max_depth=10)
    a = np.ones(grid.size)
    a[3] = bad
    one, zero = GridFunction.constant(grid, 1.0), GridFunction.constant(grid, 0.0)
    with pytest.raises(DegenerateSystem, match="not finite"):
        TwoByTwoSystem(a=GridFunction(grid, a), b=zero, c=zero, d=one)


@pytest.mark.parametrize("scale", [1e-155, 1e-170, 1e-300, 1e200])
def test_uniformly_scaled_identity_accepted(qgrid, scale):
    # ad and |a||d| underflow below about 1e-162; the matrix is scale * I
    f, zero = GridFunction.constant(qgrid, scale), GridFunction.constant(qgrid, 0.0)
    sys = TwoByTwoSystem(a=f, b=zero, c=zero, d=f)
    assert sys.valid_mask().all()


@pytest.mark.parametrize("system", [
    lambda: TwoByTwoSystem(
        a=GridFunction.from_callable(GRIDS["interval"], lambda x: 1.0 + 0.5 * x),
        b=GridFunction.from_callable(GRIDS["interval"], lambda x: x / 3.0),
        c=GridFunction.constant(GRIDS["interval"], 0.0),
        d=GridFunction.from_callable(GRIDS["interval"], lambda x: 1.0 + x * x)),
    lambda: q_orbit_system()], ids=["triangular", "complex"])
def test_criterion_sum_matches_derivative_form(system):
    # sum |delta_n| max|LambdaTilde(x_n)| over the valid tilde entries
    sys = system()
    grid = sys.grid
    tn = np.zeros(grid.size)
    for f in sys.tilde():
        sel = f.flat_valid
        tn[sel] = np.maximum(tn[sel], np.abs(f.flat[sel]))
    want = float(np.sum(np.abs(grid.deltas) * tn))
    assert resolvent(sys).criterion_sum == pytest.approx(want, rel=1e-14)


# -- resolvent against its sequential and mpmath references -----------------

def system_from_tilde(at, bt, ct, dt):
    """The step form of the derivative form, Lambda = I - delta Tilde."""
    dlt = deltas_fn(at.grid)
    return TwoByTwoSystem(a=1.0 - dlt * at, b=-dlt * bt, c=-dlt * ct,
                          d=1.0 - dlt * dt)


def q_orbit_system():
    """A full (c != 0), complex system Lambda = I - delta Tilde on the
    q-orbit of tau(x) = 0.7 x from 1."""
    grid = build_grid(linear_map(0.7), SEMIGROUP, 1.0, max_depth=200)
    return system_from_tilde(*(
        GridFunction.from_callable(grid, f) for f in (
            lambda x: 0.5 + x, lambda x: 1.0 - 2j * x,
            lambda x: 0.25 + 0.5j * x ** 2, lambda x: -1.0 + 0.3 * x)))


def test_resolvent_matches_mpmath_product():
    sys = q_orbit_system()
    exact = mp_suffix_products(sys)
    res = resolvent(sys)
    want = np.array([[[complex(S[i, j]) for j in range(2)] for i in range(2)]
                     for S in exact])
    # relative to the product's size: each of the n - 1 = 96 matrix
    # products rounds by about 2u = 2.2e-16 of the product of the moduli,
    # which these near-identity steps keep within a small factor of the
    # product itself, so either association order stays below 96 * 2u
    # (the sequential loop is 3.7e-16 off, the doubling scan 9.3e-16)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(res.flat - want)) / scale < 2e-14
    assert res.steps == sys.grid.size - 1 and res.converged


GRIDS = {
    "semigroup": build_grid(linear_map(0.6), SEMIGROUP, 1.0, max_depth=40),
    "interval": build_grid(linear_map(0.8), INTERVAL, (-1.0, 1.0),
                           max_depth=50),
    "group": build_grid(linear_map(0.6), GROUP, 1.0, max_depth=30),
}


def random_system(grid, seed, complex_entries, cut):
    """Random O(1) step matrices; the valid mask of the last branch ends
    ``cut`` points before the branch does."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.5, 1.5, (4, grid.size))
    if complex_entries:
        m = m + 1j * rng.uniform(-1.5, 1.5, (4, grid.size))
    valid = np.ones(grid.size, dtype=bool)
    if cut:
        valid[grid.slices[-1].stop - cut:] = False
    return TwoByTwoSystem(*(GridFunction(grid, row, valid) for row in m))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(GRIDS)), seed=st.integers(0, 2 ** 32 - 1),
       complex_entries=st.booleans(), cut=st.integers(0, 7))
def test_resolvent_matches_sequential_products(kind, seed, complex_entries,
                                               cut):
    sys = random_system(GRIDS[kind], seed, complex_entries, cut)
    res = resolvent(sys)
    want, steps, gap = sequential_resolvent(sys)
    assert res.steps == steps
    # Both are the same product of n factors in different association
    # orders.  Measured against the product of the entrywise moduli, one
    # 2x2 product adds at most gamma_2 = 2u/(1 - 2u) relative error in
    # real arithmetic and about gamma_4 in complex arithmetic (Higham,
    # Accuracy and Stability of Numerical Algorithms, secs. 3.5-3.6), and
    # either order takes at most n - 1 products, so each result is within
    # about 4 n u |Lambda_last| ... |Lambda_k| of the exact product and
    # the two are within 8 n u of each other.  The power-of-two rescaling
    # is exact and adds nothing.
    u = np.finfo(float).eps / 2
    moduli = sequential_resolvent(TwoByTwoSystem(
        *(GridFunction(sys.grid, np.abs(f.flat), f.flat_valid)
          for f in (sys.a, sys.b, sys.c, sys.d))))[0].real
    n = max(s.stop - s.start for s in sys.grid.slices)
    assert np.all(np.abs(res.flat - want) <= 8 * n * u * moduli)
    past = np.ones(sys.grid.size, dtype=bool)
    for s, deep in zip(sys.grid.slices,
                       deepest_valid(sys.grid, sys.valid_mask())):
        past[s.start:deep + 1] = False
    assert np.all(res.flat[past] == np.eye(2))
    assert res.cauchy_gap == pytest.approx(gap, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("system", [
    lambda: q_orbit_system(),
    lambda: singular_darboux(gauge_riccati_system(constant_gauge_chain(
        q=0.5, depth=120, n_levels=1).levels[0]), 0.0, -1.0)],
    ids=["q-orbit", "constant-gauge"])
def test_resolvent_steps_and_convergence_match_sequential(system):
    sys = system()
    res = resolvent(sys)
    want, steps, gap = sequential_resolvent(sys)
    assert res.steps == steps
    assert res.converged == (gap < 1e-12) and res.converged
    assert (res.cauchy_gap < 1e-12) == (gap < 1e-12)


def test_resolvent_keeps_the_scale_of_products_that_overflow_inside():
    # S[k] = 1e-150 Q * (1e100 R)^j stays below 1e250 for j <= 4, but the
    # doubling forms the inner product of the four 1e100 factors, 1e400:
    # only the kept power-of-two exponents can give S back.
    grid = GRIDS["semigroup"]
    last = grid.size - 1
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    m = np.broadcast_to(np.eye(2), (grid.size, 2, 2)).copy()
    m[last] = 1e-150 * np.array([[1.0, 0.5], [-0.5, 1.0]])
    m[last - 4:last] = 1e100 * rot
    sys = TwoByTwoSystem(*(GridFunction(grid, m[:, i, j])
                           for i in range(2) for j in range(2)))
    res = resolvent(sys)
    want, _, gap = sequential_resolvent(sys)
    assert np.all(np.isfinite(want)) and np.max(np.abs(want)) > 1e249
    assert res.cauchy_gap == pytest.approx(gap, rel=1e-12)
    assert np.all(np.isfinite(res.flat))
    assert np.all(np.abs(res.flat - want) <= 1e-14 * np.abs(want).max(
        axis=(1, 2))[:, None, None])


def _small_system():
    grid = build_grid(linear_map(0.5), SEMIGROUP, 1.0, max_depth=20)
    x = GridFunction.identity(grid)
    return TwoByTwoSystem(a=1.0 + 0.5 * x, b=x * (1.0 / 3.0),
                          c=GridFunction.constant(grid, 0.0),
                          d=1.0 + 0.25 * x * x)


@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-20, 1e-160, 1e-300])
def test_darboux_accepts_a_uniformly_small_regular_gauge(eps):
    # |det| = eps^2 is judged against the square of the largest entry,
    # and the inverse is formed from D / eps, so eps^2 never underflows
    sys = _small_system()
    assert step_residual(darboux(sys, ((eps, 0.0), (0.0, eps))),
                         *solve_system(sys, (1.0, 0.5))) < 1e-9


def test_darboux_solution_inverts_a_uniformly_small_gauge():
    sys = _small_system()
    psi, phi = solve_system(sys, (1.0, 0.5))
    for got, want in zip(darboux_solution(((1e-160, 0.0), (0.0, 1e-160)),
                                          psi, phi), (psi, phi)):
        assert np.array_equal(got.flat_valid, want.flat_valid)
        v = want.flat_valid
        assert np.allclose(got.flat[v], 1e160 * want.flat[v], rtol=1e-14,
                           atol=0.0)


@pytest.mark.parametrize("D", [((1.0, 1.0), (1.0, 1.0)),
                               ((1e-10, 1e-10), (1e-10, 1e-10)),
                               ((0.0, 0.0), (0.0, 0.0))])
def test_darboux_refuses_a_singular_gauge(D):
    with pytest.raises(SingularGauge):
        darboux(_small_system(), D)


def test_second_order_gate_accepts_coefficients_growing_toward_the_limit():
    # alpha grows like 1/delta^2 toward the limit (to about 2e28 here);
    # alpha = 5 at the base is not "vanishing" next to beta and gamma there
    sc = qhahn_chain(q=0.8, depth=140)
    coef = to_coefficients(sc.levels[0], sc.eigenvalue(1))
    assert system_from_second_order(coef).grid is sc.grid


def test_second_order_gate_refuses_a_vanishing_alpha():
    grid = build_grid(linear_map(0.5), SEMIGROUP, 1.0, max_depth=20)
    coef = CoefficientTriple(*(GridFunction.from_callable(grid, fn) for fn in (
        lambda x: x - 0.25, lambda x: -3.0 + 0 * x, lambda x: 1.0 + 0 * x)))
    with pytest.raises(ZeroAlpha):
        system_from_second_order(coef)


def _outcome(call):
    """The type of the error ``call`` raises, or None."""
    try:
        call()
    except CalculusError as exc:
        return type(exc)
    return None


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(GRIDS)), seed=st.integers(0, 2 ** 32 - 1),
       k=st.integers(-300, 300))
def test_recursion_residuals_do_not_depend_on_the_scale(kind, seed, k):
    # 2^k times the system (homographic form) or the solution pair (step
    # form) scales both sides of the recursion exactly, and the residual
    # not at all
    grid = GRIDS[kind]
    rng = np.random.default_rng(seed)
    a, b, c, d, u, psi, phi = (GridFunction(grid, v) for v in
                               rng.uniform(-1.5, 1.5, (7, grid.size)))
    s = 2.0 ** k
    sys = TwoByTwoSystem(a, b, c, d)
    assert (rhom_residual(TwoByTwoSystem(a * s, b * s, c * s, d * s), u)
            == rhom_residual(sys, u) > 0.0)
    assert (step_residual(sys, psi * s, phi * s)
            == step_residual(sys, psi, phi) > 0.0)
    zero = GridFunction.constant(grid, 0.0)
    assert step_residual(sys, zero, zero) == 0.0


# an O(1) matrix, rank one plus ``gap`` times its size at one point
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-300, 300),
       gap=st.sampled_from([0.0, 1e-17, 1e-15, 1e-14, 1e-13, 1e-8, 1.0]),
       wide_k=st.integers(-900, 900))
def test_gate_verdicts_do_not_depend_on_the_input_scale(seed, k, gap, wide_k):
    sys = _small_system()
    grid = sys.grid
    rng = np.random.default_rng(seed)
    j = int(rng.integers(grid.size - 1))
    m = rng.uniform(0.5, 2.0, (4, grid.size)) * rng.choice([-1, 1], (4, 1))
    t = rng.uniform(0.5, 2.0)
    m[2, j], m[3, j] = t * m[0, j], t * m[1, j] + gap * np.abs(m[:, j]).max()
    coef = rng.uniform(0.5, 2.0, (3, grid.size))
    coef[0, j] = gap * (coef[1, j] + coef[2, j])

    def gauge(scale):
        return darboux(sys, ((GridFunction(grid, scale * m[0]),
                              GridFunction(grid, scale * m[1])),
                             (GridFunction(grid, scale * m[2]),
                              GridFunction(grid, scale * m[3]))))

    def second_order(scale):
        return system_from_second_order(CoefficientTriple(
            *(GridFunction(grid, scale * row) for row in coef)))

    for build in (gauge, second_order):
        verdict = _outcome(lambda: build(1.0))
        assert _outcome(lambda: build(2.0 ** k)) is verdict
        if gap == 0.0:
            assert verdict in (SingularGauge, ZeroAlpha)
    # power-of-two scaling is exact, so an accepted gauge gives the same
    # transformed system at every scale, bit for bit; |wide_k| <= 900 keeps
    # D, Lambda D and D^{-1} normal, while det D leaves the float64 range
    # beyond |wide_k| = 512
    if _outcome(lambda: gauge(1.0)) is None:
        base, scaled = gauge(1.0), gauge(2.0 ** wide_k)
        valid = base.valid_mask()
        assert np.array_equal(scaled.valid_mask(), valid)
        assert np.array_equal(scaled.entry_arrays()[valid],
                              base.entry_arrays()[valid])


# -- the solution family and the boundary solve against their references ----

def system_through(grid, a, b, d, u0, scale=1.0):
    """The system with entries a, b, d (flat arrays) and the c that makes
    u0 solve u(tau x) (b u + a) = d u + c wherever u0(tau x) exists (c = 0
    at each branch end), all four multiplied by ``scale``."""
    u_next = grid.shifted(u0, 1)
    c = np.where(grid.has_next, u_next * (b * u0 + a) - d * u0, 0.0)
    return TwoByTwoSystem(*(GridFunction(grid, scale * v)
                            for v in (a, b, c, d)))


def family_systems():
    """(system, u0) pairs: the validation suite's regularized gauge system
    and a complex two-branch system through a non-constant u0."""
    gauge = singular_darboux(gauge_riccati_system(constant_gauge_chain(
        q=0.5, depth=120, n_levels=1).levels[0]), 0.0, -1.0)
    grid = GRIDS["interval"]
    x = grid.points
    u0 = 0.3 + 0.1j * x
    return [(gauge, GridFunction.constant(gauge.grid, 0.0)),
            (system_through(grid, 1.0 + 0.5 * x + 0j, x / 3.0 + 0.2j,
                            1.0 + 0.25 * x * x + 0j, u0),
             GridFunction(grid, u0))]


def assert_same_member(got, want):
    assert np.array_equal(got.u.flat, want.u.flat)
    assert np.array_equal(got.u.flat_valid, want.u.flat_valid)
    assert got.residual == want.residual and got.t == want.t
    assert got.u0 is want.u0


@pytest.mark.parametrize("case", [0, 1], ids=["gauge", "two-branch"])
def test_family_members_equal_the_reference(case):
    sys, u0 = family_systems()[case]
    # the riccati criterion's pattern: five members on u0, one member on
    # another particular solution, then back to u0
    members = {t: general_solution(sys, u0, t) for t in (0.5, 0.75, 1.0, 2.0, 3.0)}
    for t, got in members.items():
        assert_same_member(got, reference_general_solution(sys, u0, t))
    u1 = members[0.5].u
    assert_same_member(general_solution(sys, u1, 0.25),
                       reference_general_solution(sys, u1, 0.25))
    assert_same_member(general_solution(sys, u0, 0.75),
                       reference_general_solution(sys, u0, 0.75))
    # and alternating between the two, with t = 0 and negative t
    for u, t in ((u1, 0.0), (u0, -1.5), (u1, 2.5), (u0, 0.0), (u1, -0.25),
                 (u0, 1.25), (u0, 1.25)):
        assert_same_member(general_solution(sys, u, t),
                           reference_general_solution(sys, u, t))


def test_family_errors_are_raised_on_every_call(qgrid):
    # a = d = 1, b = 1/4, c = 0 through u0 = 0: E = 1 and S[k] = (n - k)/4
    # over the n live points, so t = 1/S[k] is a pole
    one, zero = GridFunction.constant(qgrid, 1.0), GridFunction.constant(qgrid, 0.0)
    sys = TwoByTwoSystem(a=one, b=one * 0.25, c=zero, d=one)
    n = qgrid.size - 1
    bad = GridFunction.constant(qgrid, 5.0)
    for _ in range(3):
        with pytest.raises(ParticularNotSolution):
            general_solution(sys, bad, 0.5)
        for k in (0, 5):
            with pytest.raises(ZeroDivisor):
                general_solution(sys, zero, 4.0 / (n - k))
        assert_same_member(general_solution(sys, zero, 0.1),
                           reference_general_solution(sys, zero, 0.1))
    # a + b u0 = 1.1e-15 next to |a| + |b u0| = 2 at one point, where the
    # step matrix is still regular (its determinant is (a + b u0)(d - b
    # u0(tau x)) and u0(tau x) = 1e6)
    grid = GRIDS["semigroup"]
    u0 = np.full(grid.size, 0.5 + 0j)
    u0[10], u0[11] = -1.0 + 1e-15, 1e6
    ones = np.ones(grid.size, dtype=complex)
    near = system_through(grid, ones, ones, ones, u0)
    for _ in range(3):
        for solve in (general_solution, reference_general_solution):
            with pytest.raises(NonPositiveFactor):
                solve(near, GridFunction(grid, u0), 1.0)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(GRIDS)), seed=st.integers(0, 2 ** 32 - 1),
       p=st.sampled_from([-500, 500]), jitter=st.integers(-4, 4),
       g=st.sampled_from([1.0, 1e-6, 1e-8]))
def test_boundary_solve_matches_lu(kind, seed, p, jitter, g):
    # every suffix product of a branch has the deepest step as its left
    # factor, so scaling that step by a power of two scales the branch's
    # resolvent exactly: it is chosen so the largest entry on each branch
    # is just below 2^(p + jitter), near 2^±500, where LU's determinant
    # and squared scale stay finite.  Three steps diag(1, g) shrink det
    # Lambda_inf by g^3 against that entry: g = 1 leaves it regular (step
    # residuals up to about 2e-12 against the 1e-10 check), g <= 1e-6
    # puts it below 1e-18 against the 1e-14 gate.  Nearer either edge two
    # correctly rounded solves may fall on different sides.
    grid = GRIDS[kind]
    rng = np.random.default_rng(seed)
    m = np.eye(2) + 0.3 * (rng.uniform(-1, 1, (grid.size, 2, 2))
                           + 1j * rng.uniform(-1, 1, (grid.size, 2, 2)))
    for s in grid.slices:
        m[rng.choice(np.arange(s.start, s.stop - 1), 3, replace=False), :, 1] *= g

    def system():
        return TwoByTwoSystem(*(GridFunction(grid, m[:, i, j])
                                for i in range(2) for j in range(2)))

    big = grid.branch_max(np.abs(resolvent(system()).flat).max(axis=(1, 2)))
    for s in grid.slices:
        m[s.stop - 1] *= 2.0 ** (p + jitter - np.frexp(big[s.start])[1])
    sys = system()
    res = resolvent(sys)
    bvec = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
    verdict = _outcome(lambda: lu_solve_system(sys, bvec, res))
    assert _outcome(lambda: solve_system(sys, bvec, res)) is verdict
    if verdict is not None:
        return
    got = np.stack([f.flat for f in solve_system(sys, bvec, res)], axis=1)
    want = np.stack([f.flat for f in lu_solve_system(sys, bvec, res)], axis=1)
    # Both solves are backward stable.  In real arithmetic the adjugate
    # solve x = adj(M) b / det M is within (2 gamma_2 + u) |M^-1||M||x| of
    # x (one rounding of det, one of each numerator, one of the quotient),
    # and LU with partial pivoting within gamma_6 |M^-1||L||U||x| with
    # ||L||U|| <= 3 ||M|| for a 2x2 (Higham, Accuracy and Stability of
    # Numerical Algorithms, thm. 9.4), so in the infinity norm the two are
    # within (5 + 18) u kappa(M) ||x||.  Complex products and quotients
    # round to within about twice the real bounds (Higham, lemma 3.5),
    # which gives 46 u kappa(M) ||x||.  Scaling M by a power of two is exact.
    u = np.finfo(float).eps / 2
    mats = res.flat
    kappa = (np.abs(np.linalg.inv(mats)).sum(axis=2).max(axis=1)
             * np.abs(mats).sum(axis=2).max(axis=1))
    err = np.abs(got - want).max(axis=1)
    assert np.all(err <= 46 * u * kappa * np.abs(want).max(axis=1))



def test_recursion_check_refuses_before_the_determinant_gate():
    # a non-diagonal resolvent with kappa about 1e8: its determinant is
    # 1.4e-8 of the squared largest entry, far above the 1e-14 gate, but a
    # correct solve leaves a step residual of about u kappa, here 1.4e-9,
    # against the 1e-10 recursion check
    grid = build_grid(linear_map(0.5), SEMIGROUP, 1.0, max_depth=30)
    rng = np.random.default_rng(20)
    m = np.eye(2) + 0.3 * rng.uniform(-1, 1, (grid.size, 2, 2))
    m[rng.choice(np.arange(grid.size - 1), 3, replace=False), :, 1] *= 4e-3
    sys = TwoByTwoSystem(*(GridFunction(grid, m[:, i, j])
                           for i in range(2) for j in range(2)))
    res = resolvent(sys)
    mats = res.flat[sys.valid_mask()]
    assert np.count_nonzero(mats[:, 0, 1]) and np.count_nonzero(mats[:, 1, 0])
    assert 5e7 < np.linalg.cond(mats, 1).max() < 2e8
    ratio = np.abs(np.linalg.det(mats)) / np.abs(mats).max() ** 2
    assert ratio.min() > 1e-9
    with pytest.raises(SingularResolvent, match="one-step recursion"):
        solve_system(sys, (1.0, 0.5), res)


def test_solve_system_refuses_a_resolvent_of_another_grid():
    # two gauge systems of 31 points on two grids: the other grid's
    # products once ended in a misleading SingularResolvent
    def system(b):
        return singular_darboux(gauge_riccati_system(constant_gauge_chain(
            q=0.5, b=b, c0=0.375 * b, depth=30, n_levels=1).levels[0]),
            0.0, -1.0)

    sys_a, sys_b = system(1.0), system(2.0)
    assert sys_a.grid.size == sys_b.grid.size == 31
    with pytest.raises(GridMismatch, match="another grid"):
        solve_system(sys_a, (1.0, 0.5), resolvent(sys_b))

# a + b u0 (or d - b u0(tau x)) is ``gap`` times half the sum of its terms'
# moduli at one point; u0 is 1e6 next to it, which keeps the step matrix
# there regular (its determinant is (a + b u0)(d - b u0(tau x)))
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(GRIDS)), seed=st.integers(0, 2 ** 32 - 1),
       k=st.integers(-300, 300), side=st.sampled_from(["a", "d"]),
       gap=st.sampled_from([0.0, 1e-17, 1e-15, 1e-13, 1e-8, 1.0]),
       t=st.floats(-3.0, 3.0))
def test_family_gate_verdicts_do_not_depend_on_the_input_scale(
        kind, seed, k, side, gap, t):
    grid = GRIDS[kind]
    rng = np.random.default_rng(seed)
    a, b, d, u0 = (rng.uniform(0.5, 2.0, (4, grid.size))
                   * rng.choice([-1.0, 1.0], (4, 1))).astype(complex)
    j = int(rng.choice(np.flatnonzero(grid.interior())))
    if side == "a":
        u0[j + 1] = 1e6
        u0[j] = -(a[j] / b[j]) * (1.0 - gap)
    else:
        u0[j] = 1e6
        d[j] = b[j] * u0[j + 1] * (1.0 - gap)
    u0_fn = GridFunction(grid, u0)

    def member(scale):
        return general_solution(system_through(grid, a, b, d, u0, scale),
                                u0_fn, t)

    verdict = _outcome(lambda: member(1.0))
    assert _outcome(lambda: member(2.0 ** k)) is verdict
    if gap <= 1e-15:
        assert verdict is not None
    if verdict is None:
        # E and S are ratios of the scaled entries: the members agree bit
        # for bit
        assert np.array_equal(member(2.0 ** k).u.flat, member(1.0).u.flat)


# -- masked cells are never read ---------------------------------------------

POISONS = [np.nan, np.inf, -np.inf, 1e300]


def poisoned_inputs(grid, seed, where, holes, fill):
    """The inputs of the masked calls from one seed, with ``holes`` masked
    in the entries named by ``where`` (one of a, b, c, d of both systems,
    or u: u0, psi and phi) and ``fill`` written there; ``fill=None`` keeps
    the values.  ``family`` is the system u0 solves, ``boundary`` a
    near-identity one whose resolvent stays well conditioned and
    ``triangular`` the same with c = 0."""
    rng = np.random.default_rng(seed)
    a, b, d, u0 = (rng.uniform(0.5, 2.0, (4, grid.size))
                   * rng.choice([-1.0, 1.0], (4, 1)))
    c = np.where(grid.has_next, grid.shifted(u0, 1) * (b * u0 + a) - d * u0,
                 0.0)
    near = np.eye(2).reshape(4, 1) + 0.3 * rng.uniform(-1, 1, (4, grid.size))
    psi, phi = rng.uniform(-1.5, 1.5, (2, grid.size))
    mask = np.ones(grid.size, dtype=bool)
    mask[holes] = False

    def fn(values, name):
        if name != where:
            return GridFunction(grid, values)
        values = np.array(values)
        if fill is not None:
            values[holes] = fill
        return GridFunction(grid, values, mask)

    return SimpleNamespace(
        family=TwoByTwoSystem(*map(fn, (a, b, c, d), "abcd")),
        boundary=TwoByTwoSystem(*map(fn, near, "abcd")),
        triangular=TwoByTwoSystem(*map(fn, (near[0], near[1], 0 * near[2],
                                            near[3]), "abcd")),
        u0=fn(u0, "u"), psi=fn(psi, "u"), phi=fn(phi, "u"))


def observed(call):
    """Each output of ``call()`` read on its valid window (values and
    mask) or as a scalar; the type of the CalculusError it raises."""
    try:
        out = call()
    except CalculusError as exc:
        return type(exc)
    return [(f.flat[f.flat_valid], f.flat_valid)
            if isinstance(f, GridFunction) else f for f in out]


def on_tail(res):
    """A resolvent's products on its valid tail and its scalars."""
    return ((res.flat[res.valid], res.valid), res.cauchy_gap, res.converged,
            res.steps, res.criterion_sum)


MASKED_CALLS = {
    "general_solution": lambda x, t: (
        lambda s: (s.u, s.residual))(general_solution(x.family, x.u0, t)),
    "solve_system": lambda x, t: solve_system(x.boundary, (1.0, 0.5)),
    "rhom_residual": lambda x, t: (rhom_residual(x.family, x.u0),),
    "step_residual": lambda x, t: (step_residual(x.boundary, x.psi, x.phi),),
    "resolvent": lambda x, t: on_tail(resolvent(x.boundary)),
    "triangular_resolvent": lambda x, t: on_tail(
        triangular_resolvent(x.triangular)),
}


@settings(max_examples=120, deadline=None)
@given(call=st.sampled_from(sorted(MASKED_CALLS)),
       kind=st.sampled_from(sorted(GRIDS)), seed=st.integers(0, 2 ** 32 - 1),
       where=st.sampled_from("abcdu"), count=st.integers(1, 3),
       fill=st.sampled_from(POISONS), t=st.floats(-3.0, 3.0))
def test_masked_cells_are_never_read(call, kind, seed, where, count, fill, t):
    # an output valid at x reads valid cells alone: NaN, inf or 1e300 in a
    # masked cell leaves every valid output and scalar as it was, and the
    # call raises where it raised before and nowhere else
    grid = GRIDS[kind]
    holes = np.random.default_rng(seed + 1).choice(grid.size, count,
                                                   replace=False)
    run = MASKED_CALLS[call]
    want = observed(lambda: run(poisoned_inputs(grid, seed, where, holes,
                                                None), t))
    got = observed(lambda: run(poisoned_inputs(grid, seed, where, holes,
                                               fill), t))
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
        return
    for g, w in zip(got, want, strict=True):
        if isinstance(g, tuple):
            assert np.array_equal(g[1], w[1])
            assert np.array_equal(g[0], w[0], equal_nan=True)
        else:
            assert g == w or np.isnan(g) and np.isnan(w)


@pytest.mark.parametrize("kind", sorted(GRIDS))
def test_resolvent_and_family_match_the_references_across_a_hole(kind):
    # one masked point inside each branch: the products, steps and gap and
    # the family members are formed on the tail behind it alone, as the
    # per-point references form them
    grid = GRIDS[kind]
    holes = [s.start + (s.stop - s.start) // 2 for s in grid.slices]
    sys = poisoned_inputs(grid, 7, "a", holes, None).boundary
    res = resolvent(sys)
    want, steps, gap = sequential_resolvent(sys)
    exact = np.array([S.tolist() for S in mp_suffix_products(sys)],
                     dtype=complex)
    assert res.steps == steps < grid.size - len(holes)
    assert not res.valid[holes].any()
    for ref in (want, exact):
        assert np.all(np.abs(res.flat - ref) <= 1e-13 * np.abs(ref).max())
    assert res.cauchy_gap == pytest.approx(gap, rel=1e-6, abs=1e-12)
    x = poisoned_inputs(grid, 7, "u", holes, None)
    for t in (0.0, 0.5, -1.5):
        got = general_solution(x.family, x.u0, t)
        assert not got.u.flat_valid[holes].any()
        assert_same_member(got, reference_general_solution(x.family, x.u0, t))
