import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucalc import (GROUP, INTERVAL, GridFunction, SEMIGROUP, build_grid,
                     linear_map, shift, solve_linear_first_order,
                     tau_antiderivative, tau_derivative, tau_exponential,
                     tau_integral, weighted_grid)
from taucalc.calculus import deltas_fn, dtau_inverse_fn, step_quotient
from taucalc.hilbert import adjoint_shift
from taucalc.errors import TailNotConverged
from taucalc.gridfn import max_abs_diff

from masked_cells import assert_never_read, poison_points
from qcalc_oracle import horner, jackson_integral_exact, q_derivative

coeff_lists = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1,
    max_size=6)


def poly_fn(grid, coeffs):
    return GridFunction.from_callable(
        grid, lambda x: sum(c * x ** k for k, c in enumerate(coeffs)))


def test_shift_is_composition(qgrid):
    f = GridFunction.from_callable(qgrid, lambda x: x ** 2)
    g = shift(f)
    # (T f)(x) = f(tau x) = (0.5 x)^2
    sel = g.valid[0]
    assert np.allclose(g.values[0][sel],
                       (0.5 * qgrid.branches[0].points[sel]) ** 2)


def test_derivative_matches_q_oracle(qgrid):
    coeffs = [1.0, -2.0, 0.5, 3.0]
    f = poly_fn(qgrid, coeffs)
    df = tau_derivative(f)
    pts = qgrid.branches[0].points
    sel = df.valid[0]
    expected = np.array([q_derivative(coeffs, x, 0.5) for x in pts])
    assert np.max(np.abs(df.values[0][sel] - expected[sel])) < 1e-12


def test_integral_matches_jackson(qgrid):
    coeffs = [0.5, 1.0, -0.25]
    f = poly_fn(qgrid, coeffs)
    val = tau_integral(f, check_tail=False)
    assert val.real == pytest.approx(
        jackson_integral_exact(coeffs, 0.5, 1.0), abs=1e-9)


def test_fundamental_identity(qgrid):
    # integral of the derivative telescopes between the orbit endpoints
    f = poly_fn(qgrid, [0.0, 2.0, -1.0, 0.5])
    val = tau_integral(tau_derivative(f), check_tail=False)
    expected = f.values[0][0].real - f.values[0][-1].real
    assert val.real == pytest.approx(expected, abs=1e-12)


def test_antiderivative_inverts_derivative(qgrid):
    f = poly_fn(qgrid, [0.0, 1.0, 1.0])
    F = tau_antiderivative(f, check_tail=False)
    back = tau_derivative(F)
    sel = back.valid[0] & f.valid[0]
    assert np.max(np.abs(back.values[0][sel] - f.values[0][sel])) < 1e-10


@settings(max_examples=25, deadline=None)
@given(coeff_lists)
def test_leibniz_property(coeffs):
    # shallow orbit: every step stays resolvable, no divided-difference noise
    grid = build_grid(linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=12)
    f = poly_fn(grid, coeffs)
    g = poly_fn(grid, [1.0, -0.5, 0.25])
    lhs = tau_derivative(f * g)
    rhs = tau_derivative(f) * g + shift(f) * tau_derivative(g)
    scale = max(1.0, lhs.max_abs(), rhs.max_abs())
    assert max_abs_diff(lhs, rhs) / scale < 1e-11


@settings(max_examples=25, deadline=None)
@given(coeff_lists)
def test_integral_linearity_property(coeffs):
    grid = build_grid(linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=40)
    f = poly_fn(grid, coeffs)
    direct = tau_integral(f, check_tail=False)
    exact = jackson_integral_exact(coeffs, 0.5, 1.0)
    assert direct.real == pytest.approx(exact, abs=1e-9 * (1 + abs(exact)))


def test_tau_exponential_solves_its_equation(qgrid):
    e = tau_exponential(qgrid)
    lhs = tau_derivative(e)
    # compare on resolvable steps only; deeper divided differences are
    # rounding noise amplified by 1/delta
    sel = lhs.valid[0].copy()
    sel[:-1] &= qgrid.branches[0].deltas >= 1e-4
    sel[-1] = False
    assert np.max(np.abs(lhs.values[0][sel] - e.values[0][sel])) < 1e-10
    assert e.values[0][-1] == pytest.approx(1.0)  # value at the orbit limit


def test_solve_linear_first_order(qgrid):
    f = GridFunction.constant(qgrid, 0.5)
    psi = solve_linear_first_order(f, init=2.0)
    lhs = tau_derivative(psi)
    rhs = f * psi
    sel = lhs.valid[0].copy()
    sel[:-1] &= qgrid.branches[0].deltas >= 1e-4  # resolvable steps only
    sel[-1] = False
    assert np.max(np.abs(lhs.values[0][sel] - rhs.values[0][sel])) < 1e-10
    assert psi.values[0][-1] == pytest.approx(2.0)  # init at the orbit limit


# -- branch ends on multi-branch and two-sided grids ----------------------

def _interval_grid():
    return build_grid(linear_map(0.8), mode=INTERVAL, bases=(-1.0, 1.0),
                      max_depth=40)


def _group_grid():
    return build_grid(linear_map(0.5), mode=GROUP, bases=1.0, max_depth=20)


def _forward(v):
    out = np.zeros_like(v)
    out[:-1] = v[1:]
    return out


def _backward(v):
    out = np.zeros_like(v)
    out[1:] = v[:-1]
    return out


def _ends(n, first, last):
    """A length-n mask, all set except possibly the first and last index."""
    m = np.ones(n, dtype=bool)
    m[0], m[-1] = first, last
    return m


def _reference(name, br, v, rho):
    """Plain per-branch numpy value and validity of one operator."""
    x, n = br.points, len(br)
    d = np.append(x[:-1] - x[1:], 0.0)
    if name == "shift+1":
        return _forward(v), _ends(n, True, False)
    if name == "shift-1":
        return _backward(v), _ends(n, False, True)
    if name == "tau_derivative":
        return np.append((v[:-1] - v[1:]) / d[:-1], 0.0), _ends(n, True, False)
    if name == "tau_antiderivative":
        return np.cumsum((d * v)[::-1])[::-1], _ends(n, True, True)
    if name == "deltas_fn":
        return d, _ends(n, True, False)
    if name == "dtau_inverse_fn":
        out = np.zeros(n)
        out[1:-1] = d[:-2] / d[1:-1]
        return out, _ends(n, False, False)
    if name == "adjoint_shift":
        mu = np.zeros(n, dtype=complex)
        mu[1:-1] = (d[:-2] / d[1:-1]) * rho[:-2] / rho[1:-1]
        return mu * _backward(v), _ends(n, br.role != "group", False)
    raise KeyError(name)


def _apply(name, f, w):
    return {"shift+1": lambda: shift(f, 1),
            "shift-1": lambda: shift(f, -1),
            "tau_derivative": lambda: tau_derivative(f),
            "tau_antiderivative": lambda: tau_antiderivative(f, check_tail=False),
            "deltas_fn": lambda: deltas_fn(f.grid),
            "dtau_inverse_fn": lambda: dtau_inverse_fn(f.grid),
            "adjoint_shift": lambda: adjoint_shift(f, w)}[name]()


OPERATORS = ["shift+1", "shift-1", "tau_derivative", "tau_antiderivative",
             "deltas_fn", "dtau_inverse_fn", "adjoint_shift"]


@pytest.mark.parametrize("make_grid", [_interval_grid, _group_grid],
                         ids=["interval", "group"])
@pytest.mark.parametrize("name", OPERATORS)
def test_branch_ends_match_per_branch_reference(make_grid, name):
    grid = make_grid()
    f = GridFunction.from_callable(grid, lambda x: 1.0 + x - 0.5j * x ** 2)
    w = weighted_grid(GridFunction.from_callable(
        grid, lambda x: 1.0 + 0.25 * x * x), warn=False)
    out = _apply(name, f, w)
    for i, br in enumerate(grid.branches):
        ref, ref_valid = _reference(name, br, f.values[i], w.rho.values[i])
        # same arithmetic in the same order: the results agree exactly
        assert np.array_equal(out.valid[i], ref_valid)
        assert np.array_equal(out.values[i][ref_valid], ref[ref_valid])
        # no valid index draws on another branch: poison every other branch
        poisoned = np.full(grid.size, np.nan, dtype=complex)
        poisoned[grid.slices[i]] = f.values[i]
        again = _apply(name, GridFunction(grid, poisoned), w)
        assert np.array_equal(again.valid[i], out.valid[i])
        assert np.array_equal(again.values[i][ref_valid],
                              out.values[i][ref_valid])


def _semigroup_grid():
    return build_grid(linear_map(0.7), mode=SEMIGROUP, bases=1.0, max_depth=30)


@pytest.mark.parametrize("make_grid", [_semigroup_grid, _interval_grid,
                                       _group_grid],
                         ids=["semigroup", "interval", "group"])
def test_fused_derivative_is_the_composed_one_bit_for_bit(make_grid):
    grid = make_grid()
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    vals[[3, 7]] = [np.inf, np.nan]  # masked out below
    valid = rng.random(grid.size) > 0.2
    valid[[3, 7]] = False
    vals[5] = -0.0
    for f, label in ((GridFunction(grid, vals, valid, label="f"), "d(f)"),
                     (GridFunction.from_callable(grid, np.cos), "")):
        with np.errstate(invalid="ignore"):  # the planted inf and nan
            fused = tau_derivative(f)
            composed = step_quotient(f - shift(f))
        assert fused.flat.tobytes() == composed.flat.tobytes()
        assert np.array_equal(fused.flat_valid, composed.flat_valid)
        assert fused.label == label


@pytest.mark.parametrize("check_tail", [True, False])
@pytest.mark.parametrize("op", [tau_integral, tau_antiderivative],
                         ids=["integral", "antiderivative"])
def test_orbit_sums_never_read_a_masked_cell(op, check_tail):
    # the tail check included: a masked cell among a branch's last three
    # terms is neither summed nor judged
    grid = build_grid(linear_map(0.7), INTERVAL, (0.5, 1.0), max_depth=400)
    f = GridFunction.from_callable(grid, lambda x: 1.0 + x)
    assert_never_read(lambda bad: op(bad, check_tail), f, poison_points(grid))


def test_integral_tail_is_judged_per_branch():
    # a large value at the base of branch a must not excuse branch b's tail
    grid = _interval_grid()
    ia, ib = (grid.branches.index(grid.branch(r)) for r in ("a", "b"))
    vals = np.zeros(grid.size)
    vals[grid.slices[ia].start] = 1e6
    vals[grid.slices[ib]] = 1e-3
    with pytest.raises(TailNotConverged):
        tau_integral(GridFunction(grid, vals))
    vals[grid.slices[ib]] = 0.0
    assert tau_integral(GridFunction(grid, vals)) == -1e6 * grid.deltas[
        grid.slices[ia].start]

