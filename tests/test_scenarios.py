import numpy as np
import pytest

from taucalc import apply_Astar
from taucalc.chain import apply_A as chain_apply_A
from taucalc.errors import DomainEscape
from taucalc.gridfn import GridFunction, joint_scale
from taucalc.maps import fractional_map, iterate
from taucalc.scenarios import (constant_gauge_chain, fractional_chain,
                               qhahn_chain, symmetric_qpochhammer)

from qcalc_oracle import qpochhammer


# ---------------------------------------------------------------------------
# q-Pochhammer: the test oracle, then the package's double product against it

def test_qpochhammer_empty_product():
    assert qpochhammer(0.3, 0.5, 0) == 1.0


def test_qpochhammer_first_factor_zero():
    for n in (1, 3, 10):
        assert qpochhammer(1.0, 0.5, n) == 0.0


def test_qpochhammer_infinite_partial_product_oracle():
    # independent partial-product evaluation
    q, alpha = 0.5, 0.5
    direct = 1.0
    for j in range(200):
        direct *= 1.0 - alpha * q ** j
    assert qpochhammer(alpha, q, None) == pytest.approx(direct, abs=1e-10)
    # prod_{j>=0} (1 - 0.5^{j+1}), a classical constant
    assert qpochhammer(alpha, q, None) == pytest.approx(0.288788, abs=1e-6)


def test_symmetric_qpochhammer_is_product_of_two():
    x, beta, q = 0.4, 1.3, 0.6
    expected = qpochhammer(-x / beta, q, None) * qpochhammer(x / beta, q, None)
    assert symmetric_qpochhammer(x, beta, q) == pytest.approx(expected,
                                                              rel=1e-12)


# ---------------------------------------------------------------------------
# constant-gauge family

def test_constant_gauge_constants_scale_by_q_squared():
    sc = constant_gauge_chain()
    ratios = np.array(sc.constants[1:]) / np.array(sc.constants[:-1])
    assert np.allclose(ratios, sc.q ** 2, rtol=1e-9)
    assert sc.constants[0] == pytest.approx(-0.5, rel=1e-10)


def test_constant_gauge_kernel_annihilated():
    sc = constant_gauge_chain()
    psi = GridFunction.from_callable(sc.grid, lambda x: x ** sc.s)
    out = apply_Astar(sc.levels[0], psi)
    sel = out.valid[0].copy()
    sel[0] = False  # boundary row of the truncated orbit
    scale = joint_scale(psi) / min(abs(d) for d in (1.0,))
    assert np.max(np.abs(out.values[0][sel])) < 1e-8 * sc.levels[0].phi.max_abs()


def test_squared_weight_matches_pochhammer():
    sc = constant_gauge_chain()
    pts = sc.grid.branches[0].points
    psi2rho = (pts ** (2 * sc.s)) * sc.levels[0].w.rho.values[0].real
    closed = sc.squared_weight_product(pts)
    ratio = psi2rho / closed
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8


def test_eigenvalue_after_lifts():
    sc = constant_gauge_chain()
    assert sc.eigenvalue_after_lifts(0) == pytest.approx(0.5, rel=1e-10)
    assert sc.eigenvalue_after_lifts(1) == pytest.approx(0.5 + 0.245,
                                                         rel=1e-9)


# ---------------------------------------------------------------------------
# fractional family

def test_fractional_constants_known_values():
    sc = fractional_chain(a=0.5)
    expected = [-0.5, -1.75, -3.875, -7.9375, -15.96875, -31.984375]
    assert np.allclose(sc.constants, expected[:len(sc.constants)], rtol=1e-8)


def test_fractional_closed_iterate():
    sc = fractional_chain(a=0.5, n_levels=1)
    tau = fractional_map(0.5)
    for x0 in (0.1, 0.5, 0.9):
        for k in (0, 1, 3, 7):
            assert sc.iterate_closed(x0, k) == pytest.approx(
                iterate(tau, x0, k), abs=1e-13)


def test_fractional_orbit_derivative_closed():
    sc = fractional_chain(a=0.5, n_levels=1)
    tau = fractional_map(0.5)
    for x in (0.2, 0.6):
        t1, t2 = tau.forward(x), tau.forward(tau.forward(x))
        direct = (t1 - t2) / (x - t1)
        assert sc.orbit_derivative_closed(x) == pytest.approx(direct,
                                                              rel=1e-13)


def kernel_product_closed(sc, x, k):
    """Closed form (0 < a < 1) of the level-k lowering-operator kernel of
    the fractional scenario ``sc``.

    psi_k(x) = prod_{j<k} ((a^j-1)x+1)((a^{j+1}-1)x+1)/(x-1)^2,
    normalized to 1 at the orbit limit.
    """
    if not 0 < sc.a < 1:
        raise DomainEscape("closed kernel product assumes 0 < a < 1")
    xs = np.asarray(x, dtype=float)
    out = np.ones_like(xs)
    for j in range(k):
        out *= (((sc.a ** j - 1.0) * xs + 1.0)
                * ((sc.a ** (j + 1) - 1.0) * xs + 1.0)
                / (xs - 1.0) ** 2)
    return out


def necessary_condition_gap(sc):
    """Consistency gate for the squared-kernel weight recursion of the
    fractional scenario ``sc``.

    A nonzero solution of the recursion for the prefactor of
    (x - tau x)^-1 in psi^2 rho requires b0 = a0.  Returns the defect
    |b0 - a0| (0 when the condition holds).
    """
    return abs(sc.b0 - sc.a0)


def test_fractional_kernel_annihilated_pointwise():
    sc = fractional_chain(a=0.5, n_levels=2)
    lvl = sc.levels[1]
    psi = GridFunction(sc.grid, kernel_product_closed(sc, sc.grid.points, 1))
    out = chain_apply_A(lvl, psi)
    # pointwise scale |phi psi|: the kernel values span many orders
    ref = np.abs(lvl.phi.values[0] * psi.values[0])
    sel = out.valid[0]
    assert np.max(np.abs(out.values[0][sel]) / ref[sel]) < 1e-9


def test_necessary_condition_gap_vanishes():
    sc = fractional_chain(a=0.5, n_levels=1)
    assert abs(necessary_condition_gap(sc)) < 1e-10


def test_qhahn_eigenvalue_partial_sums():
    sc = qhahn_chain(depth=60, n_levels=4)
    assert sc.eigenvalue(0) == 0.0
    assert sc.eigenvalue(2) == pytest.approx(sum(sc.constants[:2]), rel=1e-14)


def test_closed_forms_need_every_step_constant():
    # with one level, eigenvalue(n >= 1) used to read 1.0, the partial sum
    # of the one constant held; a closed form past the chain now raises
    qh = qhahn_chain(depth=60, n_levels=1)
    assert qh.eigenvalue(1) == qh.constants[0]
    cg = constant_gauge_chain(n_levels=2)
    assert cg.eigenvalue_after_lifts(1) == -sum(cg.constants)
    for closed_form in (lambda: qh.eigenvalue(2), lambda: qh.eigenvalue(-1),
                        lambda: cg.eigenvalue_after_lifts(2)):
        with pytest.raises(ValueError, match="step constants"):
            closed_form()
