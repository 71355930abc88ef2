import numpy as np
import pytest

from taucalc import (GridFunction, affine_change, conjugate_map,
                     equivalence_obstruction, exp_change, fractional_map,
                     inner_product, linear_map, ln_change, powerlaw_change,
                     transport_function, transport_grid, transport_weight,
                     weighted_grid)
from taucalc.covariance import transport_level
from taucalc.hilbert import pearson_residual
from taucalc.scenarios import constant_gauge_chain


@pytest.fixture(scope="module")
def scenario():
    return constant_gauge_chain()


# changes of variables on the source interval of the scenario's orbit
VARIABLE_CHANGES = {
    "ln": ln_change,
    "powerlaw-2": lambda source: powerlaw_change(2.0, source),
    "powerlaw-0.5": lambda source: powerlaw_change(0.5, source),
    "affine-2-3": lambda source: affine_change(2.0, 3.0, source),
}


def _transport(scenario, make_change):
    pts = scenario.grid.branches[0].points
    ch = make_change((float(pts.min()) * 0.9, float(pts.max()) * 1.1))
    with np.errstate(divide="ignore"):  # ln maps the limit 0 to -inf, unused
        target = transport_grid(scenario.grid, ch)
    return ch, target


@pytest.fixture(scope="module")
def ln_transported(scenario):
    return _transport(scenario, ln_change)


@pytest.fixture(scope="module", params=list(VARIABLE_CHANGES))
def transported(request, scenario):
    return _transport(scenario, VARIABLE_CHANGES[request.param])


def test_ln_conjugates_scaling_to_shift(ln_transported, scenario):
    ch, target = ln_transported
    src = scenario.grid.branches[0].points
    assert np.allclose(target.branches[0].points, np.log(src))
    # the conjugated dynamics is y -> y + ln q
    tau_new = conjugate_map(scenario.grid.tau, ch)
    assert tau_new.forward(0.0) == pytest.approx(np.log(0.7), abs=1e-12)


def test_transport_is_unitary(transported, scenario):
    ch, target = transported
    lvl = scenario.levels[0]
    rho_t = transport_weight(lvl.w.rho, ch, target)
    w_t = weighted_grid(rho_t, warn=False)
    psi = GridFunction.from_callable(scenario.grid,
                                     lambda x: x * (1.0 - 0.3 * x))
    phi = GridFunction.from_callable(scenario.grid, lambda x: x)
    a = inner_product(phi, psi, lvl.w, check_tail=False)
    b = inner_product(transport_function(phi, ch, target),
                      transport_function(psi, ch, target), w_t,
                      check_tail=False)
    assert b == pytest.approx(a, rel=1e-10)


def test_transported_pearson_consistent(transported, scenario):
    ch, target = transported
    lvl_t = transport_level(scenario.levels[0], ch, target)
    res = pearson_residual(lvl_t.B, lvl_t.eta, lvl_t.w)
    assert res.shift < 1e-9


def test_exp_ln_roundtrip():
    ch = ln_change((0.1, 2.0))
    back = exp_change(ch.target)
    for x in (0.15, 0.5, 1.7):
        assert back.kappa(ch.kappa(x)) == pytest.approx(x, rel=1e-14)


def test_fixed_point_obstruction():
    # one interior fixed point vs two boundary ones: provably inequivalent
    report = equivalence_obstruction(linear_map(0.7, domain=(-1.0, 1.0)),
                                     fractional_map(2.0))
    assert report["verdict"] == "not_equivalent"
    assert report["fixed_points"][0] != report["fixed_points"][1]


def test_obstruction_inconclusive_for_same_count():
    report = equivalence_obstruction(linear_map(0.5, domain=(-1.0, 1.0)),
                                     linear_map(0.7, domain=(-1.0, 1.0)))
    assert report["verdict"] == "inconclusive"
