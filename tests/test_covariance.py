import numpy as np
import pytest

from taucalc import (GridFunction, affine_change, equivalence_obstruction,
                     fractional_map, inner_product, linear_map, ln_change,
                     power_map, powerlaw_change, transport_function,
                     transport_grid, transport_weight, weighted_grid)
from taucalc.covariance import (_FIXED_POINT_SAMPLES, VariableChange,
                                conjugate_map, transport_level)
from taucalc.maps import TauMap
from taucalc.hilbert import pearson_residual
from taucalc.scenarios import constant_gauge_chain

from masked_cells import assert_never_read, poison_points


def exp_change(source):
    """kappa = exp, the inverse of ln_change."""
    return VariableChange(np.exp, np.log, source,
                          (float(np.exp(source[0])), float(np.exp(source[1]))),
                          name="exp")


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


def test_transport_function_never_reads_a_masked_cell(ln_transported,
                                                     scenario):
    ch, target = ln_transported
    assert_never_read(lambda bad: transport_function(bad, ch, target),
                      GridFunction.from_callable(scenario.grid, np.cos),
                      poison_points(scenario.grid))


def test_transported_pearson_consistent(transported, scenario):
    ch, target = transported
    lvl_t = transport_level(scenario.levels[0], ch, target)
    assert pearson_residual(lvl_t.B, lvl_t.eta, lvl_t.w) < 1e-9


def test_exp_ln_roundtrip():
    ch = ln_change((0.1, 2.0))
    back = exp_change(ch.target)
    for x in (0.15, 0.5, 1.7):
        assert back.kappa(ch.kappa(x)) == pytest.approx(x, rel=1e-14)


# the package's maps and changes, each with a sample interval inside its
# domain; power laws may round an ulp apart on arrays (numpy's fast paths
# for x ** 2 and x ** 0.5), the rest match per-point calls bit for bit
ELEMENTWISE = {
    "linear": (lambda: linear_map(0.7, domain=(-1.0, 1.0)), (-1.0, 1.0), 0),
    "linear-shift": (lambda: linear_map(0.5, 0.1), (-5.0, 5.0), 0),
    "fractional-2": (lambda: fractional_map(2.0), (0.0, 1.0), 0),
    "fractional-0.5": (lambda: fractional_map(0.5), (0.0, 1.0), 0),
    "ln-linear": (lambda: conjugate_map(linear_map(0.7, domain=(0.01, 3.0)),
                                        ln_change((0.01, 3.0))),
                  (np.log(0.01), np.log(3.0)), 0),
    "ln-fractional": (lambda: conjugate_map(fractional_map(0.5),
                                            ln_change((0.01, 0.99))),
                      (np.log(0.01), np.log(0.99)), 0),
    "power-2": (lambda: power_map(2.0), (0.0, 1.0), 1),
    "power-0.5": (lambda: power_map(0.5), (0.0, 1.0), 1),
    "change-ln": (lambda: ln_change((0.1, 2.0)), (0.1, 2.0), 0),
    "change-exp": (lambda: exp_change((-1.0, 1.0)), (-1.0, 1.0), 0),
    "change-affine": (lambda: affine_change(2.0, 3.0, (-1.0, 1.0)),
                      (-1.0, 1.0), 0),
    "change-powerlaw-2": (lambda: powerlaw_change(2.0, (0.1, 2.0)),
                          (0.1, 2.0), 1),
    "change-powerlaw-0.5": (lambda: powerlaw_change(0.5, (0.1, 2.0)),
                            (0.1, 2.0), 1),
}


@pytest.mark.parametrize("name", sorted(ELEMENTWISE))
def test_maps_and_changes_act_elementwise(name):
    make, (lo, hi), ulps = ELEMENTWISE[name]
    m = make()
    xs = np.concatenate([np.linspace(lo, hi, 500),
                         np.random.default_rng(7).uniform(lo, hi, 500)])
    calls = (((m.forward, xs), (m.inverse, xs)) if isinstance(m, TauMap)
             else ((m.kappa, xs), (m.kappa_inv, m.kappa(xs))))
    for f, args in calls:
        whole = f(args)
        one_by_one = np.array([f(float(x)) for x in args])
        if ulps:
            np.testing.assert_array_max_ulp(whole, one_by_one, maxulp=ulps)
        else:
            assert np.array_equal(whole.view(np.int64),
                                  one_by_one.view(np.int64))


def test_fixed_point_obstruction():
    # one interior fixed point vs two boundary ones: provably inequivalent
    report = equivalence_obstruction(linear_map(0.7, domain=(-1.0, 1.0)),
                                     fractional_map(2.0))
    assert report["verdict"] == "not_equivalent"
    assert report["fixed_points"][0] != report["fixed_points"][1]


def loop_fixed_point_count(signs):
    """The fixed-point count of a sign scan, one sample at a time: one per
    run of zeros and one per sign change between adjacent nonzero
    samples."""
    count = 0
    prev = 0          # last nonzero sign seen
    in_zero_run = False
    for s in signs:
        if s == 0:
            if not in_zero_run:
                count += 1          # a touch/crossing through zero
                in_zero_run = True
            continue
        if in_zero_run:
            in_zero_run = False     # crossing already counted
        elif prev != 0 and s != prev:
            count += 1              # sign change between scan points
        prev = s
    return count


def planted_map(signs):
    """A forward map on (-1, 1) whose gap tau(x) - x has the sign
    ``signs[i]`` at the i-th scan point of the obstruction (its inverse is
    not used by the scan)."""
    xs = np.linspace(-1.0, 1.0, _FIXED_POINT_SAMPLES)
    gap = 0.5 * np.asarray(signs, dtype=float)

    def forward(x):
        # elementwise, and defined on the scan points only
        k = np.searchsorted(xs, x)
        if not np.array_equal(xs[k], x):
            raise KeyError("not a scan point")
        return x + gap[k]

    return TauMap(forward, lambda y: y, (-1.0, 1.0), name="planted")


def runs(*spec):
    """Signs from (sign, length) runs, padded with + to the scan size."""
    signs = np.concatenate([np.full(n, s) for s, n in spec])
    return np.concatenate([signs, np.ones(_FIXED_POINT_SAMPLES - len(signs))])


N = _FIXED_POINT_SAMPLES
PLANTED = {
    # (signs, fixed points)
    "zero-runs-at-both-ends": (runs((0, 5), (1, 990), (-1, N - 1000),
                                    (0, 5)), 3),
    "single-zeros-at-both-ends": (runs((0, 1), (-1, N - 2), (0, 1)), 2),
    "touch": (runs((1, 700), (0, 3), (1, 600), (0, 1)), 2),
    "crossing-without-zero": (runs((-1, 1000), (1, 1000)), 1),
    "alternation": (np.tile([1.0, -1.0], N // 2), N - 1),
    "alternation-through-zeros": (np.tile([1.0, 0.0, -1.0, 0.0], N // 4),
                                  N // 2),
    "all-zero": (np.zeros(N), 1),
    "all-negative": (-np.ones(N), 0),
    **{f"random-{seed}": (np.random.default_rng(seed).choice(
        [-1.0, 0.0, 1.0], N, p=[0.45, 0.1, 0.45]), None) for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_obstruction_counts_planted_fixed_points(name):
    signs, count = PLANTED[name]
    want = loop_fixed_point_count(signs)
    assert count is None or want == count
    plain = linear_map(0.5, domain=(-1.0, 1.0))
    report = equivalence_obstruction(planted_map(signs), plain)
    assert report["fixed_points"] == (want, 1)
    assert all(type(count) is int for count in report["fixed_points"])


def test_obstruction_inconclusive_for_same_count():
    report = equivalence_obstruction(linear_map(0.5, domain=(-1.0, 1.0)),
                                     linear_map(0.7, domain=(-1.0, 1.0)))
    assert report["verdict"] == "inconclusive"
