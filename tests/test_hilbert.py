import warnings

import mpmath
import numpy as np
import pytest

from taucalc import (GROUP, INTERVAL, SEMIGROUP, GridFunction, build_grid,
                     inner_product, linear_map, ln_change, norm,
                     pearson_residual, shift, transport_grid,
                     weight_from_pearson, weighted_grid)
from taucalc.calculus import deltas_fn
from taucalc.errors import (GridMismatch, PositivityWarning, ZeroDivisor,
                            ZeroWeight)

from masked_cells import assert_never_read, poison_points
from recursion_oracle import mobius_weight, pearson_weight_loop
from taucalc.covariance import transport_level
from taucalc.hilbert import adjoint_shift, mu_from_rho
from taucalc.scenarios import constant_gauge_chain, qhahn_chain


@pytest.fixture(scope="module")
def level_data():
    """Pearson pair B = 1 - x^2, A = -x on a two-branch interval orbit."""
    grid = build_grid(linear_map(0.8), mode=INTERVAL, bases=(-1.0, 1.0),
                      max_depth=60)
    B = GridFunction.from_callable(grid, lambda x: 1.0 - x ** 2, label="B")
    A = GridFunction.from_callable(grid, lambda x: -x, label="A")
    eta = B - deltas_fn(grid) * A
    w = weight_from_pearson(B, eta)
    return grid, B, eta, w


def test_weight_positive_and_consistent(level_data):
    grid, B, eta, w = level_data
    assert w.positivity_ok()
    assert pearson_residual(B, eta, w) < 1e-11


def ln_transported_level0():
    """Level 0 of the constant-gauge chain carried by ``ln_change``, set up
    as the covariance criterion sets it up."""
    sc = constant_gauge_chain()
    pts = sc.grid.branches[0].points
    ch = ln_change((float(pts.min()) * 0.9, float(pts.max()) * 1.1))
    with np.errstate(divide="ignore"):  # ln maps the limit 0 to -inf, unused
        target = transport_grid(sc.grid, ch)
    return transport_level(sc.levels[0], ch, target)


def test_perturbation_detected(level_data):
    grid, B, eta, w = level_data
    lvl = ln_transported_level0()
    # one-point spot perturbations against the gate each check reads: 1e-3
    # on the interval orbit's second branch (the Pearson criterion's
    # detector floor), 1e-6 on the transported level (the covariance
    # criterion's transported-pearson gate), whose unperturbed residual is
    # about 7e-17
    for B, eta, rho, point, factor, gate in (
            (B, eta, w.rho, grid.slices[1].start + 10, 1.001, 1e-4),
            (lvl.B, lvl.eta, lvl.w.rho, 3, 1.0 + 1e-6, 1e-9),
            (lvl.B, lvl.eta, lvl.w.rho, 10, 1.0 + 1e-6, 1e-9)):
        vals = rho.flat.copy()
        vals[point] *= factor
        w_bad = weighted_grid(GridFunction(rho.grid, vals, rho.flat_valid),
                              warn=False)
        assert pearson_residual(B, eta, w_bad) >= gate


def test_complex_weight_is_judged_on_its_imaginary_part():
    # a measure must be real: delta*rho whose imaginary part exceeds the
    # positivity tolerance is not positive, however positive its real part
    rho = qhahn_chain(depth=60, n_levels=1).levels[0].w.rho
    assert weighted_grid(rho).positivity_ok()
    with pytest.warns(PositivityWarning):
        w = weighted_grid(rho * (1 + 5j))
    assert not w.positivity_ok()
    # |delta| <= 2 on [-1, 1], so 1e-13 |delta rho| is within 1e-12 of
    # each branch's scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert weighted_grid(rho * (1 + 1e-13j)).positivity_ok()


def test_inner_product_conjugate_symmetry(level_data):
    grid, _, _, w = level_data
    phi = GridFunction.from_callable(grid, lambda x: x + 1j * x ** 2)
    psi = GridFunction.from_callable(grid, lambda x: 1.0 - x)
    a = inner_product(phi, psi, w, check_tail=False)
    b = inner_product(psi, phi, w, check_tail=False)
    assert a == pytest.approx(np.conj(b), abs=1e-12 * (1 + abs(a)))


def test_norm_nonnegative(level_data):
    grid, _, _, w = level_data
    psi = GridFunction.from_callable(grid, lambda x: x ** 3 - 0.2)
    assert norm(psi, w) > 0.0


def test_shift_adjoint_pairing(level_data):
    grid, _, _, w = level_data
    rng = np.random.default_rng(7)
    for _ in range(10):
        c1 = rng.standard_normal(4)
        c2 = rng.standard_normal(4)
        phi = GridFunction.from_callable(
            grid, lambda x: sum(c * x ** k for k, c in enumerate(c1))).window(5)
        psi = GridFunction.from_callable(
            grid, lambda x: sum(c * x ** k for k, c in enumerate(c2))).window(5)
        lhs = inner_product(shift(phi), psi, w, check_tail=False)
        rhs = inner_product(phi, adjoint_shift(psi, w), w, check_tail=False)
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))


def test_adjoint_shift_base_value_zero(level_data):
    grid, _, _, w = level_data
    psi = GridFunction.constant(grid, 1.0)
    out = adjoint_shift(psi, w)
    for v, m in zip(out.values, out.valid):
        if m[0]:
            assert v[0] == 0.0


def test_mu_is_finite(level_data):
    grid, _, _, w = level_data
    mu = mu_from_rho(w)
    assert all(np.all(np.isfinite(v[m])) for v, m in zip(mu.values, mu.valid))


def test_grid_mismatch_rejected(level_data, qgrid):
    grid, _, _, w = level_data
    psi = GridFunction.constant(qgrid, 1.0)
    with pytest.raises(GridMismatch):
        adjoint_shift(psi, w)


def _pearson(grid, B, eta):
    return (GridFunction.from_callable(grid, B),
            GridFunction.from_callable(grid, eta))


def test_weight_zero_B_on_forward_orbit_raises():
    # orbit 1, 0.5, 0.25, ...: B(x) = x - 0.25 vanishes at index 2
    grid = build_grid(linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=20)
    p = _pearson(grid, lambda x: x - 0.25, lambda x: 1.0 + 0 * x)
    with pytest.raises(ZeroDivisor, match="B vanishes .* index 2$"):
        weight_from_pearson(*p)


def test_weight_zero_eta_behind_group_base_raises():
    # backward orbit 2, 4, 8, ...: eta(x) = x - 4 vanishes two steps back
    grid = build_grid(linear_map(0.5), mode=GROUP, bases=1.0, max_depth=12)
    k0 = grid.branches[0].base_index
    p = _pearson(grid, lambda x: 1.0 + 0 * x, lambda x: x - 4.0)
    with pytest.raises(ZeroDivisor, match=f"eta vanishes .* index {k0 - 2}$"):
        weight_from_pearson(*p)


@pytest.mark.parametrize("mode, bases", [(INTERVAL, (-1.0, 1.0)),
                                         (GROUP, 1.0)])
def test_weight_matches_sequential_loop(mode, bases):
    grid = build_grid(linear_map(0.8), mode=mode, bases=bases, max_depth=60)
    p = _pearson(grid, lambda x: 1.0 + x ** 2, lambda x: 2.0 + x ** 2)
    w = weight_from_pearson(*p)
    want = pearson_weight_loop(*p, grid)
    assert np.array_equal(w.rho.flat_valid, want.flat_valid)
    k0 = [s.start + br.base_index for br, s in zip(grid.branches, grid.slices)]
    assert np.all(w.rho.flat[k0] == 1.0)
    err = np.abs(w.rho.flat - want.flat) / np.abs(want.flat)
    assert np.max(err[want.flat_valid]) < 1e-13


def test_cached_mu_is_mu_from_rho_bit_for_bit(level_data):
    grid, _, _, w = level_data
    fresh = weighted_grid(w.rho)
    want = mu_from_rho(fresh)
    assert fresh.mu is fresh.mu
    assert fresh.mu.flat.tobytes() == want.flat.tobytes()
    assert np.array_equal(fresh.mu.flat_valid, want.flat_valid)
    psi = GridFunction.from_callable(grid, lambda x: 1.0 + x)
    assert adjoint_shift(psi, fresh).flat.tobytes() == (
        adjoint_shift(psi, weighted_grid(w.rho)).flat.tobytes())


def test_cached_mu_raises_zero_weight_on_first_use(qgrid):
    rho = GridFunction.from_callable(qgrid, lambda x: np.where(x < 0.1, 0.0, x))
    w = weighted_grid(rho, warn=False)  # attaching does not check
    psi = GridFunction.constant(qgrid, 1.0)
    with pytest.raises(ZeroWeight):
        w.mu
    with pytest.raises(ZeroWeight):
        adjoint_shift(psi, w)


PARITY_GRIDS = {
    "semigroup": lambda: build_grid(linear_map(0.7), SEMIGROUP, 1.0,
                                    max_depth=40),
    "interval": lambda: build_grid(linear_map(0.8), INTERVAL, (-1.0, 1.0),
                                   max_depth=50),
    "group": lambda: build_grid(linear_map(0.6), GROUP, 1.0, max_depth=30),
}


def planted_pearson(grid, rng):
    """Positive B and eta with planted masked points, exact zeros and
    divisors below ZERO_TOL, each at a few random points."""
    vals = rng.uniform(0.5, 2.0, (2, grid.size))
    valid = np.ones((2, grid.size), dtype=bool)
    for which in range(2):
        valid[which, rng.integers(0, grid.size, rng.integers(0, 3))] = False
        vals[which, rng.integers(0, grid.size, rng.integers(0, 4))] = 0.0
        vals[which, rng.integers(0, grid.size, rng.integers(0, 2))] = 1e-300
    return tuple(GridFunction(grid, v, m) for v, m in zip(vals, valid))


@pytest.mark.parametrize("kind", sorted(PARITY_GRIDS))
def test_weight_masks_and_poles_match_the_mobius_scan(kind):
    # the running product keeps the Mobius scan's validity cut, its pole
    # rule and the ZeroDivisor message naming eta or B, planted zeros and
    # masked steps included
    grid = PARITY_GRIDS[kind]()
    rng = np.random.default_rng(2500)
    outcomes = set()
    for _ in range(150):
        B, eta = planted_pearson(grid, rng)
        try:
            want = mobius_weight(B, eta)
        except ZeroDivisor as exc:
            with pytest.raises(ZeroDivisor) as got:
                weight_from_pearson(B, eta)
            assert str(got.value) == str(exc)
            outcomes.add(str(exc).split()[0])
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PositivityWarning)
            rho = weight_from_pearson(B, eta).rho
        assert np.array_equal(rho.flat_valid, want.flat_valid)
        assert np.all(rho.flat[~rho.flat_valid] == 0)
        sel = want.flat_valid
        assert np.all(np.abs(rho.flat - want.flat)[sel]
                      <= 1e-13 * np.abs(want.flat[sel]))
        outcomes.add("ok")
    assert outcomes == ({"ok", "B", "eta"} if kind == "group" else {"ok", "B"})


def test_weight_reports_the_pole_a_walk_meets_first():
    # behind a group base eta vanishes twice: past the first zero the walk
    # is inf, so the second is no pole of its own
    grid = build_grid(linear_map(0.5), mode=GROUP, bases=1.0, max_depth=12)
    k0 = grid.branches[0].base_index
    p = _pearson(grid, lambda x: 1.0 + 0 * x,
                 lambda x: (x - 4.0) * (x - 32.0))
    with pytest.raises(ZeroDivisor, match=f"eta vanishes .* index {k0 - 2}$"):
        weight_from_pearson(*p)
    with pytest.raises(ZeroDivisor, match=f"eta vanishes .* index {k0 - 2}$"):
        mobius_weight(*p)


@pytest.mark.parametrize("field", ["B", "eta"])
@pytest.mark.parametrize("kind", sorted(PARITY_GRIDS))
def test_weight_never_reads_a_masked_cell(kind, field):
    grid = PARITY_GRIDS[kind]()
    B, eta = (GridFunction(grid, v) for v in
              np.random.default_rng(7).uniform(0.5, 2.0, (2, grid.size)))

    def weight(bad):
        w = weight_from_pearson(*((bad, eta) if field == "B" else (B, bad)))
        return w.rho, w.positivity

    assert_never_read(weight, B if field == "B" else eta, poison_points(grid))


@pytest.mark.parametrize("check_tail", [True, False])
@pytest.mark.parametrize("kind", sorted(PARITY_GRIDS))
def test_inner_product_never_reads_a_masked_weight_cell(kind, check_tail):
    # the tail check of a group branch's backward end included
    grid = PARITY_GRIDS[kind]()
    phi = GridFunction.from_callable(grid, lambda x: 1.0 / (1.0 + x ** 4))
    psi = GridFunction.from_callable(grid, lambda x: x / (1.0 + x ** 4))
    rho = GridFunction(grid, np.random.default_rng(8).uniform(0.5, 2.0,
                                                              grid.size))
    assert_never_read(lambda bad: inner_product(
        phi, psi, weighted_grid(bad, warn=False), check_tail), rho,
        poison_points(grid))


def reference_rho(B, eta, dps=40):
    """rho walked from each base in mpmath at ``dps`` digits over the same
    floats, and each point's number of steps from its base."""
    grid = B.grid
    b, e = B.flat, eta.flat
    ref = np.zeros(grid.size)
    steps = np.zeros(grid.size)
    with mpmath.workdps(dps):
        for br, s in zip(grid.branches, grid.slices):
            k0 = s.start + br.base_index
            for path, ahead in ((range(k0, s.stop - 1), True),
                                (range(k0 - 1, s.start - 1, -1), False)):
                r = mpmath.mpf(1)
                for k, j in enumerate(path, start=1):
                    if ahead:
                        r = r * mpmath.mpf(e[j]) / mpmath.mpf(b[j + 1])
                        at = j + 1
                    else:
                        r = r * mpmath.mpf(b[j + 1]) / mpmath.mpf(e[j])
                        at = j
                    ref[at], steps[at] = float(r), k
            ref[k0] = 1.0
    return ref, steps


def assert_matches_reference(w, B, eta):
    # each step rounds three times, the reciprocal, the ratio and the
    # running product: after k steps rho is within (1 + u)^(3k) - 1 <=
    # 3ku/(1 - 3ku) of the product of the same floats; the reference's
    # own rounding to float adds u
    ref, k = reference_rho(B, eta)
    u = np.finfo(float).eps / 2
    bound = 3 * k * u / (1 - 3 * k * u) + u
    sel = w.rho.flat_valid
    assert sel.sum() >= w.grid.size - len(w.grid.branches)
    err = np.abs(w.rho.flat - ref)[sel] / np.abs(ref[sel])
    assert np.all(err <= bound[sel] * (1 + 1e-6))


@pytest.mark.parametrize("q, depth", [(0.9, 2000), (0.97, 2000),
                                      (0.999, 40000)])
def test_qhahn_weight_matches_an_mpmath_product(q, depth):
    level = qhahn_chain(q=q, depth=depth, n_levels=1).levels[0]
    assert_matches_reference(level.w, level.B, level.eta)


def test_group_backward_weight_matches_an_mpmath_product():
    grid = build_grid(linear_map(0.97), mode=GROUP, bases=1.0, max_depth=400)
    p = _pearson(grid, lambda x: 1.0 + x ** 2, lambda x: 2.0 + x ** 2)
    assert grid.branches[0].base_index > 300
    assert_matches_reference(weight_from_pearson(*p), *p)
