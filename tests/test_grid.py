import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucalc import GROUP, INTERVAL, SEMIGROUP, build_grid
from taucalc import cli, scenarios, validation
from taucalc.cli import _preset_chain, _preset_grid
from taucalc.covariance import affine_change, transport_grid
from taucalc.errors import (CoincidentOrbits, DomainEscape, GridMismatch,
                            LimitNotConverged, ZeroDivisor)
from taucalc.grid import (DEFAULT_DELTA_TOL, DEFAULT_MAX_DEPTH,
                          _check_disjoint, _coincident_pairs,
                          contraction_estimate)
from taucalc.io import grid_diagnostics
from taucalc.maps import fractional_map, limit_point, linear_map, power_map
from taucalc.validation import SuiteData

from grid_oracle import build_grid_two_walks
from limit_oracle import counting_map, limit_point_still
from recursion_oracle import sequential_mobius, sequential_outward


def test_semigroup_points(qgrid):
    br = qgrid.branches[0]
    assert br.points[0] == 1.0
    assert np.allclose(br.points, 0.5 ** np.arange(len(br)))
    assert np.allclose(br.deltas, br.points[:-1] - br.points[1:])
    assert qgrid.limit == pytest.approx(0.0, abs=1e-12)


def test_depth_cap():
    grid = build_grid(linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=10)
    assert grid.depth == 11  # base plus ten iterates


@pytest.mark.parametrize("mode, bases, depth", [
    (SEMIGROUP, 1.0, 0), (SEMIGROUP, 1.0, -5), (INTERVAL, (-1.0, 1.0), 0),
    (INTERVAL, 1.0, 30), (INTERVAL, (1.0,), 30),
    (INTERVAL, (-1.0, 0.5, 1.0), 30), (SEMIGROUP, (1.0, 2.0, 3.0), 30),
    (GROUP, (1.0, 2.0), 30), (SEMIGROUP, (), 30), ("orbit", 1.0, 30)])
def test_build_grid_refuses_a_depth_below_one_and_misshapen_bases(
        mode, bases, depth):
    with pytest.raises(ValueError):
        build_grid(linear_map(0.5), mode, bases, max_depth=depth)


@pytest.mark.parametrize("mode", [SEMIGROUP, GROUP])
def test_one_element_bases_stand_for_their_base(mode):
    want = build_grid(linear_map(0.5), mode, 1.0, max_depth=30)
    for bases in ((1.0,), [1.0], np.array([1.0])):
        got = build_grid(linear_map(0.5), mode, bases, max_depth=30)
        assert got.points.tobytes() == want.points.tobytes()


def test_natural_truncation():
    # deltas fall below the floor long before max_depth at q = 0.5
    grid = build_grid(linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=500)
    assert grid.depth < 80
    assert np.min(np.abs(grid.branches[0].deltas)) > 0.0


def test_interval_two_branches():
    grid = build_grid(linear_map(0.8), mode=INTERVAL, bases=(-1.0, 1.0),
                      max_depth=40)
    assert len(grid.branches) == 2
    roles = {br.role for br in grid.branches}
    assert roles == {"a", "b"}


def test_interval_coincident_orbits_rejected():
    with pytest.raises(CoincidentOrbits):
        build_grid(linear_map(0.5), mode=INTERVAL, bases=(1.0, 0.125),
                   max_depth=20)


def test_group_mode_has_backward_points():
    grid = build_grid(linear_map(0.5), mode=GROUP, bases=1.0, max_depth=10)
    assert np.max(grid.branches[0].points) > 1.0  # inverse iterates included


def test_fractional_limit_reported():
    grid = build_grid(fractional_map(2.0), mode=SEMIGROUP, bases=0.5,
                      max_depth=25)
    assert grid.limit == pytest.approx(1.0, abs=1e-12)


def test_contraction_estimate_below_one(qgrid):
    assert contraction_estimate(qgrid) < 1.0


def test_flat_storage_and_branch_views():
    from taucalc import GridFunction
    grid = build_grid(linear_map(0.8), mode=INTERVAL, bases=(-1.0, 1.0),
                      max_depth=40)
    assert np.array_equal(grid.points,
                          np.concatenate([br.points for br in grid.branches]))
    for br, s in zip(grid.branches, grid.slices):
        assert np.shares_memory(br.points, grid.points)
        assert not grid.has_next[s.stop - 1]
        assert grid.has_next[s.start:s.stop - 1].all()
        assert np.array_equal(grid.deltas[s][:-1], br.deltas)
    f = GridFunction.from_callable(grid, lambda x: x ** 2)
    assert all(not v.flags.writeable and np.shares_memory(v, f.flat)
               for v in f.values)
    # one flat array of grid length; per-branch arrays are refused
    assert np.array_equal(GridFunction(grid, f.flat, f.flat_valid).flat, f.flat)
    with pytest.raises(GridMismatch, match="grid length"):
        GridFunction(grid, f.values)


def test_operator_results_are_kept_not_copied():
    # an operator's fresh result goes to the constructor read-only, so it
    # is kept as it is: one values array is allocated, not two; a writable
    # array from a caller is still copied
    from taucalc import GridFunction
    grid = build_grid(linear_map(0.99), mode=INTERVAL, bases=(-1.0, 1.0),
                      max_depth=3000)
    f = GridFunction.from_callable(grid, lambda x: 1.0 + x ** 2)
    g = GridFunction.from_callable(grid, lambda x: 2.0 - 1j * x)
    # operands of one dtype: a mixed pair would add numpy's cast buffer
    ops = [lambda: f + f, lambda: f - 2.0, lambda: 3.0 - g, lambda: g * g,
           lambda: f / f, lambda: 2.0 / g, lambda: f ** 2, lambda: -g,
           lambda: abs(g), lambda: g.conj(), lambda: f.conj(),
           lambda: g.window(3), lambda: f.window(3)]
    for op in ops:
        op()   # warm: plans and ufunc loops are set up
        tracemalloc.start()
        r = op()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1.5 * r.flat.nbytes
        assert not r.flat.flags.writeable
        assert not any(np.shares_memory(r.flat, x.flat) for x in (f, g))
    mine = np.cos(grid.points)
    h = GridFunction(grid, mine)
    assert mine.flags.writeable and not np.shares_memory(h.flat, mine)
    mine[:] = 0.0
    assert np.array_equal(h.flat, np.cos(grid.points))


def test_caller_mask_is_copied_not_frozen():
    # a writable mask is copied like writable values: the caller can still
    # write to it, and the function does not see the write
    from taucalc import GridFunction
    grid = build_grid(linear_map(0.5), mode=SEMIGROUP, bases=(1.0,),
                      max_depth=9)
    mine = np.ones(grid.size, dtype=bool)
    mine[3] = False
    h = GridFunction(grid, np.zeros(grid.size), mine)
    assert mine.flags.writeable and not np.shares_memory(h.flat_valid, mine)
    mine[:] = False
    assert np.count_nonzero(h.flat_valid) == grid.size - 1


def outer_coincident_pairs(pts_a, pts_b, limit, delta_tol):
    """The all-pairs N_a x N_b disjointness test, as a reference."""
    da = np.abs(pts_a - limit)
    db = np.abs(pts_b - limit)
    gap = np.abs(np.subtract.outer(pts_a, pts_b))
    sep = np.add.outer(da, db)
    floor = 1e3 * delta_tol * (1.0 + abs(limit))
    resolvable = np.maximum.outer(da, db) > floor
    hits = (gap < 1e-8 * sep) & resolvable
    return np.argwhere(hits)


def assert_same_pairs(pts_a, pts_b, limit, delta_tol=DEFAULT_DELTA_TOL):
    want = outer_coincident_pairs(pts_a, pts_b, limit, delta_tol)
    i, j = _coincident_pairs(pts_a, pts_b, limit, delta_tol)
    assert np.array_equal(np.column_stack([i, j]).reshape(-1, 2), want)
    if len(want):
        with pytest.raises(CoincidentOrbits) as exc:
            _check_disjoint(pts_a, pts_b, limit, delta_tol)
        a, b = want[0]
        assert str(exc.value) == (f"orbit point {pts_a[a]} of base a "
                                  f"coincides with {pts_b[b]} of base b")
    else:
        _check_disjoint(pts_a, pts_b, limit, delta_tol)
    return len(want)


def test_coincident_pairs_match_all_pairs_on_random_orbits():
    rng = np.random.default_rng(7)
    for _ in range(40):
        limit = rng.uniform(-2.0, 2.0)
        qa, qb = rng.uniform(0.5, 0.97, size=2)
        na, nb = rng.integers(5, 400, size=2)
        pts_a = limit + rng.uniform(-3, 3) * qa ** np.arange(na)
        pts_b = limit + rng.uniform(-3, 3) * qb ** np.arange(nb)
        assert_same_pairs(pts_a, pts_b, limit)
        assert_same_pairs(rng.uniform(-1, 1, na), rng.uniform(-1, 1, nb), 0.0,
                          delta_tol=1e-3)


def test_coincident_pairs_match_all_pairs_on_planted_hits():
    # b copies a at offsets straddling the 1e-8 (da + db) threshold and the
    # 4e-8 da search radius, on both sides of the limit and in the tail
    rng = np.random.default_rng(11)
    hits = 0
    for limit in (0.0, 1.0, -0.3):
        pts_a = limit + np.concatenate([0.9 ** np.arange(300),
                                        -(0.8 ** np.arange(200))])
        da = np.abs(pts_a - limit)
        pick = rng.choice(len(pts_a), size=120, replace=False)
        rel = rng.choice([0.0, 0.5, 0.999999, 1.0, 1.000001, 1.5, 1.9999,
                          2.0, 2.0001, 3.9, 4.1], size=pick.size)
        sign = rng.choice([-1.0, 1.0], size=pick.size)
        pts_b = pts_a[pick] + sign * rel * 1e-8 * da[pick]
        pts_b = np.concatenate([pts_b, limit + 0.7 ** np.arange(150)])
        hits += assert_same_pairs(pts_a, rng.permutation(pts_b), limit)
        hits += assert_same_pairs(pts_b, pts_a, limit)
    assert hits > 100


@settings(max_examples=80, deadline=None)
@given(limit=st.sampled_from([0.0, 1.0, -0.3]),
       q=st.tuples(st.floats(0.5, 0.97), st.floats(0.5, 0.97)),
       n=st.tuples(st.integers(1, 200), st.integers(1, 200)),
       sides=st.tuples(st.sampled_from([-1.0, 1.0]),
                       st.sampled_from([-1.0, 1.0])),
       copies=st.integers(0, 4), on_limit=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_disjointness_check_matches_the_full_search(limit, q, n, sides,
                                                    copies, on_limit, seed):
    # orbits on opposite sides of the limit are not searched; copies of
    # a-points among the b-points put coincident pairs on one side, and
    # a point on the limit itself lies on both sides
    rng = np.random.default_rng(seed)
    pts_a, pts_b = (limit + side * rng.uniform(0.5, 3.0) * qk ** np.arange(nk)
                    for side, qk, nk in zip(sides, q, n))
    if on_limit:
        pts_a, pts_b = np.append(pts_a, limit), np.append(pts_b, limit)
    pick = rng.choice(len(pts_a), size=min(copies, len(pts_a)), replace=False)
    pts_b = rng.permutation(np.concatenate([pts_b, pts_a[pick]]))
    assert_same_pairs(pts_a, pts_b, limit)


def test_coincident_pairs_skip_unresolvable_tail():
    tail = 1e-13 * 0.5 ** np.arange(30)
    assert assert_same_pairs(tail, tail * (1 + 1e-12), 0.0) == 0
    assert assert_same_pairs(tail, tail, 0.0) == 0


def test_unconverged_limit_raises_typed_error():
    # x -> -x is stepped, and its orbit from 1 is a two-cycle that never
    # settles: the walk ends at the bound of every walk, 1,048,575 steps
    tau = linear_map(-1.0)
    with pytest.raises(LimitNotConverged, match=r"base 1\.0 .*1048575 steps"):
        build_grid(tau, SEMIGROUP, 1.0)
    # not a LimitMismatch between two unsettled iterates
    with pytest.raises(LimitNotConverged, match=r"base -1\.0"):
        build_grid(tau, INTERVAL, (-1.0, 1.0))
    # a scale walk longer than the memory bound (7e13 steps) is not formed
    with pytest.raises(LimitNotConverged, match=r"base 1\.0 .*1048575 steps"):
        build_grid(linear_map(1 - 1e-12), SEMIGROUP, 1.0)


def test_slow_stepped_map_settles_within_the_bound():
    # x -> 0.999 x + 0.002 is stepped; its walk from 1 detects the fixed
    # point 2 after 21,917 steps and polishes it in 7,783 more
    grid = build_grid(linear_map(0.999, h=2e-3), SEMIGROUP, 1.0,
                      max_depth=40000)
    (branch,) = grid.branches
    assert branch.converged
    assert abs(branch.limit - 2.0) < 1e-10
    assert branch.limit_gap < 1e-10


def test_truncated_orbit_is_recorded():
    cut = build_grid(linear_map(0.99), INTERVAL, (-1.0, 1.0))
    for br in cut.branches:
        assert not br.converged
        assert br.limit_gap == pytest.approx(0.99 ** 512, rel=1e-9)
    diag = grid_diagnostics(cut)["branches"]
    assert [b["converged"] for b in diag] == [False, False]
    assert diag[1]["limit_gap"] == pytest.approx(5.824e-3, rel=1e-3)
    full = build_grid(linear_map(0.5), SEMIGROUP, 1.0)
    assert full.branches[0].converged
    assert full.branches[0].limit_gap < 1e-14
    group = build_grid(linear_map(0.5), GROUP, 1.0, max_depth=12)
    assert not group.branches[0].converged
    assert group.branches[0].limit_gap == 0.5 ** 12



def test_interval_grid_forward_calls():
    # each branch is cut from its limit walk: the two walks are every
    # forward call (walking the points a second time made 6,870)
    tau, calls = counting_map(linear_map(0.97))
    build_grid(tau, INTERVAL, (-1.0, 1.0), 4000)
    walks = [limit_point(linear_map(0.97), b).walk for b in (-1.0, 1.0)]
    assert calls[0] == sum(len(w) - 1 for w in walks) == 4826


# (map, base, interval bases, has a group grid)
POLISH_MAPS = (
    [(linear_map(q), 1.0, (-1.0, 1.0), True)
     for q in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.97, 0.98)]
    + [(fractional_map(a), 0.6, (0.2, 0.6), True) for a in (0.1, 0.5, 2.0)]
    + [(power_map(p), 0.7, (0.5, 0.7), True) for p in (1.5, 2.0)]
    + [(linear_map(0.7, h=0.3), 0.0, (0.0, 2.0), True),
       (linear_map(0.9, h=-0.2), 1.0, (-3.0, 1.0), True)])
POLISH_GRIDS = [
    pytest.param(tau, mode, bases, depth, id=f"{tau.name}-{mode}")
    for tau, base, pair, has_group in POLISH_MAPS
    for mode, bases, depth in ((SEMIGROUP, base, 4000), (INTERVAL, pair, 4000))
    + (((GROUP, base, 40),) if has_group else ())]


@pytest.mark.parametrize("tau, mode, bases, depth", POLISH_GRIDS)
def test_polished_limit_leaves_distances_bit_identical(tau, mode, bases,
                                                       depth):
    grid = build_grid(tau, mode, bases, depth)
    for br in grid.branches:
        still = limit_point_still(tau, br.points[br.base_index]).value
        assert np.array_equal(br.points - br.limit, br.points - still)


MOBIUS_GRIDS = {
    "semigroup": lambda: build_grid(linear_map(0.7), SEMIGROUP, 1.0,
                                    max_depth=40),
    "interval": lambda: build_grid(linear_map(0.8), INTERVAL, (-1.0, 1.0),
                                   max_depth=50),
    "group": lambda: build_grid(linear_map(0.6), GROUP, 1.0, max_depth=30),
}


@pytest.mark.parametrize("kind, planted", [
    ("semigroup", "forward"), ("interval", "forward"), ("group", "forward"),
    ("group", "backward")])
def test_mobius_scan_matches_sequential(kind, planted):
    grid = MOBIUS_GRIDS[kind]()
    rng = np.random.default_rng(7)
    steps = rng.standard_normal((4, grid.size)) + 1j * rng.standard_normal(
        (4, grid.size))
    seeds = rng.standard_normal(len(grid.branches))
    ok = np.ones(grid.size, dtype=bool)
    br, s = grid.branches[-1], grid.slices[-1]
    base = s.start + br.base_index
    bad = base - 3 if planted == "backward" else base + 9
    ok[bad] = False
    values, valid, pole = grid.mobius_scan(steps, seeds, ok, 1e-13)
    assert walks_built(grid) == [True]
    want, want_valid, want_pole = sequential_mobius(grid, steps, seeds, ok,
                                                    1e-13)
    assert np.array_equal(valid, want_valid)
    assert np.array_equal(pole, want_pole)
    assert not valid[bad + 1] if bad >= base else not valid[bad]
    assert np.all(values[~valid] == 0)
    assert values[base] == seeds[-1]
    err = np.abs(values - want) / np.maximum(1.0, np.abs(want))
    assert np.max(err[valid]) < 1e-12


@pytest.mark.parametrize("ufunc", [np.multiply, np.add])
@pytest.mark.parametrize("kind, planted", [
    ("semigroup", "forward"), ("interval", "forward"), ("group", "forward"),
    ("group", "backward"), ("group", "both")])
def test_outward_scan_matches_sequential(ufunc, kind, planted):
    grid = MOBIUS_GRIDS[kind]()
    rng = np.random.default_rng(11)
    steps = rng.standard_normal((2, grid.size)) + 1j * rng.standard_normal(
        (2, grid.size))
    ok = np.ones(grid.size, dtype=bool)
    br, s = grid.branches[-1], grid.slices[-1]
    base = s.start + br.base_index
    bad = {"forward": [base + 9], "backward": [base - 3],
           "both": [base - 5, base - 2, base + 4]}[planted]
    ok[bad] = False
    values, valid = grid.outward_scan(ufunc, steps, ok)
    want, want_valid = sequential_outward(grid, ufunc, steps, ok)
    assert np.array_equal(valid, want_valid)
    assert not valid[bad[-1] + 1] if bad[-1] >= base else not valid[bad[-1]]
    assert values[base] == ufunc.identity
    assert np.all(values[~valid] == 0)
    # one accumulate per leg does the loop's operations in its order; a
    # complex product may round differently (|fl(xy) - xy| <= sqrt(5) u |xy|
    # per factor, Brent, Percival & Zimmermann 2007), so after k factors
    # the two walks differ by at most 2 sqrt(5) k u |want| to first order
    if ufunc is np.add:
        assert np.array_equal(values, want)
    else:
        k = np.abs(np.arange(grid.size) - grid.per_point(
            [s.start + b.base_index for b, s in zip(grid.branches, grid.slices)]))
        u = np.finfo(float).eps / 2
        assert np.all(np.abs(values - want) <= 2.01 * 5 ** 0.5 * k * u * np.abs(want))


def walks_built(grid):
    """The directions (outward True, inward False) of the 2x2 walks whose
    layout ``grid`` holds, in the order they were first walked."""
    return [key[1] for key in grid._plans if key[0] == "walk"]


def test_mobius_scan_rescales_composites_and_flags_exact_pole():
    # the outward walk of a group grid: forward and backward rows
    grid = build_grid(linear_map(0.5), GROUP, 1.0, max_depth=20)
    k0 = grid.branches[0].base_index
    n = np.arange(grid.size) - k0
    ok = np.ones(grid.size, dtype=bool)
    zero, one = np.zeros(grid.size), np.ones(grid.size)
    # r doubles per step; unscaled composites would pass 2^1200 and overflow
    values, valid, pole = grid.mobius_scan(
        (one * 2.0 ** 600, zero, zero, one * 2.0 ** 599), [1.0], ok, 1e-13)
    assert valid.all() and not pole.any()
    assert np.array_equal(values, 2.0 ** n)
    # one step r -> (r + 1)/(r - 1) among identities meets its pole from 1
    a, b, c, d = one.copy(), zero.copy(), zero.copy(), one.copy()
    b[k0 + 4], c[k0 + 4], d[k0 + 4] = 1.0, 1.0, -1.0
    values, valid, pole = grid.mobius_scan((a, b, c, d), [1.0], ok, 1e-13)
    assert np.flatnonzero(pole).tolist() == [k0 + 5]
    assert walks_built(grid) == [True]


def test_doubling_scan_scales_subnormal_complex_maps():
    # normalising a map whose largest entry is subnormal takes 2^1029,
    # beyond float64: the real and imaginary parts are scaled by ldexp,
    # on the one 2x2 walk in both its directions
    grid = build_grid(linear_map(0.5), SEMIGROUP, 1.0, max_depth=20)
    n = np.arange(grid.size)
    ok = np.ones(grid.size, dtype=bool)
    tiny = np.full(grid.size, 2.0 ** -1030)
    values, valid, pole = grid.mobius_scan(((1 + 1j) * tiny, 0, 0, tiny),
                                           1.0, ok, 0.0)
    assert valid.all() and not pole.any()
    assert np.array_equal(values, (1 + 1j) ** n)
    # suffix products of (1+i) 2^-1030 I under three factors 2^600 I
    last = grid.size - 1
    mats = np.tile(np.eye(2, dtype=complex), (grid.size, 1, 1))
    mats[last] *= (1 + 1j) * 2.0 ** -1030
    mats[last - 3:last] *= 2.0 ** 600
    out = grid.suffix_products(mats)
    power = -1030 + 600 * np.minimum(last - n, 3)
    want = (1 + 1j) * np.ldexp(1.0, power)[:, None, None] * np.eye(2)
    assert np.array_equal(out, want)
    assert walks_built(grid) == [True, False]


def test_group_backward_leg_settles_on_repelling_fixed_point():
    # the backward orbit of fractional(0.1) from 0.6 rounds onto the
    # repelling fixed point 1: the leg has settled, nothing was hit
    grid = build_grid(fractional_map(0.1), GROUP, 0.6, 40)
    br = grid.branches[0]
    back = br.points[:br.base_index]
    assert back[0] == 1.0 and np.all(np.diff(br.points) < 0)
    assert np.all(grid.deltas[grid.has_next] > 0)
    assert br.points[br.base_index] == 0.6 and br.converged


@pytest.mark.parametrize("mode, bases", [(SEMIGROUP, 1.0),
                                         (INTERVAL, (0.5, 1.0))])
def test_forward_leg_leaving_the_domain_raises(mode, bases):
    # tau moves the repelling fixed point 1.0 by one ulp: the walk runs
    # away from 1, passes the pole at x = 10/9 and settles on 0 from below
    with pytest.raises(DomainEscape, match="leaves the domain"):
        build_grid(fractional_map(0.1), mode, bases, 40)


@pytest.mark.parametrize("tau, mode, bases", [
    # 1.0 is fixed by the inverse map only (tau moves it by one ulp)
    pytest.param(fractional_map(0.1), GROUP, 1.0, id="tau0-1.0"),
    pytest.param(linear_map(0.5), GROUP, 0.0, id="tau1-0.0"),
    pytest.param(linear_map(0.5), SEMIGROUP, 0.0, id="semigroup"),
    pytest.param(linear_map(0.5), INTERVAL, (0.0, 1.0), id="interval-a"),
    pytest.param(fractional_map(2.0), INTERVAL, (0.5, 1.0), id="interval-b")])
def test_group_base_on_a_fixed_point_raises(tau, mode, bases):
    # in every mode, not only in group mode as the name says
    with pytest.raises(ZeroDivisor, match="fixed point hit"):
        build_grid(tau, mode, bases, 40)


GROUP_GRIDS = [
    pytest.param(tau, base, depth, id=f"{tau.name}-{depth}")
    for tau, base, _, _ in POLISH_MAPS for depth in (40, 512)
] + [pytest.param(linear_map(0.5), 1.0, 4000, id="linear(q=0.5)-4000")]


@pytest.mark.parametrize("tau, base, depth", GROUP_GRIDS)
def test_group_grid_points_are_finite_and_in_domain(tau, base, depth):
    grid = build_grid(tau, GROUP, base, depth)
    assert np.all(np.isfinite(grid.points)) and np.all(tau.contains(grid.points))
    assert np.all(np.isfinite(grid.deltas))


@pytest.mark.parametrize("tau, base, depth", [
    pytest.param(linear_map(0.9, h=-0.2), 1.0, depth, id=f"linear-{depth}")
    for depth in (40, 400, 4000)] + [
    pytest.param(linear_map(0.5, h=0.1, domain=(-1.0, 1.0)), 0.5, 4000,
                 id="linear-unit-domain"),
    pytest.param(power_map(2.0, domain=(0.0, 0.9)), 0.5, 4000, id="power"),
    pytest.param(linear_map(0.1), 1.0, 512, id="linear-scale")])
def test_group_backward_leg_stops_at_the_domain_exit(tau, base, depth):
    # tau.inverse is called for each kept backward point and at most once
    # more, for the first point outside the domain (a scale map walks as
    # running products and calls it not at all)
    calls = [0]

    def inverse(y):
        calls[0] += 1
        return tau.inverse(y)

    grid = build_grid(dataclasses.replace(tau, inverse=inverse), GROUP, base,
                      depth)
    assert calls[0] <= grid.branches[0].base_index + 1
    assert_same_as_two_walks(grid, tau, GROUP, base, depth)


def test_group_backward_leg_ends_before_an_overflow():
    # the inverse y ** 2 would overflow a few steps past the exit at 16
    grid = build_grid(power_map(0.5, domain=(1.0, 10.0)), GROUP, 2.0, 60)
    branch = grid.branches[0]
    assert branch.points[:branch.base_index + 1].tolist() == [4.0, 2.0]


def test_map_step_arithmetic_error_is_a_domain_escape():
    # fractional(a=2) has its pole at the base x = -1/(a - 1)
    with pytest.raises(DomainEscape, match="division by zero"):
        build_grid(fractional_map(2.0), SEMIGROUP, -1.0, 60)
    # x ** p overflows a float
    with pytest.raises(DomainEscape, match="Numerical result out of range"):
        build_grid(power_map(1e300, domain=(1.0, 1e18)), SEMIGROUP, 2.0, 60)
    # the inverse y / (a - (a - 1) y) has its pole at y = a / (a - 1) = 1.0
    with pytest.raises(DomainEscape, match="division by zero"):
        build_grid(fractional_map(1e300), GROUP, 1.0, 60)
    # a forward walk stops at its domain exit, before x ** 2 overflows
    with pytest.raises(DomainEscape, match="leaves the domain"):
        build_grid(power_map(2.0, domain=(1.0, 10.0)), SEMIGROUP, 2.0, 60)


def test_map_step_to_a_non_real_value_is_a_domain_escape():
    # (-1.0) ** 0.5 is complex in Python, and a complex step cannot be
    # compared with the domain
    with pytest.raises(DomainEscape, match=r"a step of power\(p=0.5\) failed"):
        build_grid(power_map(0.5), INTERVAL, [-1.0, 1.0], 40)
    # from just below 0 the complex walk settles before any domain test
    with pytest.raises(DomainEscape, match=r"a step of power\(p=0.5\) failed"):
        build_grid(power_map(0.5, domain=(-1.0, 1.0)), SEMIGROUP, -1e-300, 40)


# -- the two-walk reference ------------------------------------------------

def assert_same_as_two_walks(grid, tau, mode, bases, depth):
    """``grid`` has the branches of the two-walk builder bit for bit; on a
    group branch only its points inside the domain are compared."""
    want = build_grid_two_walks(tau, mode, bases, depth)
    assert len(grid.branches) == len(want)
    for br, ref in zip(grid.branches, want):
        pts, k = ref.points, ref.base_index
        outside = np.flatnonzero(~(np.isfinite(pts[:k]) & tau.contains(pts[:k])))
        if len(outside):
            pts, k = pts[outside[-1] + 1:], k - outside[-1] - 1
        assert br.points.tobytes() == pts.tobytes()
        assert np.float64(br.limit).tobytes() == np.float64(ref.limit).tobytes()
        assert (br.converged, br.base_index) == (ref.converged, k)


@pytest.mark.parametrize("tau, mode, bases, depth", POLISH_GRIDS + [
    pytest.param(linear_map(0.1), GROUP, 1.0, 512, id="overflowing-group")]
    # 0.9, 0.9^50, 0.9^2500, 0: the walk ends on a zero step before any
    # quiet run, which settles the branch only from depth 4 on
    + [pytest.param(power_map(50.0), SEMIGROUP, 0.9, depth,
                    id=f"underflow-{depth}") for depth in (3, 4)])
def test_polish_grids_match_two_walks(tau, mode, bases, depth):
    assert_same_as_two_walks(build_grid(tau, mode, bases, depth), tau, mode,
                             bases, depth)



# the h = 0 linear maps at depths on both sides of a short walk: shallow
# and truncated semigroup and interval grids, long group backward legs
SCALE_GRIDS = [
    pytest.param(tau, mode, bases, depth, id=f"{tau.name}-{mode}-{depth}")
    for tau, base, pair, _ in POLISH_MAPS if tau.name.endswith(",h=0.0)")
    for mode, bases, depth in ((SEMIGROUP, base, 40), (SEMIGROUP, base, 622),
                               (INTERVAL, pair, 40), (GROUP, base, 512),
                               (GROUP, base, 4000))]


@pytest.mark.parametrize("tau, mode, bases, depth", SCALE_GRIDS)
def test_scale_map_grids_match_two_walks(tau, mode, bases, depth):
    assert_same_as_two_walks(build_grid(tau, mode, bases, depth), tau, mode,
                             bases, depth)

BUILDS = {
    **{f"suite-{name}": (lambda name=name: getattr(SuiteData(), name))
       for name in ("qhahn", "qhahn_cross", "constant_gauge",
                    "constant_gauge_deep", "fractional_half", "fractional_two",
                    "fractional_grid_deep", "fractional_grid_shallow")},
    **{f"cli-grid-{name}": (lambda name=name: _preset_grid(name, None))
       for name in ("linear", "fractional", "qhahn", "constant-gauge")},
    **{f"cli-chain-{name}": (lambda name=name: _preset_chain(name, None))
       for name in ("qhahn", "constant-gauge", "fractional")},
}


@pytest.mark.parametrize("source", sorted(BUILDS))
def test_suite_and_preset_grids_match_two_walks(monkeypatch, source):
    built = []

    def recording(tau, mode=SEMIGROUP, bases=1.0, max_depth=DEFAULT_MAX_DEPTH):
        grid = build_grid(tau, mode, bases, max_depth)
        built.append((grid, tau, mode, bases, max_depth))
        return grid

    for module in (cli, scenarios, validation):
        monkeypatch.setattr(module, "build_grid", recording)
    BUILDS[source]()
    assert len(built) == 1
    assert_same_as_two_walks(*built[0])


# -- per-grid plans --------------------------------------------------------

def exercise_plans(grid):
    """Build every kind of plan on ``grid`` and return the grid's arrays."""
    for k in (1, -1, 2, -2):
        grid.neighbour_mask(k), grid.neighbour_index(k)
    for m in (0, 1, 3):
        grid.interior(m), grid.interior_index(m)
    grid.reach(1, 2)
    grid.mobius_scan((0.5, 0, 0, 1.0), 1.0, np.ones(grid.size, dtype=bool),
                     1e-13)
    grid.suffix_products(np.tile(np.eye(2), (grid.size, 1, 1)))
    return [arr for plan in grid._plans.values() for arr in plan]


@pytest.mark.parametrize("kind", sorted(MOBIUS_GRIDS))
def test_plans_are_read_only(kind):
    arrays = exercise_plans(MOBIUS_GRIDS[kind]())
    # eight (mask, indices) plans, and (indices, liveness, columns) of the
    # walk in each direction (inward, the columns are the indices)
    assert len(arrays) == 2 * 8 + 3 + 3
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = arr


def test_plans_match_their_definitions():
    grid = MOBIUS_GRIDS["interval"]()
    idx = np.arange(grid.size)
    branch = grid.per_point(range(len(grid.slices)))
    for steps in (1, -1, 2, -3):
        j = np.clip(idx + steps, 0, grid.size - 1)
        want = (idx + steps == j) & (branch[j] == branch)
        assert np.array_equal(grid.neighbour_mask(steps), want)
        assert np.array_equal(grid.neighbour_index(steps), np.flatnonzero(want))
    for margin in (0, 1, 4):
        want = grid.neighbour_mask(-margin) & grid.neighbour_mask(margin)
        assert np.array_equal(grid.interior(margin), want)
        assert np.array_equal(grid.interior_index(margin), np.flatnonzero(want))
    assert grid.neighbour_mask(1) is grid.has_next
    assert grid.neighbour_index(2) is grid.neighbour_index(2)


def test_grids_never_share_plans():
    grid = MOBIUS_GRIDS["interval"]()
    twin = build_grid(linear_map(0.8), INTERVAL, (-1.0, 1.0), max_depth=50)
    moved = transport_grid(grid, affine_change(2.0, 3.0, (-1.0, 1.0)))
    mine = exercise_plans(grid)
    for other in (twin, moved):
        assert other._plans is not grid._plans
        theirs = exercise_plans(other)
        assert len(theirs) == len(mine)
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
