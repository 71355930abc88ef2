import numpy as np
import pytest

from taucalc import GROUP, INTERVAL, SEMIGROUP, build_grid
from taucalc.errors import CoincidentOrbits
from taucalc.grid import contraction_estimate
from taucalc.maps import fractional_map, linear_map


def test_semigroup_points(qgrid):
    br = qgrid.branches[0]
    assert br.points[0] == 1.0
    assert np.allclose(br.points, 0.5 ** np.arange(len(br)))
    assert np.allclose(br.deltas, br.points[:-1] - br.points[1:])
    assert qgrid.limit == pytest.approx(0.0, abs=1e-12)


def test_depth_cap():
    grid = build_grid(linear_map(0.5), mode=SEMIGROUP, bases=1.0, max_depth=10)
    assert grid.depth == 11  # base plus ten iterates


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
    assert contraction_estimate(qgrid.tau, qgrid) < 1.0


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
    # one array of grid length or one array per branch
    assert np.array_equal(GridFunction(grid, f.flat, f.valid).flat, f.flat)
    assert np.array_equal(GridFunction(grid, f.values).flat, f.flat)
