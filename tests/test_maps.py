import numpy as np
import pytest

from taucalc.maps import (compose_maps, fractional_map, iterate, limit_point,
                          linear_map, power_map)

from limit_oracle import counting_map


def test_linear_iterate():
    tau = linear_map(0.5)
    assert iterate(tau, 1.0, 3) == pytest.approx(0.125)
    assert tau.inverse(tau.forward(0.7)) == pytest.approx(0.7)


def test_linear_rejects_zero_slope():
    with pytest.raises(ValueError):
        linear_map(0.0)


def test_fractional_second_iterate():
    # a = 2: tau^2(0.5) = 0.8
    tau = fractional_map(2.0)
    assert iterate(tau, 0.5, 2) == pytest.approx(0.8, abs=1e-15)


def test_fractional_inverse_roundtrip():
    tau = fractional_map(0.5)
    for x in np.linspace(0.05, 0.95, 7):
        assert tau.inverse(tau.forward(x)) == pytest.approx(x, abs=1e-14)


def test_fractional_rejects_degenerate():
    for a in (0.0, -1.0, 1.0):
        with pytest.raises(ValueError):
            fractional_map(a)


def test_power_map_roundtrip():
    tau = power_map(2.0, domain=(0.1, 0.9))
    assert tau.forward(0.5) == pytest.approx(0.25)
    assert tau.inverse(0.25) == pytest.approx(0.5)


def test_compose_maps():
    tau = compose_maps(linear_map(0.5), linear_map(0.5))
    assert tau.forward(1.0) == pytest.approx(0.25)


def test_limit_point_linear():
    res = limit_point(linear_map(0.5), 1.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("q", [0.5, 0.8, 0.9, 0.97, 0.99])
def test_limit_polish_ends_before_its_cap(q):
    tau, calls = counting_map(linear_map(q))
    res = limit_point(tau, 1.0)
    assert res.converged
    assert calls[0] - res.iterations < 10000
    # polished well past the 1e-13 detection tolerance
    assert 0.0 <= res.value < 1e-31


def test_limit_point_fractional_expanding():
    # a = 2 contracts toward the fixed point 1
    res = limit_point(fractional_map(2.0), 0.5)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_limit_walk_is_the_orbit():
    tau = fractional_map(0.5)
    res = limit_point(tau, 0.5)
    walk = res.walk
    assert walk[0] == 0.5 and walk[-1] == res.value
    assert np.array_equal(walk[1:], [tau.forward(x) for x in walk[:-1]])
    assert len(walk) > res.iterations and not walk.flags.writeable
    # a step that does not move ends the walk without repeating its point
    assert limit_point(linear_map(0.5), 0.0).walk.tolist() == [0.0]
