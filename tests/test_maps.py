import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from taucalc import maps
from taucalc.maps import (TauMap, _ScaleMap, _walk_length, fractional_map,
                          iterate, limit_point, linear_map, power_map,
                          stepped_walk)

from limit_oracle import counting_map, polish_stop_full


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


def test_limit_point_linear():
    res = limit_point(linear_map(0.5), 1.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("q", [0.5, 0.8, 0.9, 0.97, 0.99])
def test_limit_polish_ends_before_its_cap(q):
    tau, calls = counting_map(linear_map(q))
    res = limit_point(tau, 1.0)
    assert res.converged
    # the polish test, not the bound that detection and polish share,
    # ends the walk
    assert calls[0] < maps.WALK_MAX_STEPS
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


# -- scale maps: every walk of x -> q x equals the step-by-step walk -------

def plain_copy(tau):
    """``tau`` rebuilt as a plain TauMap, walked one step at a time."""
    return TauMap(tau.forward, tau.inverse, tau.domain, tau.name)


def walks_running_products(q, h):
    """Whether ``linear_map(q, h)`` walks forward as running products."""
    return 0.0 < abs(q) < 1.0 and math.copysign(1.0, h) > 0.0


def assert_same_result(res, ref):
    assert res.walk.tobytes() == ref.walk.tobytes()
    assert np.float64(res.value).tobytes() == np.float64(ref.value).tobytes()
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)


# every forward walk stops within this many steps; a walk of running
# products past it is not formed
MAX_STEPS = maps.WALK_MAX_STEPS


def walk(tau, base, cap):
    """The forward walk of ``tau`` from ``base`` for a ``cap`` of None,
    else the backward walk of tau.inverse within ``cap`` steps."""
    if cap is None:
        return limit_point(tau, base)
    return stepped_walk(tau, tau.inverse, base, cap)


def assert_walks_as_stepped(tau, base, cap):
    """``walk(tau, base, cap)`` is the stepped walk of ``plain_copy(tau)``.
    A forward walk of a scale map is allowed the steps ``_walk_length``
    derives, and stops within them; one past ``MAX_STEPS`` ends
    unconverged at its base, unformed."""
    res = walk(tau, base, cap)
    derived = isinstance(tau, _ScaleMap) and cap is None
    n = _walk_length(tau.q, base) if derived else 0
    if n > MAX_STEPS:
        assert (res.iterations, res.converged) == (MAX_STEPS, False)
        assert res.walk.tobytes() == np.float64(base).tobytes()
        return
    ref = walk(plain_copy(tau), base, cap)
    assert_same_result(res, ref)
    if derived:   # the last step tested, stored or not, is within n
        assert len(ref.walk) <= n + (not ref.converged)


SCALE_QS = (0.05, 0.5, 0.9, 0.97, 0.978, 0.999, 1.0, -0.5, -0.97, 1.5, -2.0)
SCALE_BASES = (1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
               math.inf, -math.inf, math.nan)
# None walks forward; an int caps a backward walk of tau.inverse
SCALE_CAPS = (None, 1, 5, 40, 400, 4000)
# the default domain (-1e18, 1e18) ends a walk from 1e300 at its first step
SCALE_DOMAINS = (None, (-math.inf, math.inf))


@pytest.mark.parametrize("h", [0.0, -0.0], ids=["h=+0", "h=-0"])
@pytest.mark.parametrize("q", SCALE_QS)
def test_scale_walk_matches_plain_walk(q, h):
    # a forward walk of a contracting x -> q x + 0.0 is made of running
    # products, from every base (they reach zeros, a -0.0 product becoming
    # +0.0); every other walk steps
    for domain in SCALE_DOMAINS:
        tau = linear_map(q, h, domain)
        assert isinstance(tau, _ScaleMap) == walks_running_products(q, h)
        for base in SCALE_BASES:
            for cap in SCALE_CAPS:
                assert_walks_as_stepped(tau, base, cap)


@pytest.mark.parametrize("q, cap", [(0.97, None), (0.978, None)])
def test_scale_walk_does_not_step_forward_per_point(q, cap):
    # a long walk of x -> q x is made of running products of q: tau.forward
    # and tau.inverse are not called once per point
    tau = linear_map(q, domain=(-math.inf, math.inf))
    calls = [0]

    def counted(step):
        def call(x):
            calls[0] += 1
            return step(x)
        return call

    counting = dataclasses.replace(tau, forward=counted(tau.forward),
                                   inverse=counted(tau.inverse))
    res = walk(counting, 1.0, cap)
    assert len(res.walk) > 2000 and calls[0] == 0
    assert_same_result(res, walk(plain_copy(tau), 1.0, cap))


@settings(max_examples=80, deadline=None)
@given(q=st.one_of(st.floats(0.01, 0.999), st.floats(-0.999, -0.01),
                   st.floats(1.001, 4.0), st.floats(-4.0, -1.001)),
       base=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                      st.sampled_from(SCALE_BASES)),
       cap=st.sampled_from(SCALE_CAPS), h=st.sampled_from((0.0, -0.0)),
       domain=st.sampled_from(SCALE_DOMAINS))
def test_scale_walk_matches_plain_walk_anywhere(q, base, cap, h, domain):
    tau = linear_map(q, h, domain)
    assert isinstance(tau, _ScaleMap) == walks_running_products(q, h)
    assert_walks_as_stepped(tau, base, cap)


@settings(max_examples=50, deadline=None)
@given(q=st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True,
                             allow_subnormal=True).filter(bool),
                   st.floats(0.999, 1.0, exclude_max=True),
                   st.floats(-1.0, -0.999, exclude_min=True)),
       base=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(SCALE_BASES).filter(math.isfinite)),
       domain=st.sampled_from(SCALE_DOMAINS))
# a walk that the first chunk of the former chunked walk missed by 4 steps
@example(q=-0.945, base=-1.7e211, domain=(-math.inf, math.inf))
def test_scale_walk_stops_within_its_derived_length(q, base, domain):
    # the forward walk of x -> q x from any finite base, q near +-1 too
    assert_walks_as_stepped(linear_map(q, domain=domain), base, None)


@settings(max_examples=300, deadline=None)
@given(q=st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True,
                             allow_subnormal=True).filter(bool),
                   st.floats(0.99, 1.0, exclude_max=True),
                   st.floats(-1.0, -0.99, exclude_min=True),
                   st.sampled_from([1 - 2.0 ** -53, 1 - 2.0 ** -51,
                                    1 - 2.0 ** -50, -(1 - 2.0 ** -53),
                                    -(1 - 2.0 ** -50)])),
       base=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([5e-324, -1e-323, 2.2e-308, -1e-310,
                                       1.0, -3.0, 1e300])),
       lo=st.integers(2, 80))
def test_windowed_polish_stop_matches_the_full_scan(q, base, lo):
    # the polish stop tests only the steps its derived bound leaves; from
    # any first step it stops where the test on every step stops
    n = _walk_length(q, base)
    assume(n <= 2 ** 16)
    w = np.full(n + 1, q)
    w[0] = base
    with np.errstate(all="ignore"):
        np.multiply.accumulate(w, out=w)
        w[1:] += 0.0
        for start in {lo, 2, n // 2, n - 1}:
            if 2 <= start <= n:
                assert (maps._polish_stop(w, start, q)
                        == polish_stop_full(w, start))


@pytest.mark.parametrize("q, base", [(0.99999, 1.0), (1 - 1e-12, 1.0),
                                     (-(1 - 1e-12), -3.0)])
def test_scale_walk_past_the_memory_bound_is_not_formed(q, base):
    # 7.4e6 steps from base 1 at q = 0.99999, 7e13 at 1 - 1e-12
    tracemalloc.start()
    try:
        res = limit_point(linear_map(q), base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.converged, res.iterations) == (False, MAX_STEPS)
    assert res.walk.tolist() == [base] and peak < 2 ** 16


def test_stepped_and_scale_walks_share_one_bound():
    # x -> -x from 1 is a two-cycle that never settles; a scale walk at
    # q = 1 - 1e-12 would take 7e13 steps.  Both end at the one bound
    stepped = limit_point(linear_map(-1.0), 1.0)
    scale = limit_point(linear_map(1 - 1e-12), 1.0)
    assert not stepped.converged and not scale.converged
    assert stepped.iterations == scale.iterations == MAX_STEPS
    assert len(stepped.walk) == MAX_STEPS + 1
