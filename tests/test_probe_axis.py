"""Probe blocks: (k, N) grid functions against their rows, and the probe
checks against their per-probe references in ``probe_oracle``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucalc.calculus import (shift, step_quotient, tau_antiderivative,
                              tau_derivative, tau_integral)
from taucalc.chain import (apply_A, apply_Astar, bands_AAstar,
                           factorization_residual, make_level, tridiag_apply)
from taucalc.errors import TailNotConverged
from taucalc.grid import GROUP, INTERVAL, SEMIGROUP, build_grid
from taucalc.gridfn import GridFunction, joint_scale, max_abs_diff
from taucalc.hilbert import adjoint_shift, inner_product, norm
from taucalc.maps import linear_map
from taucalc.scenarios import constant_gauge_chain, fractional_chain, qhahn_chain
from taucalc.validation import (SuiteData, criterion_adjoints,
                                 criterion_calculus, criterion_covariance,
                                 criterion_orthogonality)

from probe_oracle import (adjoints_worst, calculus_worst,
                          covariance_unitary_worst, factorization_residual_loop,
                          orthogonality_worst)


def _values(result):
    return {c.name: c.value for c in result.checks}


def test_calculus_criterion_equals_probe_loop():
    assert _values(criterion_calculus(SuiteData())) == calculus_worst()


def test_adjoints_criterion_equals_probe_loop():
    data = SuiteData()
    assert _values(criterion_adjoints(data)) == adjoints_worst(
        data.qhahn.levels[0])


def test_orthogonality_criterion_equals_gram_loop():
    data = SuiteData()
    assert _values(criterion_orthogonality(data)) == orthogonality_worst(
        data.qhahn)


def test_covariance_criterion_equals_probe_loop():
    data = SuiteData()
    assert (_values(criterion_covariance(data))["unitary-transport"]
            == covariance_unitary_worst(data.constant_gauge))


@pytest.mark.parametrize("build", [
    lambda: qhahn_chain(depth=60, n_levels=4),
    lambda: constant_gauge_chain(),
    lambda: fractional_chain(),
], ids=["qhahn", "constant-gauge", "fractional"])
def test_factorization_residual_equals_probe_loop(build):
    levels = build().levels
    for k, (lo, hi) in enumerate(zip(levels, levels[1:])):
        for seed in (k, 1000 + k):
            assert (factorization_residual(lo, hi, rng=seed)
                    == factorization_residual_loop(lo, hi, rng=seed))


# ---------------------------------------------------------------------------
# a probe block is its rows
# ---------------------------------------------------------------------------

GRIDS = {
    "semigroup": build_grid(linear_map(0.6), SEMIGROUP, 1.0, max_depth=40),
    "interval": build_grid(linear_map(0.8), INTERVAL, (-1.0, 1.0),
                           max_depth=50),
    "group": build_grid(linear_map(0.6), GROUP, 1.0, max_depth=30),
}


def _level(grid):
    def fn(rule):
        return GridFunction.from_callable(grid, rule)
    return make_level(fn(lambda x: 1.0 + 0.1 * x), fn(lambda x: 0.9 + 0.05 * x),
                      fn(lambda x: 1.0 + 0.0 * x), fn(lambda x: x))


LEVELS = {kind: _level(grid) for kind, grid in GRIDS.items()}

# operators on one probe function f and a second one g, with the grid's
# level (its weight and its ladder operators)
OPERATORS = {
    "mul": lambda f, g, lvl: f * g,
    "add": lambda f, g, lvl: f + g,
    "div": lambda f, g, lvl: f / g,
    "scale": lambda f, g, lvl: 2.5 * f - 1.0,
    "abs": lambda f, g, lvl: abs(f),
    "conj": lambda f, g, lvl: f.conj(),
    "window": lambda f, g, lvl: f.window(3),
    "shift": lambda f, g, lvl: shift(f),
    "shift-back": lambda f, g, lvl: shift(f, -1),
    "shift-2": lambda f, g, lvl: shift(f, 2),
    "step_quotient": lambda f, g, lvl: step_quotient(f),
    "tau_derivative": lambda f, g, lvl: tau_derivative(f),
    "tau_antiderivative": lambda f, g, lvl: tau_antiderivative(
        f, check_tail=False),
    "tau_integral": lambda f, g, lvl: tau_integral(f, check_tail=False),
    "max_abs": lambda f, g, lvl: f.max_abs(),
    "max_abs_diff": lambda f, g, lvl: max_abs_diff(f, g),
    "joint_scale": lambda f, g, lvl: joint_scale(f, g),
    "inner_product": lambda f, g, lvl: inner_product(f, g, lvl.w,
                                                     check_tail=False),
    "norm": lambda f, g, lvl: norm(f, lvl.w),
    "adjoint_shift": lambda f, g, lvl: adjoint_shift(f, lvl.w),
    "apply_A": lambda f, g, lvl: apply_A(lvl, f),
    "apply_Astar": lambda f, g, lvl: apply_Astar(lvl, f),
    "tridiag_apply": lambda f, g, lvl: tridiag_apply(bands_AAstar(lvl), f),
}

# the same with every tail check on: a block raises if any row does
CHECKED = {
    "tau_integral": lambda f, g, lvl: tau_integral(f),
    "tau_antiderivative": lambda f, g, lvl: tau_antiderivative(f),
    "inner_product": lambda f, g, lvl: inner_product(f, g, lvl.w),
}


def _block(grid, rng, k, shared_mask):
    """A (k, N) probe function and its k rows; the mask is one (N,) mask
    shared by the rows or a (k, N) one."""
    values = rng.standard_normal((k, grid.size)) + 1j * rng.standard_normal(
        (k, grid.size))
    mask = rng.random((grid.size,) if shared_mask else (k, grid.size)) < 0.9
    rows = [GridFunction(grid, values[i], mask if shared_mask else mask[i])
            for i in range(k)]
    return GridFunction(grid, values, mask), rows


def _same_bits(block, rows):
    """``block`` equals np.stack of ``rows`` bit for bit (masks too)."""
    if isinstance(block, GridFunction):
        k = block.flat.shape[0]
        _same_bits(block.flat, [r.flat for r in rows])
        _same_bits(np.broadcast_to(block.flat_valid, (k, block.grid.size)),
                   [r.flat_valid for r in rows])
        return
    block = np.asarray(block)
    stacked = np.asarray(rows, dtype=block.dtype)
    assert block.shape == stacked.shape
    assert np.ascontiguousarray(block).tobytes() == stacked.tobytes()


def _outcome(call):
    try:
        return call(), None
    except TailNotConverged as exc:
        return None, exc


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(GRIDS)), seed=st.integers(0, 2 ** 32 - 1),
       k=st.integers(1, 4), shared_mask=st.booleans())
def test_a_probe_block_is_its_rows(kind, seed, k, shared_mask):
    grid, lvl = GRIDS[kind], LEVELS[kind]
    rng = np.random.default_rng(seed)
    f, f_rows = _block(grid, rng, k, shared_mask)
    g, g_rows = _block(grid, rng, k, shared_mask)
    for name, op in OPERATORS.items():
        _same_bits(op(f, g, lvl),
                   [op(fr, gr, lvl) for fr, gr in zip(f_rows, g_rows)])
    for name, op in CHECKED.items():
        block, raised = _outcome(lambda: op(f, g, lvl))
        rows = [_outcome(lambda: op(fr, gr, lvl))
                for fr, gr in zip(f_rows, g_rows)]
        assert (raised is not None) == any(exc is not None for _, exc in rows)
        if raised is None:
            _same_bits(block, [value for value, _ in rows])


@pytest.mark.parametrize("kind", sorted(GRIDS))
def test_a_one_row_block_equals_the_flat_call(kind):
    grid, lvl = GRIDS[kind], LEVELS[kind]
    rng = np.random.default_rng(7)
    f, (f_row,) = _block(grid, rng, 1, True)
    g, (g_row,) = _block(grid, rng, 1, False)
    for name, op in OPERATORS.items():
        flat = op(f_row, g_row, lvl)
        if isinstance(flat, GridFunction):
            assert flat.flat.shape == (grid.size,)
        else:
            assert np.ndim(flat) == 0
        _same_bits(op(f, g, lvl), [flat])


def test_each_row_checks_its_tail_against_its_own_scale():
    # on a shallow orbit the last step is about 1e-6: x^8 has no tail, the
    # constant 1 has a tail of about 1e-6 against its scale 1, and a row
    # of size 1e12 at the base with no tail would hide it under one
    # shared scale
    grid = build_grid(linear_map(0.5), SEMIGROUP, 1.0, max_depth=20)
    x = grid.points
    quiet, big = x ** 8, 1e12 * x ** 40
    loud = np.ones(grid.size)
    for check in (tau_integral, tau_antiderivative):
        check(GridFunction(grid, np.stack([quiet, big])))
        with pytest.raises(TailNotConverged):
            check(GridFunction(grid, loud))
        with pytest.raises(TailNotConverged):
            check(GridFunction(grid, np.stack([big, loud, quiet])))
