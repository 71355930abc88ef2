"""The level pipeline on flat arrays against its GridFunction expressions.

``make_level``, ``weight_from_pearson``, ``pearson_residual`` and
``advance_level`` compute on whole arrays; ``level_oracle`` keeps their
expression forms.  Both must give the same values, masks, NaNs,
warnings and errors bit for bit.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from taucalc import GridFunction, linear_map
from taucalc import chain, hilbert
from taucalc.errors import GridMismatch, InconsistentWeights, ZeroDivisor
from taucalc.grid import GROUP, SEMIGROUP, OrbitBranch, OrbitGrid, build_grid
from taucalc.hilbert import weighted_grid
from taucalc.scenarios import (constant_gauge_chain, fractional_chain,
                               qhahn_chain)

import level_oracle

CHAINS = {
    "qhahn-22": lambda: qhahn_chain(q=0.97, depth=10, n_levels=4),
    "qhahn-310": lambda: qhahn_chain(q=0.9, depth=154, n_levels=4),
    "qhahn-2046": lambda: qhahn_chain(q=0.97, depth=4000, n_levels=4),
    "qhahn-asymmetric": lambda: qhahn_chain(
        depth=60, n_levels=3, A0_coeffs=(0.3, -1.0), bases=(-0.8, 1.0)),
    "constant-gauge": lambda: constant_gauge_chain(q=0.8, depth=4000,
                                                   n_levels=3),
    "constant-gauge-short": lambda: constant_gauge_chain(n_levels=6),
    "fractional": lambda: fractional_chain(n_levels=4),
}


def outcome(fn, *args):
    """(result, exception type and message, warnings as (category, text))."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            result, error = fn(*args), None
        except Exception as exc:   # compared, not handled
            result, error = None, (type(exc), str(exc))
    return result, error, [(w.category, str(w.message)) for w in seen]


def assert_same_function(got, want):
    assert got.grid is want.grid and got.label == want.label
    assert got.flat.dtype == want.flat.dtype
    assert got.flat.tobytes() == want.flat.tobytes()
    assert np.array_equal(got.flat_valid, want.flat_valid)


def assert_same_level(got, want):
    assert (got.k, got.g, got.c, got.d) == (want.k, want.g, want.c, want.d)
    for name in ("B", "eta", "h", "f", "phi"):
        assert_same_function(getattr(got, name), getattr(want, name))
    assert_same_function(got.w.rho, want.w.rho)
    assert np.array_equal(got.w.positivity, want.w.positivity)


def assert_same_outcome(fn, ref, *args):
    got, want = outcome(fn, *args), outcome(ref, *args)
    assert got[1:] == want[1:]
    if isinstance(want[0], chain.ChainLevel):
        assert_same_level(got[0], want[0])
    elif isinstance(want[0], hilbert.WeightedGrid):
        assert_same_function(got[0].rho, want[0].rho)
        assert np.array_equal(got[0].positivity, want[0].positivity)
    else:
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


def assert_pipeline_matches(level, h_next):
    """Every stage on ``level`` (stamped, with h_{k+1} = ``h_next``) gives
    what its expression form gives."""
    B, eta = level.B, level.eta
    assert_same_outcome(chain.make_level, level_oracle.make_level,
                        B, eta, level.h, level.f)
    assert_same_outcome(hilbert.weight_from_pearson,
                        level_oracle.weight_from_pearson, B, eta)
    assert_same_outcome(hilbert.pearson_residual,
                        level_oracle.pearson_residual, B, eta, level.w)
    assert_same_outcome(chain.advance_level, level_oracle.advance_level,
                        level, h_next)


@pytest.mark.parametrize("make", CHAINS.values(), ids=CHAINS)
def test_level_pipeline_matches_its_expressions(make):
    levels = make().levels
    for level in levels:
        assert_pipeline_matches(level, levels[-1].h)


def test_complex_level_matches_its_expressions(complex_xi_levels):
    # level 0: real data, complex (g, d); level 1: complex data
    for level in complex_xi_levels:
        assert_pipeline_matches(level, level.h)


def planted(fn, index, value, valid):
    values, mask = fn.flat.copy(), fn.flat_valid.copy()
    values[index], mask[index] = value, valid
    return GridFunction(fn.grid, values, mask, label=fn.label)


@pytest.mark.parametrize("field", ["B", "eta", "h", "f", "phi", "g", "rho"])
@pytest.mark.parametrize("value, valid", [(np.nan, True), (np.nan, False),
                                          (np.inf, False), (0.0, True),
                                          (5.0, False)],
                         ids=["nan", "masked-nan", "masked-inf", "zero",
                              "masked"])
def test_planted_points_match_their_expressions(field, value, valid):
    levels = qhahn_chain(depth=60, n_levels=2).levels
    level = levels[0]
    for index in (0, 10, level.grid.size - 1):
        if field == "rho":
            with np.errstate(invalid="ignore"):   # inf times a last delta 0
                bad = replace(level, w=weighted_grid(
                    planted(level.w.rho, index, value, valid), warn=False))
        else:
            bad = replace(level, **{field: planted(getattr(level, field),
                                                   index, value, valid)})
        assert_pipeline_matches(bad, levels[1].h)


def test_errors_match_their_expressions():
    levels = qhahn_chain(depth=60, n_levels=2).levels
    level, h = levels[0], levels[1].h
    other = qhahn_chain(depth=40, n_levels=1).levels[0]
    # InconsistentWeights: a weight that breaks the Pearson recursion
    tilt = 1.0 + 0.01 * GridFunction.identity(level.grid)
    cases = [(replace(level, w=weighted_grid(level.w.rho * tilt)), h),
             # GridMismatch: h_{k+1}, g or the weight on another grid
             (level, other.h), (replace(level, g=other.h), h),
             (replace(level, w=other.w), h),
             # ValueError: no step gauge stamped
             (replace(level, g=None), h)]
    for (bad, h_next), kind in zip(cases, (InconsistentWeights, GridMismatch,
                                           GridMismatch, GridMismatch,
                                           ValueError)):
        assert outcome(chain.advance_level, bad, h_next)[1][0] is kind
        assert_same_outcome(chain.advance_level, level_oracle.advance_level,
                            bad, h_next)
        assert_same_outcome(hilbert.pearson_residual,
                            level_oracle.pearson_residual,
                            bad.B, bad.eta, bad.w)
    # ZeroDivisor: B vanishing ahead of the base, eta behind a group base;
    # GridMismatch: data on another grid, and a branch too short to shift
    grid = build_grid(linear_map(0.5), SEMIGROUP, 1.0, max_depth=20)
    group = build_grid(linear_map(0.5), GROUP, 1.0, max_depth=20)
    stub = OrbitGrid(linear_map(0.5), SEMIGROUP,
                     (OrbitBranch([1.0], 0.0, "b"),))
    one, ones, s = (GridFunction.constant(g, 1.0) for g in (grid, group, stub))
    for args, kind in (((planted(one, 5, 0.0, True), one, one, one),
                        ZeroDivisor),
                       ((ones, planted(ones, 3, 0.0, True), ones, ones),
                        ZeroDivisor),
                       ((one, one, other.h, one), GridMismatch),
                       ((one, other.h, one, one), GridMismatch),
                       ((s, s, s, s), GridMismatch)):
        assert outcome(chain.make_level, *args)[1][0] is kind
        assert_same_outcome(chain.make_level, level_oracle.make_level, *args)
        assert_same_outcome(hilbert.weight_from_pearson,
                            level_oracle.weight_from_pearson, *args[:2])


def test_advance_level_builds_five_functions_and_no_expression(monkeypatch):
    levels = qhahn_chain(depth=60, n_levels=2).levels
    built, operators = [], []
    init = GridFunction.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def operator(name):
        original = getattr(GridFunction, name)

        def spy(self, *args):
            operators.append(name)
            return original(self, *args)
        return spy

    monkeypatch.setattr(GridFunction, "__init__", counted)
    for name in ("_binary", "__neg__", "__abs__", "conj"):
        monkeypatch.setattr(GridFunction, name, operator(name))
    level = levels[0]
    hilbert.pearson_residual(level.B, level.eta, level.w)
    assert built == [] and operators == []
    chain.advance_level(level, levels[1].h)
    assert len(built) <= 5 and operators == []
