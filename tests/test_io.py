import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucalc import GridFunction, linear_map
from taucalc.chain import ChainLevel
from taucalc.errors import NonPositiveFactor
from taucalc.grid import INTERVAL, SEMIGROUP, OrbitBranch, OrbitGrid
from taucalc.hilbert import WeightedGrid
from taucalc.io import (_column, grid_diagnostics, write_chain,
                        write_function_csv, write_grid_csv, write_json,
                        write_level_csv)
from taucalc.scenarios import constant_gauge_chain

import csv_oracle
from csv_oracle import cell as _cell, per_cell_csv as _per_cell_csv
from csv_oracle import read_function_csv


def test_grid_csv_rows(qgrid, tmp_path):
    path = write_grid_csv(qgrid, tmp_path / "grid.csv")
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == len(qgrid.branches[0])
    assert float(rows[0]["point"]) == 1.0
    assert rows[-1]["delta"] == ""  # no step after the deepest point


def test_function_roundtrip(qgrid, tmp_path):
    f = GridFunction.from_callable(qgrid, lambda x: x ** 2 + 1j * x)
    path = write_function_csv(f, tmp_path / "f.csv")
    back = read_function_csv(qgrid, path)
    for va, vb, ma, mb in zip(f.values, back.values, f.valid, back.valid):
        assert np.array_equal(ma, mb)
        assert np.array_equal(va[ma], vb[mb])  # 17g is repr-faithful


def test_output_is_deterministic(qgrid, tmp_path):
    f = GridFunction.from_callable(qgrid, lambda x: np.exp(x) / 3.0)
    p1 = write_function_csv(f, tmp_path / "a.csv")
    p2 = write_function_csv(f, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_seventeen_significant_digits(qgrid, tmp_path):
    f = GridFunction.constant(qgrid, 1.0 / 3.0)
    path = write_function_csv(f, tmp_path / "third.csv")
    row = next(csv.DictReader(open(path)))
    assert float(row["re"]) == 1.0 / 3.0


def test_grid_diagnostics_json(qgrid):
    diag = grid_diagnostics(qgrid)
    json.dumps(diag)  # must be JSON-serializable
    assert diag["branches"][0]["limit"] == pytest.approx(0.0, abs=1e-12)


def test_write_chain_manifest(tmp_path):
    sc = constant_gauge_chain(n_levels=3)
    manifest = write_chain(sc.levels, tmp_path, residuals={"demo": 1e-16})
    data = json.loads(manifest.read_text())
    assert len(data["levels"]) == 3
    assert (tmp_path / "level_2.csv").exists()
    # lambda history accumulates -c
    assert data["levels"][0]["lambda_after_lift"] == pytest.approx(0.5,
                                                                   rel=1e-9)
    assert data["residuals"]["demo"] == 1e-16


def test_write_json_sorted(tmp_path):
    path = write_json({"b": 1, "a": 2}, tmp_path / "x.json")
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')


def test_level_csv_columns(tmp_path):
    sc = constant_gauge_chain(n_levels=1)
    path = write_level_csv(sc.levels[0], tmp_path / "lvl.csv")
    header = open(path).readline().strip().split(",")
    assert header == ["branch", "n", "x", "rho", "B", "eta", "h", "f", "phi"]


# -- golden bytes: whole-column formatting against a per-cell writer --------

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1.0 / 3.0,
           1e308, -7.0]


def special_grid():
    # points that no orbit produces, so every special value reaches a cell
    with np.errstate(all="ignore"):
        return OrbitGrid(linear_map(0.5), INTERVAL, (
            OrbitBranch([1.0, -0.0, 5e-324, np.inf, np.nan], 0.0, role="a"),
            OrbitBranch([-np.inf, 0.1, -2.5e-320], 0.0, role="b")))


def special_fn(grid, seed):
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(SPECIAL), (2, grid.size))
    vals = np.empty(grid.size, dtype=complex)
    vals.real, vals.imag = np.array(SPECIAL)[pick]
    valid = rng.random(grid.size) > 0.3
    valid[:2] = True, False
    return GridFunction(grid, vals, valid)


def test_grid_csv_golden_bytes(tmp_path):
    grid = special_grid()
    want = _per_cell_csv(tmp_path / "want.csv", ["branch", "n", "point", "delta"],
                         grid, lambda k: [_cell(grid.points[k]),
                                          _cell(grid.deltas[k])
                                          if grid.has_next[k] else ""])
    got = write_grid_csv(grid, tmp_path / "got.csv")
    assert got.read_bytes() == want.read_bytes()
    assert b"nan" in got.read_bytes() and b"-inf" in got.read_bytes()


def test_function_csv_golden_bytes(tmp_path):
    grid = special_grid()
    f = special_fn(grid, 1)
    want = _per_cell_csv(
        tmp_path / "want.csv", ["branch", "n", "x", "re", "im", "valid"], grid,
        lambda k: [_cell(grid.points[k]), _cell(f.flat[k].real),
                   _cell(f.flat[k].imag), int(f.flat_valid[k])])
    got = write_function_csv(f, tmp_path / "got.csv")
    assert got.read_bytes() == want.read_bytes()
    for token in (b"nan", b"-inf", b"-0,", b"4.9406564584124654e-324"):
        assert token in got.read_bytes()


def test_level_csv_golden_bytes(tmp_path):
    grid = special_grid()
    # a level CSV holds real values: each field is the real part of a
    # special function
    rho, B, eta, h, f, phi = (
        GridFunction(grid, fn.flat.real, fn.flat_valid)
        for fn in (special_fn(grid, seed) for seed in range(6)))
    level = ChainLevel(k=0, w=WeightedGrid(grid, rho, np.ones(grid.size, bool)),
                       B=B, eta=eta, h=h, f=f, phi=phi)
    fields = (rho, B, eta, h, f, phi)
    want = _per_cell_csv(
        tmp_path / "want.csv",
        ["branch", "n", "x", "rho", "B", "eta", "h", "f", "phi"], grid,
        lambda k: [_cell(grid.points[k])]
        + [_cell(fn.flat[k].real) if fn.flat_valid[k] else "" for fn in fields])
    got = write_level_csv(level, tmp_path / "got.csv")
    assert got.read_bytes() == want.read_bytes()
    assert b",," in got.read_bytes()  # invalid cells stay empty


# -- golden bytes: columns formatted once, lead cells shared ----------------

def make_level(grid, columns, k=0):
    """A level whose rho, B, eta, h, f and phi are the (values, valid)
    pairs of ``columns``."""
    rho, B, eta, h, f, phi = (GridFunction(grid, np.asarray(v, dtype=float),
                                           np.asarray(m, dtype=bool))
                              for v, m in columns)
    return ChainLevel(k=k, w=WeightedGrid(grid, rho, np.ones(grid.size, bool)),
                      B=B, eta=eta, h=h, f=f, phi=phi)


def constant(grid, v, valid=True):
    return np.full(grid.size, v), np.full(grid.size, valid)


def varied(grid, seed):
    rng = np.random.default_rng(seed)
    vals = np.array(SPECIAL)[rng.integers(0, len(SPECIAL), grid.size)]
    return vals, rng.random(grid.size) > 0.3


def partly_masked(grid):
    # kept cells share one value; masked cells hold others, which must
    # not keep the column from being formatted once, nor reach a cell
    vals = np.full(grid.size, 1.0)
    vals[1::3] = (7.0, np.nan, -0.0)[:len(vals[1::3])]
    return vals, np.arange(grid.size) % 3 != 1


CONSTANT_COLUMNS = {
    # name: (the six columns on a grid, a token the file must hold)
    "h-one-f-zero": (lambda g: [varied(g, 1), varied(g, 2), varied(g, 3),
                                constant(g, 1.0), constant(g, 0.0),
                                varied(g, 4)], b",1,0,"),
    "signed-zeros": (lambda g: [varied(g, 1), constant(g, -0.0),
                                constant(g, 0.0), constant(g, 1.0),
                                constant(g, 0.0), varied(g, 4)], b",-0,0,1,0,"),
    "nan": (lambda g: [varied(g, 1), varied(g, 2), constant(g, np.nan),
                       constant(g, 1.0), constant(g, 0.0), varied(g, 4)],
            b",nan,1,0,"),
    "partly-masked": (lambda g: [varied(g, 1), varied(g, 2), varied(g, 3),
                                 partly_masked(g), constant(g, 0.0),
                                 varied(g, 4)], b",,0,"),
    "all-masked": (lambda g: [constant(g, 2.5, False)] * 6, b",,,,,,\r\n"),
}


def one_row_grid():
    return OrbitGrid(linear_map(0.5), SEMIGROUP,
                     (OrbitBranch([0.25], 0.0, role="a"),))


@pytest.mark.parametrize("grid_of", [special_grid, one_row_grid],
                         ids=["special", "one-row"])
@pytest.mark.parametrize("name", sorted(CONSTANT_COLUMNS))
def test_constant_column_golden_bytes(tmp_path, grid_of, name):
    grid = grid_of()
    columns, token = CONSTANT_COLUMNS[name]
    level = make_level(grid, columns(grid))
    want = csv_oracle.level_csv(level, tmp_path / "want.csv")
    got = write_level_csv(level, tmp_path / "got.csv")
    assert got.read_bytes() == want.read_bytes()
    if grid.size > 1:
        assert token in got.read_bytes()


@pytest.mark.parametrize("valid", [True, False], ids=["valid", "masked"])
def test_one_row_and_masked_function_golden_bytes(tmp_path, valid):
    for grid in (one_row_grid(), special_grid()):
        f = GridFunction(grid, np.full(grid.size, -0.0 + 0.0j),
                         np.full(grid.size, valid))
        want = csv_oracle.function_csv(f, tmp_path / "want.csv")
        got = write_function_csv(f, tmp_path / "got.csv")
        assert got.read_bytes() == want.read_bytes()
        want = csv_oracle.grid_csv(grid, tmp_path / "want.csv")
        got = write_grid_csv(grid, tmp_path / "got.csv")
        assert got.read_bytes() == want.read_bytes()


def test_chain_shares_lead_cells_golden_bytes(tmp_path):
    # three levels on one grid share its lead cells; a fourth on another
    # grid gets its own
    grid, other = special_grid(), one_row_grid()
    levels = [make_level(grid, [varied(grid, 6 * k + j) for j in range(6)], k)
              for k in range(3)]
    levels.append(make_level(other, [constant(other, 0.5)] * 6, 3))
    write_chain(levels, tmp_path / "chain")
    for level in levels:
        want = csv_oracle.level_csv(level, tmp_path / f"want_{level.k}.csv")
        got = tmp_path / "chain" / f"level_{level.k}.csv"
        assert got.read_bytes() == want.read_bytes()


# a small pool per column, so repeated and constant columns are common
POOLS = st.lists(st.one_of(st.sampled_from(SPECIAL),
                           st.floats(allow_nan=True, allow_infinity=True)),
                 min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_cells_are_per_cell_format(data):
    pool = data.draw(POOLS)
    values = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    keep = data.draw(st.none() | st.lists(st.booleans(), min_size=len(values),
                                          max_size=len(values)))
    want = [_cell(v) if keep is None or k else ""
            for v, k in zip(values, keep or [True] * len(values))]
    got = _column(np.array(values, dtype=float),
                  None if keep is None else np.array(keep, dtype=bool))
    assert got == want


def test_level_writers_refuse_complex_data(tmp_path, complex_xi_levels):
    # level 1 holds complex data (eta = 0.8 - 0.4j at the base); level 0
    # real data with the complex step constant d = 1 + 0.5j
    level0, level1 = complex_xi_levels
    with pytest.raises(NonPositiveFactor, match="complex data"):
        write_level_csv(level1, tmp_path / "level_1.csv")
    assert not (tmp_path / "level_1.csv").exists()
    for levels in ([level0], [level1]):
        with pytest.raises(NonPositiveFactor, match="complex data"):
            write_chain(levels, tmp_path / "chain")
        assert not (tmp_path / "chain" / "manifest.json").exists()
