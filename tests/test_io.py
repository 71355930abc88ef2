import csv
import json

import numpy as np
import pytest

from taucalc import GridFunction, linear_map
from taucalc.chain import ChainLevel
from taucalc.grid import INTERVAL, OrbitBranch, OrbitGrid
from taucalc.hilbert import WeightedGrid
from taucalc.io import (grid_diagnostics, read_function_csv, write_chain,
                        write_function_csv, write_grid_csv, write_json,
                        write_level_csv)
from taucalc.scenarios import constant_gauge_chain


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


def _cell(v):
    return format(float(v), ".17g")


def _per_cell_csv(path, header, grid, row):
    """The reference writer: one formatted cell at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for bi, s in enumerate(grid.slices):
            for n in range(s.stop - s.start):
                out.writerow([bi, n] + row(s.start + n))
    return path


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
    rho, B, eta, h, f, phi = (special_fn(grid, seed) for seed in range(6))
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
