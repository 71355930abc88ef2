"""The CSV writers as one formatted cell at a time, as a reference.

``per_cell_csv`` is the writer before whole files were built in memory:
``csv.writer`` fed one row at a time, each float cell formatted on its
own with ``format(v, ".17g")``.  The ``*_csv`` helpers lay out the rows
of :mod:`taucalc.io`'s grid, function and level files on top of it.
Tests check that :mod:`taucalc.io` writes the same bytes.
``read_function_csv`` reads a function file back onto its grid.
"""

import csv

import numpy as np

from taucalc.gridfn import GridFunction


def cell(v):
    return format(float(v), ".17g")


def per_cell_csv(path, header, grid, row):
    """The reference writer: one formatted cell at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for bi, s in enumerate(grid.slices):
            for n in range(s.stop - s.start):
                out.writerow([bi, n] + row(s.start + n))
    return path


def grid_csv(grid, path):
    return per_cell_csv(path, ["branch", "n", "point", "delta"], grid,
                        lambda k: [cell(grid.points[k]),
                                   cell(grid.deltas[k])
                                   if grid.has_next[k] else ""])


def function_csv(f, path):
    grid = f.grid
    return per_cell_csv(
        path, ["branch", "n", "x", "re", "im", "valid"], grid,
        lambda k: [cell(grid.points[k]), cell(f.flat[k].real),
                   cell(f.flat[k].imag), int(f.flat_valid[k])])


def level_csv(level, path):
    grid = level.grid
    fields = (level.w.rho, level.B, level.eta, level.h, level.f, level.phi)
    return per_cell_csv(
        path, ["branch", "n", "x", "rho", "B", "eta", "h", "f", "phi"], grid,
        lambda k: [cell(grid.points[k])]
        + [cell(fn.flat[k].real) if fn.flat_valid[k] else "" for fn in fields])


def read_function_csv(grid, path):
    """The GridFunction a function file holds, on the grid it was written
    from: rows are matched to points by their branch and index."""
    vals = np.zeros(grid.size, dtype=complex)
    valid = np.zeros(grid.size, dtype=bool)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            k = grid.slices[int(row["branch"])].start + int(row["n"])
            vals[k] = float(row["re"]) + 1j * float(row["im"])
            valid[k] = bool(int(row["valid"]))
    return GridFunction(grid, vals, valid)
