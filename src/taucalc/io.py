"""Deterministic CSV/JSON export of grids, functions, chains and solver runs.

The CSV byte contract: every float cell is ``format(v, ".17g")`` (17
significant digits, repr-faithful for binary64, '.' as the decimal
separator regardless of locale, ``nan``/``inf``/``-inf`` as Python spells
them), a masked cell is empty, an integer cell is its decimal digits,
rows end in CRLF, and no cell is quoted (none can hold a comma, quote or
line break). Identical inputs therefore produce byte-identical files.
JSON files are strict RFC 8259 JSON: a non-finite float is written as
the string "inf", "-inf" or "nan", as a CSV cell spells it.

Writing is bound by formatting, at about 0.4 us per 17-digit cell, so
the lead cells (branch, n, point) are formatted once per grid and shared
by every level file of a chain. Each file is built in memory and written
whole.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .chain import ChainLevel
from .errors import NonPositiveFactor
from .grid import OrbitGrid
from .gridfn import GridFunction


def _column(values, keep=None) -> list[str]:
    """17-significant-digit strings of a float column; "" where ``keep``
    is False."""
    vals = np.asarray(values, dtype=float).tolist()
    if keep is None:
        return [format(v, ".17g") for v in vals]
    return [format(v, ".17g") if k else ""
            for v, k in zip(vals, np.asarray(keep).tolist())]


def _lead(grid: OrbitGrid) -> list[str]:
    """Per point the cells "branch,n,point": its branch index, its index
    within the branch and the point itself."""
    branch = grid.per_point(range(len(grid.slices)))
    n = np.arange(grid.size) - grid.per_point([s.start for s in grid.slices])
    return [f"{b},{k},{x}" for b, k, x in zip(branch.tolist(), n.tolist(),
                                              _column(grid.points))]


def _write_rows(path: str | Path, header: list[str], lead: list[str],
                columns) -> Path:
    """One CSV, written whole: the header, then per point its lead cells
    and one cell from each of ``columns``."""
    path = Path(path)
    rows = map(",".join, zip(lead, *columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(header), *rows, ""]))
    return path


def write_grid_csv(grid: OrbitGrid, path: str | Path) -> Path:
    """Columns: branch, n, point, delta (delta empty on the last row)."""
    return _write_rows(path, ["branch", "n", "point", "delta"], _lead(grid),
                       [_column(grid.deltas, grid.has_next)])


def grid_diagnostics(grid: OrbitGrid) -> dict:
    """Limit, size and truncation diagnostics of an orbit grid, JSON-ready;
    ``converged`` and ``limit_gap`` come from each :class:`OrbitBranch`."""
    return {
        "mode": grid.mode,
        "map": grid.tau.name,
        "branches": [
            {"role": br.role, "points": len(br), "base": float(br.points[br.base_index]),
             "limit": float(br.limit), "min_delta": float(np.min(np.abs(br.deltas))),
             "converged": br.converged, "limit_gap": br.limit_gap}
            for br in grid.branches
        ],
    }


def write_function_csv(f: GridFunction, path: str | Path) -> Path:
    """Columns: branch, n, x, re, im, valid."""
    return _write_rows(path, ["branch", "n", "x", "re", "im", "valid"],
                       _lead(f.grid),
                       [_column(f.flat.real), _column(f.flat.imag),
                        np.where(f.flat_valid, "1", "0").tolist()])


def write_level_csv(level: ChainLevel, path: str | Path) -> Path:
    """Columns: branch, n, x, rho, B, eta, h, f, phi.  A level with complex
    data (or complex step constants) raises NonPositiveFactor: the columns
    hold real values only."""
    return _write_level(level, path, _lead(level.grid))


def _write_level(level: ChainLevel, path: str | Path, lead: list[str]) -> Path:
    """:func:`write_level_csv` with the grid's lead cells already formatted."""
    fields = {"rho": level.w.rho, "B": level.B, "eta": level.eta,
              "h": level.h, "f": level.f, "phi": level.phi}
    if any(np.iscomplexobj(v) for v in (
            level.c, level.d, *(fn.flat for fn in fields.values()))):
        raise NonPositiveFactor(f"level {level.k} holds complex data; "
                                "a level CSV holds real values only")
    return _write_rows(path, ["branch", "n", "x"] + list(fields), lead,
                       [_column(fn.flat, fn.flat_valid)
                        for fn in fields.values()])


def write_chain(levels, out_dir: str | Path, manifest_extra: dict | None = None,
                residuals: dict | None = None) -> Path:
    """Per-level CSVs plus a JSON manifest (step data, eigenvalue history).

    Returns the manifest path; level k goes to ``level_{k}.csv``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    lam = 0.0
    grid = lead = None
    for level in levels:
        if level.grid is not grid:
            grid, lead = level.grid, _lead(level.grid)
        _write_level(level, out_dir / f"level_{level.k}.csv", lead)
        lam -= float(level.c)
        entries.append({
            "k": level.k,
            "c": float(level.c),
            "d": float(level.d),
            "lambda_after_lift": lam,
            "file": f"level_{level.k}.csv",
        })
    manifest = {"levels": entries}
    if residuals:
        manifest["residuals"] = residuals
    if manifest_extra:
        manifest.update(manifest_extra)
    return write_json(manifest, out_dir / "manifest.json")


def _strict(data):
    """``data`` with each non-finite float spelled as a CSV cell spells it:
    the strings "inf", "-inf" and "nan"."""
    if isinstance(data, float) and not math.isfinite(data):
        return format(data, ".17g")
    if isinstance(data, dict):
        return {key: _strict(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_strict(value) for value in data]
    return data


def write_json(data: dict, path: str | Path) -> Path:
    """``data`` as strict JSON (RFC 8259, no NaN or Infinity tokens), keys
    sorted, indented by two spaces."""
    path = Path(path)
    path.write_text(json.dumps(_strict(data), indent=2, sort_keys=True,
                               allow_nan=False) + "\n", encoding="utf-8")
    return path


__all__ = [
    "write_grid_csv", "grid_diagnostics", "write_function_csv",
    "write_level_csv", "write_chain", "write_json",
]
