"""Functions sampled on orbit grids, with validity windows.

Shifting and differencing consume indices at the truncated end of an
orbit; instead of padding with zeros, every operation carries a boolean
validity mask and shrinks it.  Values and mask are stored flat over the
concatenated branches of the grid, so an operator is one whole-array
expression; ``values`` and ``valid`` are read-only per-branch views of
that storage.  Arithmetic is pointwise and only allowed between
functions living on the same grid object.

A function may also hold a block of k probes: values of shape (k, N)
over the N grid points, with a mask of shape (N,) shared by every row
or one of shape (k, N).  Operators act on the last axis, so one
expression evaluates every row, and reductions return one value per
row; a function of shape (N,) behaves exactly as one row.

Values are float64 unless a complex value enters, then complex128: this
module is the one place that decides, and every operator elsewhere
computes in the dtype of its operands, promoting as numpy does.

Ownership is decided here as well.  A function's arrays are read-only.
``GridFunction(grid, values, valid)`` copies a writable array, so the
caller's array stays the caller's, and keeps a read-only one.  Code
that has just made its arrays hands them over with
:meth:`GridFunction.fresh`, which freezes them and keeps them without a
copy; the caller must not write to them afterwards.
"""

from __future__ import annotations

import operator
from numbers import Number
from typing import Callable

import numpy as np

from .errors import GridMismatch
from .grid import OrbitGrid


def _flat(grid: OrbitGrid, array, dtype, what: str) -> np.ndarray:
    """``array`` as a flat array of grid length, or a (k, N) block of them."""
    arr = np.asarray(array, dtype=dtype)
    if arr.shape != grid.points.shape and arr.shape[1:] != grid.points.shape:
        raise GridMismatch(f"need a {what} array of grid length "
                           f"{grid.points.shape} or a (k, N) block of "
                           f"them, got {arr.shape}")
    return arr


def _row_max(arr: np.ndarray, where: np.ndarray):
    """Largest entry of ``arr`` where ``where`` holds along the last axis
    (0 where nothing is selected): a float for a single function, one
    value per row for a block."""
    out = np.maximum.reduce(arr, axis=-1, initial=0.0, where=where)
    return float(out) if out.ndim == 0 else out


class GridFunction:
    """Values sampled on every point of an :class:`OrbitGrid`: float64, or
    complex128 when the values given are complex.

    ``flat`` holds the values of all branches, concatenated in branch
    order, and ``flat_valid`` the validity mask; both are read-only.
    The constructor takes the values and the mask as flat arrays of grid
    length; ``valid=None`` marks every point valid.  Values of shape
    (k, N) hold k probe rows; their mask has shape (N,) or (k, N).
    """

    __slots__ = ("grid", "flat", "flat_valid", "label")

    def __init__(self, grid: OrbitGrid, values, valid=None, label: str = ""):
        arr = np.asarray(values)
        # float64, or complex128 once a complex value enters; a writable
        # array, values or mask, is copied and a read-only one is kept
        flat = _flat(grid, arr.astype(complex if arr.dtype.kind == "c" else float,
                                      copy=arr.flags.writeable), None, "value")
        if valid is None:
            mask = np.ones(grid.size, dtype=bool)
        else:
            arr = np.asarray(valid)
            mask = _flat(grid, arr.astype(bool, copy=arr.flags.writeable),
                         None, "mask")
            if mask.ndim != 1 and mask.shape != flat.shape:
                raise GridMismatch(f"a {mask.shape} mask needs values of "
                                   f"that shape, got {flat.shape}")
        flat.setflags(write=False)
        mask.setflags(write=False)
        self.grid = grid
        self.flat = flat
        self.flat_valid = mask
        self.label = label

    @property
    def values(self) -> tuple[np.ndarray, ...]:
        """Per-branch read-only views of the values (of every row of a
        probe block)."""
        return tuple(self.flat[..., s] for s in self.grid.slices)

    @property
    def valid(self) -> tuple[np.ndarray, ...]:
        """Per-branch read-only views of the validity mask."""
        return tuple(self.flat_valid[..., s] for s in self.grid.slices)

    # -- constructors ---------------------------------------------------
    @classmethod
    def fresh(cls, grid: OrbitGrid, values: np.ndarray,
              valid: np.ndarray | None = None,
              label: str = "") -> "GridFunction":
        """A function on arrays the caller has just made and hands over:
        both are made read-only and kept, not copied."""
        values.setflags(write=False)
        if valid is not None:
            valid.setflags(write=False)
        return cls(grid, values, valid, label)

    @classmethod
    def from_callable(cls, grid: OrbitGrid, fn: Callable[[np.ndarray], np.ndarray],
                      label: str = "") -> "GridFunction":
        vals = np.asarray(fn(grid.points)) + np.zeros(grid.size)
        return cls.fresh(grid, vals, label=label)

    @classmethod
    def constant(cls, grid: OrbitGrid, c: complex, label: str = "") -> "GridFunction":
        return cls.fresh(grid, np.full(grid.size, c), label=label)

    @classmethod
    def identity(cls, grid: OrbitGrid, label: str = "x") -> "GridFunction":
        return cls(grid, grid.points, label=label)

    # -- structure ------------------------------------------------------
    def check_same_grid(self, other: "GridFunction") -> None:
        if self.grid is not other.grid:
            raise GridMismatch("operands live on different grids")

    def max_abs(self):
        """sup|values| over the valid window (0 when nothing is valid);
        one value per row for a probe block."""
        return _row_max(np.abs(self.flat), self.flat_valid)

    # -- pointwise arithmetic -------------------------------------------
    def _binary(self, other, op) -> "GridFunction":
        # masked-out entries may hold inf/nan; their arithmetic is discarded
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            if isinstance(other, GridFunction):
                self.check_same_grid(other)
                vals = op(self.flat, other.flat)
                valid = self.flat_valid & other.flat_valid
            elif isinstance(other, Number):
                vals, valid = op(self.flat, other), self.flat_valid
            else:
                return NotImplemented
        return GridFunction.fresh(self.grid, vals, valid)

    def __add__(self, other):
        return self._binary(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, operator.truediv)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __abs__(self):
        return GridFunction.fresh(self.grid, np.abs(self.flat), self.flat_valid)

    def __pow__(self, other):
        if not isinstance(other, Number):
            return NotImplemented
        return self._binary(other, operator.pow)

    def __neg__(self):
        return GridFunction.fresh(self.grid, -self.flat, self.flat_valid)

    def conj(self) -> "GridFunction":
        return GridFunction.fresh(self.grid, np.conj(self.flat),
                                  self.flat_valid)

    def window(self, margin: int) -> "GridFunction":
        """Zero the values on ``margin`` indices at each end of every branch.

        The validity mask is kept, producing a genuinely interior-supported
        function (summation-by-parts tests need actual zeros, not masked-out
        entries).
        """
        keep = self.grid.interior(max(margin, 0))
        return GridFunction.fresh(self.grid, np.where(keep, self.flat, 0.0),
                                  self.flat_valid, self.label)


def max_abs_diff(f: GridFunction, g: GridFunction):
    """Largest pointwise |f - g| on the common valid window (0 when it is
    empty); one value per row for a probe block."""
    f.check_same_grid(g)
    sel = f.flat_valid & g.flat_valid
    # only the window is subtracted: masked-out entries may hold inf/nan
    diff = np.subtract(f.flat, g.flat, where=sel,
                       out=np.zeros(np.broadcast(f.flat, g.flat).shape,
                                    np.result_type(f.flat, g.flat)))
    return _row_max(np.abs(diff), sel)


def joint_scale(*fns: GridFunction):
    """max(1, sup|values|) across several functions (residual denominator);
    one value per row for probe blocks.  Like ``max``, it passes over a
    NaN sup."""
    scale = 1.0
    for f in fns:
        scale = np.fmax(scale, f.max_abs())
    return float(scale) if np.ndim(scale) == 0 else scale


__all__ = ["GridFunction", "max_abs_diff", "joint_scale"]
