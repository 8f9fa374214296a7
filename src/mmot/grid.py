"""Dyadic cell geometry on a bounded cubic window.

A grid at level n tiles the window [-R, R]^d with half-open cells of side
2**-n.  Along each axis the cell with integer index a covers
[(a - 1) / 2**n, a / 2**n); valid indices run from -R * 2**n + 1 up to
R * 2**n, and points on the upper window boundary belong to the topmost
cell.

Extremal distances between two same-level cells are assembled from integer
lattice gaps: along one axis the farthest pair of closed-cell endpoints is
|da| + 1 lattice units apart and the nearest pair max(|da| - 1, 0), where
da is the index difference.  Squaring and summing these integers is exact,
so the only rounding in sup_dist / inf_dist happens in one final square
root.  That makes refinement comparisons (children never farther apart
than parents, never closer than parents allow) exact, not approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import PointOutsideWindow
from .tolerances import GRID_INTEGRAL

Cell = tuple[int, ...]


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid description: refinement level, window halfwidth, dimension."""

    level: int
    window_halfwidth: float
    dimension: int = 3

    def __post_init__(self):
        if not isinstance(self.level, int) or self.level < 0:
            raise ValueError("level must be a nonnegative integer")
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not self.window_halfwidth > 0:
            raise ValueError("window_halfwidth must be positive")
        half = self.window_halfwidth * 2**self.level
        if abs(half - round(half)) > GRID_INTEGRAL or round(half) < 1:
            raise ValueError(
                "window_halfwidth * 2**level must be a positive integer "
                f"(got {half!r})"
            )

    @property
    def cell_side(self) -> float:
        return 2.0**-self.level

    @property
    def half_cells(self) -> int:
        """Number of cells per axis between 0 and the window boundary."""
        return int(round(self.window_halfwidth * 2**self.level))

    @property
    def index_range(self) -> tuple[int, int]:
        """Inclusive (lowest, highest) valid per-axis cell index."""
        return (1 - self.half_cells, self.half_cells)

    def contains_cell(self, cell: Cell) -> bool:
        lo, hi = self.index_range
        return len(cell) == self.dimension and all(lo <= a <= hi for a in cell)

    def require_cell(self, cell: Cell) -> None:
        if not self.contains_cell(cell):
            raise ValueError(f"cell {cell!r} is not a valid index for {self}")

    def cell_low(self, cell: Cell) -> tuple[float, ...]:
        side = self.cell_side
        return tuple((a - 1) * side for a in cell)

    def cell_high(self, cell: Cell) -> tuple[float, ...]:
        side = self.cell_side
        return tuple(a * side for a in cell)

    def cell_center(self, cell: Cell) -> tuple[float, ...]:
        side = self.cell_side
        return tuple((a - 0.5) * side for a in cell)

    def all_cells(self):
        """Iterate every cell index in the window in lexicographic order."""
        lo, hi = self.index_range
        return product(range(lo, hi + 1), repeat=self.dimension)

    def refined(self, extra_levels: int = 1) -> "GridSpec":
        return GridSpec(self.level + extra_levels, self.window_halfwidth, self.dimension)


def cell_of(point, grid: GridSpec) -> Cell:
    """Map a point to the half-open cell containing it.

    Per axis the index is floor(x * 2**level) + 1; a point sitting exactly
    on the upper window boundary is absorbed into the topmost cell so the
    closed window is covered.  Raises PointOutsideWindow otherwise.
    """
    if len(point) != grid.dimension:
        raise ValueError(
            f"point has dimension {len(point)}, grid expects {grid.dimension}"
        )
    scale = 2.0**grid.level
    hi = grid.half_cells
    out = []
    for x in point:
        t = float(x) * scale
        if not -hi <= t <= hi:
            raise PointOutsideWindow(
                f"coordinate {x!r} outside window halfwidth {grid.window_halfwidth}"
            )
        a = math.floor(t) + 1
        if a > hi:
            a = hi
        out.append(int(a))
    return tuple(out)


def _check_pair(a: Cell, b: Cell, grid: GridSpec) -> None:
    grid.require_cell(a)
    grid.require_cell(b)


def sup_dist(a: Cell, b: Cell, grid: GridSpec) -> float:
    """Largest Euclidean distance between points of the two closed cells."""
    _check_pair(a, b, grid)
    acc = 0
    for ai, bi in zip(a, b):
        g = abs(ai - bi) + 1
        acc += g * g
    return grid.cell_side * math.sqrt(acc)


def inf_dist(a: Cell, b: Cell, grid: GridSpec) -> float:
    """Smallest Euclidean distance between points of the two closed cells.

    Zero for identical and for edge- or corner-touching cells.
    """
    _check_pair(a, b, grid)
    acc = 0
    for ai, bi in zip(a, b):
        g = abs(ai - bi) - 1
        if g > 0:
            acc += g * g
    return grid.cell_side * math.sqrt(acc)


def parent(cell: Cell) -> Cell:
    """Index of the cell one level coarser containing this cell."""
    return tuple((a + 1) // 2 for a in cell)


def children(cell: Cell) -> list[Cell]:
    """The 2**d cells one level finer that tile this cell, in lex order."""
    return [tuple(c) for c in product(*[(2 * a - 1, 2 * a) for a in cell])]

