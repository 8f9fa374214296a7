"""Repulsive pairwise costs and their finite cell-level lower bounds.

The pointwise cost of an N-point configuration is the sum over unordered
pairs of |x_i - x_j| ** -s (s = 1 for the Coulomb kernel); coincident
points give +inf, which is data for the solver, not an error.

The cell-level surrogate replaces each pair term by the reciprocal of the
largest distance the pair of cells allows, summed pairwise.  It is always
finite, never exceeds the pointwise cost anywhere on the cell tuple, and
grows monotonically under refinement because sup_dist shrinks.  Sums use
math.fsum, so the value is the correctly rounded true sum: permutation
invariance holds exactly, and refinement monotonicity survives in floating
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Cell, GridSpec

CellTuple = tuple[Cell, ...]


@dataclass(frozen=True)
class CostModel:
    """Pair-sum cost family: kind 'coulomb' (s = 1) or 'power' with exponent s > 0."""

    kind: str
    exponent: float
    n_marginals: int

    def __post_init__(self):
        if self.kind not in ("coulomb", "power"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.kind == "coulomb" and self.exponent != 1.0:
            raise ValueError("coulomb cost has exponent 1")
        if not self.exponent > 0:
            raise ValueError("exponent must be positive")
        if not isinstance(self.n_marginals, int) or self.n_marginals < 2:
            raise ValueError("n_marginals must be an integer >= 2")


def coulomb(n_marginals: int) -> CostModel:
    return CostModel("coulomb", 1.0, n_marginals)


def power_law(exponent: float, n_marginals: int) -> CostModel:
    return CostModel("power", float(exponent), n_marginals)


def _recip_pow(dist: float, s: float) -> float:
    # plain division for the Coulomb case keeps the value correctly rounded
    if s == 1.0:
        return 1.0 / dist
    return dist**-s


def pointwise_cost(model: CostModel, points) -> float:
    """Sum of |x_i - x_j|**-s over pairs; +inf if any two points coincide."""
    n = model.n_marginals
    if len(points) != n:
        raise ValueError(f"expected {n} points, got {len(points)}")
    s = model.exponent
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            d2 = math.fsum((a - b) * (a - b) for a, b in zip(points[i], points[j]))
            if d2 == 0.0:
                return math.inf
            terms.append(_recip_pow(math.sqrt(d2), s))
    return math.fsum(terms)


def cell_cost_lower(model: CostModel, cells: CellTuple, grid: GridSpec) -> float:
    """Finite lower bound for the cost anywhere on the product of cells.

    Each pair contributes sup_dist(cell_i, cell_j) ** -s.  Identical cells
    contribute the reciprocal of the cell diameter, so the value is finite
    even on the diagonal.
    """
    n = model.n_marginals
    if len(cells) != n:
        raise ValueError(f"expected {n} cells, got {len(cells)}")
    for c in cells:
        grid.require_cell(c)
    s = model.exponent
    side = grid.cell_side
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            acc = 0
            for ai, bi in zip(cells[i], cells[j]):
                g = abs(ai - bi) + 1
                acc += g * g
            terms.append(_recip_pow(side * math.sqrt(acc), s))
    return math.fsum(terms)


def pair_recip_matrix(model: CostModel, grid: GridSpec, coords: np.ndarray) -> np.ndarray:
    """(m, m) matrix of sup_dist(cell_i, cell_j) ** -s for support cells.

    The solver assembles tuple costs from this matrix; the diagonal holds
    the finite reciprocal cell diameter.  The squared sup gaps are summed
    one axis at a time in int64, the same integers an (m, m, d) broadcast
    of the per-axis gaps gives, without its temporaries.
    """
    c = np.asarray(coords, dtype=np.int64)
    sup_sq = np.zeros((c.shape[0], c.shape[0]), dtype=np.int64)
    gap = np.empty_like(sup_sq)
    for axis in range(c.shape[1]):
        np.subtract.outer(c[:, axis], c[:, axis], out=gap)
        np.abs(gap, out=gap)
        gap += 1
        gap *= gap
        sup_sq += gap
    del gap
    dist = sup_sq.astype(float)
    del sup_sq
    np.sqrt(dist, out=dist)
    dist *= grid.cell_side
    s = model.exponent
    if s == 1.0:
        return np.divide(1.0, dist, out=dist)
    return dist**-s


def pair_recip_matrix_points(model: CostModel, points: np.ndarray) -> np.ndarray:
    """(m, m) matrix of |p_i - p_j|**-s with +inf on the diagonal.

    Used by the pointwise cost mode, where tuples revisiting a cell have
    infinite cost and are excluded from the solver's column set.
    """
    p = np.asarray(points, dtype=float)
    d2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
    with np.errstate(divide="ignore"):
        s = model.exponent
        if s == 1.0:
            out = 1.0 / np.sqrt(d2)
        else:
            out = d2 ** (-s / 2.0)
    return out


def tuple_costs(recip: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Costs of the tuples in idx (k, N) as pair sums over a recip matrix."""
    idx = np.asarray(idx)
    k, n = idx.shape
    total = np.zeros(k)
    for i in range(n):
        for j in range(i + 1, n):
            total += recip[idx[:, i], idx[:, j]]
    return total
