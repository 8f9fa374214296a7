"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from first principles with no
imports from mmot, so a bug in the library cannot hide inside its own
test harness.  The implementations favour clarity over speed; they are
only run on small instances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# dyadic geometry


def cell_interval(index: int, level: int) -> tuple[float, float]:
    """Closed interval covered by a one-dimensional dyadic cell."""
    h = 0.5**level
    return ((index - 1) * h, index * h)


def cell_index_scalar(x: float, level: int, halfwidth: float) -> int:
    """Reference cell lookup: half-open cells, top face absorbed."""
    if not -halfwidth <= x <= halfwidth:
        raise ValueError(f"{x!r} outside [{-halfwidth}, {halfwidth}]")
    top = int(round(halfwidth * 2**level))
    if x == halfwidth:
        return top
    a = math.floor(x * 2**level) + 1
    return min(max(a, -top + 1), top)


def interval_sup_inf(lo1, hi1, lo2, hi2):
    """Largest and smallest |p - q| over p in [lo1,hi1], q in [lo2,hi2]."""
    sup = max(hi1 - lo2, hi2 - lo1)
    inf = max(lo1 - hi2, lo2 - hi1, 0.0)
    return sup, inf


def box_sup_dist(cells_a, cells_b, level: int) -> float:
    """Largest Euclidean distance between two axis-aligned dyadic boxes."""
    total = 0.0
    for a, b in zip(cells_a, cells_b):
        la, ha = cell_interval(a, level)
        lb, hb = cell_interval(b, level)
        sup, _ = interval_sup_inf(la, ha, lb, hb)
        total += sup * sup
    return math.sqrt(total)


def box_inf_dist(cells_a, cells_b, level: int) -> float:
    """Smallest Euclidean distance between two axis-aligned dyadic boxes."""
    total = 0.0
    for a, b in zip(cells_a, cells_b):
        la, ha = cell_interval(a, level)
        lb, hb = cell_interval(b, level)
        _, inf = interval_sup_inf(la, ha, lb, hb)
        total += inf * inf
    return math.sqrt(total)


def pairwise_gap_sq(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared extremal gaps, in lattice units, for every pair of cells.

    coords is an (m, d) integer array of same-level cell indices.  Returns
    (sup_sq, inf_sq) as (m, m) int64 arrays; multiply sqrt by the cell side
    to recover distances.  Kept in integer arithmetic so cross-level
    comparisons stay exact.
    """
    c = np.asarray(coords, dtype=np.int64)
    delta = np.abs(c[:, None, :] - c[None, :, :])
    sup = delta + 1
    inf = np.maximum(delta - 1, 0)
    return (sup * sup).sum(axis=2), (inf * inf).sum(axis=2)


def pairwise_interaction(points, s: float) -> float:
    """Sum of |x_i - x_j|^(-s) over unordered pairs; inf on coincidence."""
    pts = [np.asarray(p, dtype=float) for p in points]
    total = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = float(np.linalg.norm(pts[i] - pts[j]))
            if d == 0.0:
                return math.inf
            total += d ** (-s)
    return total


# ---------------------------------------------------------------------------
# dense two-phase tableau simplex with Bland's rule
#
# Small, slow, and boring on purpose: a full tableau is carried around and
# every pivot uses Bland's anti-cycling rule, so the only failure mode is
# arithmetic noise.  Used to cross-check the revised-simplex engine on
# random instances with a few hundred columns.


def _tableau_pivot(T, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]


def _tableau_run(T, basis, ncols, tol):
    while True:
        col = -1
        for j in range(ncols):
            if T[-1, j] < -tol:
                col = j
                break
        if col < 0:
            return True
        row, best = -1, math.inf
        for r in range(T.shape[0] - 1):
            if T[r, col] > tol:
                ratio = T[r, -1] / T[r, col]
                if ratio < best - 1e-12 or (
                    abs(ratio - best) <= 1e-12 and (row < 0 or basis[r] < basis[row])
                ):
                    row, best = r, ratio
        if row < 0:
            return False
        _tableau_pivot(T, row, col)
        basis[row] = col


def tableau_simplex(A, b, c, tol: float = 1e-9):
    """Minimize c @ x subject to A x = b, x >= 0.

    Returns (status, x, objective) with status in {"optimal",
    "infeasible", "unbounded"}.
    """
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    k, ncols = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1 tableau: [A | I | b] with artificial costs
    T = np.zeros((k + 1, ncols + k + 1))
    T[:k, :ncols] = A
    T[:k, ncols : ncols + k] = np.eye(k)
    T[:k, -1] = b
    basis = list(range(ncols, ncols + k))
    T[-1, :ncols] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    if not _tableau_run(T, basis, ncols + k, tol):
        raise RuntimeError("phase 1 cannot be unbounded")
    if -T[-1, -1] > tol * (1.0 + abs(b).max(initial=0.0)):
        return "infeasible", None, math.inf

    # pivot residual artificials out on any admissible column
    for r in range(k):
        if basis[r] >= ncols:
            for j in range(ncols):
                if abs(T[r, j]) > tol:
                    _tableau_pivot(T, r, j)
                    basis[r] = j
                    break

    T[-1, :] = 0.0
    T[-1, :ncols] = c
    for r in range(k):
        if basis[r] < ncols:
            T[-1] -= c[basis[r]] * T[r]
    T[:, ncols : ncols + k] = 0.0
    if not _tableau_run(T, basis, ncols, tol):
        return "unbounded", None, -math.inf

    x = np.zeros(ncols)
    for r in range(k):
        if basis[r] < ncols:
            x[basis[r]] = T[r, -1]
    return "optimal", x, float(c @ x)


# ---------------------------------------------------------------------------
# brute-force vertex enumeration for tiny equality-form LPs


def enumerate_vertices(A, b, tol: float = 1e-9):
    """All basic feasible solutions of {x >= 0 : A x = b}, tiny LPs only."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    k, ncols = A.shape
    rank = np.linalg.matrix_rank(A)
    seen = []
    for cols in itertools.combinations(range(ncols), rank):
        sub = A[:, cols]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        xs, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.linalg.norm(sub @ xs - b) > tol:
            continue
        if xs.min(initial=0.0) < -tol:
            continue
        x = np.zeros(ncols)
        x[list(cols)] = np.clip(xs, 0.0, None)
        if not any(np.allclose(x, v, atol=1e-8) for v in seen):
            seen.append(x)
    return seen


def min_over_vertices(A, b, c, tol: float = 1e-9) -> float:
    """Optimal value of min c @ x over {x >= 0 : A x = b} by enumeration."""
    verts = enumerate_vertices(A, b, tol)
    if not verts:
        raise RuntimeError("no basic feasible solution found")
    return min(float(np.asarray(c) @ v) for v in verts)


def coupling_lp(weights, cost_of_tuple, n: int):
    """Equality-form LP for the equal-marginal coupling problem.

    Columns are all m^n index tuples with finite cost.  Rows are one mass
    constraint per (marginal, point), dropping the last point of every
    marginal after the first so the system has full row rank.  Returns
    (A, b, c, tuples).
    """
    w = np.asarray(weights, dtype=float)
    m = w.size
    tuples = []
    costs = []
    for t in itertools.product(range(m), repeat=n):
        v = cost_of_tuple(t)
        if math.isfinite(v):
            tuples.append(t)
            costs.append(v)
    rows = []
    rhs = []
    for i in range(n):
        for p in range(m):
            if i > 0 and p == m - 1:
                continue
            rows.append([1.0 if t[i] == p else 0.0 for t in tuples])
            rhs.append(w[p])
    return np.asarray(rows), np.asarray(rhs), np.asarray(costs), tuples


# ---------------------------------------------------------------------------
# one-dimensional quantile-shift coupling
#
# On the line, repulsive pair costs are minimized by the coupling that
# sends t in [0, 1) to (F^-1(t), F^-1(t + 1/N), ..., F^-1(t + (N-1)/N)),
# arguments taken mod 1 (Colombo, De Pascale and Di Marino, Canad. J.
# Math. 2015; Seidl's strictly correlated electrons, PRA 1999).  For a
# measure on finitely many ordered points the coupling is piecewise
# constant in t, so it is an exact finite plan and scales to any m.


def quantile_shift_plan(weights, n: int) -> dict[tuple[int, ...], float]:
    """The quantile-shift coupling of N copies of the measure with the
    given weights on points 0 < 1 < ... < m-1, as {index tuple: mass}."""
    w = np.asarray(weights, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(w)])
    shifts = np.arange(n) / n
    breaks = np.concatenate([(cum[None, :] - shifts[:, None]).ravel() % 1.0, [0.0, 1.0]])
    breaks = np.unique(breaks)
    plan: dict[tuple[int, ...], float] = {}
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        t = 0.5 * (lo + hi)
        idx = np.searchsorted(cum, (t + shifts) % 1.0, side="right") - 1
        key = tuple(int(v) for v in np.clip(idx, 0, w.size - 1))
        plan[key] = plan.get(key, 0.0) + float(hi - lo)
    return plan


def quantile_shift_value(weights, pair_cost, n: int) -> float:
    """Cost of the quantile-shift coupling under a pair cost on indices."""
    return math.fsum(
        mass * math.fsum(pair_cost(t[a], t[b]) for a in range(n) for b in range(a + 1, n))
        for t, mass in quantile_shift_plan(weights, n).items()
    )
