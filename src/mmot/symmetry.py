"""Grid symmetries of a discretized instance and the orbits they induce.

The hyperoctahedral group of a grid is its 2^d d! axis permutations and
reflections k -> 1 - k; the reflection maps the index range
[1 - h, h] of every axis onto itself.  symmetry_group keeps the elements
that map an instance's support onto itself and fix its weights and pair
matrix bitwise, as index permutations of the support.  Symmetry holds
the orbits such a group induces on support cells and on multisets of
cells, which are the rows and columns of the reduced coupling LP in
lp.py.  A multiset orbit is represented by its lexicographically
smallest sorted image.
"""

from __future__ import annotations

import functools
import math
from itertools import permutations
from itertools import product as iter_product

import numpy as np

from .grid import GridSpec

# int64 entries per array while orbit representatives are enumerated
_ENUM_BUDGET = 1 << 20


@functools.lru_cache(maxsize=None)
def _grid_elements(
    d: int, side: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """The 2^d d! symmetries of a grid with side cells per axis, acting on
    0-based cells s and their row-major codes s @ strides.

    Element g = f d! + p, for reflection mask f and axis permutation p in
    itertools order, sends s to the cell whose axis i is s[p[i]], or
    side - 1 - s[p[i]] where the mask is set; its code is
    s @ maps[:, g] + shifts[g].  Returns (strides, maps, shifts,
    generators), the generators being the reflection of axis 0, one
    transposition and one d-cycle.  Both iterators yield the identity
    first, so element 0 is the identity.
    """
    axes = list(permutations(range(d)))
    strides = side ** np.arange(d - 1, -1, -1)
    maps, shifts = [], []
    for flips in iter_product((False, True), repeat=d):
        for order in axes:
            column = np.zeros(d, dtype=np.int64)
            column[list(order)] = np.where(flips, -strides, strides)
            maps.append(column)
            shifts.append(int(strides[list(flips)].sum()) * (side - 1))
    gens = [2 ** (d - 1) * len(axes)]
    if d > 1:
        gens.append(axes.index((1, 0) + tuple(range(2, d))))
        gens.append(axes.index(tuple(range(1, d)) + (0,)))
    maps, shifts = np.array(maps).T, np.array(shifts)
    for arr in (strides, maps, shifts):
        arr.flags.writeable = False
    return strides, maps, shifts, tuple(gens)


def symmetry_group(
    coords: np.ndarray, grid: GridSpec, weights: np.ndarray, recip: np.ndarray
) -> np.ndarray:
    """The grid symmetries an instance has, as index permutations.

    coords holds the support cells in lexicographic order.  Of the 2^d d!
    axis permutations and reflections k -> 1 - k of the grid, keeps those
    that map the support onto itself and fix the weights and the pair
    matrix bitwise.  Returns an int64 (|G|, m) array whose row g maps
    support index i to the index of g(cell i); row 0 is the identity.
    """
    lo, hi = grid.index_range
    # in 0-based indices the reflection k -> 1 - k is k -> side - 1 - k
    c = np.asarray(coords, dtype=np.int64) - lo
    m, d = c.shape
    strides, maps, shifts, gens = _grid_elements(d, hi - lo + 1)
    codes = c @ strides
    image_codes = (c @ maps + shifts).T
    perms = np.minimum(np.searchsorted(codes, image_codes), m - 1)
    kept = (codes[perms] == image_codes).all(axis=1) & (weights[perms] == weights).all(axis=1)

    def fixes_recip(p: np.ndarray) -> bool:
        return np.array_equal(recip[np.ix_(p, p)], recip)

    # The elements fixing the pair matrix form a group, so when the whole
    # group fixes support and weights a generating set decides it.
    if kept.all() and all(fixes_recip(perms[g]) for g in gens):
        return perms
    for g in np.flatnonzero(kept[1:]) + 1:
        kept[g] = fixes_recip(perms[g])
    return perms[kept]


def canonical(perms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Lexicographically smallest sorted image of every sorted row under
    the group of index permutations perms (row 0 the identity)."""
    if perms.shape[0] == 1:
        return rows
    images = np.sort(perms[:, rows], axis=2)
    codes = np.ravel_multi_index(np.moveaxis(images, 2, 0), (perms.shape[1],) * rows.shape[1])
    return images[codes.argmin(axis=0), np.arange(rows.shape[0])]


class Symmetry:
    """Orbits of support cells and of multisets under a group of index
    permutations of the support (row 0 of perms is the identity).

    Orbits are numbered in the order of their representatives, the
    smallest index in each; under the trivial group orbit j is cell j.
    """

    def __init__(self, perms: np.ndarray):
        self.perms = perms
        self.m = perms.shape[1]
        rep_of = perms.min(axis=0)
        self.reps = np.flatnonzero(rep_of == np.arange(self.m))
        self.cell_orbit = np.searchsorted(self.reps, rep_of)
        self.sizes = np.bincount(self.cell_orbit)

    def orbit_count(self, n: int, distinct: bool) -> int:
        """Number of orbits of n-multisets (n-subsets when distinct) of the
        support: by Burnside's lemma, the mean over the group of how many
        of them each element fixes."""
        if self.perms.shape[0] == 1:
            return math.comb(self.m, n) if distinct else math.comb(self.m + n - 1, n)
        ident = np.arange(self.m)
        length = np.zeros(self.perms.shape, dtype=np.int64)
        power, k = self.perms, 1
        while (length == 0).any():
            length[(power == ident) & (length == 0)] = k
            power = np.take_along_axis(self.perms, power, axis=1)
            k += 1
        total = 0
        for row in length:
            # a fixed multiset is a union of whole cycles: the generating
            # function is the product over cycles of length L of
            # (1 + x^L) for sets and 1 / (1 - x^L) for multisets
            poly = [1] + [0] * n
            cells = np.bincount(row)
            lens = np.flatnonzero(cells)
            for L, cycles in zip(lens.tolist(), (cells[lens] // lens).tolist()):
                series = [
                    math.comb(cycles, j) if distinct else math.comb(cycles + j - 1, j)
                    for j in range(n // L + 1)
                ]
                poly = [
                    sum(poly[i - L * j] * series[j] for j in range(i // L + 1))
                    for i in range(n + 1)
                ]
            total += poly[n]
        return total // self.perms.shape[0]

    def representatives(self, n: int, distinct: bool) -> np.ndarray:
        """Sorted rows of the orbit representatives of all n-multisets of
        the support (n-subsets when distinct), in lexicographic order.

        The representative of an orbit is its lexicographically smallest
        sorted image.  Its first element r is a cell-orbit representative,
        and every other element is a cell c >= r (> r when distinct) whose
        orbit representative is >= r.  Those tuples are enumerated in
        position order of the cells sorted by orbit, where they are the
        tuples starting at r's position, and the ones that are not the
        smallest of their images are dropped.  Under the trivial group the
        positions are the cells, and the rows are every sorted tuple.
        """
        order = np.argsort(self.cell_orbit, kind="stable")
        starts = np.cumsum(self.sizes) - self.sizes
        # no start position has more than comb(m + n - 2, n - 1) tuples, so
        # these blocks hold at most about _ENUM_BUDGET entries each
        per_start = math.comb(self.m + n - 2, n - 1) * n
        symmetric = self.perms.shape[0] > 1
        chunk = max(1, _ENUM_BUDGET // (self.perms.shape[0] * n))
        blocks = []
        for first in np.array_split(starts, -(-starts.size * per_start // _ENUM_BUDGET)):
            cells = order[_sorted_tuples(first, self.m, n, distinct)]
            if not symmetric:
                blocks.append(cells)
                continue
            cells.sort(axis=1)
            for a in range(0, cells.shape[0], chunk):
                part = cells[a : a + chunk]
                blocks.append(part[(canonical(self.perms, part) == part).all(axis=1)])
        reps = np.concatenate(blocks)
        return reps[np.lexsort(reps.T[::-1])] if symmetric else reps


def _sorted_tuples(first: np.ndarray, m: int, n: int, distinct: bool) -> np.ndarray:
    """All sorted n-tuples over range(m) whose first element is in first,
    in lexicographic order, as the rows of an int64 array; strictly
    increasing when distinct."""
    rows = np.asarray(first, dtype=np.int64)[:, None]
    for _ in range(n - 1):
        start = rows[:, -1] + (1 if distinct else 0)
        counts = np.maximum(m - start, 0)
        offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        nxt = np.repeat(start, counts) + offset
        rows = np.concatenate([np.repeat(rows, counts, axis=0), nxt[:, None]], axis=1)
    return rows
