"""Grid symmetries of a discretized instance and the orbits they induce.

The hyperoctahedral group of a grid is its 2^d d! axis permutations and
reflections k -> 1 - k; the reflection maps the index range
[1 - h, h] of every axis onto itself.  symmetry_group keeps the elements
that map an instance's support onto itself and fix its weights and pair
matrix bitwise, as index permutations of the support.  Symmetry holds
the orbits such a group induces on support cells, which are the rows of
the reduced coupling LP in lp.py, and the classes of multisets, which
are its columns.

The class of a multiset is the sorted tuple of its cells' orbits.  In
the reduced LP a multiset's column counts its cells in each orbit, so
every multiset of a class has the same column, and only the cheapest can
be in an optimal basis: the others are dominated.  A class is therefore
pooled once, at its cheapest multiset (Symmetry.cheapest), and its
dual constraint, the lifted potential summed over the class's orbits
against that minimum cost, stands for the constraints of every multiset
in it.
"""

from __future__ import annotations

import functools
import math
from itertools import permutations
from itertools import product as iter_product

import numpy as np

from .cost import tuple_costs
from .grid import GridSpec

# int64 entries per array while the members of classes are enumerated
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




class Symmetry:
    """Orbits of support cells under a group of index permutations of the
    support (row 0 of perms is the identity), and the classes of
    multisets they induce.

    Orbits are numbered in the order of their representatives, the
    smallest index in each; under the trivial group orbit j is cell j.
    The class of a multiset of cells is the sorted tuple of their
    orbits.
    """

    def __init__(self, perms: np.ndarray):
        self.perms = perms
        rep_of = perms.min(axis=0)
        self.reps = np.flatnonzero(rep_of == np.arange(perms.shape[1]))
        self.cell_orbit = np.searchsorted(self.reps, rep_of)
        self.sizes = np.bincount(self.cell_orbit)
        # orbit q holds the cells by_orbit[starts[q] : starts[q] + sizes[q]]
        self.by_orbit = np.argsort(self.cell_orbit, kind="stable")
        self.starts = np.cumsum(self.sizes) - self.sizes

    def class_count(self, n: int, distinct: bool) -> int:
        """Number of classes of n-multisets of the support, or of those
        classes that hold an n-subset when distinct: the sorted n-tuples
        of orbits, using no orbit more times than it has cells when
        distinct."""
        r = self.reps.size
        if not distinct:
            return math.comb(r + n - 1, n)
        # the coefficient of x^n in the product over orbits Q of
        # 1 + x + ... + x^|Q|; k orbits of size s give
        # (1 - x^(s + 1))^k / (1 - x)^k
        poly = [1] + [0] * n
        for s, k in enumerate(np.bincount(self.sizes).tolist()):
            if k == 0:
                continue
            factor = [
                sum(
                    (-1) ** i * math.comb(k, i) * math.comb(j - i * (s + 1) + k - 1, k - 1)
                    for i in range(j // (s + 1) + 1)
                )
                for j in range(n + 1)
            ]
            poly = [sum(poly[i] * factor[j - i] for i in range(j + 1)) for j in range(n + 1)]
        return poly[n]

    def classes(self, n: int, distinct: bool) -> np.ndarray:
        """Every class of n-multisets of the support (those that hold an
        n-subset when distinct) as the sorted rows of an int64 array over
        range(R), R the number of orbits, in lexicographic order.  Under
        the trivial group these are the sorted n-tuples of cells
        (strictly increasing when distinct)."""
        r = self.reps.size
        rows = np.arange(r, dtype=np.int64)[:, None]
        run = np.ones(r, dtype=np.int64)
        for _ in range(n - 1):
            last = rows[:, -1]
            # when distinct, orbit q repeats at most sizes[q] times
            start = last + (run >= self.sizes[last]) if distinct else last
            counts = r - start
            offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            nxt = np.repeat(start, counts) + offset
            if distinct:
                run = np.where(nxt == np.repeat(last, counts), np.repeat(run, counts) + 1, 1)
            rows = np.concatenate([np.repeat(rows, counts, axis=0), nxt[:, None]], axis=1)
        return rows

    def cheapest(self, classes: np.ndarray, recip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cheapest multiset of every class, as its sorted row of cells,
        and its cost, the pair sum over the reciprocal matrix recip.

        Every multiset of class (Q1, ..., QN) has an image whose first
        cell is the representative of Q1, since the group maps Q1 onto
        itself, and images cost the same when recip is invariant.  So the
        minimum is taken over rep(Q1) x Q2 x ... x QN, enumerated in
        blocks of about _ENUM_BUDGET entries; ties go to the first in that
        order.  Under the trivial group each class has one member.
        """
        classes = np.asarray(classes, dtype=np.int64)
        k, n = classes.shape
        counts = np.prod(self.sizes[classes[:, 1:]], axis=1)
        ends = np.cumsum(counts)
        rows = np.empty((k, n), dtype=np.int64)
        costs = np.empty(k)
        lo = 0
        while lo < k:
            done = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _ENUM_BUDGET // n, side="right")))
            part, cnt = classes[lo:hi], counts[lo:hi]
            heads = np.cumsum(cnt) - cnt
            seg = np.repeat(np.arange(hi - lo), cnt)
            offset = np.arange(ends[hi - 1] - done) - heads[seg]
            cells = np.empty((offset.size, n), dtype=np.int64)
            for i in range(n - 1, 0, -1):
                q = part[seg, i]
                size = self.sizes[q]
                cells[:, i] = self.by_orbit[self.starts[q] + offset % size]
                offset //= size
            cells[:, 0] = self.reps[part[seg, 0]]
            cost = tuple_costs(recip, cells)
            low = np.minimum.reduceat(cost, heads)
            hits = np.flatnonzero(cost == np.repeat(low, cnt))
            rows[lo:hi] = np.sort(cells[hits[np.searchsorted(hits, heads)]], axis=1)
            costs[lo:hi] = low
            lo = hi
        return rows, costs
