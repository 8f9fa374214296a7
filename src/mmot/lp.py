"""Finite linear programming core for the multimarginal solver.

The discrete coupling problem is solved in its symmetric multiset form:
one variable per multiset of N support cells (a sorted N-tuple), one
mass-balance row per cell, sum_t count_j(t) x_t = N w_j.  The cost is
permutation invariant, so symmetrizing any ordered coupling gives a
multiset plan of the same cost, and a multiset plan spread over the
cyclic shifts of its tuples gives back an ordered coupling with every
slot marginal equal to w.  The dual is a single Kantorovich potential u
with sum_i u(t_i) <= cost(t) and value N sum_j u_j w_j.

The same quotient is taken by the spatial symmetries of the instance.
solve_mmot keeps the elements of the grid's hyperoctahedral group (axis
permutations and reflections k -> 1 - k) that map the support onto
itself and fix the weights and the pair matrix bitwise; bitwise, so that
the reduced LP is exactly invariant rather than nearly so (symmetry.py
finds the group and its orbits).  Averaging an optimal plan over that
group G keeps it optimal, so the LP is solved over G-invariant plans:
one row per cell orbit Q, sum_O count_Q(O) X_O = N w(Q), with one
column per multiset orbit O holding its per-orbit counts.  Those counts
depend only on the class of O, the sorted tuple of its cells' orbits, so
all orbits of a class share one column and only the cheapest can be in
an optimal basis; the others are dominated.  The pool therefore holds
one column per class, at its cheapest multiset and that multiset's cost
(Symmetry.cheapest), which leaves the optimal value unchanged.  The
orbit dual U lifts to the cell potential u(c) = U[orbit(c)]; every
multiset of a class sums the same U, and its cost is at least the
class's, so u meets all their constraints once it meets the class's.
The plan is lifted by spreading each basic class's mass evenly over the
distinct sorted images of its cheapest multiset and then over their N
cyclic shifts.  Under the trivial group a class is one multiset, and all
of this is the multiset LP above, step for step.

The engine is a revised simplex with an explicit basis inverse and
Bland's rule as a fallback once the objective stalls on degenerate
pivots, in episodes of doubling length between which the usual pricing
resumes.  A multiset column has at most N nonzeros and the directions
B^-1 a it yields are short, so each pivot's rank-one update rewrites only
the rows of the inverse where the direction is nonzero; the inverse is
refactorized once any row has taken a fixed number of updates since the
last factorization, or after a tiny pivot.  Entering columns come from a
candidate queue refreshed by full deterministic scans (partial pricing);
optimality is always confirmed by a full scan.

The simplex starts at the quantile-shift coupling in support order,
t -> (F^-1(t), F^-1(t + 1/N), ..., F^-1(t + (N-1)/N)) with F the
cumulative weight, which is optimal on the line (Colombo, De Pascale and
Di Marino, Canad. J. Math. 2015) and a feasible coupling in any
dimension.  It is piecewise constant in t, and the classes of its
pieces form a feasible point of the class LP, of no higher cost, because
the counts count_Q are those of the pieces and a class costs at most any
of its multisets.  A crash reduces that point to a basic feasible
solution of no higher cost: the class columns are placed one by one into
a basis of artificials, each on the free row of its largest entry, and a
column that depends on those already placed moves mass along the
dependency, in the direction that does not raise the cost (mass on
artificials counting first), until a column empties.  Rows left free
keep zero-level artificials, so phase 1 runs only when an artificial
carries mass, which happens only when a pointwise piece falls in a class
with no distinct cells (a weight inside the INJECTIVE_SLACK guard above 1/N).
Artificial columns carry stable negative ids so the column pool can grow
between re-optimizations without renumbering; a zero-level artificial
that no column can replace (a redundant row) pins that row's dual to
zero.

When there are more classes than the pool cap, the pool starts from the
classes of the quantile-shift pieces, and column generation prices every
ordered support tuple against the lifted potential in vectorized
two-dimensional slabs and pools the classes of the first violating
tuples in enumeration order, each at its cheapest multiset.  An empty
pricing round is an unconditional optimality certificate because the
scan is exhaustive, not sampled.  Under the cap the pool holds every
class of finite cost, a pricing scan could find nothing, and none runs:
the simplex's final full scan over the pool is the certificate.

The potential returned for the coupling problem is refined after
optimality: among all potentials tight on the basic classes of positive
mass, the minimum-norm one is selected when it stays feasible, which
makes the reported potential independent of the pivot order.  It is
solved for from the pool, one unknown per cell orbit and one equation
per class at its pooled cost.  With every finite class pooled its
feasibility is checked class by class against the pool; past the cap,
by the exhaustive ordered scan.  solve_mmot reports the potential that
solve_transport returns.
"""

from __future__ import annotations

import math

import numpy as np

from .cost import CostModel
from .errors import InsufficientSupport, NumericalBreakdown, ProblemTooLarge
from .measure import DiscreteMeasure
from .symmetry import Symmetry, symmetry_group
from .tolerances import (
    DROP_WEIGHT, FEAS_TOL, GAP_TOL, INJECTIVE_SLACK, LOST_FEASIBILITY, MARGINAL_DRIFT,
    NEGATIVE_WEIGHT, PIVOT_TOL, RATIO_TIE_ABS, RATIO_TIE_REL, REFINE_RESIDUAL, SLIVER,
    SMALL_PIVOT, STALL_DROP, STRONG_PIVOT, WEIGHT_SUM, ZERO_LEVEL,
)
from .transport import (
    PotentialVector,
    TransportPlan,
    _check_cost_mode,
    _support_recip,
    dual_excess_slabs,
    max_dual_excess,
    plan_cost,
)

_REFACTOR_EVERY = 100
_STALL_LIMIT = 256
_MAX_ITERS = 500_000
_CANDIDATES = 1024
_SCAN_CHUNK = 32_768

# pools of more multiset orbits than this start from the orbits of the
# quantile-shift pieces instead of every orbit of the support
_POOL_CAP = 1_100_000
_PRICE_BATCH = 50
# the minimum-norm refinement solves a dense (classes, orbits) system, so
# instances with more cell orbits than this keep the vertex potential
_REFINE_MAX_ORBITS = 2400


def _top_violators(red: np.ndarray, tol: float, topk: int) -> np.ndarray:
    """Ids of the topk most negative entries below -tol, most negative
    first, ties broken by id; deterministic."""
    hits = np.flatnonzero(red < -tol)
    if hits.size == 0:
        return hits
    if hits.size > topk:
        part = hits[np.argpartition(red[hits], topk - 1)[:topk]]
    else:
        part = hits
    return part[np.lexsort((part, red[part]))]


def _first_outside(ids: np.ndarray, exclude: np.ndarray):
    """The first of the ascending ids not in exclude, or None."""
    ids = ids[~np.isin(ids, exclude)]
    return int(ids[0]) if ids.size else None


def _pooled(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Mask of the codes present in the sorted code array."""
    pos = np.searchsorted(sorted_codes, codes)
    hit = pos < sorted_codes.size
    hit[hit] = sorted_codes[pos[hit]] == codes[hit]
    return hit


class _MultisetColumns:
    """Columns indexed by classes of multisets of N support cells.

    A class is a sorted N-tuple of cell orbits, stored as a row of the
    int64 array classes; its column holds how many of its slots fall in
    every cell orbit.  Each class is pooled at its cheapest multiset,
    whose sorted row of cells is the same row of members and whose pair
    sum over the reciprocal matrix is its cost (Symmetry.cheapest).  Pool
    membership is keyed by the np.ravel_multi_index code of the class
    over (R,) * N, R the number of cell orbits, kept in a sorted array.
    Row vectors given to the provider have one entry per cell orbit.
    """

    def __init__(self, recip: np.ndarray, n_marginals: int, classes: np.ndarray, sym: Symmetry):
        """classes holds sorted orbit tuples, each once, in lexicographic
        order."""
        self.n = n_marginals
        self.recip = recip
        self.sym = sym
        self.dims = (sym.reps.size,) * n_marginals
        self.classes = np.empty((0, n_marginals), dtype=np.int64)
        self.members = np.empty((0, n_marginals), dtype=np.int64)
        self.costs = np.empty(0)
        self.sorted_codes = np.empty(0, dtype=np.int64)
        self._y = None
        self._append(classes)

    def _append(self, classes: np.ndarray) -> int:
        """Pool the classes of finite cost among classes, which are not
        pooled yet; returns how many."""
        members, costs = self.sym.cheapest(classes, self.recip)
        keep = np.isfinite(costs)
        self.classes = np.concatenate([self.classes, classes[keep]])
        self.members = np.concatenate([self.members, members[keep]])
        self.costs = np.concatenate([self.costs, costs[keep]])
        codes = np.ravel_multi_index(classes[keep].T, self.dims)
        self.sorted_codes = np.concatenate([self.sorted_codes, codes])
        return int(keep.sum())

    def add(self, classes: np.ndarray) -> int:
        """Pool the finite-cost classes among the rows of classes (sorted
        orbit tuples, repeats allowed) that are not pooled yet, in code
        order; returns how many."""
        classes = np.asarray(classes, dtype=np.int64).reshape(-1, self.n)
        codes = np.sort(np.ravel_multi_index(classes.T, self.dims))
        codes = codes[np.diff(codes, prepend=-1) != 0]
        codes = codes[~_pooled(self.sorted_codes, codes)]
        added = self._append(np.stack(np.unravel_index(codes, self.dims), axis=1))
        self.sorted_codes.sort()
        return added

    def column(self, j: int) -> np.ndarray:
        return np.bincount(self.classes[j], minlength=self.dims[0]).astype(float)

    def cost(self, j: int) -> float:
        return float(self.costs[j])

    def max_abs_cost(self) -> float:
        return float(np.max(np.abs(self.costs))) if self.costs.size else 0.0

    def _used(self, y: np.ndarray, classes: np.ndarray) -> np.ndarray:
        used = y.take(classes[:, 0])
        for i in range(1, self.n):
            used += y.take(classes[:, i])
        return used

    def max_excess(self, y: np.ndarray) -> float:
        """The largest sum of y over a pooled class's slots minus its
        cost."""
        return float(np.max(self._used(y, self.classes) - self.costs))

    def begin_iteration(self, y: np.ndarray) -> None:
        self._y = y

    def reduced_for(self, phase: int, ids) -> np.ndarray:
        """Reduced costs of the pooled classes ids, an id array or a slice."""
        used = self._used(self._y, self.classes[ids])
        return self.costs[ids] - used if phase == 2 else -used

    def full_scan(self, phase, tol, topk, exclude) -> np.ndarray:
        red = self.reduced_for(phase, slice(None))
        red[exclude] = 0.0
        return _top_violators(red, tol, topk)

    def entering_bland(self, phase, tol, exclude):
        # chunked scan in id order; the first chunk with a violating id
        # outside exclude holds the globally smallest one
        P = self.classes.shape[0]
        for lo in range(0, P, _SCAN_CHUNK):
            hi = min(lo + _SCAN_CHUNK, P)
            hits = lo + np.flatnonzero(self.reduced_for(phase, slice(lo, hi)) < -tol)
            j = _first_outside(hits, exclude)
            if j is not None:
                return j
        return None

    def first_nonzero(self, w: np.ndarray, tol: float, exclude: np.ndarray):
        used = self._used(w, self.classes)
        return _first_outside(np.flatnonzero(np.abs(used) > tol), exclude)


def _cost_scale(recip: np.ndarray, n_marginals: int) -> float:
    """1 + the largest finite tuple cost the pair matrix allows; scales
    the pricing and refinement tolerances."""
    finite = recip[np.isfinite(recip)]
    peak = float(finite.max()) if finite.size else 0.0
    return 1.0 + peak * n_marginals * (n_marginals - 1) / 2.0


def price_columns(
    u: np.ndarray,
    recip: np.ndarray,
    n_marginals: int,
    *,
    tol: float,
    skip: np.ndarray,
    orbits: np.ndarray | None = None,
) -> np.ndarray:
    """Exhaustively scan all m^N ordered tuples for dual violations.

    A tuple violates when the sum of the potential u over its slots
    exceeds its pair-sum cost by more than tol.  Its class is the sorted
    tuple of its cells' orbits under the cell-orbit map orbits (u
    constant on each orbit; None means every cell is its own orbit).
    Returns the classes of the first violating tuples in enumeration
    (lexicographic) order, at most _PRICE_BATCH of them, each once, leaving out
    those whose code over (R,) * N is in the sorted array skip.  The
    cheapest multiset of a class costs no more than the tuple, so the
    class violates too.  An empty return certifies dual feasibility over
    the whole tuple space, since every slab is inspected.
    """
    n, m = n_marginals, u.size
    dims = (m if orbits is None else int(orbits.max()) + 1,) * n
    found: dict[int, np.ndarray] = {}
    for prefix, row0, excess in dual_excess_slabs(np.broadcast_to(u, (n, m)), recip):
        hits = np.argwhere(excess > tol)
        if row0:
            hits[:, 0] += row0
        for lo in range(0, hits.shape[0], _SCAN_CHUNK // n):
            part = hits[lo : lo + _SCAN_CHUNK // n]
            head = np.broadcast_to(np.array(prefix, dtype=np.int64), (part.shape[0], n - 2))
            keys = np.concatenate([head, part], axis=1)
            keys = np.sort(keys if orbits is None else orbits[keys], axis=1)
            codes = np.ravel_multi_index(keys.T, dims)
            fresh = ~_pooled(skip, codes)
            for code, key in zip(codes[fresh].tolist(), keys[fresh]):
                found.setdefault(code, key)
                if len(found) >= _PRICE_BATCH:
                    return np.array(list(found.values()))
    return np.array(list(found.values()), dtype=np.int64).reshape(-1, n)


def _exchange(Binv: np.ndarray, leave: int, d: np.ndarray) -> np.ndarray:
    """Update the basis inverse Binv in place for the column with direction
    d = B^-1 a entering at row leave; returns the rows where d is nonzero,
    the only ones rewritten."""
    Binv[leave] /= d[leave]
    # The dense update subtracts exact zeros from the rows where d is
    # exactly zero, so leaving those rows out keeps the inverse bitwise
    # equal to it; a threshold on |d| would drop small real terms.
    touched = np.flatnonzero(d)
    rows = touched[touched != leave]
    Binv[rows] -= np.outer(d[rows], Binv[leave])
    return touched


class _LostFeasibility(Exception):
    """Raised when a fresh factorization reveals that accumulated update
    error pushed the basic solution out of the feasible region."""


class _SimplexEngine:
    """Revised simplex over the class columns of a _MultisetColumns pool.

    The engine keeps an explicit basis inverse.  A pivot computes the
    direction from the entering column's nonzeros and updates only the
    rows of the inverse where that direction is nonzero, so it costs
    O(k nnz(d)) rather than O(k^2) on the sparse bases of the coupling
    LP.  Each row counts the updates it took since the last
    factorization, and the inverse is rebuilt from the exact columns once
    any row reaches refactor_every of them, or right after a tiny pivot.

    The right-hand side b is N times the orbit weights, so positive, and
    every feasible plan carries total mass 1, so both phases are bounded.
    Artificial ids are -(row + 1), never renumbered, never re-entered.
    The start basis, column ids (real or artificial, one per row), must
    be nonsingular and primal feasible; phase 1 runs only when a basic
    artificial sits at a positive level.  solve_transport passes the
    crash basis of the quantile-shift coupling (_crash_basis).
    """

    def __init__(self, provider, b: np.ndarray, initial_basis, feas_tol: float):
        self.prov = provider
        self.b = np.asarray(b, dtype=float)
        self.k = self.b.size
        self.scale = 1.0 + float(self.b.max(initial=0.0))
        self.feas_tol = feas_tol
        self.basis = np.array(initial_basis, dtype=np.int64).reshape(self.k)
        self.phase = 1
        self.refactor_every = _REFACTOR_EVERY
        try:
            self._refactor()
        except _LostFeasibility as exc:
            raise NumericalBreakdown("initial basis is primal infeasible") from exc
        art_mass = float(self.xB[self.basis < 0].sum()) if self.k else 0.0
        self.phase1_done = art_mass <= feas_tol * self.scale

    def _column(self, j: int) -> np.ndarray:
        if j < 0:
            col = np.zeros(self.k)
            col[-j - 1] = 1.0
            return col
        return self.prov.column(j)

    def _direction(self, j: int) -> np.ndarray:
        """B^-1 a_j from the nonzeros of a_j alone."""
        col = self._column(j)
        nz = np.flatnonzero(col)
        return self.Binv[:, nz] @ col[nz]

    def _cost(self, j: int, phase: int) -> float:
        if j < 0:
            return 1.0 if phase == 1 else 0.0
        return 0.0 if phase == 1 else self.prov.cost(j)

    def _basic(self) -> np.ndarray:
        """Ids of the basic real columns."""
        return self.basis[self.basis >= 0]

    def _set_phase(self, phase: int) -> None:
        self.phase = phase
        self.cB = np.array([self._cost(j, phase) for j in self.basis.tolist()])

    def _refactor(self):
        B = np.empty((self.k, self.k))
        for r, j in enumerate(self.basis.tolist()):
            B[:, r] = self._column(j)
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("basis matrix became singular") from exc
        self.row_updates = np.zeros(self.k, dtype=np.int64)
        self.xB = self.Binv @ self.b
        if self.xB.min(initial=0.0) < -LOST_FEASIBILITY * self.scale:
            raise _LostFeasibility(float(self.xB.min()))
        np.clip(self.xB, 0.0, None, out=self.xB)
        self._set_phase(self.phase)

    def _duals(self) -> np.ndarray:
        return self.cB @ self.Binv

    def _objective(self) -> float:
        return float(self.cB @ self.xB)

    def _ratio_test(self, d: np.ndarray, bland: bool):
        """Leaving row: zero-level basic artificials with a usable pivot
        leave first (at ratio zero, either pivot sign), otherwise the
        classic minimum ratio.  Ties prefer the largest pivot magnitude
        for stability, except under Bland's rule where the smallest basis
        id keeps the anti-cycling argument intact."""
        art_kick = (
            (self.basis < 0)
            & (np.abs(d) > PIVOT_TOL)
            & (self.xB <= ZERO_LEVEL)
        )
        pos = d > PIVOT_TOL
        ratios = np.full(self.k, math.inf)
        ratios[pos] = np.maximum(self.xB[pos], 0.0) / d[pos]
        ratios[art_kick] = 0.0
        best = ratios.min(initial=math.inf)
        if not math.isfinite(best):
            return None, math.inf
        cand = np.flatnonzero(ratios <= best * (1.0 + RATIO_TIE_REL) + RATIO_TIE_ABS)
        if bland:
            leave = int(cand[np.argmin(self.basis[cand])])
        else:
            mags = np.abs(d[cand])
            peak = mags.max()
            strong = cand[mags >= STRONG_PIVOT * peak]
            leave = int(strong[np.argmin(self.basis[strong])])
        return leave, float(ratios[leave])

    def _pivot(self, j_in: int, leave: int, d: np.ndarray, theta: float):
        piv = d[leave]
        self.xB -= theta * d
        self.xB[leave] = theta
        np.clip(self.xB, 0.0, None, out=self.xB)
        touched = _exchange(self.Binv, leave, d)
        self.row_updates[touched] += 1
        self.basis[leave] = j_in
        self.cB[leave] = self._cost(j_in, self.phase)
        # A tiny pivot element leaves an ill-conditioned update behind;
        # rebuilding the inverse from the exact columns right away keeps
        # the damage from compounding.
        if abs(piv) < SMALL_PIVOT or self.row_updates[touched].max() >= self.refactor_every:
            self._refactor()

    def _optimize_phase(self, phase: int) -> None:
        self._set_phase(phase)
        tol = self.feas_tol * (1.0 + (self.prov.max_abs_cost() if phase == 2 else 0.0))
        bland = False
        stall = 0
        # Bland's rule cannot cycle but can take very many pivots on a
        # large degenerate pool, so it runs in episodes that double in
        # length; once an episode outlasts Bland's longest run from any
        # basis, it ends at optimality or an improving pivot.
        episode = _STALL_LIMIT
        last_obj = self._objective()
        # candidates come from full scans, which skip basic columns, and a
        # candidate turns basic only by entering
        cand = np.empty(0, dtype=np.int64)
        for _ in range(_MAX_ITERS):
            self.prov.begin_iteration(self._duals())
            if bland:
                j = self.prov.entering_bland(phase, tol, self._basic())
                if j is None:
                    return
            else:
                j = None
                if cand.size:
                    red = self.prov.reduced_for(phase, cand)
                    keep = red < -tol
                    cand = cand[keep]
                    if cand.size:
                        j = int(cand[int(np.argmin(red[keep]))])
                if j is None:
                    cand = self.prov.full_scan(phase, tol, _CANDIDATES, self._basic())
                    if cand.size == 0:
                        return
                    j = int(cand[0])
            cand = cand[cand != j]
            d = self._direction(j)
            leave, theta = self._ratio_test(d, bland)
            if leave is None:
                raise NumericalBreakdown(
                    f"phase-{phase} objective is bounded but no pivot row qualifies"
                )
            self._pivot(j, leave, d, theta)
            obj = self._objective()
            if obj < last_obj - STALL_DROP * (1.0 + abs(last_obj)):
                stall = 0
                bland = False
            else:
                stall += 1
                if not bland and stall >= _STALL_LIMIT:
                    bland, stall = True, 0
                elif bland and stall >= episode:
                    bland, stall, episode = False, 0, 2 * episode
            last_obj = obj
        raise NumericalBreakdown(f"simplex exceeded {_MAX_ITERS} iterations")

    def _drive_out_artificials(self) -> None:
        for r in range(self.k):
            if self.basis[r] >= 0 or self.xB[r] > ZERO_LEVEL:
                continue
            j = self.prov.first_nonzero(self.Binv[r], PIVOT_TOL, self._basic())
            if j is None:
                continue
            d = self._direction(j)
            if abs(d[r]) > PIVOT_TOL:
                self._pivot(j, r, d, 0.0)

    def optimize(self) -> tuple[dict[int, float], np.ndarray, float]:
        """Run to optimality (phase 1 first if artificials still carry
        mass).  Returns the basic columns of positive level with their
        levels, the row duals and the objective."""
        restarts = 0
        while True:
            try:
                if not self.phase1_done:
                    self._optimize_phase(1)
                    if self._objective() > self.feas_tol * self.scale:
                        raise InsufficientSupport(
                            "the coupling constraints admit no nonnegative solution on "
                            "the available support"
                        )
                    self.phase1_done = True
                self._drive_out_artificials()
                self._optimize_phase(2)
                self._refactor()
                self._optimize_phase(2)
                break
            except _LostFeasibility as exc:
                restarts += 1
                if restarts > 3:
                    raise NumericalBreakdown(
                        f"basis updates kept losing feasibility ({exc.args[0]!r})"
                    ) from exc
                # Restore feasibility honestly: fall back to the
                # all-artificial basis and rerun phase 1 with tighter
                # refactoring.  Generated columns are retained.
                self.refactor_every = max(10, self.refactor_every // 4)
                self.basis = -np.arange(1, self.k + 1, dtype=np.int64)
                self.phase = 1
                self._refactor()
                self.phase1_done = False
        primal = {}
        for r in range(self.k):
            if self.basis[r] >= 0 and self.xB[r] > 0.0:
                primal[int(self.basis[r])] = float(self.xB[r])
        return primal, self._duals(), self._objective()


def _quantile_pieces(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The quantile-shift coupling of N copies of w, in support order.

    With G = N F / F(end), F the cumulative weight, cell j holds the
    positions [G_(j-1), G_j), and t in [0, 1) goes to the cells holding
    t, t + 1, ..., t + N - 1, a sorted tuple.  That tuple changes only
    where slot i crosses a cell boundary, at t = G_j - i, so the coupling
    is constant on the pieces between the breakpoints G mod 1.  Returns
    the pieces' tuples as an int64 (P, N) array and their lengths, which
    are their masses: they sum to 1 and give cell j N w_j / sum(w) in
    total count.  Breakpoints closer than SLIVER merge, and those within
    it of 1 join the next period's start, so that a cell of weight at
    most 1/N repeats in no piece.
    """
    G = n * np.cumsum(w) / w.sum()
    inner = G[:-1]
    slot = np.minimum(np.floor(inner), n - 1)
    t = inner - slot
    # slot i starts past every boundary below i; a boundary at (or within
    # SLIVER above) t = 0 moves it in the first piece
    first = np.searchsorted(inner, np.arange(n), side="left")
    order = np.argsort(t, kind="stable")
    t, slot = t[order], slot[order].astype(np.int64)
    keep = t < 1.0 - SLIVER
    t, slot = t[keep], slot[keep]
    opens = np.diff(t, prepend=0.0) > SLIVER
    starts = np.concatenate([[0.0], t[opens]])
    moves = np.zeros((starts.size, n), dtype=np.int64)
    np.add.at(moves, (np.cumsum(opens), slot), 1)
    return first + np.cumsum(moves, axis=0), np.diff(np.append(starts, 1.0))


def _crash_basis(
    prov: _MultisetColumns, b: np.ndarray, codes: np.ndarray, mass: np.ndarray
) -> list[int]:
    """A nonsingular, primal feasible start basis for the class LP with
    right-hand side b, whose basic solution costs no more than the plan
    that puts mass[p] on the class with code codes[p] (ascending) and
    meets b.

    The plan's classes are placed one by one into a basis of artificials.
    A column with an entry on a free row (one whose basic artificial is
    not in the plan) enters on the free row of its largest entry.  A
    column without one is a combination of the columns placed; mass then
    moves along that dependency until the column or one it depends on
    empties and leaves, in the direction that takes mass off the placed
    artificials or, when it moves none, does not raise the cost.  The
    classes that are not pooled (infinite cost) put their mass on the
    artificials of their rows, the only mass artificials get.  Pool ids
    are read off the sorted codes, which is valid while the pool is in
    code order: before column generation adds to it.
    """
    k = b.size
    pooled = _pooled(prov.sorted_codes, codes)
    orbits = np.stack(np.unravel_index(codes, prov.dims), axis=1)
    # level[r] is the plan mass on the basic column of row r
    level = np.zeros(k)
    np.add.at(level, orbits[~pooled].ravel(), np.repeat(mass[~pooled], prov.n))
    placed = level > 0.0
    basis = -np.arange(1, k + 1, dtype=np.int64)
    cost = np.zeros(k)
    Binv = np.eye(k)
    ids = np.searchsorted(prov.sorted_codes, codes[pooled])
    columns = zip(ids.tolist(), mass[pooled].tolist(), prov.costs[ids].tolist(), orbits[pooled])
    for j, x, c, at in columns:
        d = Binv[:, at].sum(axis=1)
        free = np.abs(d)
        free[placed] = 0.0
        leave = int(free.argmax())
        if free[leave] <= PIVOT_TOL:
            # column j is the combination d of the placed columns, so s
            # more mass on j means s d less on them: s sum(d) less on the
            # placed artificials, which decides the direction when nonzero,
            # and a cost change of s (c - cost @ d)
            d[~placed] = 0.0
            relief = d[basis < 0].sum()
            if abs(relief) > PIVOT_TOL:
                sign = math.copysign(1.0, relief)
            else:
                sign = 1.0 if c <= cost @ d else -1.0
            leave, theta = _min_ratio(level, sign * d)
            if sign < 0.0 and theta >= x:
                # j empties first and stays out
                level += x * d
                np.maximum(level, 0.0, out=level)
                continue
            level -= sign * theta * d
            np.maximum(level, 0.0, out=level)
            level[leave] = x + sign * theta
        else:
            level[leave] = x
        _exchange(Binv, leave, d)
        basis[leave], cost[leave], placed[leave] = j, c, True
    return basis.tolist()


def _min_ratio(level: np.ndarray, d: np.ndarray) -> tuple[int, float]:
    """Ratio test: the row r with d[r] > PIVOT_TOL that minimizes
    level[r] / d[r], the largest d[r] among ties, and that ratio (inf
    when no row qualifies)."""
    ratios = np.divide(level, d, out=np.full(d.size, math.inf), where=d > PIVOT_TOL)
    tied = np.flatnonzero(ratios == ratios.min())
    leave = int(tied[np.argmax(d[tied])])
    return leave, float(ratios[leave])


def _initial_pool(
    sym: Symmetry, n: int, injective: bool, start: np.ndarray
) -> tuple[np.ndarray, bool]:
    """The classes to pool first, and whether they are all of them: every
    class of the support (those holding distinct cells when injective),
    or past _POOL_CAP the classes with the ascending codes start, from
    which column generation goes on."""
    count = sym.class_count(n, injective)
    if count <= _POOL_CAP:
        return sym.classes(n, injective), True
    if injective:
        raise ProblemTooLarge(
            f"pointwise mode enumerates all {count} classes of support multisets of "
            f"size {n}, which exceeds the cap {_POOL_CAP}; coarsen the grid or use cell mode"
        )
    return np.stack(np.unravel_index(start, (sym.reps.size,) * n), axis=1), False


def solve_transport(
    weights: np.ndarray,
    cost: np.ndarray,
    n_marginals: int,
    *,
    feas_tol: float = FEAS_TOL,
    group: np.ndarray | None = None,
):
    """Solve the abstract equal-marginal coupling LP in its multiset form.

    weights is the common marginal w over m abstract points; cost is a
    symmetric (m, m) pair-interaction matrix, and a tuple costs the sum
    over its unordered slot pairs.  The LP has one column per multiset t
    of N points and one row per point j: sum_t count_j(t) x_t = N w_j.
    Its dual is a single potential u with sum_i u(t_i) <= cost(t) and
    value N sum_j u_j w_j.

    group, an int (|G|, m) array of index permutations with the identity
    as row 0, is a symmetry group of the instance: w and the pair matrix
    must be invariant under it, bitwise (only w is checked here).  The LP
    is then solved on cell orbits and classes of multisets; None means
    the trivial group.  Past _POOL_CAP classes, they are pooled by
    column generation.  Returns (atoms, u, value): the optimal ordered
    plan, which spreads each basic class's mass evenly over the distinct
    images of its cheapest multiset and each of those over its N cyclic
    shifts, the potential u as an (m,) array, and the optimal value.
    u is the minimum-norm potential tight on the plan's classes when that
    one is feasible, and the simplex's vertex dual otherwise
    (_min_norm_potential).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if (w <= 0).any():
        raise ValueError("weights must be strictly positive")
    if abs(math.fsum(w.tolist()) - 1.0) > WEIGHT_SUM:
        raise ValueError("weights must sum to one")
    m = w.size
    n = int(n_marginals)
    if n < 2:
        raise ValueError("need at least two marginals")
    recip = np.asarray(cost, dtype=float)
    if recip.shape != (m, m):
        raise ValueError(f"cost must be an ({m}, {m}) pair matrix")
    if not np.array_equal(recip, recip.T):
        raise ValueError("pair cost matrix must be symmetric")
    sym = Symmetry(_check_group(group, w))
    injective = bool(np.isinf(np.diag(recip)).all())
    if injective and w.max() > 1.0 / n + INJECTIVE_SLACK:
        raise InsufficientSupport(
            f"largest weight {w.max()!r} exceeds 1/{n}; no off-diagonal "
            f"coupling can reproduce this marginal"
        )
    # infinite-cost columns never enter the pool (phase 1 ignores costs);
    # feasibility is judged on the finite columns alone
    rows, mass = _quantile_pieces(w, n)
    # a piece's class costs at most the piece, so the crash start does too
    keys = np.ravel_multi_index(np.sort(sym.cell_orbit[rows], axis=1).T, (sym.reps.size,) * n)
    codes, inv = np.unique(keys, return_inverse=True)
    mass = np.bincount(inv.ravel(), weights=mass)
    classes, complete = _initial_pool(sym, n, injective, codes)
    prov = _MultisetColumns(recip, n, classes, sym)
    if prov.classes.shape[0] == 0:
        raise InsufficientSupport("every candidate coupling tuple has infinite cost")
    b = n * np.bincount(sym.cell_orbit, weights=w)
    basis = _crash_basis(prov, b, codes, mass)
    engine = _SimplexEngine(prov, b, basis, feas_tol)
    price_tol = feas_tol * _cost_scale(recip, n)
    while True:
        primal, y, obj = engine.optimize()
        # with every finite class pooled a pricing scan finds nothing, as
        # each class is skipped and infinite costs never violate, so the
        # simplex's full scan over the pool is the certificate; otherwise
        # every round pools at least one class, so the rounds end
        if complete:
            break
        fresh = price_columns(
            y[sym.cell_orbit], recip, n, tol=price_tol, skip=prov.sorted_codes,
            orbits=sym.cell_orbit,
        )
        if not fresh.shape[0]:
            break
        prov.add(fresh)
    idx, x, lowest = _lift_plan(primal, prov.members, sym.perms, (m,) * n)
    # lstsq rounds by row order: one equation per class, in the order of
    # its smallest sorted multiset in the plan
    ids = np.fromiter(primal, dtype=np.int64, count=len(primal))[np.argsort(lowest)]
    u = _min_norm_potential(prov, ids, y, price_tol, complete)[sym.cell_orbit]
    atoms = dict(zip(map(tuple, idx.tolist()), x.tolist()))
    return atoms, u, obj


def _min_norm_potential(
    prov: _MultisetColumns, ids: np.ndarray, y: np.ndarray, tol: float, complete: bool
) -> np.ndarray:
    """The minimum-norm orbit potential tight on the pooled classes ids,
    or the vertex potential y when it is not dual feasible within tol.

    Among the potentials tight on the optimal classes the minimum-norm
    one does not depend on the pivot order that produced the vertex,
    which stabilizes the reported potential; it is also invariant under
    the symmetry group, so it is solved for with one unknown U_Q per cell
    orbit and one equation per class of ids, at its pooled cost.
    Weighting U_Q by sqrt|Q| makes its norm the norm of the lifted
    potential.  U is orbit-constant, so an ordered tuple sums the U of
    its class and costs at least the class's cheapest multiset: with
    every finite class pooled, the pool's classes are its whole
    feasibility check, and past the cap the ordered tuples are rescanned.
    Falls back to y when there are more than _REFINE_MAX_ORBITS orbits,
    and on a residual or feasibility failure.
    """
    sym = prov.sym
    if sym.reps.size > _REFINE_MAX_ORBITS:
        return y
    tight, costs = prov.classes[ids], prov.costs[ids]
    A = np.zeros((ids.size, sym.reps.size))
    np.add.at(A, (np.repeat(np.arange(ids.size), prov.n), tight.ravel()), 1.0)
    root = np.sqrt(sym.sizes)
    sol, *_ = np.linalg.lstsq(A / root, costs, rcond=None)
    sol = sol / root
    if not np.isfinite(sol).all():
        return y
    residual = float(np.max(np.abs(A @ sol - costs)))
    if residual > REFINE_RESIDUAL * (1.0 + float(np.max(np.abs(costs)))):
        return y
    if complete:
        excess = prov.max_excess(sol)
    else:
        u = sol[sym.cell_orbit]
        excess = max_dual_excess(np.broadcast_to(u, (prov.n, u.size)), prov.recip)
    return y if excess > tol else sol


def _lift_plan(
    primal: dict[int, float], pool: np.ndarray, perms: np.ndarray, dims: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ordered plan of a basic orbit solution.

    Each basic orbit's mass x is spread evenly over its distinct sorted
    images under the group perms, (x / images) apiece, and each image's
    share over its N cyclic shifts, (share / N) apiece.  Returns the
    distinct ordered index tuples as an int64 (atoms, N) array in
    lexicographic order, their weights, and the code of each basic
    column's smallest sorted image, in the order of primal; a tuple
    reached by several shifts sums them in the order basic column,
    image, shift, from 0.0.
    Tuples are handled as base-m codes, whose order is the lexicographic
    one; shift s of code t is (t mod m^(N-s)) * m^s + t div m^(N-s).
    """
    n, m = len(dims), dims[0]
    xs = np.fromiter(primal.values(), dtype=float, count=len(primal))
    radix = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # (basic, |G|) codes of the sorted images, sorted along each row
    codes = np.sort(np.sort(perms[:, pool[list(primal)]], axis=2) @ radix, axis=0).T
    distinct = np.ones(codes.shape, dtype=bool)
    np.not_equal(codes[:, 1:], codes[:, :-1], out=distinct[:, 1:])
    counts = distinct.sum(axis=1)
    share = np.repeat(xs / counts, counts) / n
    low = radix * m  # m^(N-s) for shift s
    images = codes[distinct][:, None]
    shifted = (images % low) * (m**n // low) + images // low
    tuples, inv = np.unique(shifted.ravel(), return_inverse=True)
    x = np.bincount(inv, weights=np.repeat(share, n))
    return tuples[:, None] // radix % m, x, codes[:, 0]


def _check_group(group, w: np.ndarray) -> np.ndarray:
    """The group as an int64 permutation array, the trivial one for None."""
    ident = np.arange(w.size, dtype=np.int64)
    if group is None:
        return ident[None, :]
    perms = np.asarray(group, dtype=np.int64)
    if (
        perms.ndim != 2
        or perms.shape[1] != w.size
        or not np.array_equal(perms[0], ident)
        or not (np.sort(perms, axis=1) == ident).all()
    ):
        raise ValueError("group must hold permutations of the points, the identity first")
    if not (w[perms] == w).all():
        raise ValueError("weights are not invariant under the group")
    return perms


def solve_mmot(
    measure: DiscreteMeasure,
    model: CostModel,
    *,
    cost_mode: str = "cell",
    feas_tol: float = FEAS_TOL,
    gap_tol: float = GAP_TOL,
) -> tuple[TransportPlan, PotentialVector, float]:
    """Solve the discrete multimarginal problem for one measure.

    Returns the optimal plan, the dual potential u on the support in every
    marginal slot (a PotentialVector whose values broadcast one row), and
    the optimal value.  u is solve_transport's potential: the minimum-norm
    one tight on the optimal classes when it is feasible, the vertex dual
    otherwise.  In cell mode tuples are
    priced by the finite pairwise-separable lower bound, so diagonal
    tuples are admissible; in pointwise mode coincident tuples cost
    infinity and are excluded, which requires every cell weight to stay
    at or below 1/N (InsufficientSupport otherwise; fewer than N cells
    force a larger one).  The LP is solved on the orbits of the grid
    symmetries that fix the support, the weights and the pair matrix
    bitwise (see the module docstring).
    """
    _check_cost_mode(cost_mode)
    n = model.n_marginals
    support = measure.support()
    m = len(support)
    if m == 0:
        raise InsufficientSupport("measure has empty support")
    recip = _support_recip(model, measure.grid, support, cost_mode, measure.positions)
    w = np.array([measure.atoms[c] for c in support])
    coords = np.array(support, dtype=np.int64)
    group = symmetry_group(coords, measure.grid, w, recip)
    atoms_idx, u, value = solve_transport(w, recip, n, feas_tol=feas_tol, group=group)
    idx = np.array(list(atoms_idx), dtype=np.int64).reshape(-1, n)
    x = np.fromiter(atoms_idx.values(), dtype=float, count=len(atoms_idx))
    negative = np.flatnonzero(x < -NEGATIVE_WEIGHT)
    if negative.size:
        raise NumericalBreakdown(f"negative plan weight {float(x[negative[0]])!r}")
    keep = x > DROP_WEIGHT
    plan = TransportPlan.from_arrays(measure.grid, n, coords[idx[keep]], x[keep])
    plan.validate()
    marginal = np.bincount(idx[keep, 0], weights=x[keep], minlength=m)
    residual = float(np.max(np.abs(marginal - w)))
    if residual > MARGINAL_DRIFT:
        raise NumericalBreakdown(f"plan marginal drifts from the measure by {residual!r}")
    potentials = PotentialVector(measure.grid, coords, np.broadcast_to(u, (n, m)))
    primal = plan_cost(plan, model, cost_mode=cost_mode, positions=measure.positions)
    dual = math.fsum((potentials.values * w).ravel().tolist())
    if abs(primal - dual) > gap_tol * (1.0 + abs(primal)):
        raise NumericalBreakdown(
            f"duality gap {abs(primal - dual)!r} exceeds tolerance at the "
            f"claimed optimum (primal {primal!r}, dual {dual!r})"
        )
    return plan, potentials, primal
