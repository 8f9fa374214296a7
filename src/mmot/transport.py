"""Transport plans, dual potentials, and the checks tying them together.

A TransportPlan couples N copies of one DiscreteMeasure: atoms are
N-tuples of cells with positive weights, every coordinate marginal
reproducing the measure.  A PotentialVector holds the dual function of
every marginal on one set of cells, as arrays: the sorted cells and an
(N, cells) table of values.  verify_duality packages the full
primal-dual audit (objective gap, complementary slackness, an exhaustive
dual feasibility rescan, diagonal clearance, and an a priori sup-norm
bound on the symmetrized potential) into a DualityReport; a figure that a
non-finite potential value touches is NaN or infinite, never dropped.

A plan's atoms dict has one array view, TransportPlan.arrays: the cells as
an int64 (atoms, N, d) array and the weights as float64, in sorted atom
order, built once per plan (solve_mmot and load_plan hand it over ready).
Validation, marginals, pricing, the slackness check, the diagonal
clearance, the potential bound and the plan file all run on that view
with whole-array operations (one slot-gap pass per plan serves both the
clearance and the bound).  Results stay bitwise those of pricing one
atom at a time: pair and axis terms are evaluated by the same scalar
functions, once per distinct value; sums of three or more terms per atom
stay math.fsum (up to two, one IEEE addition is the correctly rounded
sum); marginals add weights in sorted atom order (np.bincount); the plan
total is math.fsum of w * c.  The dual rescan walks every ordered support
tuple in row blocks of bounded size (dual_excess_slabs), the same kernel
that prices columns in lp.py.

swap_improve is the constructive rearrangement that moves plan mass off
the diagonal: restrict the plan to N pairwise disjoint product
neighborhoods, equalize the restricted masses, and reassemble the pieces
as cyclically shifted products of their slot marginals.  Marginals are
preserved by construction; the cost change is reported, not promised.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from itertools import combinations
from itertools import product as iter_product

import numpy as np

from .cost import (
    CellTuple,
    CostModel,
    _recip_pow,
    pair_recip_matrix,
    pair_recip_matrix_points,
    pointwise_cost,
)
from .errors import (
    DimensionMismatch,
    EmptyRestriction,
    NegativeWeight,
    NoOffDiagonalSupport,
    NormalizationError,
    NumericalBreakdown,
    OverlappingNeighborhoods,
    ParseError,
)
from .grid import Cell, GridSpec
from .measure import DiscreteMeasure, _parse_header, _strip_comment
from .tolerances import BOUND_SLACK, FILE_SUM, PLAN_TOL, SWAP_DROP

_HEADER_PLAN = "mmot-plan v1"
_HEADER_POTENTIALS = "mmot-potentials v1"


@dataclass(frozen=True)
class TransportPlan:
    """Weighted N-tuples of cells with a common per-slot marginal.

    atoms is the plan; `arrays` is its array view, built on first use and
    kept, so atoms must not change after a plan is made.
    """

    grid: GridSpec
    n_marginals: int
    atoms: dict[CellTuple, float]

    @classmethod
    def from_arrays(
        cls, grid: GridSpec, n_marginals: int, cells: np.ndarray, weights: np.ndarray
    ) -> "TransportPlan":
        """The plan of distinct atoms given as an int (atoms, N, d) cell
        array and their weights, in any order; its array view is these
        arrays in sorted atom order."""
        cells = np.asarray(cells, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        flat = cells.reshape(cells.shape[0], -1)
        order = np.lexsort(flat.T[::-1])
        cells, weights = cells[order], weights[order]
        keys = [tuple(map(tuple, atom)) for atom in cells.tolist()]
        plan = cls(grid, n_marginals, dict(zip(keys, weights.tolist())))
        vars(plan)["arrays"] = (cells, weights)
        return plan

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(cells, weights): the atoms as an int64 (atoms, N, d) array of
        cell indices and a float64 array of weights, in sorted atom order.
        Raises ValueError for an atom without N cells of the grid's
        dimension."""
        keys = sorted(self.atoms)
        shape = (len(keys), self.n_marginals, self.grid.dimension)
        try:
            cells = np.array(keys, dtype=np.int64) if keys else np.empty(shape, np.int64)
        except (TypeError, ValueError):  # ragged atoms
            cells = None
        if cells is None or cells.shape != shape:
            n, d = shape[1:]
            bad = next(
                (k for k in keys
                 if len(k) != n or any(not isinstance(c, tuple) or len(c) != d for c in k)),
                None,
            )
            if bad is None:
                raise ValueError("plan atoms must hold integer cell indices")
            raise ValueError(f"atom {bad!r} does not have {n} slots of dimension {d}")
        return cells, np.array([self.atoms[k] for k in keys], dtype=float)

    @functools.cached_property
    def cell_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(cells, inv): the distinct cells of the array view in sorted
        order, as an int64 (cells, d) array, and the (atoms, N) position
        of every atom's cells among them."""
        cells = self.arrays[0]
        uniq, inv, _ = _unique_rows(cells.reshape(-1, cells.shape[2]))
        return uniq, inv.reshape(cells.shape[:2])

    def support(self) -> list[CellTuple]:
        return sorted(self.atoms)

    def total_mass(self) -> float:
        return math.fsum(self.atoms.values())

    @functools.cached_property
    def _slot_gaps(self) -> np.ndarray:
        """Smallest squared slot gap of every atom of the array view, in
        lattice units: the minimum over its slot pairs of
        sum_k max(|a_k - b_k| - 1, 0)^2 as int64, so that the pair's
        inf_dist is cell_side * sqrt(gap).  ValueError for a cell the grid
        does not hold."""
        cells = self.arrays[0]
        _require_cells(self.grid, cells)
        gap_sq = np.full(cells.shape[0], np.iinfo(np.int64).max)
        for i, j in combinations(range(cells.shape[1]), 2):
            g = np.maximum(np.abs(cells[:, i] - cells[:, j]) - 1, 0)
            np.minimum(gap_sq, (g * g).sum(axis=1), out=gap_sq)
        return gap_sq

    def _marginal_arrays(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, weights): the slot's cells as sorted positions in
        cell_index, and their weights, each summed in sorted atom order."""
        uniq, inv = self.cell_index
        ids = np.flatnonzero(np.bincount(inv[:, slot], minlength=uniq.shape[0]))
        sums = np.bincount(inv[:, slot], weights=self.arrays[1], minlength=uniq.shape[0])
        return ids, sums[ids]

    def marginal(self, slot: int) -> dict[Cell, float]:
        """The slot's marginal, sorted by cell; each cell's weight is summed
        in sorted atom order."""
        ids, sums = self._marginal_arrays(slot)
        return dict(zip(map(tuple, self.cell_index[0][ids].tolist()), sums.tolist()))

    def validate(self) -> None:
        """ValueError unless every atom lies on the grid with a positive
        weight, the mass is one and the slot marginals agree, all to
        PLAN_TOL."""
        cells, w = self.arrays
        _require_cells(self.grid, cells)
        nonpositive = np.flatnonzero(~(w > 0))
        if nonpositive.size:
            i = int(nonpositive[0])
            raise ValueError(f"atom {_atom_key(cells[i])!r} has nonpositive weight {float(w[i])!r}")
        if abs(self.total_mass() - 1.0) > PLAN_TOL:
            raise ValueError(f"plan mass {self.total_mass()!r} deviates from 1 beyond {PLAN_TOL}")
        uniq, inv = self.cell_index
        ref = np.bincount(inv[:, 0], weights=w, minlength=uniq.shape[0])
        for slot in range(1, self.n_marginals):
            marg = np.bincount(inv[:, slot], weights=w, minlength=uniq.shape[0])
            off = np.flatnonzero(np.abs(ref - marg) > PLAN_TOL)
            if off.size:
                raise ValueError(
                    f"marginal {slot} deviates from marginal 0 at cell "
                    f"{tuple(uniq[off[0]].tolist())!r}"
                )


def _atom_key(atom: np.ndarray) -> CellTuple:
    """The dict key of one (N, d) atom row."""
    return tuple(map(tuple, atom.tolist()))


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct, inv, repeat) for a 2-D integer array: its distinct rows
    in lexicographic order, each row's position among them, and the mask
    of rows equal to an earlier row."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inv = np.empty(rows.shape[0], dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    # lexsort is stable: of equal rows the earliest comes first
    repeat = np.empty(rows.shape[0], dtype=bool)
    repeat[order] = ~new
    return ranked[new], inv, repeat


def _outside(grid: GridSpec, cells: np.ndarray) -> np.ndarray:
    """Mask of the cells of an (..., d) integer array outside the window."""
    lo, hi = grid.index_range
    return ((cells < lo) | (cells > hi)).any(axis=-1)


def _require_cells(grid: GridSpec, cells: np.ndarray) -> None:
    """grid.require_cell for every cell of an (..., d) integer array."""
    bad = _outside(grid, cells)
    if bad.any():
        grid.require_cell(tuple(cells[bad][0].tolist()))


def plan_cost(
    plan: TransportPlan,
    model: CostModel,
    *,
    cost_mode: str = "cell",
    positions: dict[Cell, tuple[float, ...]] | None = None,
) -> float:
    """Total plan cost; 'cell' prices atoms by the finite cell lower bound,
    'pointwise' by the kernel at stored positions (cell centers if absent)."""
    _check_cost_mode(cost_mode)
    return _total_cost(plan.arrays[1], _atom_costs(plan, model, cost_mode, positions))


def _atom_costs(plan, model, cost_mode, positions) -> np.ndarray:
    """Cost of every plan atom, in sorted atom order, bitwise equal to
    cell_cost_lower or pointwise_cost of the atom."""
    n = model.n_marginals
    cells, _w = plan.arrays
    if cells.shape[1] != n:
        raise ValueError(f"expected {n} cells, got {cells.shape[1]}")
    pairs = list(combinations(range(n), 2))
    if cost_mode == "cell":
        _require_cells(plan.grid, cells)
        sup_sq = np.stack(
            [((np.abs(cells[:, i] - cells[:, j]) + 1) ** 2).sum(axis=1) for i, j in pairs],
            axis=1,
        )
        return _fsum_rows(_pair_terms(sup_sq, plan.grid.cell_side, model.exponent))
    pts = _atom_points(plan, positions)
    d2 = np.empty((cells.shape[0], len(pairs)))
    for k, (i, j) in enumerate(pairs):
        diff = pts[:, i] - pts[:, j]
        d2[:, k] = _fsum_rows(diff * diff)
    coincident = (d2 == 0.0).any(axis=1)
    costs = _fsum_rows(_pair_terms(np.where(d2 == 0.0, 1.0, d2), 1.0, model.exponent))
    costs[coincident] = math.inf
    return costs


def _pair_terms(sq: np.ndarray, scale: float, s: float) -> np.ndarray:
    """_recip_pow(scale * sqrt(q), s) for every entry q of sq, the pair
    term of cell_cost_lower (scale = cell side, q = squared sup gap) and of
    pointwise_cost (scale = 1, q = squared distance).  The scalar function
    runs once per distinct value."""
    vals, inv = np.unique(sq, return_inverse=True)
    table = np.array([_recip_pow(scale * math.sqrt(q), s) for q in vals.tolist()], dtype=float)
    return table[inv.reshape(sq.shape)]


def _fsum(values) -> float:
    """math.fsum, but NaN where +inf meets -inf or a partial sum overflows
    (math.fsum raises there)."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


def _fsum_rows(terms: np.ndarray) -> np.ndarray:
    """_fsum of every row of a 2-D array.  Up to two terms one IEEE
    addition is already the correctly rounded sum."""
    if terms.shape[1] == 1:
        return terms[:, 0].copy()
    if terms.shape[1] == 2:
        return terms[:, 0] + terms[:, 1]
    return np.fromiter(map(_fsum, terms.tolist()), dtype=float, count=terms.shape[0])


def _total_cost(weights: np.ndarray, costs: np.ndarray) -> float:
    if np.isinf(costs).any():
        return math.inf
    return math.fsum((weights * costs).tolist())


def _atom_points(plan, positions) -> np.ndarray:
    """(atoms, N, d) float positions of the atoms' cells: stored positions
    where given, cell centers elsewhere."""
    uniq, inv = plan.cell_index
    table = np.array(
        [_point_for(plan.grid, c, positions) for c in map(tuple, uniq.tolist())], dtype=float
    ).reshape(uniq.shape)
    return table[inv]


def _point_for(grid, cell, positions):
    if positions is not None and cell in positions:
        return positions[cell]
    return grid.cell_center(cell)


def _check_cost_mode(cost_mode: str) -> None:
    if cost_mode not in ("cell", "pointwise"):
        raise ValueError(f"cost_mode must be 'cell' or 'pointwise', got {cost_mode!r}")


@dataclass(frozen=True)
class PotentialVector:
    """The dual potential of every marginal on one set of cells.

    cells is an int64 (k, d) array of distinct cells in lexicographic
    order and values a float64 (N, k) array whose row i holds slot i's
    potential at those cells.  solve_mmot hands back one potential u for
    every slot, as a read-only broadcast view of one row.
    """

    grid: GridSpec
    cells: np.ndarray
    values: np.ndarray

    @property
    def n_marginals(self) -> int:
        return self.values.shape[0]

    def value(self, slot: int, cell: Cell) -> float:
        pos = int(self._positions(np.array([cell], dtype=np.int64))[0])
        if pos < 0:
            raise DimensionMismatch(f"potential {slot} has no value at cell {cell!r}")
        return float(self.values[slot, pos])

    def _positions(self, cells: np.ndarray) -> np.ndarray:
        """The position in self.cells of every row of an int64 (q, d) cell
        array, -1 for a cell it does not hold."""
        k = self.cells.shape[0]
        inv = _unique_rows(np.concatenate([self.cells, cells]))[1]
        where = np.full(k + cells.shape[0], -1)
        where[inv[:k]] = np.arange(k)
        return where[inv[k:]]


def _symmetric_sup(potentials: PotentialVector) -> float:
    """Sup norm of the slot average, the symmetric potential the a priori
    bound is stated for: _fsum of the N slot values over N at every cell,
    even when the slots agree (for N = 3, fsum([a, a, a]) / 3 need not be
    a); NaN or infinite when a value is."""
    n = potentials.n_marginals
    return float(np.abs(_fsum_rows(potentials.values.T) / n).max())


@dataclass(frozen=True)
class DualityReport:
    """Audit of one primal-dual pair at a fixed level."""

    primal_value: float
    dual_value: float
    relative_gap: float
    max_slackness_violation: float
    diagonal_clearance_alpha: float
    potential_bound: float
    potential_bound_satisfied: bool
    max_dual_violation: float
    potential_sup: float
    bound_radius: float
    bound_level_constant: float
    cost_mode: str
    cost_note: str

    def as_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_kv_block(self) -> str:
        items = self.as_dict().items()
        return "".join(f"{k}={v!r}\n" if isinstance(v, float) else f"{k}={v}\n" for k, v in items)

    def to_json(self) -> str:
        return json.dumps({k: _json_clean(v) for k, v in self.as_dict().items()}, sort_keys=True)


def _json_clean(v):
    """A non-finite float as its repr, which JSON can hold; v otherwise."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def certificate_failures(
    primal: float, gap: float, slackness: float, dual_violation: float,
    potential_sup: float, gap_tol: float, feas_tol: float,
) -> list[str]:
    """Why an audited primal-dual pair fails its certificate; empty when
    it passes.  It passes when potential_sup is finite, the relative gap
    is at most gap_tol, and the complementary slackness and dual
    feasibility violations are at most feas_tol * (1 + |primal|), so a NaN
    figure fails.  `mmot verify` and `mmot converge` exit 4 on these."""
    scale = feas_tol * (1.0 + abs(primal))
    out = []
    if not math.isfinite(potential_sup):
        out.append(f"potentials hold non-finite values (potential sup {potential_sup!r})")
    if not gap <= gap_tol:
        out.append(f"duality gap {gap!r} above {gap_tol!r}")
    if not slackness <= scale:
        out.append(f"complementary slackness off by {slackness!r}")
    if not dual_violation <= scale:
        out.append(f"dual constraint violated by {dual_violation!r}")
    return out


_CELL_NOTE = (
    "cell mode prices each tuple by the pairwise-separable lower bound "
    "(reciprocal sup distance per pair), a finite stand-in for the exact "
    "infimum of the kernel over the product cell"
)
_POINT_NOTE = "pointwise mode prices tuples at stored atom positions or cell centers"


def _support_recip(model, grid, support, cost_mode, positions):
    coords = np.array(support, dtype=np.int64)
    if cost_mode == "cell":
        return pair_recip_matrix(model, grid, coords)
    pts = np.array([_point_for(grid, c, positions) for c in support], dtype=float)
    return pair_recip_matrix_points(model, pts)


# Entries of the tuple space that dual_excess_slabs evaluates at once.
_SLAB_BLOCK = 1 << 16


def dual_excess_slabs(u_mat: np.ndarray, recip: np.ndarray):
    """Yield (prefix, lo, excess) blocks that cover the whole tuple space.

    u_mat is the (N, m) array of slot potentials on the support; a tuple
    costs the sum of recip over its slot pairs.  Prefixes of the first
    N-2 slots come in lexicographic order, and for each a run of row
    blocks: excess[r, j] = sum_k u_k(t_k) - cost(t) for the tuple
    t = prefix + (lo + r, j).  An entry is evaluated as
    ((u_pre - const) + tail) - ((vec_i + vec_j) + recip_ij), where u_pre
    and const are the prefix's potential and pair cost, tail_ij =
    u_{N-2}(i) + u_{N-1}(j) and vec holds the prefix's pair costs to every
    cell; for N = 2 the prefix is empty and (0 + 0) + recip_ij is
    recip_ij.  Two buffers of at most _SLAB_BLOCK entries (three when the
    slab fits one block) are reused, so a yielded block is valid until the
    next one.
    """
    n, m = u_mat.shape
    rows = max(1, min(m, _SLAB_BLOCK // max(m, 1)))
    excess = np.empty((rows, m))
    cost = np.empty((rows, m))
    vec = np.zeros(m)
    vec_j, u_j = vec[None, :], u_mat[n - 1][None, :]
    # a slab that fits one block keeps its tail across prefixes
    tail = u_mat[n - 2][:, None] + u_j if rows == m else None
    blocks = [
        (lo, excess[: hi - lo], cost[: hi - lo], vec[lo:hi, None], recip[lo:hi],
         u_mat[n - 2, lo:hi, None])
        for lo, hi in ((lo, min(lo + rows, m)) for lo in range(0, m, rows))
    ]
    for prefix in iter_product(range(m), repeat=n - 2):
        const = u_pre = 0.0
        vec.fill(0.0)
        for a, pa in enumerate(prefix):
            vec += recip[pa]
            u_pre += u_mat[a, pa]
            for pb in prefix[a + 1 :]:
                const += recip[pa, pb]
        for lo, ex, co, vec_i, recip_i, u_i in blocks:
            if tail is None:
                np.add(u_i, u_j, out=ex)
                ex += u_pre - const
            else:
                np.add(tail, u_pre - const, out=ex)
            if prefix:
                np.add(vec_i, vec_j, out=co)
                co += recip_i
                ex -= co
            else:
                ex -= recip_i
            yield prefix, lo, ex


def max_dual_excess(u_mat: np.ndarray, recip: np.ndarray) -> float:
    """max over all support tuples of (sum_i u_i(t_i) - cost(t)).

    Scans the full tuple space in two-dimensional blocks; infinite costs
    yield -inf excess and never dominate.  Positive values mean the dual
    constraint is violated somewhere.  NaN once any entry is NaN.
    """
    best = -math.inf
    for _prefix, _lo, excess in dual_excess_slabs(u_mat, recip):
        cand = float(excess.max())
        if math.isnan(cand):
            return cand
        if cand > best:
            best = cand
    return best


def _potential_table(potentials: PotentialVector, uniq: np.ndarray, needed) -> np.ndarray:
    """(N, cells) array of every slot's potential at the cells of uniq
    that the (N, cells) mask needed marks for that slot; NaN elsewhere.
    DimensionMismatch names the first slot lacking a cell it needs, and
    the first such cell."""
    pos = potentials._positions(uniq)
    missing = needed & (pos < 0)
    if missing.any():
        slot = int(np.argmax(missing.any(axis=1)))
        cell = tuple(uniq[np.argmax(missing[slot])].tolist())
        raise DimensionMismatch(f"potential {slot} has no value at cell {cell!r}")
    return np.where(needed, potentials.values[:, pos], np.nan)


# +inf against -inf in the potentials gives NaN figures, and sums past the
# float range infinite ones, without a warning
@np.errstate(invalid="ignore", over="ignore")
def verify_duality(
    plan: TransportPlan,
    potentials: PotentialVector,
    model: CostModel,
    *,
    cost_mode: str = "cell",
    positions: dict[Cell, tuple[float, ...]] | None = None,
    m_fraction: float = 0.1,
) -> DualityReport:
    """Audit a primal-dual pair: objectives, gap, slackness, feasibility,
    diagonal clearance, and the a priori potential bound."""
    _check_cost_mode(cost_mode)
    if plan.grid != potentials.grid:
        raise DimensionMismatch("plan and potentials live on different grids")
    if plan.n_marginals != potentials.n_marginals or plan.n_marginals != model.n_marginals:
        raise DimensionMismatch(
            f"marginal counts disagree: plan {plan.n_marginals}, "
            f"potentials {potentials.n_marginals}, cost {model.n_marginals}"
        )
    n = plan.n_marginals
    costs = _atom_costs(plan, model, cost_mode, positions)
    primal = _total_cost(plan.arrays[1], costs)

    # slot potentials at the plan's cells: the support (slot-0 cells) in
    # every slot for the rescan, and each slot's own cells for slackness
    uniq, inv = plan.cell_index
    support_ids, weights = plan._marginal_arrays(0)
    needed = np.zeros((n, uniq.shape[0]), dtype=bool)
    needed[np.arange(n), inv] = True
    needed[:, support_ids] = True
    table = _potential_table(potentials, uniq, needed)
    u_mat = table[:, support_ids]
    dual = _fsum((u_mat * weights).ravel().tolist())
    gap = abs(primal - dual) / (1.0 + abs(primal))

    # complementary slackness on the plan's own atoms (np.max keeps NaN)
    tight = costs - _fsum_rows(table[np.arange(n), inv])
    slack = float(tight[~np.isinf(costs)].max(initial=0.0))

    # exhaustive dual feasibility rescan over every ordered support tuple
    support = list(map(tuple, uniq[support_ids].tolist()))
    recip = _support_recip(model, plan.grid, support, cost_mode, positions)
    violation = float(np.maximum(max_dual_excess(u_mat, recip), 0.0))

    alpha = diagonal_clearance(plan)
    pot_sup = _symmetric_sup(potentials)
    try:
        r, k = bound_parameters(plan, model, m_fraction=m_fraction)
        bound = potential_bound(n, r, k)
        satisfied = pot_sup <= bound + BOUND_SLACK
    except NoOffDiagonalSupport:
        r, k, bound, satisfied = math.nan, math.nan, math.nan, False

    return DualityReport(
        primal_value=primal,
        dual_value=dual,
        relative_gap=gap,
        max_slackness_violation=slack,
        diagonal_clearance_alpha=alpha,
        potential_bound=bound,
        potential_bound_satisfied=satisfied,
        max_dual_violation=violation,
        potential_sup=pot_sup,
        bound_radius=r,
        bound_level_constant=k,
        cost_mode=cost_mode,
        cost_note=_CELL_NOTE if cost_mode == "cell" else _POINT_NOTE,
    )


def diagonal_clearance(plan: TransportPlan) -> float:
    """Smallest pairwise guaranteed distance among the plan's atoms: the
    minimum over atoms of the minimum inf_dist over slot pairs.  Atoms
    with touching cells give zero; a plan without atoms gives +inf."""
    gap_sq = plan._slot_gaps
    if gap_sq.size == 0:
        return math.inf
    return plan.grid.cell_side * math.sqrt(int(gap_sq.min()))


def product_plan_cost(
    measure: DiscreteMeasure,
    model: CostModel,
    *,
    cost_mode: str = "cell",
) -> float:
    """Cost of the independent coupling without materializing its atoms.

    Each unordered pair of slots contributes w^T recip w, so the total is
    C(N, 2) times that quadratic form.  In pointwise mode the diagonal is
    infinite and so is the product cost, faithfully.
    """
    _check_cost_mode(cost_mode)
    support = measure.support()
    recip = _support_recip(model, measure.grid, support, cost_mode, measure.positions)
    w = np.array([measure.atoms[c] for c in support])
    n = model.n_marginals
    pairs = n * (n - 1) // 2
    if np.isinf(recip).any() and cost_mode == "pointwise":
        return math.inf
    return float(pairs * w @ recip @ w)


def potential_bound(n_marginals: int, radius: float, level_constant: float) -> float:
    """A priori sup-norm bound for the symmetrized potential:
    2N(N-1)^2 / r - (N-1)^2 * k."""
    n = n_marginals
    return 2.0 * n * (n - 1) ** 2 / radius - (n - 1) ** 2 * level_constant


# Per-cell sample budget used to smear cell mass when measuring ball mass;
# even counts keep samples off cell centers, so tiny balls hold zero mass.
_BALL_SAMPLES = 64


def _axis_samples(dimension: int) -> int:
    s = max(2, round(_BALL_SAMPLES ** (1.0 / dimension)))
    if s % 2:
        s += 1
    return s


def _ball_mass_profiles(plan: TransportPlan, centers, limit: float = math.inf):
    """For each center, the sorted distances and cumulative masses of the
    cell-smeared samples of the plan's slot-0 marginal closer to it than
    limit.

    Each support cell's weight is spread uniformly over s**d midpoint
    samples, which makes the mass of a ball continuous in the radius and
    stable across refinement levels.  The samples are sorted stably, so
    the profile below limit is the same prefix, bitwise, that sorting all
    samples gives.
    """
    d = plan.grid.dimension
    s = _axis_samples(d)
    side = plan.grid.cell_side
    offs = (np.arange(s) + 0.5) * (side / s)
    local = np.stack(np.meshgrid(*([offs] * d), indexing="ij"), axis=-1).reshape(-1, d)
    ids, all_w = plan._marginal_arrays(0)
    all_lows = (plan.cell_index[0][ids] - 1.0) * side
    profiles = []
    for center in centers:
        lows, cell_w = all_lows, all_w
        if math.isfinite(limit):
            # no sample of a cell whose center lies a cell diagonal beyond
            # limit comes closer than limit
            gap = np.sqrt(((lows + 0.5 * side - center[None, :]) ** 2).sum(axis=1))
            kept = gap < limit + side * math.sqrt(d)
            lows, cell_w = lows[kept], cell_w[kept]
        pts = (lows[:, None, :] + local[None, :, :]).reshape(-1, d)
        w = np.repeat(cell_w / local.shape[0], local.shape[0])
        dist = np.sqrt(((pts - center[None, :]) ** 2).sum(axis=1))
        near = dist < limit
        dist, w = dist[near], w[near]
        order = np.argsort(dist, kind="stable")
        profiles.append((dist[order], np.cumsum(w[order])))
    return profiles


# The radius search of bound_parameters: from a quarter of the clearance
# down a geometric ladder of _LADDER_STEPS radii, each 2**-1/8 of the last.
_LADDER_STEPS = 2000
_LADDER_RATIO = 2.0**-0.125


def bound_parameters(
    plan: TransportPlan, model: CostModel, m_fraction: float = 0.1
) -> tuple[float, float]:
    """Choose the (radius, level constant) pair feeding potential_bound.

    Picks the plan atom that maximizes its pairwise minimum distance, sets
    k to the pointwise cost at its cell centers divided by N, and searches
    a fine geometric ladder downward from a quarter of the diagonal
    clearance for the largest radius whose N balls around the atom's cell
    centers carry mass of the plan's slot-0 marginal below
    m_fraction * (plan mass) / 4.
    """
    if not 0.0 < m_fraction < 1.0:
        raise ValueError("m_fraction must lie in (0, 1)")
    grid = plan.grid
    cells, w = plan.arrays
    gap_sq = plan._slot_gaps
    if gap_sq.size == 0 or gap_sq.max() == 0:
        raise NoOffDiagonalSupport("no plan atom keeps all slots strictly apart")
    # np.argmax takes the first maximum: the first atom, in support order,
    # of the largest separation
    best = int(np.argmax(gap_sq))
    # a touching atom elsewhere zeroes the clearance; anchor the radius cap
    # on the selected atom's own separation then
    alpha = diagonal_clearance(plan)
    alpha_eff = alpha if alpha > 0.0 else grid.cell_side * math.sqrt(int(gap_sq[best]))
    centers = [grid.cell_center(c) for c in _atom_key(cells[best])]
    k = pointwise_cost(model, centers) / plan.n_marginals

    # cumsum adds in support order, one atom after another
    threshold = m_fraction * float(np.cumsum(w)[-1]) / 4.0
    # every radius tried is at most r0, so only samples closer than r0 count;
    # accumulate reproduces r *= ratio step by step
    r0 = alpha_eff / 4.0
    radii = np.multiply.accumulate(np.r_[r0, np.full(_LADDER_STEPS - 1, _LADDER_RATIO)])
    mass = np.zeros(_LADDER_STEPS)
    for dist, cum in _ball_mass_profiles(plan, [np.array(c) for c in centers], r0):
        idx = np.searchsorted(dist, radii, side="left")
        part = np.zeros(_LADDER_STEPS)
        hit = idx > 0
        part[hit] = cum[idx[hit] - 1]
        mass += part
    below = np.flatnonzero(mass < threshold)
    if below.size == 0:
        raise NumericalBreakdown("ball-mass radius search did not terminate")
    return float(radii[below[0]]), k


def swap_improve(
    plan: TransportPlan,
    model: CostModel,
    centers: list[CellTuple],
    radii: list[float],
) -> tuple[TransportPlan, float]:
    """Cyclic product rearrangement of the plan near N product neighborhoods.

    The i-th neighborhood is the product of balls of radius radii[i] around
    the cell centers of centers[i]; in each coordinate slot the N
    neighborhoods must be pairwise disjoint and each must carry plan mass.
    The restricted pieces are scaled to a common mass, removed, and
    reinserted as products of their slot marginals with cyclically shifted
    slot assignments, which leaves every marginal unchanged.  Returns the
    new plan and its cost under the cell lower bound; no improvement is
    guaranteed by the operation itself.
    """
    grid = plan.grid
    n = plan.n_marginals
    if len(centers) != n or len(radii) != n:
        raise ValueError(f"need exactly {n} centers and radii")
    for cen in centers:
        if len(cen) != n:
            raise ValueError(f"center {cen!r} does not have {n} slots")
        for c in cen:
            grid.require_cell(c)
    for r in radii:
        if not r > 0:
            raise ValueError("radii must be positive")

    def _dist(c1: Cell, c2: Cell) -> float:
        p1 = grid.cell_center(c1)
        p2 = grid.cell_center(c2)
        return math.sqrt(math.fsum((a - b) * (a - b) for a, b in zip(p1, p2)))

    # per-slot cell universes drawn from the plan's own support
    universes: list[set[Cell]] = [set() for _ in range(n)]
    for cells in plan.atoms:
        for k, c in enumerate(cells):
            universes[k].add(c)
    hoods: list[list[set[Cell]]] = []
    for i in range(n):
        slot_sets = []
        for k in range(n):
            slot_sets.append(
                {c for c in universes[k] if _dist(c, centers[i][k]) < radii[i]}
            )
        hoods.append(slot_sets)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                shared = hoods[i][k] & hoods[j][k]
                if shared:
                    raise OverlappingNeighborhoods(
                        f"neighborhoods {i} and {j} share cell {sorted(shared)[0]!r} "
                        f"in slot {k}"
                    )

    member: dict[CellTuple, int] = {}
    masses = [0.0] * n
    for cells, w in plan.atoms.items():
        for i in range(n):
            if all(cells[k] in hoods[i][k] for k in range(n)):
                member[cells] = i
                masses[i] += w
                break
    for i, mass in enumerate(masses):
        if mass <= 0.0:
            raise EmptyRestriction(f"neighborhood {i} around {centers[i]!r} holds no plan mass")

    mu = min(masses)
    lam = [mu / masses[i] for i in range(n)]

    new_atoms: dict[CellTuple, float] = {}
    for cells, w in plan.atoms.items():
        i = member.get(cells)
        rem = w if i is None else w * (1.0 - lam[i])
        if rem > SWAP_DROP:
            new_atoms[cells] = new_atoms.get(cells, 0.0) + rem

    # slot marginals of the scaled restrictions, normalized to mass one
    nu: list[list[dict[Cell, float]]] = [[{} for _ in range(n)] for _ in range(n)]
    for cells, w in plan.atoms.items():
        i = member.get(cells)
        if i is None:
            continue
        for k in range(n):
            d = nu[i][k]
            d[cells[k]] = d.get(cells[k], 0.0) + lam[i] * w / mu
    for i in range(n):
        piece = (i + np.arange(n)) % n
        slot_dists = [sorted(nu[piece[k]][k].items()) for k in range(n)]
        for combo in iter_product(*slot_dists):
            w = mu
            for _, q in combo:
                w *= q
            if w > SWAP_DROP:
                key = tuple(c for c, _ in combo)
                new_atoms[key] = new_atoms.get(key, 0.0) + w

    out = TransportPlan(grid, n, dict(sorted(new_atoms.items())))
    for slot in range(n):
        before = plan.marginal(slot)
        after = out.marginal(slot)
        for c in set(before) | set(after):
            if abs(before.get(c, 0.0) - after.get(c, 0.0)) > PLAN_TOL:
                raise NumericalBreakdown(
                    f"rearrangement perturbed marginal {slot} at cell {c!r}"
                )
    return out, plan_cost(out, model, cost_mode="cell")


def save_plan(plan: TransportPlan, path) -> None:
    g = plan.grid
    cells, w = plan.arrays
    lines = [
        f"{_HEADER_PLAN} level={g.level} halfwidth={g.window_halfwidth!r} "
        f"dim={g.dimension} N={plan.n_marginals}"
    ]
    line = " ".join(["%d"] * (plan.n_marginals * g.dimension)) + " %r"
    rows = cells.reshape(cells.shape[0], -1).tolist()
    lines += [line % (*row, x) for row, x in zip(rows, w.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_body(path, header: str) -> tuple[list[str], GridSpec, int]:
    """Comment-free nonempty lines after the header, the grid, and N."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in (_strip_comment(l) for l in lines) if ln]
    if not body:
        raise ParseError(f"{path}: empty file")
    fields = _parse_header(body[0], header, ("level", "halfwidth", "dim", "N"))
    try:
        grid = GridSpec(int(fields["level"]), float(fields["halfwidth"]), int(fields["dim"]))
        n = int(fields["N"])
    except ValueError as exc:
        raise ParseError(f"{path}: bad header: {exc}") from exc
    return body[1:], grid, n


def _numeric_rows(path, lines: list[str], width: int, expected: str):
    """Parse lines of width - 1 integers and one float each.

    Returns (ints, floats, malformed): an int64 (rows, width - 1) array
    and a float array for the lines before the first malformed one, and
    that line's ParseError (None if every line parses).  expected is the
    message for a line of the wrong length, with {!r} for the line.
    """
    ints: list[int] = []
    floats: list[float] = []
    malformed = None
    for ln in lines:
        parts = ln.split()
        if len(parts) != width:
            malformed = ParseError(f"{path}: " + expected.format(ln))
            break
        try:
            row = list(map(int, parts[:-1]))
            value = float(parts[-1])
        except ValueError as exc:
            malformed = ParseError(f"{path}: {exc}")
            malformed.__cause__ = exc
            break
        ints += row
        floats.append(value)
    rows = np.array(ints, dtype=np.int64).reshape(len(floats), width - 1)
    return rows, np.array(floats, dtype=float), malformed


def _first_failure(*masks: np.ndarray) -> tuple[int, int] | None:
    """(line, check) of the first line failing any check, and the first
    check it fails, for per-line failure masks given in check order."""
    bad = np.stack(masks)
    lines = np.flatnonzero(bad.any(axis=0))
    if lines.size == 0:
        return None
    line = int(lines[0])
    return line, int(np.argmax(bad[:, line]))


def load_plan(path) -> TransportPlan:
    """Read a mmot-plan v1 file.  Lines are checked in file order, and a
    line's checks in the order length, numbers, window, duplicate atom,
    weight; the first failure is raised."""
    lines, grid, n = _read_body(path, _HEADER_PLAN)
    if n < 2:
        raise ParseError(f"{path}: N must be >= 2")
    d = grid.dimension
    flat, w, malformed = _numeric_rows(
        path, lines, n * d + 1, f"expected {n * d} indices and a weight, got {{!r}}"
    )
    cells = flat.reshape(-1, n, d)
    outside = _outside(grid, cells)
    failure = _first_failure(outside.any(axis=1), _unique_rows(flat)[2], ~(w > 0))
    if failure is not None:
        i, check = failure
        if check == 0:
            slot = int(np.argmax(outside[i]))
            raise ParseError(f"{path}: cell {tuple(cells[i, slot].tolist())!r} outside the window")
        if check == 1:
            raise ParseError(f"{path}: duplicate atom {_atom_key(cells[i])!r}")
        raise NegativeWeight(f"{path}: weight {float(w[i])!r} must be positive")
    if malformed is not None:
        raise malformed
    if w.size == 0:
        raise ParseError(f"{path}: no atoms")
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > FILE_SUM:
        raise NormalizationError(f"{path}: plan mass {total!r} too far from 1")
    plan = TransportPlan.from_arrays(grid, n, cells, w)
    try:
        plan.validate()
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return plan


def save_potentials(potentials: PotentialVector, path) -> None:
    g = potentials.grid
    lines = [
        f"{_HEADER_POTENTIALS} level={g.level} halfwidth={g.window_halfwidth!r} "
        f"dim={g.dimension} N={potentials.n_marginals}"
    ]
    line = " ".join(["%d"] * (g.dimension + 1)) + " %r"
    cells = potentials.cells.tolist()
    for i, vals in enumerate(potentials.values.tolist()):
        lines += [line % (i + 1, *c, v) for c, v in zip(cells, vals)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_potentials(path) -> PotentialVector:
    """Read a mmot-potentials v1 file.  Lines are checked in file order,
    and a line's checks in the order length, numbers, marginal index,
    window, duplicate entry; the first failure is raised.  Every slot must
    then hold the same cells: DimensionMismatch names the first slot
    lacking a cell that another one holds, and its first such cell."""
    lines, grid, n = _read_body(path, _HEADER_POTENTIALS)
    d = grid.dimension
    rows, vals, malformed = _numeric_rows(
        path, lines, d + 2, f"expected marginal, {d} indices, value; got {{!r}}"
    )
    slots, cells = rows[:, 0], rows[:, 1:]
    failure = _first_failure(
        (slots < 1) | (slots > n), _outside(grid, cells), _unique_rows(rows)[2]
    )
    if failure is not None:
        i, check = failure
        slot, cell = int(slots[i]), tuple(cells[i].tolist())
        if check == 0:
            raise ParseError(f"{path}: marginal index {slot} out of range 1..{n}")
        if check == 1:
            raise ParseError(f"{path}: cell {cell!r} outside the window")
        raise ParseError(f"{path}: duplicate entry for marginal {slot}, cell {cell!r}")
    if malformed is not None:
        raise malformed
    order = np.lexsort(rows.T[::-1])
    rows, vals = rows[order], vals[order]
    cells = _unique_rows(rows[:, 1:])[0]
    values = np.empty((n, cells.shape[0]))
    starts = np.searchsorted(rows[:, 0], np.arange(1, n + 2)).tolist()
    for slot, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        # a slot's cells are distinct and sorted, so a complete slot holds
        # exactly cells, and an incomplete one first departs from them at
        # its first missing cell
        held = rows[lo:hi, 1:]
        if held.shape[0] < cells.shape[0]:
            off = np.flatnonzero((held != cells[: held.shape[0]]).any(axis=1))
            cell = tuple(cells[off[0] if off.size else held.shape[0]].tolist())
            raise DimensionMismatch(f"potential {slot} has no value at cell {cell!r}")
        values[slot] = vals[lo:hi]
    return PotentialVector(grid, cells, values)
