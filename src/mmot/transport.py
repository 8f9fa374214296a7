"""Transport plans, dual potentials, and the checks tying them together.

A TransportPlan couples N copies of one DiscreteMeasure: atoms are
N-tuples of cells with positive weights, every coordinate marginal
reproducing the measure.  A PotentialVector holds one dual function per
marginal on the support cells.  verify_duality packages the full
primal-dual audit (objective gap, complementary slackness, an exhaustive
dual feasibility rescan, diagonal clearance, and an a priori sup-norm
bound on the symmetrized potential) into a DualityReport.

swap_improve is the constructive rearrangement that moves plan mass off
the diagonal: restrict the plan to N pairwise disjoint product
neighborhoods, equalize the restricted masses, and reassemble the pieces
as cyclically shifted products of their slot marginals.  Marginals are
preserved by construction; the cost change is reported, not promised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .cost import (
    CellTuple,
    CostModel,
    cell_cost_lower,
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
from .measure import DiscreteMeasure, _normalized_atoms, _parse_header, _strip_comment

_HEADER_PLAN = "mmot-plan v1"
_HEADER_POTENTIALS = "mmot-potentials v1"

# Plan-side tolerances: mass and marginal bookkeeping must hold to 1e-10.
PLAN_TOL = 1e-10
DUAL_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class TransportPlan:
    """Weighted N-tuples of cells with a common per-slot marginal."""

    grid: GridSpec
    n_marginals: int
    atoms: dict[CellTuple, float]

    def support(self) -> list[CellTuple]:
        return sorted(self.atoms)

    def total_mass(self) -> float:
        return math.fsum(self.atoms.values())

    def marginal(self, slot: int) -> dict[Cell, float]:
        out: dict[Cell, float] = {}
        for cells, w in self.atoms.items():
            c = cells[slot]
            out[c] = out.get(c, 0.0) + w
        return {c: out[c] for c in sorted(out)}

    def validate(self, tol: float = PLAN_TOL) -> None:
        for cells, w in self.atoms.items():
            if len(cells) != self.n_marginals:
                raise ValueError(f"atom {cells!r} does not have {self.n_marginals} slots")
            for c in cells:
                self.grid.require_cell(c)
            if not w > 0:
                raise ValueError(f"atom {cells!r} has nonpositive weight {w!r}")
        if abs(self.total_mass() - 1.0) > tol:
            raise ValueError(f"plan mass {self.total_mass()!r} deviates from 1 beyond {tol}")
        ref = self.marginal(0)
        for slot in range(1, self.n_marginals):
            marg = self.marginal(slot)
            for c in set(ref) | set(marg):
                if abs(ref.get(c, 0.0) - marg.get(c, 0.0)) > tol:
                    raise ValueError(
                        f"marginal {slot} deviates from marginal 0 at cell {c!r}"
                    )


def plan_measure(plan: TransportPlan) -> DiscreteMeasure:
    """The common marginal of the plan as a DiscreteMeasure."""
    return DiscreteMeasure(plan.grid, plan.marginal(0), None)


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
    return _total_cost(_priced_atoms(plan, model, cost_mode, positions))


def _priced_atoms(plan, model, cost_mode, positions):
    """(cells, weight, cost) of every plan atom, in sorted atom order."""
    for cells, w in sorted(plan.atoms.items()):
        if cost_mode == "cell":
            c = cell_cost_lower(model, cells, plan.grid)
        else:
            c = pointwise_cost(model, [_point_for(plan.grid, x, positions) for x in cells])
        yield cells, w, c


def _total_cost(priced) -> float:
    terms = []
    for _cells, w, c in priced:
        if math.isinf(c):
            return math.inf
        terms.append(w * c)
    return math.fsum(terms)


def _point_for(grid, cell, positions):
    if positions is not None and cell in positions:
        return positions[cell]
    return grid.cell_center(cell)


def _check_cost_mode(cost_mode: str) -> None:
    if cost_mode not in ("cell", "pointwise"):
        raise ValueError(f"cost_mode must be 'cell' or 'pointwise', got {cost_mode!r}")


@dataclass(frozen=True)
class PotentialVector:
    """One dual potential per marginal, defined on the support cells."""

    grid: GridSpec
    values: tuple[dict[Cell, float], ...]
    symmetrized: dict[Cell, float] | None = field(default=None, compare=False)

    @property
    def n_marginals(self) -> int:
        return len(self.values)

    def value(self, slot: int, cell: Cell) -> float:
        try:
            return self.values[slot][cell]
        except KeyError as exc:
            raise DimensionMismatch(f"potential {slot} has no value at cell {cell!r}") from exc

    def dual_objective(self, weights: dict[Cell, float]) -> float:
        terms = []
        for vals in self.values:
            for cell, w in sorted(weights.items()):
                if cell not in vals:
                    raise DimensionMismatch(f"potentials missing cell {cell!r}")
                terms.append(vals[cell] * w)
        return math.fsum(terms)

    def sup_norm(self) -> float:
        return max(abs(v) for vals in self.values for v in vals.values())


def symmetrize_potentials(potentials: PotentialVector) -> PotentialVector:
    """Average the marginal potentials into one symmetric function.

    For permutation-invariant costs the symmetrized N-tuple stays dual
    feasible (average the constraint over cyclic shifts) and its dual
    objective equals the original one, so nothing is lost by symmetrizing.
    """
    cells = sorted(set().union(*[set(v) for v in potentials.values]))
    n = potentials.n_marginals
    sym = {}
    for c in cells:
        sym[c] = math.fsum(potentials.value(i, c) for i in range(n)) / n
    return PotentialVector(potentials.grid, tuple(dict(sym) for _ in range(n)), sym)


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
        return {
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "relative_gap": self.relative_gap,
            "max_slackness_violation": self.max_slackness_violation,
            "diagonal_clearance_alpha": self.diagonal_clearance_alpha,
            "potential_bound": self.potential_bound,
            "potential_bound_satisfied": self.potential_bound_satisfied,
            "max_dual_violation": self.max_dual_violation,
            "potential_sup": self.potential_sup,
            "bound_radius": self.bound_radius,
            "bound_level_constant": self.bound_level_constant,
            "cost_mode": self.cost_mode,
            "cost_note": self.cost_note,
        }

    def to_kv_block(self) -> str:
        lines = []
        for k, v in self.as_dict().items():
            if isinstance(v, float):
                lines.append(f"{k}={v!r}")
            else:
                lines.append(f"{k}={v}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        def _clean(v):
            if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
                return repr(v)
            return v

        return json.dumps({k: _clean(v) for k, v in self.as_dict().items()}, sort_keys=True)


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


def max_dual_excess(u_mat: np.ndarray, recip: np.ndarray) -> float:
    """max over all support tuples of (sum_i u_i(t_i) - cost(t)).

    Scans the full tuple space in two-dimensional slabs; infinite costs
    yield -inf excess and never dominate.  Positive values mean the dual
    constraint is violated somewhere.
    """
    n, m = u_mat.shape
    best = -math.inf
    tail = u_mat[n - 2][:, None] + u_mat[n - 1][None, :]
    for prefix in iter_product(range(m), repeat=n - 2):
        const = 0.0
        for a in range(len(prefix)):
            for b in range(a + 1, len(prefix)):
                const += recip[prefix[a], prefix[b]]
        vec = np.zeros(m)
        u_pre = 0.0
        for a, pa in enumerate(prefix):
            vec += recip[pa, :]
            u_pre += u_mat[a, pa]
        excess = (u_pre - const) + tail - (vec[:, None] + vec[None, :] + recip)
        cand = float(np.max(excess))
        if cand > best:
            best = cand
    return best


def verify_duality(
    plan: TransportPlan,
    potentials: PotentialVector,
    model: CostModel,
    *,
    cost_mode: str = "cell",
    positions: dict[Cell, tuple[float, ...]] | None = None,
    window_radius: float | None = None,
    m_fraction: float = 0.1,
    feas_tol: float = DUAL_FEAS_TOL,
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
    weights = plan.marginal(0)
    support = sorted(weights)
    priced = list(_priced_atoms(plan, model, cost_mode, positions))
    primal = _total_cost(priced)
    dual = potentials.dual_objective(weights)
    gap = abs(primal - dual) / (1.0 + abs(primal))

    # complementary slackness on the plan's own atoms
    slack = 0.0
    for cells, _w, c in priced:
        u_sum = math.fsum(potentials.value(i, cells[i]) for i in range(n))
        if math.isinf(c):
            continue
        slack = max(slack, c - u_sum)
    slack = max(slack, 0.0)

    # exhaustive dual feasibility rescan over every support tuple
    index = {c: i for i, c in enumerate(support)}
    u_mat = np.empty((n, len(support)))
    for i in range(n):
        for c, j in index.items():
            u_mat[i, j] = potentials.value(i, c)
    recip = _support_recip(model, plan.grid, support, cost_mode, positions)
    violation = max(max_dual_excess(u_mat, recip), 0.0)

    alpha = diagonal_clearance(plan, window_radius)
    sym = symmetrize_potentials(potentials)
    pot_sup = max(abs(v) for v in sym.symmetrized.values())
    try:
        r, k = bound_parameters(
            plan, plan_measure(plan), model,
            window_radius if window_radius is not None else plan.grid.window_halfwidth,
            m_fraction=m_fraction,
        )
        bound = potential_bound(n, r, k)
        satisfied = pot_sup <= bound + 1e-12
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


def _slot_gaps(cells: np.ndarray, grid: GridSpec, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Window mask and smallest squared slot gap, in lattice units, of
    every atom.

    cells is an (atoms, N, d) integer array of cell indices on the grid.
    Returns (inside, gap_sq): whether all of an atom's cells lie in
    [-radius, radius]^d, and the minimum over its slot pairs of
    sum_k max(|a_k - b_k| - 1, 0)^2 as int64, so that the pair's inf_dist
    is cell_side * sqrt(gap_sq).  Raises ValueError for a radius beyond
    the grid window or a cell the grid does not hold.
    """
    if radius > grid.window_halfwidth + 1e-12:
        raise ValueError("window_radius exceeds the grid window")
    lo, hi = grid.index_range
    bad = ((cells < lo) | (cells > hi)).any(axis=2)
    if bad.any():
        grid.require_cell(tuple(cells[bad][0].tolist()))
    side = grid.cell_side
    inside = (
        ((cells - 1) * side >= -radius - 1e-12) & (cells * side <= radius + 1e-12)
    ).all(axis=(1, 2))
    n = cells.shape[1]
    gap_sq = np.full(cells.shape[0], np.iinfo(np.int64).max)
    for i in range(n):
        for j in range(i + 1, n):
            g = np.maximum(np.abs(cells[:, i] - cells[:, j]) - 1, 0)
            np.minimum(gap_sq, (g * g).sum(axis=1), out=gap_sq)
    return inside, gap_sq


def _support_cells(plan: TransportPlan) -> tuple[list[CellTuple], np.ndarray]:
    """The plan's support, and the same atoms as an (atoms, N, d) array."""
    support = plan.support()
    cells = np.array(support, dtype=np.int64).reshape(
        len(support), plan.n_marginals, plan.grid.dimension
    )
    return support, cells


def diagonal_clearance(plan: TransportPlan, window_radius: float | None = None) -> float:
    """Smallest pairwise guaranteed distance among plan atoms in the window.

    For each atom whose cells all lie inside [-radius, radius]^d, take the
    minimum inf_dist over slot pairs; return the minimum over those atoms.
    Atoms with touching cells give zero; no atom in the window gives +inf.
    """
    grid = plan.grid
    R = grid.window_halfwidth if window_radius is None else float(window_radius)
    inside, gap_sq = _slot_gaps(_support_cells(plan)[1], grid, R)
    if not inside.any():
        return math.inf
    return grid.cell_side * math.sqrt(int(gap_sq[inside].min()))


def product_plan(measure: DiscreteMeasure, n_marginals: int, max_atoms: int = 2_000_000) -> TransportPlan:
    """The independent coupling: every support tuple, weight = product."""
    support = measure.support()
    m = len(support)
    if m**n_marginals > max_atoms:
        raise ValueError(
            f"product plan would have {m**n_marginals} atoms, above the cap {max_atoms}"
        )
    atoms: dict[CellTuple, float] = {}
    for combo in iter_product(support, repeat=n_marginals):
        w = 1.0
        for c in combo:
            w *= measure.atoms[c]
        atoms[combo] = w
    return TransportPlan(measure.grid, n_marginals, atoms)


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


def lemma_upper_bound(n_marginals: int, radius: float, density_floor_log: float) -> float:
    """Ceiling for admissible potentials built from an r-separated
    configuration whose log-density term is at least the given floor:
    N(N-1)/(2r) - N*l."""
    n = n_marginals
    return n * (n - 1) / (2.0 * radius) - n * density_floor_log


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


def _ball_mass_profile(measure: DiscreteMeasure, center: np.ndarray):
    """Sorted distances and cumulative masses of cell-smeared samples.

    Each support cell's weight is spread uniformly over s**d midpoint
    samples, which makes the mass of a ball continuous in the radius and
    stable across refinement levels.
    """
    grid = measure.grid
    d = grid.dimension
    s = _axis_samples(d)
    side = grid.cell_side
    offs = (np.arange(s) + 0.5) * (side / s)
    local = np.stack(np.meshgrid(*([offs] * d), indexing="ij"), axis=-1).reshape(-1, d)
    support = measure.support()
    lows = (np.array(support, dtype=float) - 1.0) * side
    pts = (lows[:, None, :] + local[None, :, :]).reshape(-1, d)
    w = np.repeat(
        np.array([measure.atoms[c] for c in support]) / local.shape[0], local.shape[0]
    )
    dist = np.sqrt(((pts - center[None, :]) ** 2).sum(axis=1))
    order = np.argsort(dist, kind="stable")
    return dist[order], np.cumsum(w[order])


def bound_parameters(
    plan: TransportPlan,
    measure: DiscreteMeasure,
    model: CostModel,
    window_radius: float,
    m_fraction: float = 0.1,
) -> tuple[float, float]:
    """Choose the (radius, level constant) pair feeding potential_bound.

    Picks the support atom inside the window that maximizes its pairwise
    minimum distance, sets k to the pointwise cost at its cell centers
    divided by N, and searches a fine geometric ladder downward from a
    quarter of the diagonal clearance for the largest radius whose N balls
    around the atom's cell centers carry measure below
    m_fraction * (plan mass in window) / 4.
    """
    if not 0.0 < m_fraction < 1.0:
        raise ValueError("m_fraction must lie in (0, 1)")
    grid = plan.grid
    n = plan.n_marginals
    side = grid.cell_side
    R = float(window_radius)

    support, cells = _support_cells(plan)
    inside, gap_sq = _slot_gaps(cells, grid, R)
    ids = np.flatnonzero(inside)
    if ids.size == 0 or gap_sq[ids].max() == 0:
        raise NoOffDiagonalSupport(
            "no plan atom in the window keeps all slots strictly apart"
        )
    # np.argmax takes the first maximum: the first atom, in support order,
    # of the largest separation
    best = int(ids[np.argmax(gap_sq[ids])])
    best_cells = support[best]
    best_sep = side * math.sqrt(int(gap_sq[best]))
    # cumsum adds in support order, one atom after another
    window_mass = float(np.cumsum([plan.atoms[support[i]] for i in ids.tolist()])[-1])

    alpha = side * math.sqrt(int(gap_sq[ids].min()))
    # a touching atom elsewhere zeroes the clearance; anchor the radius cap
    # on the selected atom's own separation then
    alpha_eff = alpha if alpha > 0.0 else best_sep
    centers = [grid.cell_center(c) for c in best_cells]
    k = pointwise_cost(model, centers) / n

    threshold = m_fraction * window_mass / 4.0
    profiles = [_ball_mass_profile(measure, np.array(c)) for c in centers]

    r = alpha_eff / 4.0
    ratio = 2.0**-0.125
    for _ in range(2000):
        mass = 0.0
        for dist, cum in profiles:
            idx = np.searchsorted(dist, r, side="left")
            if idx > 0:
                mass += float(cum[idx - 1])
        if mass < threshold:
            return r, k
        r *= ratio
    raise NumericalBreakdown("ball-mass radius search did not terminate")


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
        if rem > 1e-15:
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
            if w > 1e-15:
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
    lines = [
        f"{_HEADER_PLAN} level={g.level} halfwidth={g.window_halfwidth!r} "
        f"dim={g.dimension} N={plan.n_marginals}"
    ]
    for cells in plan.support():
        coords = " ".join(str(a) for c in cells for a in c)
        lines.append(f"{coords} {plan.atoms[cells]!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_plan(path) -> TransportPlan:
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in (_strip_comment(l) for l in lines) if ln]
    if not body:
        raise ParseError(f"{path}: empty file")
    fields = _parse_header(body[0], _HEADER_PLAN, ("level", "halfwidth", "dim", "N"))
    try:
        grid = GridSpec(int(fields["level"]), float(fields["halfwidth"]), int(fields["dim"]))
        n = int(fields["N"])
    except ValueError as exc:
        raise ParseError(f"{path}: bad header: {exc}") from exc
    if n < 2:
        raise ParseError(f"{path}: N must be >= 2")
    d = grid.dimension
    atoms: dict[CellTuple, float] = {}
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) != n * d + 1:
            raise ParseError(f"{path}: expected {n * d} indices and a weight, got {ln!r}")
        try:
            flat = [int(p) for p in parts[: n * d]]
            w = float(parts[n * d])
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        cells = tuple(tuple(flat[i * d : (i + 1) * d]) for i in range(n))
        for c in cells:
            if not grid.contains_cell(c):
                raise ParseError(f"{path}: cell {c!r} outside the window")
        if cells in atoms:
            raise ParseError(f"{path}: duplicate atom {cells!r}")
        if not w > 0:
            raise NegativeWeight(f"{path}: weight {w!r} must be positive")
        atoms[cells] = w
    if not atoms:
        raise ParseError(f"{path}: no atoms")
    total = math.fsum(atoms.values())
    if abs(total - 1.0) > 1e-9:
        raise NormalizationError(f"{path}: plan mass {total!r} too far from 1")
    plan = TransportPlan(grid, n, dict(sorted(atoms.items())))
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
    for i, vals in enumerate(potentials.values):
        for cell in sorted(vals):
            coords = " ".join(str(a) for a in cell)
            lines.append(f"{i + 1} {coords} {vals[cell]!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_potentials(path) -> PotentialVector:
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in (_strip_comment(l) for l in lines) if ln]
    if not body:
        raise ParseError(f"{path}: empty file")
    fields = _parse_header(body[0], _HEADER_POTENTIALS, ("level", "halfwidth", "dim", "N"))
    try:
        grid = GridSpec(int(fields["level"]), float(fields["halfwidth"]), int(fields["dim"]))
        n = int(fields["N"])
    except ValueError as exc:
        raise ParseError(f"{path}: bad header: {exc}") from exc
    d = grid.dimension
    values: list[dict[Cell, float]] = [dict() for _ in range(n)]
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) != d + 2:
            raise ParseError(f"{path}: expected marginal, {d} indices, value; got {ln!r}")
        try:
            slot = int(parts[0])
            cell = tuple(int(p) for p in parts[1 : d + 1])
            v = float(parts[d + 1])
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if not 1 <= slot <= n:
            raise ParseError(f"{path}: marginal index {slot} out of range 1..{n}")
        if not grid.contains_cell(cell):
            raise ParseError(f"{path}: cell {cell!r} outside the window")
        if cell in values[slot - 1]:
            raise ParseError(f"{path}: duplicate entry for marginal {slot}, cell {cell!r}")
        values[slot - 1][cell] = v
    return PotentialVector(grid, tuple({c: vals[c] for c in sorted(vals)} for vals in values))
