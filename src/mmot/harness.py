"""Multi-level experiments on top of the solver.

converge discretizes one density at a ladder of refinement levels with a
shared global sample lattice (per-cell sample counts halve as the level
grows), solves each level, audits the primal-dual pair, and collects the
numbers in a ConvergenceTable.  The nested sampling makes every coarse
weight an exact aggregate of fine weights, so the optimal values are
nondecreasing in the level up to floating error.

swap_search drives the cyclic product rearrangement as a local search:
pick the most diagonal atom, pick per-slot-distinct companion atoms, and
sweep the neighborhood radius downward, keeping any rearranged plan that
strictly lowers the cell-bound cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .cost import CostModel
from .errors import (
    EmptyRestriction,
    MMOTError,
    OverlappingNeighborhoods,
)
from .grid import GridSpec, inf_dist
from .lp import solve_mmot
from .measure import Density, DiscreteMeasure, FiniteAtomic, discretize
from .tolerances import FEAS_TOL, GAP_TOL, IMPROVE_SLACK, MONO_SLACK, REFERENCE_SLACK
from .transport import (
    TransportPlan, certificate_failures, plan_cost, product_plan_cost, verify_duality,
)

_CSV_HEADER = "level,primal,dual,gap,alpha,pot_sup,bound,ms"


@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level's results; error is None on success.
    slackness and dual_violation are the audit's, not CSV columns."""

    level: int
    primal: float = math.nan
    dual: float = math.nan
    gap: float = math.nan
    alpha: float = math.nan
    pot_sup: float = math.nan
    bound: float = math.nan
    ms: float = math.nan
    bound_radius: float = math.nan
    bound_constant: float = math.nan
    slackness: float = math.nan
    dual_violation: float = math.nan
    error: str | None = None


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows for each requested level plus the independent-coupling cost
    at the finest successful level, an upper reference for every row."""

    rows: tuple[ConvergenceRow, ...]
    reference_upper: float = math.nan

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for r in self.rows:
            values = (r.primal, r.dual, r.gap, r.alpha, r.pot_sup, r.bound, r.ms)
            lines.append(",".join([str(r.level)] + [repr(v) for v in values]))
        return "\n".join(lines) + "\n"

    def check(self, gap_tol: float = GAP_TOL, feas_tol: float = FEAS_TOL) -> list[str]:
        """Violation messages; an empty list means the table is coherent.
        A level fails its certificate as `mmot verify` would
        (certificate_failures)."""
        out = []
        prev = None
        for r in self.rows:
            if r.error is not None:
                out.append(f"level {r.level}: {r.error}")
                continue
            failures = certificate_failures(
                r.primal, r.gap, r.slackness, r.dual_violation, r.pot_sup, gap_tol, feas_tol
            )
            out += [f"level {r.level}: {f}" for f in failures]
            if prev is not None and r.primal < prev - MONO_SLACK * (1.0 + abs(prev)):
                out.append(
                    f"level {r.level}: value {r.primal!r} dropped below the "
                    f"coarser level's {prev!r}"
                )
            upper = self.reference_upper
            if math.isfinite(upper) and r.primal > upper + REFERENCE_SLACK * (1.0 + abs(upper)):
                out.append(
                    f"level {r.level}: value {r.primal!r} above the product "
                    f"coupling reference {self.reference_upper!r}"
                )
            prev = r.primal
        return out


def converge(
    density: Density,
    model: CostModel,
    levels,
    window_halfwidth: float,
    dimension: int | None = None,
    *,
    m_fraction: float = 0.1,
    gap_tol: float = GAP_TOL,
    feas_tol: float = FEAS_TOL,
    cost_mode: str = "cell",
) -> ConvergenceTable:
    """Discretize, solve, and audit the same density at several levels.

    Failures at one level are recorded in that row's error field and do
    not stop the remaining levels.  dimension defaults to the density's
    own center/point dimension.
    """
    levels = sorted(set(int(n) for n in levels))
    if not levels:
        return ConvergenceTable((), math.nan)
    if levels[0] < 0:
        raise ValueError("levels must be nonnegative integers")
    if dimension is None:
        if isinstance(density, FiniteAtomic):
            dimension = len(density.points[0])
        else:
            dimension = len(density.center)
    finest = levels[-1]
    rows: list[ConvergenceRow] = []
    finest_measure: DiscreteMeasure | None = None
    for n in levels:
        grid = GridSpec(n, window_halfwidth, dimension)
        t0 = time.perf_counter()
        try:
            spa = min(2 * 2 ** (finest - n), 128)
            measure = discretize(density, grid, samples_per_axis=spa)
            plan, potentials, value = solve_mmot(
                measure, model, cost_mode=cost_mode, feas_tol=feas_tol, gap_tol=gap_tol
            )
            report = verify_duality(
                plan, potentials, model, cost_mode=cost_mode, positions=measure.positions,
                m_fraction=m_fraction,
            )
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                ConvergenceRow(
                    level=n,
                    primal=report.primal_value,
                    dual=report.dual_value,
                    gap=report.relative_gap,
                    alpha=report.diagonal_clearance_alpha,
                    pot_sup=report.potential_sup,
                    bound=report.potential_bound,
                    ms=ms,
                    bound_radius=report.bound_radius,
                    bound_constant=report.bound_level_constant,
                    slackness=report.max_slackness_violation,
                    dual_violation=report.max_dual_violation,
                )
            )
            finest_measure = measure
        except MMOTError as exc:
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(ConvergenceRow(level=n, ms=ms, error=f"{type(exc).__name__}: {exc}"))
    reference = math.nan
    if finest_measure is not None:
        reference = product_plan_cost(finest_measure, model, cost_mode="cell")
    return ConvergenceTable(tuple(rows), reference)


def most_diagonal_atom(plan: TransportPlan):
    """The support atom with the smallest pairwise minimum separation;
    lexicographic order breaks ties."""
    n = plan.n_marginals
    best = None
    best_sep = math.inf
    for cells in plan.support():
        sep = min(
            inf_dist(cells[i], cells[j], plan.grid)
            for i in range(n)
            for j in range(i + 1, n)
        )
        if sep < best_sep:
            best_sep = sep
            best = cells
    return best, best_sep


def _pick_companions(plan: TransportPlan, target) -> list | None:
    """Greedy per-slot-distinct companions for the swap neighborhoods."""
    n = plan.n_marginals
    chosen = [target]
    for cells in plan.support():
        if len(chosen) == n:
            break
        if all(
            cells[k] != other[k] for other in chosen for k in range(n)
        ):
            chosen.append(cells)
    return chosen if len(chosen) == n else None


def swap_search(
    plan: TransportPlan,
    model: CostModel,
    *,
    max_rounds: int = 8,
) -> tuple[TransportPlan, list[str]]:
    """Repeatedly rearrange mass away from the most diagonal atom.

    Each round targets the currently most diagonal atom, recruits
    companions whose cells differ in every slot, and sweeps the ball
    radius downward from half the minimum center separation, accepting
    the first rearrangement that strictly lowers the cell-bound cost.
    Stops when no radius helps or rounds run out.  Returns the final plan
    and a human-readable log.
    """
    from .transport import swap_improve

    log: list[str] = []
    current = plan
    cost = plan_cost(current, model, cost_mode="cell")
    log.append(f"initial cost {cost!r}")
    for rnd in range(max_rounds):
        target, sep = most_diagonal_atom(current)
        if target is None:
            log.append("plan has no atoms; stopping")
            break
        centers = _pick_companions(current, target)
        if centers is None:
            log.append(
                f"round {rnd}: no per-slot-distinct companions for {target!r}; stopping"
            )
            break
        grid = current.grid
        n = current.n_marginals
        min_sep = math.inf
        for k in range(n):
            pts = [grid.cell_center(c[k]) for c in centers]
            for i in range(n):
                for j in range(i + 1, n):
                    d = math.dist(pts[i], pts[j])
                    min_sep = min(min_sep, d)
        if not math.isfinite(min_sep) or min_sep <= 0:
            log.append(f"round {rnd}: companion centers coincide; stopping")
            break
        improved = False
        r = min_sep / 2.0
        for _ in range(12):
            try:
                cand, cand_cost = swap_improve(current, model, centers, [r] * n)
            except (OverlappingNeighborhoods, EmptyRestriction):
                r *= 2.0 ** -0.25
                continue
            if cand_cost < cost - IMPROVE_SLACK * (1.0 + abs(cost)):
                log.append(
                    f"round {rnd}: radius {r!r} lowered cost {cost!r} -> {cand_cost!r}"
                )
                current, cost = cand, cand_cost
                improved = True
                break
            r *= 2.0 ** -0.25
        if not improved:
            log.append(f"round {rnd}: no improving radius around {target!r}; stopping")
            break
    log.append(f"final cost {cost!r}")
    return current, log
