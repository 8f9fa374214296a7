"""Plans, potentials, duality audits, bounds, and the swap rearrangement."""

import ast
import functools
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmot.cost import (
    cell_cost_lower,
    coulomb,
    pair_recip_matrix,
    pair_recip_matrix_points,
    pointwise_cost,
    power_law,
)
from mmot.errors import (
    DimensionMismatch,
    EmptyRestriction,
    NegativeWeight,
    NoOffDiagonalSupport,
    NormalizationError,
    OverlappingNeighborhoods,
    ParseError,
)
from mmot import transport
from mmot.grid import GridSpec, inf_dist
from mmot.lp import solve_mmot
from mmot.measure import DiscreteMeasure, UniformBall, discretize
from mmot.transport import (
    PotentialVector,
    TransportPlan,
    bound_parameters,
    diagonal_clearance,
    load_plan,
    load_potentials,
    max_dual_excess,
    plan_cost,
    potential_bound,
    product_plan_cost,
    save_plan,
    save_potentials,
    swap_improve,
    verify_duality,
)
from mmot.transport import _ball_mass_profiles

G1 = GridSpec(level=1, window_halfwidth=1.0, dimension=1)


def _potentials(grid, slots) -> PotentialVector:
    """The PotentialVector of one {cell: value} dict per slot, all over the
    same cells."""
    cells = sorted(slots[0])
    assert all(sorted(slot) == cells for slot in slots)
    return PotentialVector(
        grid,
        np.array(cells, dtype=np.int64).reshape(len(cells), grid.dimension),
        np.array([[slot[c] for c in cells] for slot in slots]).reshape(len(slots), len(cells)),
    )


def _two_point_plan(diagonal: bool) -> TransportPlan:
    a, b = (-1,), (2,)
    if diagonal:
        atoms = {((a), (a)): 0.5, ((b), (b)): 0.5}
        atoms = {(a, a): 0.5, (b, b): 0.5}
    else:
        atoms = {(a, b): 0.5, (b, a): 0.5}
    return TransportPlan(G1, 2, atoms)


def test_plan_marginals_and_validate():
    plan = _two_point_plan(diagonal=False)
    plan.validate()
    assert plan.marginal(0) == {(-1,): 0.5, (2,): 0.5}
    assert plan.marginal(0) == plan.marginal(1)
    assert plan.total_mass() == 1.0

    bad_arity = TransportPlan(G1, 2, {((-1,),): 1.0})
    with pytest.raises(ValueError):
        bad_arity.validate()
    bad_mass = TransportPlan(G1, 2, {((-1,), (2,)): 0.7})
    with pytest.raises(ValueError):
        bad_mass.validate()
    skewed = TransportPlan(G1, 2, {((-1,), (2,)): 0.7, ((2,), (-1,)): 0.3})
    with pytest.raises(ValueError):
        skewed.validate()


def test_plan_cost_modes():
    plan = _two_point_plan(diagonal=False)
    # cell mode: sup distance between cells -1 and 2 is 4 half-cells = 2
    assert plan_cost(plan, coulomb(2)) == pytest.approx(0.5, abs=1e-15)
    # pointwise at cell centers -0.75, 0.75: distance 1.5
    assert plan_cost(plan, coulomb(2), cost_mode="pointwise") == pytest.approx(
        1.0 / 1.5, abs=1e-15
    )
    # stored positions override the centers
    pos = {(-1,): (-1.0,), (2,): (1.0,)}
    assert plan_cost(
        plan, coulomb(2), cost_mode="pointwise", positions=pos
    ) == pytest.approx(0.5, abs=1e-15)
    diag = _two_point_plan(diagonal=True)
    assert plan_cost(diag, coulomb(2), cost_mode="pointwise") == math.inf
    assert math.isfinite(plan_cost(diag, coulomb(2)))
    with pytest.raises(ValueError):
        plan_cost(plan, coulomb(2), cost_mode="exact")


def test_potential_vector_access():
    pots = _potentials(G1, ({(-1,): 0.25, (2,): 0.3}, {(-1,): -0.1, (2,): 0.0}))
    assert pots.n_marginals == 2
    assert pots.value(0, (-1,)) == 0.25
    assert pots.value(1, (2,)) == 0.0
    with pytest.raises(DimensionMismatch):
        pots.value(1, (1,))


def test_potential_sup_is_that_of_the_slot_average(tmp_path):
    # slots 0.7 / -0.2 and 0.1 / 0.4 average to 0.25 at both cells, while
    # every slot value but -0.2 is larger in magnitude
    pots = _potentials(
        G1, ({(-1,): 0.7, (2,): 0.1}, {(-1,): -0.2, (2,): 0.4})
    )
    plan = _two_point_plan(diagonal=False)
    report = verify_duality(plan, pots, coulomb(2))
    assert report.potential_sup == pytest.approx(0.25)
    # the average runs over every cell of any slot: a file whose slot 0
    # lacks a cell that slot 1 holds, off the plan, is a mismatch
    lopsided = tmp_path / "lopsided.potentials"
    lopsided.write_text(
        "mmot-potentials v1 level=1 halfwidth=1.0 dim=1 N=2\n"
        "1 -1 0.25\n1 2 0.25\n2 -1 0.25\n2 1 0.0\n2 2 0.25\n"
    )
    with pytest.raises(DimensionMismatch, match=r"potential 0 has no value at cell \(1,\)"):
        load_potentials(lopsided)


def test_max_dual_excess_matches_bruteforce():
    rng = np.random.default_rng(47)
    for n, m in [(2, 5), (3, 4)]:
        u = rng.normal(size=(n, m))
        recip = rng.uniform(0.1, 2.0, size=(m, m))
        recip = 0.5 * (recip + recip.T)
        want = -math.inf
        for t in itertools.product(range(m), repeat=n):
            c = math.fsum(
                recip[t[i], t[j]] for i in range(n) for j in range(i + 1, n)
            )
            want = max(want, math.fsum(u[i, t[i]] for i in range(n)) - c)
        got = max_dual_excess(u, recip)
        assert got == pytest.approx(want, abs=1e-12)


def test_max_dual_excess_ignores_infinite_cost():
    u = np.zeros((2, 2))
    recip = np.array([[math.inf, 0.5], [0.5, math.inf]])
    # only off-diagonal tuples count: excess = 0 - 0.5
    assert max_dual_excess(u, recip) == pytest.approx(-0.5)


def test_max_dual_excess_is_nan_once_an_entry_is():
    u = np.zeros((2, 3))
    recip = np.full((3, 3), 0.5)
    assert max_dual_excess(u, recip) == -0.5
    for a, b in [(math.nan, 0.0), (math.inf, -math.inf)]:
        spoiled = u.copy()
        spoiled[0, 2], spoiled[1, 1] = a, b
        with np.errstate(invalid="ignore"):
            assert math.isnan(max_dual_excess(spoiled, recip))
    # a NaN in the first block is not overwritten by a later finite one
    big = np.zeros((3, 300))
    big[0, 0] = math.nan
    assert math.isnan(max_dual_excess(big, np.full((300, 300), 0.5)))


def test_the_audit_imports_no_solver_module():
    # verify_duality checks a plan and potentials from the measure and the
    # cost alone: the audit module must not reach the solver, its symmetry
    # reduction or the experiment harness
    imported = set()
    for node in ast.walk(ast.parse(Path(transport.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "mmot" if node.level == 1 else ""
            module = ".".join(filter(None, [base, node.module]))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    forbidden = {"mmot.lp", "mmot.symmetry", "mmot.harness"}
    assert "mmot.cost" in imported
    assert {".".join(m.split(".")[:2]) for m in imported} & forbidden == set()


def test_verify_duality_on_a_solved_instance():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=1)
    mu = discretize(UniformBall(center=(0.0,), radius=1.0), g, samples_per_axis=16)
    model = coulomb(2)
    plan, pots, value = solve_mmot(mu, model)
    rep = verify_duality(plan, pots, model)
    assert rep.primal_value == pytest.approx(value, abs=1e-12)
    assert rep.relative_gap <= 1e-10
    assert rep.max_slackness_violation <= 1e-9
    assert rep.max_dual_violation <= 1e-9
    assert rep.diagonal_clearance_alpha > 0.0
    assert rep.potential_bound_satisfied
    assert rep.potential_sup <= rep.potential_bound
    assert rep.cost_mode == "cell"
    d = rep.as_dict()
    assert set(d) >= {"primal_value", "dual_value", "relative_gap"}
    assert "primal_value=" in rep.to_kv_block()
    assert '"relative_gap"' in rep.to_json()


@functools.cache
def _solved_ball():
    """The certified plan and potentials of the d = 2, level 2, N = 3
    ball."""
    mu = discretize(UniformBall(center=(0.0, 0.0), radius=1.0), GridSpec(2, 1.0, 2))
    plan, pots, _ = solve_mmot(mu, coulomb(3))
    return plan, pots


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(1e-6, 1e-2))
def test_verify_duality_flags_a_potential_raised_at_one_cell(pick, delta):
    # every support cell lies in a tight atom of the plan, which the raised
    # potential overprices by at least delta
    plan, pots = _solved_ball()
    values = pots.values.copy()
    values[:, pick % values.shape[1]] += delta
    raised = PotentialVector(pots.grid, pots.cells, values)
    assert verify_duality(plan, pots, coulomb(3)).max_dual_violation <= 1e-9
    report = verify_duality(plan, raised, coulomb(3))
    assert report.max_dual_violation >= delta - 1e-12


def test_verify_duality_shape_checks():
    plan = _two_point_plan(diagonal=False)
    other = GridSpec(level=2, window_halfwidth=1.0, dimension=1)
    pots_wrong_grid = _potentials(other, ({}, {}))
    with pytest.raises(DimensionMismatch):
        verify_duality(plan, pots_wrong_grid, coulomb(2))
    pots3 = _potentials(G1, ({}, {}, {}))
    with pytest.raises(DimensionMismatch):
        verify_duality(plan, pots3, coulomb(2))
    pots2 = _potentials(G1, ({(-1,): 0.0, (2,): 0.0}, {(-1,): 0.0, (2,): 0.0}))
    with pytest.raises(DimensionMismatch):
        verify_duality(plan, pots2, coulomb(3))
    # potentials without a cell of the plan name the first slot and cell
    short = _potentials(G1, ({(-1,): 0.0}, {(-1,): 0.0}))
    with pytest.raises(DimensionMismatch, match=r"potential 0 has no value at cell \(2,\)"):
        verify_duality(plan, short, coulomb(2))


def test_diagonal_clearance_cases():
    diag = _two_point_plan(diagonal=True)
    assert diagonal_clearance(diag) == 0.0
    swap = _two_point_plan(diagonal=False)
    # cells -1 and 2 are separated by two interior cells: distance 1
    assert diagonal_clearance(swap) == pytest.approx(1.0)
    # a plan without atoms leaves nothing to measure
    assert diagonal_clearance(TransportPlan(G1, 2, {})) == math.inf


def _atom_separations(plan):
    """(cells, weight, separation) of the plan's atoms in support order,
    by an explicit inf_dist loop over slot pairs."""
    n = plan.n_marginals
    out = []
    for cells in plan.support():
        sep = min(
            inf_dist(cells[i], cells[j], plan.grid)
            for i in range(n) for j in range(i + 1, n)
        )
        out.append((cells, plan.atoms[cells], sep))
    return out


def _bound_parameters_loop(plan, model, m_fraction=0.1):
    atoms = _atom_separations(plan)
    best_cells, best_sep, plan_mass = None, 0.0, 0.0
    for cells, w, sep in atoms:
        plan_mass += w
        if sep > best_sep:
            best_cells, best_sep = cells, sep
    if best_cells is None:
        raise NoOffDiagonalSupport("reference")
    alpha = min(sep for _, _, sep in atoms)
    r = (alpha if alpha > 0.0 else best_sep) / 4.0
    centers = [plan.grid.cell_center(c) for c in best_cells]
    profiles = _ball_mass_profiles(plan, [np.array(c) for c in centers])
    while True:
        mass = 0.0
        for dist, cum in profiles:
            idx = np.searchsorted(dist, r, side="left")
            if idx > 0:
                mass += float(cum[idx - 1])
        if mass < m_fraction * plan_mass / 4.0:
            return r, pointwise_cost(model, centers) / plan.n_marginals
        r *= 2.0**-0.125


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_clearance_and_bound_parameters_match_inf_dist_loop(n, d):
    rng = np.random.default_rng(10 * n + d)
    for level in (1, 2):
        grid = GridSpec(level=level, window_halfwidth=1.0, dimension=d)
        lo, hi = grid.index_range
        for _ in range(4):
            tuples = {
                tuple(tuple(int(a) for a in rng.integers(lo, hi + 1, size=d)) for _ in range(n))
                for _ in range(int(rng.integers(1, 30)))
            }
            w = rng.uniform(0.1, 1.0, size=len(tuples))
            plan = TransportPlan(grid, n, dict(zip(sorted(tuples), (w / w.sum()).tolist())))
            expected = min(sep for _, _, sep in _atom_separations(plan))
            assert diagonal_clearance(plan) == expected
            try:
                ref = _bound_parameters_loop(plan, coulomb(n))
            except NoOffDiagonalSupport:
                with pytest.raises(NoOffDiagonalSupport):
                    bound_parameters(plan, coulomb(n))
            else:
                assert bound_parameters(plan, coulomb(n)) == ref
    # cells the grid does not hold: out of range, or of the wrong dimension
    with pytest.raises(ValueError, match="not a valid index"):
        diagonal_clearance(TransportPlan(G1, 2, {((-1,), (3,)): 1.0}))
    with pytest.raises(ValueError):
        diagonal_clearance(TransportPlan(G1, 2, {((-1, 1), (2, 1)): 1.0}))


def product_plan(measure: DiscreteMeasure, n_marginals: int, max_atoms: int = 2_000_000) -> TransportPlan:
    """The independent coupling: every support tuple, weight = product."""
    support = measure.support()
    m = len(support)
    if m**n_marginals > max_atoms:
        raise ValueError(
            f"product plan would have {m**n_marginals} atoms, above the cap {max_atoms}"
        )
    atoms = {}
    for combo in itertools.product(support, repeat=n_marginals):
        w = 1.0
        for c in combo:
            w *= measure.atoms[c]
        atoms[combo] = w
    return TransportPlan(measure.grid, n_marginals, atoms)


def test_product_plan_and_its_cost():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    mu = DiscreteMeasure(g, {(-1,): 0.25, (1,): 0.25, (2,): 0.5})
    pp = product_plan(mu, 2)
    pp.validate()
    assert len(pp.atoms) == 9
    assert pp.atoms[((-1,), (2,))] == pytest.approx(0.125)
    direct = plan_cost(pp, coulomb(2))
    assert product_plan_cost(mu, coulomb(2)) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        product_plan(mu, 2, max_atoms=4)
    # pointwise product cost is infinite: the diagonal carries mass
    assert product_plan_cost(mu, coulomb(2), cost_mode="pointwise") == math.inf


def test_bound_formulas_frozen_values():
    assert potential_bound(2, 1.0, 0.0) == 4.0
    assert potential_bound(2, 1.0, 1.0) == 3.0
    assert potential_bound(3, 0.5, 0.0) == 48.0


def test_bound_parameters_off_diagonal_plan():
    plan = _two_point_plan(diagonal=False)
    r, k = bound_parameters(plan, coulomb(2))
    assert 0.0 < r <= diagonal_clearance(plan) / 4.0 + 1e-12
    centers = [plan.grid.cell_center(c) for c in ((-1,), (2,))]
    assert k == pytest.approx(pointwise_cost(coulomb(2), centers) / 2.0)
    assert potential_bound(2, r, k) > 0.0
    with pytest.raises(ValueError):
        bound_parameters(plan, coulomb(2), m_fraction=1.5)


def test_bound_parameters_needs_off_diagonal_atom():
    plan = _two_point_plan(diagonal=True)
    with pytest.raises(NoOffDiagonalSupport):
        bound_parameters(plan, coulomb(2))


def test_swap_two_point_diagonal_becomes_antidiagonal():
    plan = _two_point_plan(diagonal=True)
    before = plan_cost(plan, coulomb(2))
    centers = [((-1,), (-1,)), ((2,), (2,))]
    new, after = swap_improve(plan, coulomb(2), centers, [0.3, 0.3])
    assert new.atoms == {
        ((-1,), (2,)): pytest.approx(0.5),
        ((2,), (-1,)): pytest.approx(0.5),
    }
    assert after < before
    assert after == pytest.approx(plan_cost(new, coulomb(2)))
    for slot in (0, 1):
        assert new.marginal(slot) == plan.marginal(slot)


def test_swap_three_point_latin_rotation():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    cells = [(-1,), (1,), (2,)]
    third = 1.0 / 3.0
    plan = TransportPlan(g, 3, {(c, c, c): third for c in cells})
    centers = [(c, c, c) for c in cells]
    new, after = swap_improve(plan, coulomb(3), centers, [0.2, 0.2, 0.2])
    assert len(new.atoms) == 3
    for t, w in new.atoms.items():
        assert w == pytest.approx(third)
        assert len(set(t)) == 3
    # each slot sees each cell exactly once: a Latin square
    for slot in range(3):
        assert sorted(t[slot] for t in new.atoms) == cells
        assert new.marginal(slot) == plan.marginal(slot)
    assert after < plan_cost(plan, coulomb(3))


def test_swap_rejects_overlapping_neighborhoods():
    plan = _two_point_plan(diagonal=True)
    centers = [((-1,), (-1,)), ((2,), (2,))]
    with pytest.raises(OverlappingNeighborhoods):
        swap_improve(plan, coulomb(2), centers, [5.0, 5.0])


def test_swap_rejects_empty_restriction():
    plan = _two_point_plan(diagonal=True)
    # second neighborhood sits on a cell holding no plan mass
    centers = [((-1,), (-1,)), ((1,), (1,))]
    with pytest.raises(EmptyRestriction):
        swap_improve(plan, coulomb(2), centers, [0.3, 0.3])


def test_swap_validates_arguments():
    plan = _two_point_plan(diagonal=True)
    with pytest.raises(ValueError):
        swap_improve(plan, coulomb(2), [((-1,), (-1,))], [0.3])
    with pytest.raises(ValueError):
        swap_improve(
            plan, coulomb(2), [((-1,), (-1,)), ((2,), (2,))], [0.3, -0.1]
        )
    with pytest.raises(ValueError):
        swap_improve(plan, coulomb(2), [((-1,),), ((2,), (2,))], [0.3, 0.3])


def test_plan_file_roundtrip(tmp_path):
    plan = _two_point_plan(diagonal=False)
    path = tmp_path / "swap.plan"
    save_plan(plan, path)
    back = load_plan(path)
    assert back.grid == plan.grid
    assert back.n_marginals == 2
    assert back.atoms == plan.atoms


def test_plan_file_errors(tmp_path):
    head = "mmot-plan v1 level=1 halfwidth=1.0 dim=1 N=2\n"
    cases = {
        "empty.plan": ("", ParseError),
        "arity.plan": (head + "-1 0.5\n", ParseError),
        "dupe.plan": (head + "-1 2 0.5\n-1 2 0.5\n", ParseError),
        "neg.plan": (head + "-1 2 -0.5\n2 -1 1.5\n", NegativeWeight),
        "mass.plan": (head + "-1 2 0.4\n2 -1 0.4\n", NormalizationError),
        "marg.plan": (head + "-1 2 0.7\n2 -1 0.3\n", ParseError),
        "outside.plan": (head + "-9 2 1.0\n", ParseError),
        "badn.plan": ("mmot-plan v1 level=1 halfwidth=1.0 dim=1 N=1\n-1 0.5\n", ParseError),
    }
    for name, (text, exc) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(exc):
            load_plan(path)


def test_potentials_file_roundtrip(tmp_path):
    pots = _potentials(
        G1, ({(-1,): 0.25, (2,): -0.5}, {(-1,): 0.0, (2,): 1.25e-3})
    )
    path = tmp_path / "u.potentials"
    save_potentials(pots, path)
    back = load_potentials(path)
    assert back.grid == pots.grid
    assert back.cells.dtype == np.int64 and back.cells.tolist() == pots.cells.tolist()
    assert back.values.tolist() == pots.values.tolist()
    # a file with its lines in any order loads to the same arrays and
    # saves back to the canonical bytes
    canonical = path.read_text()
    head, *body = canonical.splitlines()
    shuffled = tmp_path / "shuffled.potentials"
    shuffled.write_text("\n".join([head] + body[::-1]) + "\n")
    again = tmp_path / "again.potentials"
    save_potentials(load_potentials(shuffled), again)
    assert again.read_text() == canonical


def test_potentials_file_errors(tmp_path):
    head = "mmot-potentials v1 level=1 halfwidth=1.0 dim=1 N=2\n"
    cases = {
        "slot.potentials": (head + "3 1 0.5\n", ParseError),
        "arity.potentials": (head + "1 0.5\n", ParseError),
        "dupe.potentials": (head + "1 1 0.5\n1 1 0.25\n", ParseError),
        "cell.potentials": (head + "1 7 0.5\n", ParseError),
    }
    for name, (text, exc) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(exc):
            load_potentials(path)


# ---------------------------------------------------------------------------
# The array view against per-atom references: every atom priced by one
# cell_cost_lower or pointwise_cost call, every sum a math.fsum, marginals
# accumulated atom by atom in sorted atom order.


def _ref_slab_excess(u_mat, recip):
    """max_dual_excess as one freshly allocated slab per prefix."""
    n, m = u_mat.shape
    best = -math.inf
    tail = u_mat[n - 2][:, None] + u_mat[n - 1][None, :]
    for prefix in itertools.product(range(m), repeat=n - 2):
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
        best = max(best, float(np.max(excess)))
    return best


def _ref_report(plan, pots, model, mode, positions):
    """Every DualityReport number, atom by atom."""
    grid, n = plan.grid, plan.n_marginals
    slots = [dict(zip(map(tuple, pots.cells.tolist()), row)) for row in pots.values.tolist()]

    def point(c):
        return positions[c] if positions is not None and c in positions else grid.cell_center(c)

    priced = []
    for cells, w in sorted(plan.atoms.items()):
        if mode == "cell":
            priced.append((cells, w, cell_cost_lower(model, cells, grid)))
        else:
            priced.append((cells, w, pointwise_cost(model, [point(c) for c in cells])))
    if any(math.isinf(c) for _, _, c in priced):
        primal = math.inf
    else:
        primal = math.fsum(w * c for _, w, c in priced)
    weights = {}
    for cells, w, _ in priced:
        weights[cells[0]] = weights.get(cells[0], 0.0) + w
    support = sorted(weights)
    dual = math.fsum(slots[i][c] * weights[c] for i in range(n) for c in support)
    slack = 0.0
    for cells, _, c in priced:
        u_sum = math.fsum(slots[i][cells[i]] for i in range(n))
        if not math.isinf(c):
            slack = max(slack, c - u_sum)
    u_mat = np.array([[slots[i][c] for c in support] for i in range(n)])
    if mode == "cell":
        recip = pair_recip_matrix(model, grid, np.array(support))
    else:
        recip = pair_recip_matrix_points(model, np.array([point(c) for c in support]))
    alpha = min((sep for _, _, sep in _atom_separations(plan)), default=math.inf)
    cells_all = sorted(set().union(*slots))
    pot_sup = max(abs(math.fsum(v[c] for v in slots) / n) for c in cells_all)
    try:
        r, k = _bound_parameters_loop(plan, model)
        bound = potential_bound(n, r, k)
        satisfied = pot_sup <= bound + 1e-12
    except NoOffDiagonalSupport:
        r, k, bound, satisfied = math.nan, math.nan, math.nan, False
    return {
        "primal_value": primal,
        "dual_value": dual,
        "relative_gap": abs(primal - dual) / (1.0 + abs(primal)),
        "max_slackness_violation": max(slack, 0.0),
        "diagonal_clearance_alpha": alpha,
        "potential_bound": bound,
        "potential_bound_satisfied": satisfied,
        "max_dual_violation": max(_ref_slab_excess(u_mat, recip), 0.0),
        "potential_sup": pot_sup,
        "bound_radius": r,
        "bound_level_constant": k,
    }


def _same(a, b) -> bool:
    """Bitwise equality of two report values."""
    if isinstance(a, float) or isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def _random_plan(rng, grid, n, apart):
    """Distinct random atoms over six cells, in random insertion order,
    with positive weights summing to about one; with apart, no atom
    repeats a cell (finite pointwise cost), else some do."""
    lo, hi = grid.index_range
    pool = [tuple(int(a) for a in rng.integers(lo, hi + 1, size=grid.dimension)) for _ in range(6)]
    atoms = {
        tuple(pool[int(i)] for i in rng.choice(len(pool), size=n, replace=not apart))
        for _ in range(int(rng.integers(1, 25)))
    }
    keys = list(atoms)
    rng.shuffle(keys)
    w = rng.uniform(0.1, 1.0, size=len(keys))
    return TransportPlan(grid, n, dict(zip(keys, (w / w.sum()).tolist())))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_array_view_matches_per_atom_reference(n, d):
    rng = np.random.default_rng(100 * n + d)
    for trial in range(8):
        grid = GridSpec(level=1 + trial % 2, window_halfwidth=1.0, dimension=d)
        plan = _random_plan(rng, grid, n, apart=trial >= 4)
        cells = sorted(set().union(*[set(t) for t in plan.atoms]))
        pots = _potentials(
            grid, tuple({c: float(rng.normal()) for c in cells} for _ in range(n))
        )
        side = grid.cell_side
        inside = {
            c: tuple((a - 1 + float(rng.uniform(0.05, 0.95))) * side for a in c) for c in cells
        }
        model = coulomb(n) if trial % 3 else power_law(1.5, n)
        for mode, positions in (("cell", None), ("pointwise", None), ("pointwise", inside)):
            want = _ref_report(plan, pots, model, mode, positions)
            assert _same(plan_cost(plan, model, cost_mode=mode, positions=positions),
                         want["primal_value"])
            got = verify_duality(plan, pots, model, cost_mode=mode, positions=positions).as_dict()
            for key, value in want.items():
                assert _same(got[key], value), (key, got[key], value)
        marg = {}
        for t, w in sorted(plan.atoms.items()):
            marg[t[-1]] = marg.get(t[-1], 0.0) + w
        assert plan.marginal(n - 1) == dict(sorted(marg.items()))


def test_array_view_is_sorted_and_typed():
    plan = TransportPlan(G1, 2, {((2,), (-1,)): 0.25, ((-1,), (2,)): 0.75})
    cells, w = plan.arrays
    assert cells.dtype == np.int64 and cells.shape == (2, 2, 1)
    assert cells.tolist() == [[[-1], [2]], [[2], [-1]]]
    assert w.tolist() == [0.75, 0.25]
    assert plan.arrays is plan.arrays
    back = TransportPlan.from_arrays(G1, 2, cells[::-1], w[::-1])
    assert list(back.atoms) == [((-1,), (2,)), ((2,), (-1,))]
    assert back.arrays[0].tolist() == cells.tolist()


@pytest.mark.parametrize(
    "atoms, match",
    [
        ({((-1,), (3,)): 0.5, ((3,), (-1,)): 0.5}, "not a valid index"),
        ({((-1,), (2,), (2,)): 1.0}, "slots"),
        ({((-1,), (2,)): 1.0, ((2, 0), (-1,)): 0.0}, "slots"),
        ({((-1,), (2,)): 0.5, ((2,), (-1,)): 0.5, ((1,), (1,)): 0.0}, "nonpositive"),
        ({((-1,), (2,)): 1.5, ((2,), (-1,)): -0.5}, "nonpositive"),
        ({((-1,), (2,)): 0.7, ((2,), (-1,)): 0.3}, "marginal 1"),
        ({((-1,), (2,)): 0.5, ((2,), (-1,)): 0.4}, "plan mass"),
    ],
)
def test_validate_rejects(atoms, match):
    with pytest.raises(ValueError, match=match):
        TransportPlan(G1, 2, atoms).validate()


def test_plan_file_errors_by_line(tmp_path):
    head = "mmot-plan v1 level=1 halfwidth=1.0 dim=1 N=2\n"
    cases = {
        "float.plan": (head + "-1 2 0.5\n2 -1.5 0.5\n", ParseError, "invalid literal"),
        "slot2.plan": (head + "-1 2 0.5\n2 5 0.5\n", ParseError, r"cell \(5,\) outside"),
        # a NaN weight is not positive: the same error as a negative one
        "nan.plan": (head + "-1 2 nan\n2 -1 0.5\n", NegativeWeight, "nan"),
        # the first bad line decides, whatever its fault
        "order1.plan": (head + "-1 2 -0.5\n2 x 0.5\n", NegativeWeight, "-0.5"),
        "order2.plan": (head + "-1 9 0.5\n2 -1 -0.5\n", ParseError, "outside"),
        "order3.plan": (head + "-1 2 0.5\n-1 2 0.5\n2 -1 0.5 7\n", ParseError, "duplicate"),
        "order4.plan": (head + "-1 2 0.5\n2 -1\n-1 9 0.5\n", ParseError, "expected 2"),
    }
    for name, (text, exc, match) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(exc, match=match):
            load_plan(path)


def test_potentials_file_errors_by_line(tmp_path):
    head = "mmot-potentials v1 level=1 halfwidth=1.0 dim=1 N=2\n"
    cases = {
        "order1.potentials": (head + "1 9 0.5\n3 1 0.5\n", "outside"),
        "order2.potentials": (head + "3 1 0.5\n1 9 0.5\n", "out of range"),
        "order3.potentials": (head + "1 1 0.5\n1 1 0.5\n2 x 0.5\n", "duplicate"),
        "order4.potentials": (head + "1 1 x\n1 9 0.5\n", "could not convert"),
    }
    for name, (text, match) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError, match=match):
            load_potentials(path)
