"""Pairwise repulsive costs: pointwise values and the finite cell bound."""

import itertools
import math

import numpy as np
import pytest

from mmot.cost import (
    CostModel,
    cell_cost_lower,
    coulomb,
    pair_recip_matrix,
    pair_recip_matrix_points,
    pointwise_cost,
    power_law,
    tuple_costs,
)
from mmot.grid import GridSpec, cell_of, children

from oracles import pairwise_gap_sq, pairwise_interaction


def is_permutation_invariant_check(model, cells, grid) -> bool:
    """Evaluate cell_cost_lower on every reordering and compare exactly."""
    ref = cell_cost_lower(model, cells, grid)
    return all(
        cell_cost_lower(model, perm, grid) == ref for perm in itertools.permutations(cells)
    )


def test_model_validation():
    with pytest.raises(ValueError):
        CostModel("coulomb", 2.0, 2)
    with pytest.raises(ValueError):
        CostModel("power", -1.0, 2)
    with pytest.raises(ValueError):
        CostModel("power", 1.0, 1)
    with pytest.raises(ValueError):
        CostModel("gravity", 1.0, 2)
    assert coulomb(3).exponent == 1.0
    assert power_law(2.0, 2).kind == "power"


def test_pointwise_cost_closed_forms():
    two = coulomb(2)
    # two points at distance 2
    assert pointwise_cost(two, [(-1.0,), (1.0,)]) == 0.5
    # coincidence is +inf, not an error
    assert pointwise_cost(two, [(0.3,), (0.3,)]) == math.inf
    three = coulomb(3)
    tri = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    assert pointwise_cost(three, tri) == pytest.approx(3.0, abs=1e-12)


def test_pointwise_cost_matches_oracle():
    rng = np.random.default_rng(23)
    for model in (coulomb(2), coulomb(3), power_law(2.0, 3)):
        for _ in range(40):
            pts = rng.uniform(-1, 1, size=(model.n_marginals, 3))
            want = pairwise_interaction(pts, model.exponent)
            got = pointwise_cost(model, [tuple(p) for p in pts])
            assert got == pytest.approx(want, rel=1e-12)


def test_pointwise_cost_arity_check():
    with pytest.raises(ValueError):
        pointwise_cost(coulomb(3), [(0.0,), (1.0,)])


def test_cell_cost_frozen_values():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=3)
    two = coulomb(2)
    same = ((1, 1, 1), (1, 1, 1))
    assert cell_cost_lower(two, same, g) == pytest.approx(
        1.1547005383792515, abs=1e-15
    )
    near = ((1, 1, 1), (2, 1, 1))
    assert cell_cost_lower(two, near, g) == pytest.approx(
        0.816496580927726, abs=1e-15
    )


def test_cell_cost_is_lower_bound():
    rng = np.random.default_rng(31)
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=2)
    model = coulomb(3)
    for _ in range(60):
        pts = rng.uniform(-1, 1, size=(3, 2))
        cells = tuple(cell_of(tuple(p), g) for p in pts)
        lower = cell_cost_lower(model, cells, g)
        true = pointwise_cost(model, [tuple(p) for p in pts])
        assert lower <= true + 1e-12
        assert math.isfinite(lower)


def test_cell_cost_finite_on_diagonal():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    model = coulomb(3)
    v = cell_cost_lower(model, ((1,), (1,), (1,)), g)
    # three pairs, each at reciprocal cell side
    assert v == pytest.approx(3 * 2.0, abs=1e-12)


def test_cell_cost_monotone_under_refinement():
    rng = np.random.default_rng(37)
    model = coulomb(3)
    for _ in range(50):
        pts = rng.uniform(-1, 1, size=(3, 2))
        prev = 0.0
        for level in range(0, 5):
            g = GridSpec(level=level, window_halfwidth=1.0, dimension=2)
            cells = tuple(cell_of(tuple(p), g) for p in pts)
            v = cell_cost_lower(model, cells, g)
            assert v >= prev
            prev = v
        assert prev <= pointwise_cost(model, [tuple(p) for p in pts])


def test_cell_cost_permutation_invariance_exact():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=2)
    rng = np.random.default_rng(41)
    model = coulomb(3)
    cells = list(g.all_cells())
    for _ in range(25):
        pick = rng.choice(len(cells), size=3)
        tup = tuple(cells[i] for i in pick)
        assert is_permutation_invariant_check(model, tup, g)
        perms = {cell_cost_lower(model, p, g) for p in itertools.permutations(tup)}
        assert len(perms) == 1


def test_pair_recip_matrix_consistent_with_tuple_costs():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=1)
    model = coulomb(3)
    cells = [(a,) for a in range(-2, 3)]
    coords = np.array(cells)
    recip = pair_recip_matrix(model, g, coords)
    idx = np.array(list(itertools.product(range(len(cells)), repeat=3)))
    vals = tuple_costs(recip, idx)
    for row, t in zip(vals, idx):
        tup = tuple(cells[i] for i in t)
        assert row == pytest.approx(cell_cost_lower(model, tup, g), rel=1e-13)


def test_pair_recip_matrix_matches_pairwise_gap_sq_bitwise():
    # the per-axis int64 accumulation gives the same squared sup gaps as
    # the (m, m, d) broadcast, so the matrix is bitwise unchanged
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        g = GridSpec(level=3, window_halfwidth=1.0, dimension=d)
        lo, hi = g.index_range
        coords = rng.integers(lo, hi + 1, size=(40, d))
        sup_sq, _ = pairwise_gap_sq(coords)
        dist = g.cell_side * np.sqrt(sup_sq.astype(float))
        for model in (coulomb(2), power_law(2.0, 2), power_law(0.5, 3), power_law(1.7, 2)):
            want = 1.0 / dist if model.exponent == 1.0 else dist**-model.exponent
            assert np.array_equal(pair_recip_matrix(model, g, coords), want), (d, model)


def test_pair_recip_matrix_points_diagonal_infinite():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    recip = pair_recip_matrix_points(coulomb(2), pts)
    assert np.isinf(np.diag(recip)).all()
    assert recip[0, 1] == 1.0
    assert recip[0, 2] == 0.5
    assert recip[1, 2] == pytest.approx(1.0 / np.sqrt(5.0))


def test_power_law_scaling():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    sq = power_law(2.0, 2)
    # adjacent cells: sup distance 1, same cell: sup distance 1/2
    assert cell_cost_lower(sq, ((1,), (2,)), g) == 1.0
    assert cell_cost_lower(sq, ((1,), (1,)), g) == 4.0
    assert pointwise_cost(sq, [(0.0,), (0.5,)]) == 4.0


def test_children_refine_recip_matrix_monotone():
    # the matrix route and the scalar route agree on refinement gains
    coarse = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    fine = coarse.refined()
    model = coulomb(2)
    for a in range(coarse.index_range[0], coarse.index_range[1] + 1):
        for b in range(a, coarse.index_range[1] + 1):
            base = cell_cost_lower(model, ((a,), (b,)), coarse)
            for ka in children((a,)):
                for kb in children((b,)):
                    assert cell_cost_lower(model, (ka, kb), fine) >= base
