"""Dyadic grid geometry against first-principles interval arithmetic."""

import itertools

import numpy as np
import pytest

from mmot.errors import PointOutsideWindow
from mmot.grid import (
    GridSpec,
    cell_of,
    children,
    inf_dist,
    parent,
    sup_dist,
)

from oracles import box_inf_dist, box_sup_dist, cell_index_scalar, pairwise_gap_sq


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(level=-1, window_halfwidth=1.0)
    with pytest.raises(ValueError):
        GridSpec(level=0, window_halfwidth=0.0)
    with pytest.raises(ValueError):
        GridSpec(level=0, window_halfwidth=0.75)
    with pytest.raises(ValueError):
        GridSpec(level=2, window_halfwidth=1.0, dimension=0)
    # halfwidth * 2**level integral: 0.5 needs level >= 1
    with pytest.raises(ValueError):
        GridSpec(level=0, window_halfwidth=0.5)
    GridSpec(level=1, window_halfwidth=0.5, dimension=1)


def test_gridspec_layout():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=2)
    assert g.cell_side == 0.25
    assert g.half_cells == 4
    assert g.index_range == (-3, 4)
    assert g.contains_cell((-3, 4))
    assert not g.contains_cell((-4, 1))
    assert not g.contains_cell((1, 1, 1))
    cells = list(g.all_cells())
    assert len(cells) == 8**2
    assert all(g.contains_cell(c) for c in cells)
    assert g.refined().level == 3


def test_cell_bounds_and_center():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    assert g.cell_low((1,)) == (0.0,)
    assert g.cell_high((1,)) == (0.5,)
    assert g.cell_center((1,)) == (0.25,)
    assert g.cell_low((-1,)) == (-1.0,)
    assert g.cell_center((2,)) == (0.75,)


def test_cell_of_examples():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    assert cell_of((0.0,), g) == (1,)
    assert cell_of((0.25,), g) == (1,)
    assert cell_of((0.5,), g) == (2,)
    assert cell_of((-0.25,), g) == (0,)
    assert cell_of((-1.0,), g) == (-1,)
    # upper boundary is absorbed into the top cell
    assert cell_of((1.0,), g) == (2,)
    with pytest.raises(PointOutsideWindow):
        cell_of((1.0000001,), g)
    with pytest.raises(PointOutsideWindow):
        cell_of((-1.1,), g)
    with pytest.raises(ValueError):
        cell_of((0.0, 0.0), g)


def test_cell_of_matches_scalar_reference():
    rng = np.random.default_rng(7)
    for level, halfwidth, dim in [(0, 1.0, 1), (2, 1.0, 2), (3, 0.5, 3), (1, 2.0, 2)]:
        g = GridSpec(level=level, window_halfwidth=halfwidth, dimension=dim)
        pts = rng.uniform(-halfwidth, halfwidth, size=(200, dim))
        # sprinkle in exact boundary and lattice points
        pts[0] = halfwidth
        pts[1] = -halfwidth
        pts[2] = 0.0
        for p in pts:
            got = cell_of(tuple(p), g)
            want = tuple(cell_index_scalar(float(x), level, halfwidth) for x in p)
            assert got == want
            lo, hi = g.cell_low(got), g.cell_high(got)
            for x, a, b in zip(p, lo, hi):
                assert a <= x <= b


def test_point_always_inside_reported_cell_halfopen():
    g = GridSpec(level=3, window_halfwidth=1.0, dimension=1)
    # interior lattice point belongs to the cell above it
    assert cell_of((0.25,), g) == (3,)
    assert g.cell_low((3,)) == (0.25,)


def test_extremal_distances_match_interval_oracle():
    for level, dim in [(1, 1), (1, 2), (1, 3), (2, 2)]:
        g = GridSpec(level=level, window_halfwidth=1.0, dimension=dim)
        cells = list(g.all_cells())
        rng = np.random.default_rng(11)
        pick = rng.choice(len(cells), size=(60, 2))
        for ia, ib in pick:
            a, b = cells[ia], cells[ib]
            assert sup_dist(a, b, g) == pytest.approx(
                box_sup_dist(a, b, level), abs=1e-15
            )
            assert inf_dist(a, b, g) == pytest.approx(
                box_inf_dist(a, b, level), abs=1e-15
            )


def test_distance_frozen_values():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=3)
    c = (1, 1, 1)
    # cell diameter: sqrt(3)/2
    assert sup_dist(c, c, g) == pytest.approx(0.8660254037844386, abs=1e-16)
    assert inf_dist(c, c, g) == 0.0
    assert sup_dist((1, 1, 1), (2, 1, 1), g) == pytest.approx(
        1.224744871391589, abs=1e-15
    )
    # one-cell gap along the first axis
    wide = GridSpec(level=1, window_halfwidth=2.0, dimension=3)
    assert inf_dist((1, 1, 1), (3, 1, 1), wide) == 0.5
    # touching cells have zero minimal distance
    assert inf_dist((1, 1, 1), (2, 2, 2), g) == 0.0


def test_distance_symmetry_and_bounds():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=2)
    cells = list(g.all_cells())
    rng = np.random.default_rng(3)
    pick = rng.choice(len(cells), size=(80, 2))
    for ia, ib in pick:
        a, b = cells[ia], cells[ib]
        assert sup_dist(a, b, g) == sup_dist(b, a, g)
        assert inf_dist(a, b, g) == inf_dist(b, a, g)
        assert inf_dist(a, b, g) <= sup_dist(a, b, g)
        ca, cb = np.array(g.cell_center(a)), np.array(g.cell_center(b))
        mid = float(np.linalg.norm(ca - cb))
        assert inf_dist(a, b, g) <= mid + 1e-12
        assert sup_dist(a, b, g) >= mid - 1e-12


def test_parent_children_roundtrip():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=2)
    fine = g.refined()
    for cell in itertools.islice(g.all_cells(), 0, None, 7):
        kids = children(cell)
        assert len(kids) == 4
        assert len(set(kids)) == 4
        for kid in kids:
            assert fine.contains_cell(kid)
            assert parent(kid) == cell
        # children tile the parent box exactly
        lows = sorted(fine.cell_low(k) for k in kids)
        assert lows[0] == g.cell_low(cell)
        assert max(fine.cell_high(k)[0] for k in kids) == g.cell_high(cell)[0]


def test_cell_of_refinement_consistency():
    coarse = GridSpec(level=2, window_halfwidth=1.0, dimension=3)
    fine = coarse.refined()
    rng = np.random.default_rng(19)
    for p in rng.uniform(-1, 1, size=(100, 3)):
        assert parent(cell_of(tuple(p), fine)) == cell_of(tuple(p), coarse)


def test_refinement_tightens_extremal_distances():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=2)
    fine = g.refined()
    rng = np.random.default_rng(5)
    cells = list(g.all_cells())
    pick = rng.choice(len(cells), size=(40, 2))
    for ia, ib in pick:
        a, b = cells[ia], cells[ib]
        for ka in children(a):
            for kb in children(b):
                assert sup_dist(ka, kb, fine) <= sup_dist(a, b, g)
                assert inf_dist(ka, kb, fine) >= inf_dist(a, b, g)


def test_pairwise_gap_sq_matches_scalars():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=2)
    cells = list(itertools.islice(g.all_cells(), 0, None, 3))
    coords = np.array(cells)
    sup_sq, inf_sq = pairwise_gap_sq(coords)
    side = g.cell_side
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            assert side * np.sqrt(sup_sq[i, j]) == pytest.approx(
                sup_dist(a, b, g), abs=1e-15
            )
            assert side * np.sqrt(inf_sq[i, j]) == pytest.approx(
                inf_dist(a, b, g), abs=1e-15
            )


def test_require_cell_rejects_out_of_window():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    with pytest.raises(ValueError):
        sup_dist((1,), (3,), g)
    with pytest.raises(ValueError):
        inf_dist((0,), (-2,), g)
