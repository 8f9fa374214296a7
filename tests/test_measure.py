"""Discretization and file round-trips for cell-supported measures."""

import math

import numpy as np
import pytest

from mmot.errors import (
    NegativeWeight,
    NormalizationError,
    ParseError,
    SupportOutsideWindow,
    ZeroMass,
)
from mmot.grid import GridSpec, cell_of
from mmot.measure import (
    FiniteAtomic,
    TruncatedGaussian,
    UniformBall,
    _smooth_cell_weights,
    discretize,
    load_measure,
    save_measure,
)


def test_atomic_discretization_places_points_exactly():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=1)
    rho = FiniteAtomic(points=((-0.6,), (0.1,), (0.9,)), weights=(0.25, 0.5, 0.25))
    mu = discretize(rho, g)
    mu.validate()
    assert len(mu.atoms) == 3
    for pt, w in zip(rho.points, rho.weights):
        cell = cell_of(pt, g)
        assert mu.atoms[cell] == pytest.approx(w, abs=1e-15)
        assert mu.positions[cell] == pt


def test_atomic_collision_merges_weights():
    g = GridSpec(level=0, window_halfwidth=1.0, dimension=1)
    rho = FiniteAtomic(points=((0.1,), (0.3,), (-0.5,)), weights=(0.2, 0.2, 0.6))
    mu = discretize(rho, g)
    assert mu.atoms[(1,)] == pytest.approx(0.4)
    assert mu.atoms[(0,)] == pytest.approx(0.6)
    # colliding atoms are represented by their weighted mean location
    assert mu.positions[(1,)] == pytest.approx((0.2,))


def test_atomic_outside_window_raises():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    rho = FiniteAtomic(points=((1.5,),), weights=(1.0,))
    with pytest.raises(SupportOutsideWindow):
        discretize(rho, g)


def test_atomic_bad_weight_raises():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    rho = FiniteAtomic(points=((0.0,), (0.5,)), weights=(1.0, -0.5))
    with pytest.raises(NegativeWeight):
        discretize(rho, g)


def test_ball_discretization_mass_and_support():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=2)
    mu = discretize(UniformBall(center=(0.0, 0.0), radius=0.8), g, samples_per_axis=8)
    mu.validate()
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)
    # every support cell intersects the ball: its center is within
    # radius + half the cell diagonal
    slack = 0.8 + g.cell_side * math.sqrt(2) / 2
    for cell in mu.support():
        assert np.linalg.norm(g.cell_center(cell)) <= slack + 1e-12
    # cells straddling the boundary get less weight than interior cells
    interior = mu.atoms[cell_of((0.1, 0.1), g)]
    rim = mu.atoms[cell_of((0.7, 0.3), g)]
    assert rim < interior


def test_ball_leaving_window_raises():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    with pytest.raises(SupportOutsideWindow):
        discretize(UniformBall(center=(0.5,), radius=0.8), g)


def test_ball_symmetric_weights():
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=1)
    mu = discretize(UniformBall(center=(0.0,), radius=1.0), g, samples_per_axis=16)
    for a in range(1, 5):
        assert mu.atoms[(a,)] == pytest.approx(mu.atoms[(1 - a,)], rel=1e-12)


def test_gaussian_weights_match_quadrature_oracle():
    # independent check: dense per-cell midpoint quadrature in pure python
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=1)
    rho = TruncatedGaussian(center=(0.2,), sigma=0.5)
    mu = discretize(rho, g, samples_per_axis=32)
    raw = {}
    s = 32
    for a in range(g.index_range[0], g.index_range[1] + 1):
        lo = (a - 1) * g.cell_side
        total = 0.0
        for k in range(s):
            x = lo + (k + 0.5) * g.cell_side / s
            total += math.exp(-((x - 0.2) ** 2) / (2 * 0.5**2))
        raw[(a,)] = total
    z = math.fsum(raw.values())
    for cell, w in mu.atoms.items():
        assert w == pytest.approx(raw[cell] / z, rel=1e-12)


def _midpoint_mesh(g, s):
    lo, hi = g.index_range
    offs = (np.arange(s) + 0.5) * (g.cell_side / s)
    axis = ((np.arange(lo, hi + 1) - 1) * g.cell_side)[:, None] + offs[None, :]
    return np.stack(np.meshgrid(*([axis.ravel()] * g.dimension), indexing="ij"), axis=-1)


def _tie_radius(g, s, center):
    """The largest radius inside the window whose square equals some
    midpoint sample's squared distance from the center, as evaluate()
    computes it, so that sample sits exactly on the `<=` boundary."""
    d2 = ((_midpoint_mesh(g, s) - np.asarray(center)) ** 2).sum(axis=-1)
    room = g.window_halfwidth - max(abs(c) for c in center)
    for x in np.unique(d2)[::-1]:
        r = math.sqrt(float(x))
        if r <= room and r**2 == x:
            return r
    raise AssertionError("no sample distance has an exact square root")


def test_slab_weights_equal_full_mesh_sum():
    # balls are counted one axis at a time and other densities summed one
    # first-axis cell slab at a time; the reference evaluates the whole
    # midpoint mesh at once
    g3 = GridSpec(level=1, window_halfwidth=1.0, dimension=3)
    g2 = GridSpec(level=1, window_halfwidth=1.0, dimension=2)
    g8 = GridSpec(level=0, window_halfwidth=1.0, dimension=8)
    c8 = (0.1, -0.05, 0.03, 0.0, 0.02, -0.01, 0.07, 0.04)
    cases = [
        (g3, 6, UniformBall(center=(0.0, 0.0, 0.0), radius=1.0)),
        (g3, 6, TruncatedGaussian(center=(0.2, -0.1, 0.3), sigma=0.5)),
        # off-center balls, odd sample counts among them
        (GridSpec(level=2, window_halfwidth=1.0, dimension=1), 5, UniformBall((0.3,), 0.55)),
        (GridSpec(level=2, window_halfwidth=1.0, dimension=2), 7, UniformBall((0.1, -0.25), 0.6)),
        (g3, 6, UniformBall((0.2, -0.1, 0.3), 0.5)),
        # balls touching the window edge, |c| + r = R
        (g2, 4, UniformBall((0.5, 0.0), 0.5)),
        (g3, 3, UniformBall((0.0, 0.25, 0.0), 0.75)),
        # a sample exactly on the sphere
        (g3, 5, UniformBall((0.0, 0.0, 0.0), _tie_radius(g3, 5, (0.0, 0.0, 0.0)))),
        (g2, 5, UniformBall((0.1, -0.3), _tie_radius(g2, 5, (0.1, -0.3)))),
        # from eight axes on, evaluate() no longer sums left to right
        (g8, 2, UniformBall(c8, _tie_radius(g8, 2, c8))),
    ]
    for g, s, density in cases:
        lo, hi = g.index_range
        n = hi - lo + 1
        d = g.dimension
        full = density.evaluate(_midpoint_mesh(g, s))
        full = full.reshape((n, s) * d).sum(axis=tuple(range(1, 2 * d, 2)))
        want = {
            tuple(int(k) + lo for k in idx): float(v)
            for idx, v in np.ndenumerate(full)
            if v > 0.0
        }
        assert _smooth_cell_weights(density, g, s) == want, (g, s, density)


def test_gaussian_mass_concentrates_near_center():
    g = GridSpec(level=3, window_halfwidth=1.0, dimension=1)
    mu = discretize(TruncatedGaussian(center=(0.0,), sigma=0.2), g, samples_per_axis=8)
    peak = cell_of((0.0,), g)
    assert mu.atoms[peak] == max(mu.atoms.values())


def test_zero_mass_raises():
    g = GridSpec(level=1, window_halfwidth=1.0, dimension=1)
    with pytest.raises(ZeroMass):
        discretize(UniformBall(center=(0.0,), radius=0.0), g)


def test_measure_file_roundtrip(tmp_path):
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=2)
    mu = discretize(UniformBall(center=(0.0, 0.0), radius=0.9), g, samples_per_axis=8)
    path = tmp_path / "ball.measure"
    save_measure(mu, path)
    back = load_measure(path)
    assert back.grid == g
    assert back.atoms.keys() == mu.atoms.keys()
    for cell in mu.atoms:
        assert back.atoms[cell] == mu.atoms[cell]


def test_measure_file_comments_and_renormalization(tmp_path):
    path = tmp_path / "hand.measure"
    path.write_text(
        "# hand-written fixture\n"
        "mmot-measure v1 level=1 halfwidth=1.0 dim=1\n"
        "1 0.5000000001   # slightly off on purpose\n"
        "2 0.5\n"
    )
    mu = load_measure(path)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_measure_file_errors(tmp_path):
    cases = {
        "empty.measure": ("", ParseError),
        "header.measure": ("mmot-plan v1 level=1 halfwidth=1.0 dim=1\n1 1.0\n", ParseError),
        "missing.measure": ("mmot-measure v1 level=1 dim=1\n1 1.0\n", ParseError),
        "arity.measure": ("mmot-measure v1 level=1 halfwidth=1.0 dim=2\n1 1.0\n", ParseError),
        "dupe.measure": (
            "mmot-measure v1 level=1 halfwidth=1.0 dim=1\n1 0.5\n1 0.5\n",
            ParseError,
        ),
        "outside.measure": (
            "mmot-measure v1 level=1 halfwidth=1.0 dim=1\n9 1.0\n",
            ParseError,
        ),
        "negative.measure": (
            "mmot-measure v1 level=1 halfwidth=1.0 dim=1\n1 -0.25\n2 1.25\n",
            NegativeWeight,
        ),
        "sum.measure": (
            "mmot-measure v1 level=1 halfwidth=1.0 dim=1\n1 0.7\n2 0.7\n",
            NormalizationError,
        ),
    }
    for name, (text, exc) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(exc):
            load_measure(path)


def test_sampling_resolution_converges():
    # finer subsampling changes boundary-cell weights only slightly
    g = GridSpec(level=2, window_halfwidth=1.0, dimension=2)
    rho = UniformBall(center=(0.0, 0.0), radius=0.75)
    coarse = discretize(rho, g, samples_per_axis=8)
    fine = discretize(rho, g, samples_per_axis=64)
    common = coarse.atoms.keys() & fine.atoms.keys()
    assert len(common) >= len(fine.atoms) - 8
    drift = max(abs(coarse.atoms[c] - fine.atoms[c]) for c in common)
    assert drift < 5e-3
