"""Probability measures supported on grid cells, and how to build them.

A DiscreteMeasure assigns positive weight to finitely many cells of one
GridSpec, summing to one.  Smooth densities are discretized by midpoint
subsampling (s**d sample points per cell) followed by exact
renormalization; finite atomic densities are placed exactly via cell_of.
A uniform ball's samples are counted one axis at a time, by binary search
on the last axis's squared offsets, instead of evaluating every sample:
the counts, and so the weights, are exactly those of evaluate().

Atomic densities keep the original point locations alongside the cell
weights.  The solver's pointwise cost mode uses those locations, which is
what makes closed-form test instances exact instead of
cell-center-approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NegativeWeight,
    NormalizationError,
    ParseError,
    PointOutsideWindow,
    SupportOutsideWindow,
    ZeroMass,
)
from .grid import Cell, GridSpec, cell_of
from .tolerances import FILE_SUM, NORMALIZED, WINDOW_SLACK

_HEADER_MEASURE = "mmot-measure v1"


@dataclass(frozen=True)
class UniformBall:
    """Uniform density on a Euclidean ball."""

    center: tuple[float, ...]
    radius: float

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        d2 = ((points - c) ** 2).sum(axis=-1)
        return (d2 <= self.radius**2).astype(float)


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian density truncated to the grid window."""

    center: tuple[float, ...]
    sigma: float

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        d2 = ((points - c) ** 2).sum(axis=-1)
        return np.exp(-d2 / (2.0 * self.sigma**2))


@dataclass(frozen=True)
class FiniteAtomic:
    """Finitely many weighted points."""

    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if not self.points:
            raise ValueError("need at least one atom")


Density = UniformBall | TruncatedGaussian | FiniteAtomic


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure on the cells of one grid.

    atoms maps cell index tuples to positive weights summing to one (within
    1e-12).  positions, when present, holds one representative point per
    cell (atomic densities only) and is ignored by equality and file
    round-trips.
    """

    grid: GridSpec
    atoms: dict[Cell, float]
    positions: dict[Cell, tuple[float, ...]] | None = field(default=None, compare=False)

    def support(self) -> list[Cell]:
        return sorted(self.atoms)

    def total_mass(self) -> float:
        return math.fsum(self.atoms.values())

    def validate(self) -> None:
        for cell, w in self.atoms.items():
            self.grid.require_cell(cell)
            if not w > 0:
                raise ValueError(f"weight for cell {cell!r} must be positive, got {w!r}")
        total = self.total_mass()
        if abs(total - 1.0) > NORMALIZED:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {NORMALIZED}")


def _normalized_atoms(raw: dict[Cell, float]) -> dict[Cell, float]:
    total = math.fsum(raw.values())
    if total <= 0:
        raise ZeroMass("density carries no mass on the window")
    if abs(total - 1.0) <= NORMALIZED:
        return {c: raw[c] for c in sorted(raw)}
    return {c: raw[c] / total for c in sorted(raw)}


def _ball_counts(ball: UniformBall, cell_pts: np.ndarray) -> np.ndarray:
    """Midpoint samples per cell that UniformBall.evaluate puts inside the ball.

    evaluate() sums the per-axis squared offsets left to right, so a
    sample is inside when fl(t + v) <= r**2, where t is the sum over the
    first d - 1 axes and v the last axis's squared offset.  Float addition
    is monotone, so for each t the last-axis samples inside form a prefix
    of those samples sorted by v: one binary search per t, corrected by
    that exact predicate, finds it.  The counts are exact, with no mesh
    of all (n s)**d samples.
    """
    n, s = cell_pts.shape
    d = len(ball.center)
    r2 = ball.radius**2
    sq = [(cell_pts.ravel() - c) ** 2 for c in ball.center]
    t = np.zeros(1)
    for a in sq[:-1]:
        t = (t[:, None] + a[None, :]).ravel()
    v = sq[-1]
    m = v.size
    order = np.argsort(v, kind="stable")
    vs = v[order]
    k = np.searchsorted(vs, r2 - t, side="right")
    while True:
        # the search ran on r**2 - t, rounded; step k until the exact
        # predicate holds for every sample before it and for none after
        grow = k < m
        grow[grow] = t[grow] + vs[k[grow]] <= r2
        shrink = k > 0
        shrink[shrink] = ~(t[shrink] + vs[k[shrink] - 1] <= r2)
        if not (grow.any() or shrink.any()):
            break
        k += grow
        k -= shrink
    # samples of last-axis cell j among the first k in sorted order: rank
    # the samples, key them by (cell, rank), and search all cells at once
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(m)
    keys = np.sort(np.arange(m) // s * (m + 1) + rank)
    base = np.arange(n) * (m + 1)
    counts = np.searchsorted(keys, base[None, :] + k[:, None]) - np.arange(n) * s
    counts = counts.reshape((n, s) * (d - 1) + (n,))
    return counts.sum(axis=tuple(range(1, 2 * d - 2, 2)))


def _slab_sums(density, cell_pts: np.ndarray, d: int) -> np.ndarray:
    n, s = cell_pts.shape
    axis_pts = cell_pts.ravel()
    # one slab of first-axis cells at a time: the whole mesh holds
    # (n s)**d points, which at d = 3 runs to hundreds of megabytes
    raw = np.empty((n,) * d)
    for a in range(n):
        mesh = np.meshgrid(cell_pts[a], *([axis_pts] * (d - 1)), indexing="ij")
        pts = np.stack(mesh, axis=-1)
        del mesh  # the per-axis copies need not outlive evaluate()'s temporaries
        dens = density.evaluate(pts)
        dens = dens.reshape((s,) + tuple(v for _ in range(d - 1) for v in (n, s)))
        raw[a] = dens.sum(axis=tuple(range(0, 2 * d - 1, 2)))
    return raw


def _smooth_cell_weights(density, grid: GridSpec, samples_per_axis: int) -> dict[Cell, float]:
    d = grid.dimension
    lo, hi = grid.index_range
    side = grid.cell_side
    s = samples_per_axis
    idx = np.arange(lo, hi + 1)
    lows = (idx - 1) * side
    offs = (np.arange(s) + 0.5) * (side / s)
    cell_pts = lows[:, None] + offs[None, :]
    # numpy sums fewer than eight terms left to right, the order the ball
    # count reproduces; from eight on it sums pairwise
    if isinstance(density, UniformBall) and d < 8:
        raw = _ball_counts(density, cell_pts).astype(float)
    else:
        raw = _slab_sums(density, cell_pts, d)
    out: dict[Cell, float] = {}
    it = np.nditer(raw, flags=["multi_index"])
    for val in it:
        v = float(val)
        if v > 0.0:
            cell = tuple(int(k) + lo for k in it.multi_index)
            out[cell] = v
    return out


def discretize(density: Density, grid: GridSpec, samples_per_axis: int = 4) -> DiscreteMeasure:
    """Turn a density into a DiscreteMeasure on the given grid.

    Smooth densities are integrated per cell with samples_per_axis**d
    midpoint samples, then renormalized exactly.  Atomic densities land in
    the cells containing their points, weights merged when points share a
    cell, and the point locations are retained.
    """
    if isinstance(density, FiniteAtomic):
        raw: dict[Cell, float] = {}
        pos_accum: dict[Cell, list] = {}
        for pt, w in zip(density.points, density.weights):
            if not w > 0:
                raise NegativeWeight(f"atomic weight {w!r} must be positive")
            try:
                cell = cell_of(pt, grid)
            except PointOutsideWindow as exc:
                raise SupportOutsideWindow(str(exc)) from exc
            raw[cell] = raw.get(cell, 0.0) + float(w)
            pos_accum.setdefault(cell, []).append((tuple(float(x) for x in pt), float(w)))
        atoms = _normalized_atoms(raw)
        positions: dict[Cell, tuple[float, ...]] = {}
        for cell in atoms:
            entries = pos_accum[cell]
            if len(entries) == 1:
                positions[cell] = entries[0][0]
            else:
                # colliding atoms are represented by their weighted mean
                wsum = math.fsum(w for _, w in entries)
                positions[cell] = tuple(
                    math.fsum(p[k] * w for p, w in entries) / wsum
                    for k in range(grid.dimension)
                )
        return DiscreteMeasure(grid, atoms, positions)

    if isinstance(density, UniformBall):
        if len(density.center) != grid.dimension:
            raise ValueError("ball center dimension does not match grid")
        R = grid.window_halfwidth
        for c in density.center:
            if abs(c) + density.radius > R + WINDOW_SLACK:
                raise SupportOutsideWindow(
                    f"ball of radius {density.radius} at {density.center} leaves the window"
                )
    elif isinstance(density, TruncatedGaussian):
        if len(density.center) != grid.dimension:
            raise ValueError("gaussian center dimension does not match grid")
    else:
        raise TypeError(f"unsupported density {density!r}")

    raw = _smooth_cell_weights(density, grid, samples_per_axis)
    return DiscreteMeasure(grid, _normalized_atoms(raw), None)


def save_measure(measure: DiscreteMeasure, path) -> None:
    g = measure.grid
    lines = [f"{_HEADER_MEASURE} level={g.level} halfwidth={g.window_halfwidth!r} dim={g.dimension}"]
    for cell in measure.support():
        coords = " ".join(str(a) for a in cell)
        lines.append(f"{coords} {measure.atoms[cell]!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(line: str, tag: str, keys: tuple[str, ...]) -> dict:
    parts = line.split()
    if len(parts) < 2 or " ".join(parts[:2]) != tag:
        raise ParseError(f"expected header starting with {tag!r}, got {line!r}")
    fields = {}
    for part in parts[2:]:
        if "=" not in part:
            raise ParseError(f"malformed header field {part!r}")
        k, v = part.split("=", 1)
        fields[k] = v
    for k in keys:
        if k not in fields:
            raise ParseError(f"header missing field {k!r}")
    return fields


def load_measure(path) -> DiscreteMeasure:
    """Read a measure file, renormalizing slightly-off weight sums.

    Sums farther than 1e-9 from one raise NormalizationError; nonpositive
    weights raise NegativeWeight; structural problems raise ParseError.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in (_strip_comment(l) for l in lines) if ln]
    if not body:
        raise ParseError(f"{path}: empty file")
    fields = _parse_header(body[0], _HEADER_MEASURE, ("level", "halfwidth", "dim"))
    try:
        grid = GridSpec(int(fields["level"]), float(fields["halfwidth"]), int(fields["dim"]))
    except ValueError as exc:
        raise ParseError(f"{path}: bad grid header: {exc}") from exc
    atoms: dict[Cell, float] = {}
    d = grid.dimension
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) != d + 1:
            raise ParseError(f"{path}: expected {d} indices and a weight, got {ln!r}")
        try:
            cell = tuple(int(p) for p in parts[:d])
            w = float(parts[d])
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if not grid.contains_cell(cell):
            raise ParseError(f"{path}: cell {cell!r} outside the window")
        if cell in atoms:
            raise ParseError(f"{path}: duplicate cell {cell!r}")
        if not w > 0:
            raise NegativeWeight(f"{path}: weight {w!r} for cell {cell!r} must be positive")
        atoms[cell] = w
    if not atoms:
        raise ParseError(f"{path}: no atoms")
    total = math.fsum(atoms.values())
    if abs(total - 1.0) > FILE_SUM:
        raise NormalizationError(
            f"{path}: weights sum to {total!r}, farther than {FILE_SUM} from 1"
        )
    return DiscreteMeasure(grid, _normalized_atoms(atoms), None)


def _strip_comment(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()
