"""Probability measures supported on grid cells, and how to build them.

A DiscreteMeasure assigns positive weight to finitely many cells of one
GridSpec, summing to one.  Smooth densities are discretized by midpoint
subsampling (s**d sample points per cell) followed by exact
renormalization; finite atomic densities are placed exactly via cell_of.

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

# Sums within this tolerance of one are accepted as normalized; dividing
# again would only churn low bits, so renormalize() leaves them alone.
_NORMALIZED_TOL = 1e-12
# Files may be off by this much before renormalization refuses.
_FILE_SUM_TOL = 1e-9

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
        if abs(total - 1.0) > _NORMALIZED_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {_NORMALIZED_TOL}")


def support_cardinality(measure: DiscreteMeasure) -> int:
    return len(measure.atoms)


def _normalized_atoms(raw: dict[Cell, float]) -> dict[Cell, float]:
    total = math.fsum(raw.values())
    if total <= 0:
        raise ZeroMass("density carries no mass on the window")
    if abs(total - 1.0) <= _NORMALIZED_TOL:
        return {c: raw[c] for c in sorted(raw)}
    return {c: raw[c] / total for c in sorted(raw)}


def renormalize(measure: DiscreteMeasure) -> DiscreteMeasure:
    """Scale weights to sum to one.  Idempotent: near-one sums are kept."""
    return DiscreteMeasure(measure.grid, _normalized_atoms(measure.atoms), measure.positions)


def _smooth_cell_weights(density, grid: GridSpec, samples_per_axis: int) -> dict[Cell, float]:
    d = grid.dimension
    lo, hi = grid.index_range
    side = grid.cell_side
    s = samples_per_axis
    idx = np.arange(lo, hi + 1)
    lows = (idx - 1) * side
    offs = (np.arange(s) + 0.5) * (side / s)
    cell_pts = lows[:, None] + offs[None, :]
    axis_pts = cell_pts.ravel()
    n = idx.size
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
            if abs(c) + density.radius > R + 1e-12:
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
    if abs(total - 1.0) > _FILE_SUM_TOL:
        raise NormalizationError(
            f"{path}: weights sum to {total!r}, farther than {_FILE_SUM_TOL} from 1"
        )
    return DiscreteMeasure(grid, _normalized_atoms(atoms), None)


def _strip_comment(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()
