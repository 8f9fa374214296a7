"""Independent checks for the certified-solve benchmark.

Nothing here imports mmot.  The geometry, the costs, the discretization,
the file parsers, the dual-feasibility rescan and the one-dimensional
oracle are written again from their definitions, so a fault in the
program cannot also hide in the code that judges it.

A plan and potentials pass `certify` when
  * every plan weight is positive and every slot marginal equals the
    independently discretized measure,
  * the primal cost of the plan and the dual value of the potentials agree,
  * no tuple of support cells violates the dual constraint.
By weak duality those three facts prove that the plan is optimal, so the
checks need no solver of their own.  In one dimension the optimum is also
known in closed form: the quantile-shift coupling
t -> (F^-1(t), F^-1(t + 1/N), ..., F^-1(t + (N-1)/N)) of Colombo,
De Pascale and Di Marino (Canad. J. Math. 2015) is optimal for repulsive
costs, and `quantile_shift_value` prices it exactly.
"""

from __future__ import annotations

import math

import numpy as np

MARGINAL_TOL = 1e-9
GAP_TOL = 1e-8
DUAL_TOL = 1e-9
VALUE_TOL = 1e-9


# ---------------------------------------------------------------------------
# geometry and costs


def cell_of(points: np.ndarray, level: int) -> np.ndarray:
    """Cell indices of points that lie strictly inside their cells."""
    return np.floor(np.asarray(points, dtype=float) * 2.0**level).astype(np.int64) + 1


def cell_pair_recip(cells: np.ndarray, level: int) -> np.ndarray:
    """(m, m) reciprocal of the largest distance between two closed cells.

    This is the cell-mode pair cost: the finite lower bound of 1/|x - y|
    over the product of the two cells, finite on the diagonal too.  Along
    each axis, cell index a spans [(a - 1) h, a h] with h = 2**-level.
    """
    c = np.asarray(cells, dtype=float)
    lo, hi = (c - 1.0) * 0.5**level, c * 0.5**level
    far = np.maximum(hi[:, None, :] - lo[None, :, :], hi[None, :, :] - lo[:, None, :])
    return 1.0 / np.sqrt((far * far).sum(axis=2))


def point_pair_recip(points: np.ndarray) -> np.ndarray:
    """(m, m) matrix of 1/|p_i - p_j| with +inf on the diagonal."""
    p = np.asarray(points, dtype=float)
    dist = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2))
    with np.errstate(divide="ignore"):
        return 1.0 / dist


def tuple_costs(recip: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Pair-sum cost of each row of idx, a (k, N) array of support indices."""
    n = idx.shape[1]
    return sum(
        recip[idx[:, i], idx[:, j]] for i in range(n) for j in range(i + 1, n)
    )


# ---------------------------------------------------------------------------
# discretization


def ladder_samples(levels, base: int = 2, cap: int = 128) -> dict[int, int]:
    """Per-axis sample counts of a refinement ladder: the finest level gets
    `base`, each coarser level twice as many, so every coarse cell weight
    is an exact sum of finer ones."""
    finest = max(levels)
    return {n: min(base * 2 ** (finest - n), cap) for n in levels}


def discretize_smooth(
    kind: str, center, scale: float, level: int, halfwidth: float, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-rule cell weights of a ball or Gaussian on [-R, R]^d.

    Every cell gets samples**d midpoint samples.  Returns the cells of
    positive weight in lexicographic order as an (m, d) integer array and
    their weights, normalized to sum to one.
    """
    d = len(center)
    half = int(round(halfwidth * 2**level))
    index = np.arange(1 - half, half + 1)
    h = 0.5**level
    offsets = (np.arange(samples) + 0.5) / samples
    sq = 0.0
    for axis in range(d):
        x = ((index[:, None] - 1.0) + offsets[None, :]) * h - center[axis]
        shape = [1] * (2 * d)
        shape[2 * axis : 2 * axis + 2] = [index.size, samples]
        sq = sq + (x * x).reshape(shape)
    if kind == "ball":
        dens = (sq <= scale * scale).astype(float)
    elif kind == "gauss":
        dens = np.exp(-sq / (2.0 * scale * scale))
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    raw = dens.sum(axis=tuple(range(1, 2 * d, 2)))
    grid = np.stack(np.meshgrid(*([index] * d), indexing="ij"), axis=-1).reshape(-1, d)
    flat = raw.reshape(-1)
    keep = flat > 0.0
    return grid[keep], flat[keep] / math.fsum(flat[keep].tolist())


# ---------------------------------------------------------------------------
# stored outputs


def read_plan(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Parse an mmot-plan v1 file: (header, cells (k, N, d), weights (k,))."""
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    head = _header(lines[0], "mmot-plan v1")
    n, d = int(head["N"]), int(head["dim"])
    rows = np.array([ln.split() for ln in lines[1:]], dtype=float).reshape(-1, n * d + 1)
    cells = rows[:, :-1].astype(np.int64).reshape(-1, n, d)
    return head, cells, rows[:, -1]


def read_potentials(path) -> tuple[dict, dict[tuple[int, tuple[int, ...]], float]]:
    """Parse an mmot-potentials v1 file: header and {(slot, cell): value},
    slots counted from zero."""
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    head = _header(lines[0], "mmot-potentials v1")
    values = {}
    for ln in lines[1:]:
        parts = ln.split()
        values[(int(parts[0]) - 1, tuple(int(p) for p in parts[1:-1]))] = float(parts[-1])
    return head, values


def _header(line: str, tag: str) -> dict:
    if not line.startswith(tag + " "):
        raise ValueError(f"expected a {tag!r} header, got {line!r}")
    return dict(part.split("=", 1) for part in line[len(tag) + 1 :].split())


# ---------------------------------------------------------------------------
# certificates


def max_dual_excess(u: np.ndarray, recip: np.ndarray) -> float:
    """max over all m**N tuples t of sum_i u[i, t_i] - cost(t).

    Builds the excess on the full tuple grid by broadcasting, one block of
    leading indices at a time; +inf costs give -inf excess.
    """
    n, m = u.shape
    block = max(1, 2**20 // m ** (n - 1))
    best = -math.inf
    for start in range(0, m, block):
        first = np.arange(start, min(start + block, m))
        axes = [first] + [np.arange(m)] * (n - 1)
        total = 0.0
        for i in range(n):
            shape = [1] * n
            shape[i] = axes[i].size
            total = total + u[i, axes[i]].reshape(shape)
            for j in range(i + 1, n):
                shape = [1] * n
                shape[i], shape[j] = axes[i].size, axes[j].size
                total = total - recip[np.ix_(axes[i], axes[j])].reshape(shape)
        best = max(best, float(np.max(total)))
    return best


def quantile_shift_value(weights: np.ndarray, recip: np.ndarray, n: int) -> float:
    """Cost of the quantile-shift coupling of a 1-D measure.

    weights are listed in increasing position order and recip holds the
    pair costs in that order.  Slot k takes the atom holding the quantile
    t + k/N (mod 1); the coupling is constant between the breakpoints
    cumsum(w) - k/N, so its cost is a finite sum over those intervals.
    """
    w = np.asarray(weights, dtype=float)
    cum = np.cumsum(w) / w.sum()
    cum[-1] = 1.0
    shifts = np.arange(n) / n
    cuts = np.unique(np.concatenate([[0.0, 1.0], ((cum[None, :] - shifts[:, None]) % 1.0).ravel()]))
    length = np.diff(cuts)
    keep = length > 0.0
    mid = 0.5 * (cuts[:-1] + cuts[1:])[keep]
    idx = np.searchsorted(cum, (mid[:, None] + shifts[None, :]) % 1.0, side="right")
    idx = np.minimum(idx, w.size - 1)
    return float(np.dot(length[keep], tuple_costs(recip, idx)))


def product_cost(weights: np.ndarray, recip: np.ndarray, n: int) -> float:
    """Cost of the independent coupling: C(N, 2) * w^T recip w."""
    w = np.asarray(weights, dtype=float)
    return n * (n - 1) / 2.0 * float(w @ recip @ w)


def certify(
    plan_path,
    potentials_path,
    support: np.ndarray,
    weights: np.ndarray,
    recip: np.ndarray,
    n: int,
) -> tuple[float, list[str]]:
    """Check a stored plan and potentials against an independent measure.

    support (m, d) and weights (m,) are the checker's own discretization;
    recip (m, m) is the pair cost on that support.  Returns the primal
    value recomputed from the plan file and a list of problems (empty when
    the pair is a certified optimum).
    """
    problems = []
    index = {tuple(int(a) for a in c): j for j, c in enumerate(support)}
    m = len(index)
    head, cells, mass = read_plan(plan_path)
    if int(head["N"]) != n:
        return math.nan, [f"plan has N={head['N']}, expected {n}"]
    try:
        idx = np.array(
            [[index[tuple(int(a) for a in c)] for c in atom] for atom in cells], dtype=np.int64
        ).reshape(-1, n)
    except KeyError as exc:
        return math.nan, [f"plan uses cell {exc.args[0]} outside the measure's support"]
    if not (mass > 0.0).all():
        problems.append("plan has a nonpositive weight")
    for slot in range(n):
        marg = np.bincount(idx[:, slot], weights=mass, minlength=m)
        err = float(np.max(np.abs(marg - weights)))
        if err > MARGINAL_TOL:
            problems.append(f"slot {slot} marginal off by {err:.3e}")
    primal = math.fsum((mass * tuple_costs(recip, idx)).tolist())

    _, pots = read_potentials(potentials_path)
    u = np.full((n, m), math.nan)
    for (slot, cell), val in pots.items():
        if 0 <= slot < n and cell in index:
            u[slot, index[cell]] = val
    if np.isnan(u).any():
        return primal, problems + ["potentials miss a (slot, cell) of the support"]
    dual = math.fsum((u * weights[None, :]).ravel().tolist())
    if not abs(primal - dual) <= GAP_TOL * (1.0 + abs(primal)):
        problems.append(f"primal {primal!r} and dual {dual!r} disagree")
    excess = max_dual_excess(u, recip)
    if excess > DUAL_TOL * (1.0 + abs(primal)):
        problems.append(f"dual constraint violated by {excess:.3e}")
    return primal, problems


def same_value(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))
