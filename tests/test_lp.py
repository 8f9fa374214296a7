"""Revised simplex engine against a dense-tableau reference solver."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmot import lp
from mmot.cost import coulomb
from mmot.errors import InsufficientSupport
from mmot.grid import GridSpec
from mmot.lp import solve_mmot, solve_transport
from mmot.measure import FiniteAtomic, TruncatedGaussian, UniformBall, discretize
from mmot.symmetry import Symmetry, symmetry_group
from mmot.tolerances import FEAS_TOL
from mmot.transport import _support_recip, max_dual_excess, verify_duality

from oracles import (
    box_sup_dist,
    coupling_lp,
    min_over_vertices,
    quantile_shift_plan,
    quantile_shift_value,
    tableau_simplex,
)


def _pair_sum(recip: np.ndarray, t) -> float:
    n = len(t)
    return math.fsum(recip[t[i], t[j]] for i in range(n) for j in range(i + 1, n))


def test_duals_are_complementary_on_random_instances():
    # against the returned potential every multiset has a nonnegative
    # reduced cost, and the plan's multisets a zero one
    rng = np.random.default_rng(55)
    for _ in range(10):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 7))
        w = rng.uniform(0.2, 1.0, size=m)
        w /= w.sum()
        recip = rng.uniform(0.1, 2.0, size=(m, m))
        recip = 0.5 * (recip + recip.T)
        atoms, u, _ = solve_transport(w, recip, n)
        red = {
            t: _pair_sum(recip, t) - math.fsum(u[list(t)])
            for t in itertools.combinations_with_replacement(range(m), n)
        }
        assert min(red.values()) >= -1e-8
        for t, x in atoms.items():
            if x > 1e-9:
                assert abs(red[tuple(sorted(t))]) <= 1e-8


def test_solve_transport_two_point_pair_matrix():
    # two equal weights, reciprocal-distance pair cost with distance 2
    recip = np.array([[math.inf, 0.5], [0.5, math.inf]])
    atoms, u, value = solve_transport(np.array([0.5, 0.5]), recip, 2)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert atoms == {
        (0, 1): pytest.approx(0.5, abs=1e-12),
        (1, 0): pytest.approx(0.5, abs=1e-12),
    }
    assert u.shape == (2,)


def test_solve_transport_matches_vertex_enumeration():
    # vertex enumeration is exponential, so only genuinely tiny shapes
    rng = np.random.default_rng(17)
    for n, m in [(2, 2), (2, 3), (2, 4), (3, 2)]:
        for _ in range(4):
            w = rng.uniform(0.2, 1.0, size=m)
            w /= w.sum()
            recip = rng.uniform(0.1, 2.0, size=(m, m))
            recip = 0.5 * (recip + recip.T)

            def tup_cost(t):
                return math.fsum(
                    recip[t[i], t[j]]
                    for i in range(n)
                    for j in range(i + 1, n)
                )

            A, b, c, _ = coupling_lp(w, tup_cost, n)
            want = min_over_vertices(A, b, c)
            _, _, value = solve_transport(w, recip, n)
            assert value == pytest.approx(want, abs=1e-9)


def test_solve_transport_matches_tableau_on_larger_shapes():
    rng = np.random.default_rng(171)
    for n, m in [(3, 3), (3, 4), (2, 6)]:
        w = rng.uniform(0.2, 1.0, size=m)
        w /= w.sum()
        recip = rng.uniform(0.1, 2.0, size=(m, m))
        recip = 0.5 * (recip + recip.T)

        def tup_cost(t):
            return math.fsum(
                recip[t[i], t[j]] for i in range(n) for j in range(i + 1, n)
            )

        A, b, c, _ = coupling_lp(w, tup_cost, n)
        status, _, want = tableau_simplex(A, b, c)
        assert status == "optimal"
        _, _, value = solve_transport(w, recip, n)
        assert value == pytest.approx(want, abs=1e-9)


def test_solve_transport_marginals_reproduced():
    rng = np.random.default_rng(29)
    m, n = 6, 3
    w = rng.uniform(0.5, 1.5, size=m)
    w /= w.sum()
    recip = rng.uniform(0.1, 1.0, size=(m, m))
    recip = 0.5 * (recip + recip.T)
    atoms, u, value = solve_transport(w, recip, n)
    for slot in range(n):
        marg = np.zeros(m)
        for t, x in atoms.items():
            marg[t[slot]] += x
        assert np.allclose(marg, w, atol=1e-9)
    # dual feasibility with complementary slackness on the support
    for t, x in atoms.items():
        cost_t = math.fsum(
            recip[t[i], t[j]] for i in range(n) for j in range(i + 1, n)
        )
        spread = math.fsum(u[t[i]] for i in range(n))
        assert cost_t - spread >= -1e-8
        if x > 1e-9:
            assert abs(cost_t - spread) <= 1e-7


def test_solve_transport_rejects_heavy_weight_in_injective_mode():
    recip = np.full((3, 3), math.inf)
    ix = np.array([[0, 1], [0, 2], [1, 2]])
    recip[ix[:, 0], ix[:, 1]] = recip[ix[:, 1], ix[:, 0]] = 1.0
    with pytest.raises(InsufficientSupport):
        solve_transport(np.array([0.6, 0.2, 0.2]), recip, 2)


def test_solve_transport_injective_needs_enough_points():
    recip = np.array([[math.inf, 1.0], [1.0, math.inf]])
    with pytest.raises(InsufficientSupport):
        solve_transport(np.array([1.0 / 3] * 3)[:2] * 1.5, recip, 3)


def test_solve_mmot_refuses_a_pointwise_weight_above_one_over_n():
    # three atoms, one of weight 0.6 > 1/2: solve_transport's guard refuses
    rho = FiniteAtomic(points=((-0.5,), (0.1,), (0.6,)), weights=(0.6, 0.2, 0.2))
    mu = discretize(rho, GridSpec(2, 1.0, 1))
    with pytest.raises(InsufficientSupport, match="exceeds 1/2"):
        solve_mmot(mu, coulomb(2), cost_mode="pointwise")


def test_solve_transport_input_validation():
    recip = np.ones((2, 2))
    with pytest.raises(ValueError):
        solve_transport(np.array([0.5, 0.5]), recip, 1)
    with pytest.raises(ValueError):
        solve_transport(np.array([0.9, 0.2]), recip, 2)
    with pytest.raises(ValueError):
        solve_transport(np.array([1.0, -0.1]) / 0.9, recip, 2)
    with pytest.raises(ValueError):
        solve_transport(np.array([0.5, 0.5]), np.ones((3, 3)), 2)
    with pytest.raises(ValueError):
        solve_transport(np.array([0.5, 0.5]), np.ones((2, 2, 2)), 3)
    with pytest.raises(ValueError):
        solve_transport(np.array([0.5, 0.5]), recip, 2, group=np.array([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        solve_transport(np.array([0.5, 0.5]), recip, 2, group=np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        solve_transport(np.array([0.6, 0.4]), recip, 2, group=np.array([[0, 1], [1, 0]]))


def test_solve_transport_rejects_asymmetric_pair_matrix():
    # the multiset LP prices a tuple once for all its orderings, which is
    # only sound for a permutation-invariant cost
    recip = np.array([[1.0, 0.5], [0.7, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        solve_transport(np.array([0.5, 0.5]), recip, 2)


def test_solve_transport_symmetric_potential_and_cyclic_plan():
    rng = np.random.default_rng(7)
    for n, m, injective in [(2, 9, False), (3, 7, False), (4, 5, False), (3, 8, True)]:
        w = rng.uniform(0.8, 1.2, size=m)
        w /= w.sum()
        recip = rng.uniform(0.1, 2.0, size=(m, m))
        recip = 0.5 * (recip + recip.T)
        if injective:
            np.fill_diagonal(recip, np.inf)
        atoms, u, value = solve_transport(w, recip, n)
        assert u.shape == (m,)
        assert value == pytest.approx(n * float(u @ w), abs=1e-9)
        # each basic multiset spreads over at most N orderings, and a basic
        # solution has at most one positive multiset per cell
        groups: dict[tuple[int, ...], int] = {}
        for t in atoms:
            key = tuple(sorted(t))
            groups[key] = groups.get(key, 0) + 1
        assert len(groups) <= m
        assert max(groups.values()) <= n
        assert len(atoms) <= n * m
        for slot in range(n):
            marg = np.zeros(m)
            for t, x in atoms.items():
                marg[t[slot]] += x
            assert np.abs(marg - w).max() <= 1e-10, (n, m, slot)


def test_cell_mode_matches_quantile_shift_oracle_in_1d():
    # the quantile-shift coupling is optimal on the line, so its cell-mode
    # cost is the LP value at sizes vertex enumeration cannot reach
    for n, levels in [(2, range(1, 6)), (3, range(1, 6)), (4, range(1, 5))]:
        for level in levels:
            grid = GridSpec(level, 1.0, 1)
            mu = discretize(UniformBall(center=(0.0,), radius=1.0), grid)
            support = mu.support()
            w = [mu.atoms[c] for c in support]

            def pair_cost(a, b):
                return 1.0 / box_sup_dist(support[a], support[b], level)

            _, _, value = solve_mmot(mu, coulomb(n))
            want = quantile_shift_value(w, pair_cost, n)
            assert value == pytest.approx(want, abs=1e-9), (n, level, len(support))


def test_column_generation_reaches_full_pool_optimum(monkeypatch):
    # force the generated route by capping the pool, compare to the
    # uncapped solve
    rng = np.random.default_rng(83)
    m, n = 7, 3
    w = rng.uniform(0.5, 1.5, size=m)
    w /= w.sum()
    recip = rng.uniform(0.2, 1.0, size=(m, m))
    recip = 0.5 * (recip + recip.T)
    _, _, full = solve_transport(w, recip, n)
    monkeypatch.setattr(lp, "_POOL_CAP", m)
    _, _, capped = solve_transport(w, recip, n)
    assert capped == pytest.approx(full, abs=1e-9)


def test_column_generation_does_not_import_numpy_ma():
    # np.unique without an optional output imports numpy.ma on first use
    # (about 1 MB and 30 ms per process); pooling generated classes must
    # not reach it.  A fresh interpreter, since this one may hold it.
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from mmot import lp
        added = []
        add = lp._MultisetColumns.add
        def counted(self, classes):
            added.append(add(self, classes))
            return added[-1]
        lp._MultisetColumns.add = counted
        rng = np.random.default_rng(83)
        m, n = 7, 3
        w = rng.uniform(0.5, 1.5, size=m)
        w /= w.sum()
        recip = rng.uniform(0.2, 1.0, size=(m, m))
        recip = 0.5 * (recip + recip.T)
        lp._POOL_CAP = m
        lp.solve_transport(w, recip, n)
        print(sum(added), "numpy.ma" in sys.modules)
        """
    )
    src = str(Path(lp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    pooled, imported = done.stdout.split()
    assert int(pooled) > 0
    assert imported == "False"


@pytest.mark.parametrize("n", [2, 3])
def test_maintained_inverse_stays_the_basis_inverse(monkeypatch, n):
    # row-sparse updates on the multiset LP of a random symmetric pair
    # matrix with m = 64, where the quantile-shift start is not optimal;
    # the trivial group keeps one row per point
    pivot = lp._SimplexEngine._pivot
    seen = []

    def checked(engine, *args):
        pivot(engine, *args)
        B = np.column_stack([engine._column(j) for j in engine.basis.tolist()])
        assert np.abs(engine.Binv @ B - np.eye(engine.k)).max() <= 1e-9
        assert engine.row_updates.max() < lp._REFACTOR_EVERY
        seen.append(engine.k)

    monkeypatch.setattr(lp._SimplexEngine, "_pivot", checked)
    rng = np.random.default_rng(64)
    m = 64
    w = rng.uniform(0.5, 1.5, size=m)
    w /= w.sum()
    recip = rng.uniform(0.1, 2.0, size=(m, m))
    recip = 0.5 * (recip + recip.T)
    solve_transport(w, recip, n)
    assert set(seen) == {64} and len(seen) > lp._REFACTOR_EVERY


def test_multiset_entering_bland_skips_excluded_ids_across_chunks():
    # m = 64, N = 3: 45 760 columns in two scan chunks; the phase-2
    # violators are the multisets holding cell 63, spread over both
    m = 64
    rng = np.random.default_rng(5)
    recip = rng.uniform(0.2, 1.0, size=(m, m))
    recip = 0.5 * (recip + recip.T)
    sym = Symmetry(np.arange(m)[None, :])
    prov = lp._MultisetColumns(recip, 3, sym.classes(3, False), sym)
    assert np.array_equal(prov.members, prov.classes)
    y = np.zeros(m)
    y[m - 1] = 10.0
    prov.begin_iteration(y)
    hits = np.flatnonzero(prov.costs - y[prov.classes].sum(axis=1) < -1e-9)
    assert hits[0] < lp._SCAN_CHUNK < hits[-1] < prov.classes.shape[0]
    none = np.empty(0, dtype=np.int64)
    assert prov.entering_bland(2, 1e-9, none) == hits[0]
    # every violator of the first chunk and the first of the second excluded
    later = hits[hits >= lp._SCAN_CHUNK]
    exclude = np.concatenate([hits[hits < lp._SCAN_CHUNK], later[:1], [0, lp._SCAN_CHUNK]])
    assert prov.entering_bland(2, 1e-9, exclude) == later[1]
    assert prov.entering_bland(2, 1e-9, hits) is None


def test_multiset_add_pools_each_new_class_once():
    # the point swap 0 <-> 1 makes orbits {0, 1}, {2}, {3}; classes are
    # sorted pairs of those three orbits, pooled at their cheapest pair
    m = 4
    rng = np.random.default_rng(11)
    recip = rng.uniform(0.2, 1.0, size=(m, m))
    swap = np.array([1, 0, 2, 3])
    recip = 0.5 * (recip + recip[np.ix_(swap, swap)])
    recip = 0.5 * (recip + recip.T)
    sym = Symmetry(np.array([np.arange(m), swap]))
    prov = lp._MultisetColumns(recip, 2, np.array([[0, 1], [1, 1]]), sym)
    assert prov.add(np.array([[2, 2], [0, 0], [0, 1], [2, 2], [0, 2]])) == 3
    assert prov.add(np.array([[0, 2], [1, 2]])) == 1
    assert prov.classes.tolist() == [[0, 1], [1, 1], [0, 0], [0, 2], [2, 2], [1, 2]]
    assert prov.sorted_codes.tolist() == [0, 1, 2, 4, 5, 8]
    for (a, b), (i, j), cost in zip(prov.classes.tolist(), prov.members.tolist(), prov.costs):
        assert (sym.cell_orbit[i], sym.cell_orbit[j]) == (a, b)
        pairs = [recip[x, y] for x in range(m) for y in range(x, m)
                 if sorted(sym.cell_orbit[[x, y]].tolist()) == [a, b]]
        assert cost == min(pairs) == recip[i, j]


def test_multiset_full_scan_skips_excluded_ids_in_order():
    rng = np.random.default_rng(9)
    m = 12
    recip = rng.uniform(0.0, 1.0, size=(m, m))
    recip = 0.5 * (recip + recip.T)
    sym = Symmetry(np.arange(m)[None, :])
    prov = lp._MultisetColumns(recip, 2, sym.classes(2, False), sym)
    y = rng.normal(scale=0.5, size=m)
    prov.begin_iteration(y)
    red = prov.costs - y[prov.classes].sum(axis=1)
    hits = np.flatnonzero(red < -1e-9)
    assert hits.size > 3
    exclude = np.array([hits[0], hits[2]])
    rest = np.setdiff1d(hits, exclude)
    assert prov.entering_bland(2, 1e-9, exclude) == rest[0]
    assert prov.entering_bland(2, 1e-9, hits) is None
    scan = prov.full_scan(2, 1e-9, prov.costs.size, exclude)
    assert sorted(scan.tolist()) == rest.tolist()
    assert np.all(np.diff(red[scan]) >= 0.0)
    assert prov.full_scan(2, 1e-9, prov.costs.size, hits).size == 0
    # the topk most negative, most negative first
    assert scan[:3].tolist() == prov.full_scan(2, 1e-9, 3, exclude).tolist()


# ---------------------------------------------------------------------------
# the quantile-shift start


def _start_of(run):
    """Run run() and return its result with the start of its first simplex
    engine: the basis ids and matrix B, the right-hand side b, the basic
    levels xB, the objective of the basic solution, and whether phase 1
    is skipped."""
    starts = []
    init = lp._SimplexEngine.__init__

    def capture(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        if not starts:
            basis = engine.basis.copy()
            real = np.flatnonzero(basis >= 0)
            starts.append(
                SimpleNamespace(
                    basis=basis,
                    B=np.column_stack([engine._column(j) for j in basis.tolist()]),
                    b=engine.b.copy(),
                    xB=engine.xB.copy(),
                    cost=math.fsum(engine.prov.cost(basis[r]) * engine.xB[r] for r in real),
                    phase1_skipped=engine.phase1_done,
                )
            )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp._SimplexEngine, "__init__", capture)
        out = run()
    return out, starts[0]


def _with_exact_shares(rng, m, n, shares):
    """m positive weights summing to one, the first `shares` of them
    exactly the float 1/n and the others random, in shuffled order."""
    rest = rng.uniform(0.2, 1.0, size=m - shares)
    w = np.concatenate([np.full(shares, 1.0 / n), rest / rest.sum() * (1.0 - shares / n)])
    return w[rng.permutation(m)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quantile_pieces_reproduce_the_marginal(n):
    rng = np.random.default_rng(50 + n)
    for m in (n, n + 1, 9, 40, 256):
        for shares in (0, 1, n - 1):
            w = _with_exact_shares(rng, m, n, shares)
            rows, mass = lp._quantile_pieces(w, n)
            assert (np.diff(rows, axis=1) >= 0).all()
            assert (mass > 0.0).all() and mass.sum() == pytest.approx(1.0, abs=1e-15)
            counts = np.bincount(rows.ravel(), weights=np.repeat(mass, n), minlength=m)
            assert np.abs(counts - n * w).max() <= 1e-12, (m, shares)
            if w.max() <= 1.0 / n:
                # a pointwise coupling: no piece repeats a cell
                assert (np.diff(rows, axis=1) > 0).all(), (m, shares)
            if shares == 0:
                want: dict[tuple[int, ...], float] = {}
                for t, x in quantile_shift_plan(w, n).items():
                    key = tuple(sorted(t))
                    want[key] = want.get(key, 0.0) + x
                got: dict[tuple[int, ...], float] = {}
                for t, x in zip(map(tuple, rows.tolist()), mass.tolist()):
                    got[t] = got.get(t, 0.0) + x
                assert got.keys() == want.keys()
                assert max(abs(got[t] - want[t]) for t in got) <= 1e-12


@st.composite
def _invariant_pair_instances(draw):
    """Weights and a symmetric pair matrix on m abstract points, invariant
    under the cyclic group of a random permutation (the trivial group when
    it is the identity), with an infinite diagonal in pointwise instances."""
    n = draw(st.integers(2, 4))
    injective = draw(st.booleans())
    m = draw(st.integers(n if injective else 1, {2: 6, 3: 4, 4: 3}[n] + 2 * injective))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gen = np.array(draw(st.permutations(range(m))), dtype=np.int64)
    perms = [np.arange(m)]
    while not np.array_equal(gen[perms[-1]], perms[0]):
        perms.append(gen[perms[-1]])
    perms = np.array(perms)
    # one random value per orbit of points and per orbit of point pairs
    point_value = {}
    w = np.array([point_value.setdefault(perms[:, i].min(), rng.uniform(0.3, 1.0)) for i in range(m)])
    w = w / w.sum()
    pair_value = {}
    recip = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            key = min(zip(np.minimum(perms[:, i], perms[:, j]), np.maximum(perms[:, i], perms[:, j])))
            recip[i, j] = pair_value.setdefault(key, rng.uniform(0.1, 2.0))
    if injective:
        np.fill_diagonal(recip, math.inf)
        assume(w.max() <= 1.0 / n)
    return w, recip, n, perms


@settings(max_examples=100, deadline=None)
@given(_invariant_pair_instances())
def test_start_basis_is_a_feasible_vertex_below_the_coupling(instance):
    w, recip, n, perms = instance
    (_, _, value), start = _start_of(lambda: solve_transport(w, recip, n, group=perms))
    assert np.linalg.matrix_rank(start.B) == start.b.size
    x = np.linalg.solve(start.B, start.b)
    assert x.min() >= -1e-12
    assert np.abs(x - start.xB).max() <= 1e-12
    assert start.phase1_skipped
    coupling = quantile_shift_value(w, lambda a, c: recip[a, c], n)
    assert start.cost <= coupling + 1e-12 * (1.0 + coupling)

    def tup_cost(t):
        return math.fsum(recip[t[i], t[j]] for i in range(n) for j in range(i + 1, n))

    A, b_full, c, _ = coupling_lp(w, tup_cost, n)
    status, _, want = tableau_simplex(A, b_full, c)
    assert status == "optimal"
    assert value == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_start_is_the_optimal_quantile_shift_in_1d(n):
    # cell mode on a centered and an off-center Gaussian
    for center in (0.0, 0.3):
        level = 5
        mu = discretize(TruncatedGaussian(center=(center,), sigma=0.4), GridSpec(level, 1.0, 1))
        support = mu.support()
        w = [mu.atoms[c] for c in support]
        (_, _, value), start = _start_of(lambda: solve_mmot(mu, coulomb(n)))
        want = quantile_shift_value(
            w, lambda a, b: 1.0 / box_sup_dist(support[a], support[b], level), n
        )
        assert start.cost == pytest.approx(want, abs=1e-12)
        assert value == pytest.approx(want, abs=1e-12)
    # pointwise mode on atoms at random positions of distinct cells
    rng = np.random.default_rng(n)
    level = 3
    h = 0.5**level
    cells = np.sort(rng.choice(np.arange(-7, 9), size=3 * n, replace=False))
    points = [((c - 1 + rng.uniform(0.1, 0.9)) * h,) for c in cells.tolist()]
    raw = rng.uniform(0.5, 1.0, size=cells.size)
    atoms = FiniteAtomic(tuple(points), tuple((raw / raw.sum()).tolist()))
    mu = discretize(atoms, GridSpec(level, 1.0, 1))
    support = mu.support()
    w = [mu.atoms[c] for c in support]
    pos = [mu.positions[c][0] for c in support]
    (_, _, value), start = _start_of(lambda: solve_mmot(mu, coulomb(n), cost_mode="pointwise"))
    want = quantile_shift_value(w, lambda a, b: 1.0 / abs(pos[a] - pos[b]), n)
    assert start.cost == pytest.approx(want, abs=1e-12)
    assert value == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("excess", [1e-15, 5e-13, 1e-12])
def test_weight_inside_the_guard_above_one_over_n_is_solved(n, excess):
    # a pointwise piece then repeats the heavy point; its mass starts on
    # the artificials of its rows, no other mass joins it there, and the
    # solve succeeds, as it did from the all-artificial start
    m = 2 * n + 1
    rng = np.random.default_rng(n)
    w = np.empty(m)
    w[0] = 1.0 / n + excess
    rest = rng.uniform(0.5, 1.5, size=m - 1)
    w[1:] = rest / rest.sum() * (1.0 - w[0])
    pts = np.sort(rng.uniform(0.0, 1.0, size=m))
    with np.errstate(divide="ignore"):
        recip = 1.0 / np.abs(pts[:, None] - pts[None, :])
    (atoms, u, value), start = _start_of(lambda: solve_transport(w, recip, n))
    level = np.linalg.solve(start.B, start.b)
    assert level.min() >= -1e-13
    assert level[start.basis < 0].sum() <= 2 * n * n * excess
    assert start.phase1_skipped
    for slot in range(n):
        marg = np.zeros(m)
        for t, x in atoms.items():
            assert len(set(t)) == n
            marg[t[slot]] += x
        assert np.abs(marg - w).max() <= 1e-9
    assert value == pytest.approx(n * float(u @ w), rel=1e-9)


def test_degenerate_pool_leaves_blands_rule_between_episodes(monkeypatch):
    # d = 1, level 6, N = 4: 766 480 classes under the cap.  The start is
    # already optimal but degenerate, with an infeasible vertex dual;
    # Bland's rule alone runs for tens of thousands of pivots there,
    # while episodes let the usual pricing finish in under a thousand
    pivot = lp._SimplexEngine._pivot
    pivots = []

    def counted(engine, *args):
        pivots.append(engine.k)
        assert len(pivots) <= 5000
        pivot(engine, *args)

    monkeypatch.setattr(lp._SimplexEngine, "_pivot", counted)
    n, level = 4, 6
    mu = discretize(UniformBall(center=(0.0,), radius=1.0), GridSpec(level, 1.0, 1))
    support = mu.support()
    w = [mu.atoms[c] for c in support]
    _, _, value = solve_mmot(mu, coulomb(n))
    want = quantile_shift_value(
        w, lambda a, b: 1.0 / box_sup_dist(support[a], support[b], level), n
    )
    assert value == pytest.approx(want, abs=1e-12)
    assert len(pivots) > 2 * lp._STALL_LIMIT


def test_column_generation_past_the_pool_cap_certifies_1d_ball():
    # d = 1, level 7, N = 3, off center: 205 cells, the trivial group and
    # 1.46 M classes, past the pool cap; the pool starts from the
    # quantile-shift pieces, which are optimal on the line
    n, level = 3, 7
    mu = discretize(UniformBall(center=(0.2,), radius=0.8), GridSpec(level, 1.0, 1))
    support = mu.support()
    w = np.array([mu.atoms[c] for c in support])
    recip = _support_recip(coulomb(n), mu.grid, support, "cell", None)
    sym = Symmetry(symmetry_group(np.array(support), mu.grid, w, recip))
    assert sym.perms.shape[0] == 1
    assert sym.class_count(n, False) > lp._POOL_CAP
    plan, pots, value = solve_mmot(mu, coulomb(n))
    want = quantile_shift_value(
        w.tolist(), lambda a, b: 1.0 / box_sup_dist(support[a], support[b], level), n
    )
    assert value == pytest.approx(want, abs=1e-12)
    report = verify_duality(plan, pots, coulomb(n))
    assert report.relative_gap <= 1e-8
    assert report.max_dual_violation <= FEAS_TOL
    assert report.primal_value == value


# ---------------------------------------------------------------------------
# the minimum-norm potential


def test_complete_pool_refines_without_an_ordered_rescan(monkeypatch):
    # with every class pooled the refined potential is checked against
    # the pool; past the cap, by one exhaustive ordered rescan
    rescan = lp.max_dual_excess
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return rescan(*args)

    monkeypatch.setattr(lp, "max_dual_excess", counted)
    mu = discretize(UniformBall(center=(0.0, 0.0), radius=1.0), GridSpec(2, 1.0, 2))
    m = len(mu.atoms)
    solve_mmot(mu, coulomb(3))
    assert calls == []
    monkeypatch.setattr(lp, "_POOL_CAP", 0)
    solve_mmot(mu, coulomb(3))
    assert calls == [(3, m)]


def test_solve_mmot_reports_the_potential_of_solve_transport():
    mu = discretize(UniformBall(center=(0.0, 0.0), radius=1.0), GridSpec(2, 1.0, 2))
    support = mu.support()
    w = np.array([mu.atoms[c] for c in support])
    recip = _support_recip(coulomb(3), mu.grid, support, "cell", None)
    group = symmetry_group(np.array(support), mu.grid, w, recip)
    _, u, _ = solve_transport(w, recip, 3, group=group)
    _, pots, _ = solve_mmot(mu, coulomb(3))
    assert pots.cells.tolist() == [list(c) for c in support]
    assert pots.values.tolist() == [u.tolist()] * 3
    # the minimum-norm potential is orbit-constant, unlike most vertex duals
    assert (u[group] == u).all()


@st.composite
def _atom_measures(draw):
    """Atoms at random points of distinct cells of a level-2 grid in d = 1
    or 2, with weights at most 1/N, for pointwise solves."""
    d, n = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    level, per_axis = 2, 8
    k = draw(st.integers(n + 1, n + 4))
    flats = draw(st.lists(st.integers(0, per_axis**d - 1), min_size=k, max_size=k, unique=True))
    counts = draw(st.lists(st.integers(1, 10), min_size=k, max_size=k))
    assume(n * max(counts) <= sum(counts))
    offsets = iter(draw(st.lists(st.floats(0.05, 0.95), min_size=k * d, max_size=k * d)))
    points = []
    for flat in flats:
        point = []
        for _ in range(d):
            flat, a = divmod(flat, per_axis)
            point.append((a - 2**level + next(offsets)) * 0.5**level)
        points.append(tuple(point))
    weights = tuple(c / sum(counts) for c in counts)
    return discretize(FiniteAtomic(tuple(points), weights), GridSpec(level, 1.0, d)), n


@settings(max_examples=60, deadline=None)
@given(_invariant_pair_instances(), st.booleans())
def test_returned_potential_is_feasible_and_tight(instance, capped):
    w, recip, n, perms = instance
    injective = bool(np.isinf(np.diag(recip)).all())
    assume(not (capped and injective))  # pointwise pools are never generated
    with pytest.MonkeyPatch.context() as mp:
        if capped:
            mp.setattr(lp, "_POOL_CAP", 0)
        atoms, u, _ = solve_transport(w, recip, n, group=perms)
    tol = FEAS_TOL * lp._cost_scale(recip, n)
    assert max_dual_excess(np.broadcast_to(u, (n, u.size)), recip) <= tol
    for t, x in atoms.items():
        assert abs(_pair_sum(recip, t) - math.fsum(u[t[i]] for i in range(n))) <= tol


@settings(max_examples=40, deadline=None)
@given(_atom_measures())
def test_pointwise_potential_is_feasible_and_tight(case):
    mu, n = case
    plan, pots, value = solve_mmot(mu, coulomb(n), cost_mode="pointwise")
    recip = _support_recip(coulomb(n), mu.grid, mu.support(), "pointwise", mu.positions)
    tol = FEAS_TOL * lp._cost_scale(recip, n)
    report = verify_duality(plan, pots, coulomb(n), cost_mode="pointwise", positions=mu.positions)
    assert report.max_dual_violation <= tol
    assert report.max_slackness_violation <= tol
    assert report.primal_value == value
