"""Revised simplex engine against a dense-tableau reference solver."""

import math

import numpy as np
import pytest

from mmot import lp
from mmot.cost import coulomb
from mmot.errors import InsufficientSupport
from mmot.grid import GridSpec
from mmot.lp import StandardLP, solve_lp, solve_mmot, solve_transport
from mmot.measure import TruncatedGaussian, UniformBall, discretize
from mmot.symmetry import Symmetry, symmetry_group
from mmot.transport import _support_recip

from oracles import (
    box_sup_dist,
    coupling_lp,
    min_over_vertices,
    quantile_shift_value,
    tableau_simplex,
)


def _random_feasible_lp(rng, k, ncols):
    """Equality-form instance with a known feasible point."""
    A = rng.normal(size=(k, ncols))
    x0 = rng.uniform(0.0, 1.0, size=ncols)
    b = A @ x0
    c = rng.uniform(0.0, 2.0, size=ncols)
    return StandardLP(c=c, A=A, b=b)


def test_standard_lp_validation():
    with pytest.raises(ValueError):
        StandardLP(c=np.ones(3), A=np.ones((2, 2)), b=np.ones(2))
    with pytest.raises(ValueError):
        StandardLP(c=np.ones(2), A=np.ones(4), b=np.ones(2))


def test_tiny_known_optimum():
    # min x0 + 2 x1 s.t. x0 + x1 = 1  ->  x = (1, 0)
    lp = StandardLP(c=np.array([1.0, 2.0]), A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    assert sol.primal == {0: pytest.approx(1.0)}


def test_negative_rhs_rows_are_handled():
    # same LP written with a sign-flipped row
    lp = StandardLP(
        c=np.array([1.0, 2.0]), A=np.array([[-1.0, -1.0]]), b=np.array([-1.0])
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)


def test_infeasible_yields_farkas_certificate():
    lp = StandardLP(
        c=np.zeros(2),
        A=np.array([[1.0, 1.0], [1.0, 1.0]]),
        b=np.array([1.0, 2.0]),
    )
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    y = np.asarray(sol.certificate, dtype=float)
    assert y @ lp.b > 1e-10
    assert (lp.A.T @ y <= 1e-8).all()


def test_unbounded_yields_ray():
    lp = StandardLP(
        c=np.array([-1.0, 0.0]), A=np.array([[1.0, -1.0]]), b=np.array([0.0])
    )
    sol = solve_lp(lp)
    assert sol.status == "unbounded"
    ray = sol.certificate
    x = np.zeros(2)
    for j, v in ray.items():
        x[j] = v
    assert (x >= -1e-12).all()
    assert np.allclose(lp.A @ x, 0.0, atol=1e-9)
    assert float(lp.c @ x) < 0


def test_matches_tableau_oracle_on_random_instances():
    rng = np.random.default_rng(101)
    for trial in range(30):
        k = int(rng.integers(2, 6))
        ncols = int(rng.integers(k + 1, 14))
        lp = _random_feasible_lp(rng, k, ncols)
        sol = solve_lp(lp)
        status, _, obj = tableau_simplex(lp.A, lp.b, lp.c)
        assert sol.status == status == "optimal", f"trial {trial}"
        assert sol.objective_value == pytest.approx(obj, abs=1e-8)
        # reported primal is feasible and attains the objective
        x = np.zeros(lp.c.size)
        for j, v in sol.primal.items():
            x[j] = v
        assert np.allclose(lp.A @ x, lp.b, atol=1e-8)
        assert float(lp.c @ x) == pytest.approx(sol.objective_value, abs=1e-9)


def test_duals_are_complementary_on_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(10):
        lp = _random_feasible_lp(rng, 4, 10)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        red = lp.c - lp.A.T @ sol.dual
        assert red.min() >= -1e-8
        for j, v in sol.primal.items():
            if v > 1e-9:
                assert abs(red[j]) <= 1e-8


def test_solve_transport_two_point_pair_matrix():
    # two equal weights, reciprocal-distance pair cost with distance 2
    recip = np.array([[math.inf, 0.5], [0.5, math.inf]])
    atoms, u_mat, value = solve_transport(np.array([0.5, 0.5]), recip, 2)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert atoms == {
        (0, 1): pytest.approx(0.5, abs=1e-12),
        (1, 0): pytest.approx(0.5, abs=1e-12),
    }
    assert u_mat.shape == (2, 2)


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
    atoms, u_mat, value = solve_transport(w, recip, n)
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
        spread = math.fsum(u_mat[i, t[i]] for i in range(n))
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
        atoms, u_mat, value = solve_transport(w, recip, n)
        assert u_mat.shape == (n, m)
        assert all(np.array_equal(u_mat[i], u_mat[0]) for i in range(n))
        assert value == pytest.approx(n * float(u_mat[0] @ w), abs=1e-9)
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


def test_column_generation_reaches_full_pool_optimum():
    # force the generated route by capping the pool, compare to the
    # uncapped solve
    rng = np.random.default_rng(83)
    m, n = 7, 3
    w = rng.uniform(0.5, 1.5, size=m)
    w /= w.sum()
    recip = rng.uniform(0.2, 1.0, size=(m, m))
    recip = 0.5 * (recip + recip.T)
    _, _, full = solve_transport(w, recip, n)
    _, _, capped = solve_transport(w, recip, n, pool_cap=m)
    assert capped == pytest.approx(full, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_maintained_inverse_stays_the_basis_inverse(monkeypatch, n):
    # row-sparse updates on the multiset LP of an off-center 1-D Gaussian
    # with m = 64, whose symmetry group is trivial
    pivot = lp._SimplexEngine._pivot
    seen = []

    def checked(engine, *args):
        pivot(engine, *args)
        B = np.column_stack([engine._column(j) for j in engine.basis.tolist()])
        assert np.abs(engine.Binv @ B - np.eye(engine.k)).max() <= 1e-9
        assert engine.row_updates.max() < lp._REFACTOR_EVERY
        seen.append(engine.k)

    monkeypatch.setattr(lp._SimplexEngine, "_pivot", checked)
    mu = discretize(TruncatedGaussian(center=(0.1,), sigma=0.5), GridSpec(5, 1.0, 1))
    support = mu.support()
    weights = np.array([mu.atoms[c] for c in support])
    recip = _support_recip(coulomb(n), mu.grid, support, "cell", None)
    assert symmetry_group(np.array(support), mu.grid, weights, recip).shape[0] == 1
    solve_mmot(mu, coulomb(n))
    assert set(seen) == {64} and len(seen) > lp._REFACTOR_EVERY


def test_multiset_entering_bland_skips_excluded_ids_across_chunks():
    # m = 64, N = 3: 45 760 columns in two scan chunks; the phase-2
    # violators are the multisets holding cell 63, spread over both
    m = 64
    rng = np.random.default_rng(5)
    recip = rng.uniform(0.2, 1.0, size=(m, m))
    recip = 0.5 * (recip + recip.T)
    sym = Symmetry(np.arange(m)[None, :])
    prov = lp._MultisetColumns(recip, 3, sym.representatives(3, False), sym)
    y = np.zeros(m)
    y[m - 1] = 10.0
    prov.begin_iteration(y)
    hits = np.flatnonzero(prov.costs - y[prov.pool].sum(axis=1) < -1e-9)
    assert hits[0] < lp._SCAN_CHUNK < hits[-1] < prov.pool.shape[0]
    none = np.empty(0, dtype=np.int64)
    assert prov.entering_bland(2, 1e-9, none) == hits[0]
    # every violator of the first chunk and the first of the second excluded
    later = hits[hits >= lp._SCAN_CHUNK]
    exclude = np.concatenate([hits[hits < lp._SCAN_CHUNK], later[:1], [0, lp._SCAN_CHUNK]])
    assert prov.entering_bland(2, 1e-9, exclude) == later[1]
    assert prov.entering_bland(2, 1e-9, hits) is None


def test_dense_scans_skip_excluded_ids():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 40))
    c = rng.uniform(0.0, 1.0, size=40)
    prov = lp._DenseColumns(A, c)
    y = rng.normal(size=4)
    prov.begin_iteration(y)
    red = c - y @ A
    hits = np.flatnonzero(red < -1e-9)
    assert hits.size > 3
    exclude = np.array([hits[0], hits[2]])
    rest = np.setdiff1d(hits, exclude)
    assert prov.entering_bland(2, 1e-9, exclude) == rest[0]
    assert prov.entering_bland(2, 1e-9, hits) is None
    scan = prov.full_scan(2, 1e-9, 40, exclude)
    assert sorted(scan.tolist()) == rest.tolist()
    assert np.all(np.diff(red[scan]) >= 0.0)
    assert prov.full_scan(2, 1e-9, 40, hits).size == 0
