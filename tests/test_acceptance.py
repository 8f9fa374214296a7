"""End-to-end acceptance checks for the multimarginal solver.

Each test covers one release criterion and prints a single PASS/FAIL
line (visible under ``pytest -s``); the assertion that follows carries
the same condition, so a red line always comes with a red test.

The solve suite (criteria 1, 4, 6, 7, 8) is built once per module:
three-atom densities for every dimension/marginal combination at levels
1..5, plus uniform balls at level ranges sized so the whole sweep stays
inside the one-minute budget.
"""

import math
import time

import numpy as np
import pytest

from mmot.cost import cell_cost_lower, coulomb, pointwise_cost
from mmot.errors import InsufficientSupport
from mmot.grid import GridSpec, cell_of
from mmot.harness import swap_search
from mmot.lp import solve_mmot, solve_transport
from mmot.measure import DiscreteMeasure, FiniteAtomic, UniformBall, discretize
from mmot.transport import (
    TransportPlan,
    plan_cost,
    product_plan_cost,
    verify_duality,
)

from oracles import coupling_lp, min_over_vertices, tableau_simplex

GAP_TOL = 1e-8

ATOM_POINTS = {
    1: ((-0.8,), (0.1,), (0.7,)),
    2: ((-0.8, -0.2), (0.1, 0.6), (0.7, -0.5)),
    3: ((-0.8, -0.2, 0.5), (0.1, 0.6, -0.4), (0.7, -0.5, -0.9)),
}

# Ball level ranges per (dimension, marginals): the support grows like
# (2 R 2^n)^d, so higher dimensions stop earlier to keep the sweep fast.
BALL_LEVELS = {
    (1, 2): (1, 2, 3, 4, 5),
    (1, 3): (1, 2, 3, 4, 5),
    (2, 2): (1, 2, 3),
    (2, 3): (1, 2),
    (3, 2): (1, 2),
    (3, 3): (1,),
}


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}", flush=True)


def _ball_measure(d: int, level: int) -> DiscreteMeasure:
    grid = GridSpec(level, 1.0, d)
    density = UniformBall(center=(0.0,) * d, radius=1.0)
    samples = max(4, 32 // 2 ** (level - 1))
    return discretize(density, grid, samples_per_axis=samples)


@pytest.fixture(scope="module")
def suite():
    rows = []
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        atomic = FiniteAtomic(points=ATOM_POINTS[d], weights=(1 / 3, 1 / 3, 1 / 3))
        for n in (2, 3):
            model = coulomb(n)
            for level in (1, 2, 3, 4, 5):
                grid = GridSpec(level, 1.0, d)
                mu = discretize(atomic, grid)
                t1 = time.perf_counter()
                plan, pots, value = solve_mmot(mu, model, cost_mode="pointwise")
                report = verify_duality(
                    plan, pots, model, cost_mode="pointwise", positions=mu.positions
                )
                rows.append(
                    {
                        "kind": "atoms",
                        "d": d,
                        "n": n,
                        "level": level,
                        "measure": mu,
                        "plan": plan,
                        "potentials": pots,
                        "value": value,
                        "report": report,
                        "seconds": time.perf_counter() - t1,
                    }
                )
    for (d, n), levels in sorted(BALL_LEVELS.items()):
        model = coulomb(n)
        for level in levels:
            mu = _ball_measure(d, level)
            t1 = time.perf_counter()
            plan, pots, value = solve_mmot(mu, model)
            report = verify_duality(plan, pots, model)
            rows.append(
                {
                    "kind": "ball",
                    "d": d,
                    "n": n,
                    "level": level,
                    "measure": mu,
                    "plan": plan,
                    "potentials": pots,
                    "value": value,
                    "report": report,
                    "seconds": time.perf_counter() - t1,
                }
            )
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def test_criterion_1_strong_duality_across_suite(suite):
    worst = max(r["report"].relative_gap for r in suite["rows"])
    elapsed = suite["elapsed"]
    ok = worst <= GAP_TOL and elapsed < 60.0
    _report(
        "criterion 1 (strong duality per level)",
        ok,
        f"{len(suite['rows'])} instances, worst relative gap {worst:.2e}, "
        f"suite wall time {elapsed:.1f}s",
    )
    assert worst <= GAP_TOL
    assert elapsed < 60.0


def test_criterion_2_closed_form_instances():
    t0 = time.perf_counter()
    # Two points at distance 2, equal mass: value 1/2, and the solver's
    # potential is already symmetric: 1/4 at both cells in every slot.
    two = FiniteAtomic(points=((-1.0,), (1.0,)), weights=(0.5, 0.5))
    grid = GridSpec(3, 1.0, 1)
    mu = discretize(two, grid)
    model = coulomb(2)
    plan, pots, value = solve_mmot(mu, model, cost_mode="pointwise")
    symmetric = all(np.array_equal(slot, pots.values[0]) for slot in pots.values)
    sym_vals = [pots.value(0, c) for c in mu.support()]

    pts = [mu.positions[c] for c in mu.support()]
    w = np.array([mu.atoms[c] for c in mu.support()])

    def pair_cost(t):
        return pointwise_cost(model, [pts[i] for i in t])

    A, b, c, tuples = coupling_lp(w, pair_cost, 2)
    oracle_two = min_over_vertices(A, b, c)

    # Unit-side triangle with three marginals: every admissible tuple is
    # a permutation of the three sites, so the value is exactly 3.
    tri_pts = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))
    tri = FiniteAtomic(points=tri_pts, weights=(1 / 3, 1 / 3, 1 / 3))
    tgrid = GridSpec(2, 1.0, 2)
    tmu = discretize(tri, tgrid)
    tmodel = coulomb(3)
    _, _, tri_value = solve_mmot(tmu, tmodel, cost_mode="pointwise")

    tpts = [tmu.positions[c] for c in tmu.support()]
    tw = np.array([tmu.atoms[c] for c in tmu.support()])

    def tri_cost(t):
        return pointwise_cost(tmodel, [tpts[i] for i in t])

    tA, tb, tc, ttuples = coupling_lp(tw, tri_cost, 3)
    oracle_tri = min_over_vertices(tA, tb, tc)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(value - 0.5) <= 1e-10
        and symmetric
        and all(abs(v - 0.25) <= 1e-10 for v in sym_vals)
        and abs(oracle_two - 0.5) <= 1e-10
        and abs(tri_value - 3.0) <= 1e-9
        and abs(oracle_tri - 3.0) <= 1e-9
        and elapsed < 1.0
    )
    _report(
        "criterion 2 (closed-form values)",
        ok,
        f"pair value {value!r} (oracle {oracle_two!r}), sym potential {sym_vals[0]!r}/"
        f"{sym_vals[1]!r}, triangle {tri_value!r} (oracle {oracle_tri!r}), {elapsed:.2f}s",
    )
    assert abs(value - 0.5) <= 1e-10
    assert symmetric
    assert all(abs(v - 0.25) <= 1e-10 for v in sym_vals)
    assert abs(oracle_two - 0.5) <= 1e-10
    assert abs(tri_value - 3.0) <= 1e-9
    assert abs(oracle_tri - 3.0) <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_insufficient_support_refused():
    two = FiniteAtomic(points=((-0.5,), (0.5,)), weights=(0.5, 0.5))
    mu = discretize(two, GridSpec(2, 1.0, 1))
    t0 = time.perf_counter()
    with pytest.raises(InsufficientSupport):
        solve_mmot(mu, coulomb(3), cost_mode="pointwise")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 0.5
    _report(
        "criterion 3 (infeasible marginal refused)",
        ok,
        f"three marginals on a two-atom measure raised InsufficientSupport in {elapsed * 1e3:.1f}ms",
    )
    assert ok


def test_criterion_4_refinement_monotone_and_bracketed(suite):
    rows = sorted(
        (r for r in suite["rows"] if r["kind"] == "ball" and r["d"] == 1 and r["n"] == 2),
        key=lambda r: r["level"],
    )
    levels = [r["level"] for r in rows]
    values = [r["value"] for r in rows]
    seconds = sum(r["seconds"] for r in rows)
    assert levels == [1, 2, 3, 4, 5]

    upper = product_plan_cost(rows[-1]["measure"], coulomb(2))
    monotone = all(values[i + 1] >= values[i] for i in range(4))
    bracketed = all(v <= upper for v in values)
    slowing = (values[1] - values[0]) > (values[4] - values[3])
    ok = monotone and bracketed and slowing and seconds < 120.0
    _report(
        "criterion 4 (refinement trend on the ball)",
        ok,
        f"values {[round(v, 6) for v in values]}, product-plan ceiling {upper:.4f}, "
        f"first increment {values[1] - values[0]:.4f} vs last {values[4] - values[3]:.4f}, "
        f"{seconds:.1f}s",
    )
    assert monotone
    assert bracketed
    assert slowing
    assert seconds < 120.0


def test_criterion_5_cell_bounds_exact_on_random_tuples():
    rng = np.random.default_rng(20260823)
    model = coulomb(3)
    grids = [GridSpec(level, 1.0, 3) for level in range(7)]
    t0 = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        pts = rng.uniform(-1.0, 1.0, size=(3, 3))
        if (
            np.array_equal(pts[0], pts[1])
            or np.array_equal(pts[0], pts[2])
            or np.array_equal(pts[1], pts[2])
        ):
            continue
        exact = pointwise_cost(model, pts)
        prev = 0.0
        for grid in grids:
            cells = tuple(cell_of(p, grid) for p in pts)
            cn = cell_cost_lower(model, cells, grid)
            assert 0.0 <= cn
            assert cn <= exact
            assert cn >= prev
            prev = cn
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 10_000 and elapsed < 5.0
    _report(
        "criterion 5 (exact lower bounds at every level)",
        ok,
        f"{checked} random off-diagonal triples, levels 0..6, all bounds and "
        f"monotonicity exact, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_6_complementary_slackness(suite):
    worst = 0.0
    for r in suite["rows"]:
        rel = r["report"].max_slackness_violation / (1.0 + abs(r["value"]))
        worst = max(worst, rel)
        assert r["report"].max_slackness_violation <= 1e-7 * (1.0 + abs(r["value"]))
    _report(
        "criterion 6 (complementary slackness)",
        True,
        f"worst normalized violation {worst:.2e} across {len(suite['rows'])} instances",
    )


def test_criterion_7_potential_bound_and_radius_stability(suite):
    missing = []
    for r in suite["rows"]:
        rep = r["report"]
        if math.isfinite(rep.potential_bound):
            assert rep.potential_bound_satisfied, (r["kind"], r["d"], r["n"], r["level"])
            assert rep.potential_sup <= rep.potential_bound
        else:
            # Bound parameters need one support atom with all slots
            # pairwise separated; only the coarsest grids may lack one.
            missing.append((r["kind"], r["d"], r["n"], r["level"]))
            assert r["level"] == 1, (r["kind"], r["d"], r["n"], r["level"])

    radii = {
        r["level"]: r["report"].bound_radius
        for r in suite["rows"]
        if r["kind"] == "ball" and r["d"] == 1 and r["n"] == 2 and r["level"] >= 2
    }
    assert sorted(radii) == [2, 3, 4, 5]
    spread = (max(radii.values()) - min(radii.values())) / max(radii.values())
    ok = spread < 0.5
    _report(
        "criterion 7 (a priori potential bound)",
        ok,
        f"bound holds on every instance with defined parameters "
        f"({len(suite['rows']) - len(missing)}/{len(suite['rows'])}), radius spread "
        f"across levels 2..5 is {spread:.1%}",
    )
    assert ok


def test_criterion_8_clearance_and_swap_stability(suite):
    t0 = time.perf_counter()
    for r in suite["rows"]:
        if r["kind"] == "ball" and r["level"] >= 2:
            assert r["report"].diagonal_clearance_alpha > 0.0, (r["d"], r["n"], r["level"])

    # The LP optimum admits no strictly improving rearrangement.
    opt = next(
        r
        for r in suite["rows"]
        if r["kind"] == "ball" and r["d"] == 1 and r["n"] == 2 and r["level"] == 2
    )
    improved_plan, log = swap_search(opt["plan"], coulomb(2))
    no_gain = not any("lowered cost" in line for line in log)
    same_cost = math.isclose(
        plan_cost(improved_plan, coulomb(2), cost_mode="cell"),
        plan_cost(opt["plan"], coulomb(2), cost_mode="cell"),
        rel_tol=0.0,
        abs_tol=1e-12,
    )

    # A diagonally loaded plan must strictly improve while keeping its
    # marginals to 1e-10.
    grid = GridSpec(1, 1.0, 1)
    diag = TransportPlan(
        grid, 2, {((-1,), (-1,)): 0.5, ((2,), (2,)): 0.5}
    )
    before = plan_cost(diag, coulomb(2), cost_mode="cell")
    fixed, fix_log = swap_search(diag, coulomb(2))
    after = plan_cost(fixed, coulomb(2), cost_mode="cell")
    marg_ok = True
    for i in range(2):
        old = diag.marginal(i)
        new = fixed.marginal(i)
        keys = set(old) | set(new)
        marg_ok &= all(abs(old.get(k, 0.0) - new.get(k, 0.0)) <= 1e-10 for k in keys)
    elapsed = time.perf_counter() - t0

    ok = no_gain and same_cost and after < before and marg_ok and elapsed < 10.0
    _report(
        "criterion 8 (diagonal clearance and swap rearrangement)",
        ok,
        f"alpha > 0 on all refined ball optima; optimum left unchanged; diagonal "
        f"plan improved {before:.4f} -> {after:.4f} with marginals intact, {elapsed:.2f}s",
    )
    assert no_gain
    assert same_cost
    assert after < before
    assert marg_ok
    assert elapsed < 10.0


def _oracle_batch(seed: int):
    """Solve 50 seeded random coupling LPs twice over: engine vs tableau."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    lines = ["case,n,m,value"]
    for case in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(3, 15 if n == 2 else 6))
        w = rng.uniform(0.9, 1.1, size=m)
        w /= w.sum()
        recip = rng.uniform(0.1, 2.0, size=(m, m))
        recip = 0.5 * (recip + recip.T)
        # The injective variant is only feasible when no single point
        # carries more than 1/n of the mass.
        if rng.random() < 0.3 and w.max() <= 1.0 / n:
            np.fill_diagonal(recip, np.inf)

        def tuple_cost(t):
            return float(
                sum(recip[t[i], t[j]] for i in range(n) for j in range(i + 1, n))
            )

        _, _, value = solve_transport(w, recip, n)
        A, b, c, tuples = coupling_lp(w, tuple_cost, n)
        assert len(tuples) <= 200
        status, _, oracle = tableau_simplex(A, b, c)
        assert status == "optimal"
        worst = max(worst, abs(value - oracle))
        lines.append(f"{case},{n},{m},{value!r}")
    return worst, ("\n".join(lines) + "\n").encode()


def test_criterion_9_engine_matches_oracle_deterministically():
    t0 = time.perf_counter()
    worst_a, csv_a = _oracle_batch(1234)
    worst_b, csv_b = _oracle_batch(1234)
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-9 and worst_b <= 1e-9 and csv_a == csv_b and elapsed < 30.0
    _report(
        "criterion 9 (oracle equivalence and determinism)",
        ok,
        f"50 random coupling LPs, worst |engine - tableau| = {worst_a:.2e}, "
        f"rerun byte-identical: {csv_a == csv_b}, {elapsed:.1f}s",
    )
    assert worst_a <= 1e-9
    assert csv_a == csv_b
    assert elapsed < 30.0
