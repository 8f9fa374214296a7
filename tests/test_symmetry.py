"""Symmetry-reduced LP: group detection, classes of multisets and their
cheapest members, and the class LP against the unreduced multiset LP."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmot import lp, symmetry
from mmot.cost import coulomb, pair_recip_matrix
from mmot.grid import GridSpec
from mmot.lp import solve_mmot, solve_transport
from mmot.measure import DiscreteMeasure, FiniteAtomic, UniformBall, discretize
from mmot.symmetry import Symmetry, symmetry_group
from mmot.tolerances import FEAS_TOL
from mmot.transport import _support_recip, max_dual_excess, verify_duality


def _elements(d):
    """Every axis permutation with reflections k -> 1 - k, as functions
    on cell tuples."""
    out = []
    for axes in itertools.permutations(range(d)):
        for flips in itertools.product((False, True), repeat=d):
            out.append(
                lambda c, axes=axes, flips=flips: tuple(
                    1 - c[a] if f else c[a] for a, f in zip(axes, flips)
                )
            )
    return out


def _as_perm(element, support):
    index = {c: i for i, c in enumerate(support)}
    return tuple(index[element(c)] for c in support)


def _group_of(mu, n, cost_mode="cell"):
    support = mu.support()
    weights = np.array([mu.atoms[c] for c in support])
    recip = _support_recip(coulomb(n), mu.grid, support, cost_mode, mu.positions)
    return symmetry_group(np.array(support), mu.grid, weights, recip)


def test_centered_ball_has_the_full_group():
    mu = discretize(UniformBall(center=(0.0, 0.0, 0.0), radius=1.0), GridSpec(1, 1.0, 3))
    group = _group_of(mu, 2)
    assert group.shape == (48, len(mu.atoms))
    assert np.array_equal(group[0], np.arange(len(mu.atoms)))
    support = mu.support()
    assert {tuple(p) for p in group.tolist()} == {_as_perm(g, support) for g in _elements(3)}


def test_off_center_ball_has_the_trivial_group():
    mu = discretize(UniformBall(center=(0.3, 0.1, -0.2), radius=0.6), GridSpec(2, 1.0, 3))
    assert _group_of(mu, 2).shape == (1, len(mu.atoms))


def test_perturbed_weight_leaves_its_stabilizer():
    mu = discretize(UniformBall(center=(0.0, 0.0), radius=1.0), GridSpec(1, 1.0, 2))
    raw = dict(mu.atoms)
    raw[(1, 1)] *= 1.5
    total = math.fsum(raw.values())
    bent = DiscreteMeasure(mu.grid, {c: v / total for c, v in raw.items()})
    support = bent.support()
    want = {_as_perm(g, support) for g in _elements(2) if g((1, 1)) == (1, 1)}
    group = _group_of(bent, 3)
    assert len(want) == 2
    assert {tuple(p) for p in group.tolist()} == want


def test_pointwise_atoms_have_the_trivial_group():
    rng = np.random.default_rng(4)
    points = [tuple(p) for p in rng.uniform(-0.9, 0.9, size=(6, 2))]
    mu = discretize(FiniteAtomic(points, [1.0 / 6] * 6), GridSpec(3, 1.0, 2))
    assert len(mu.atoms) == 6
    assert _group_of(mu, 2, "pointwise").shape == (1, 6)


def test_pair_matrix_check_keeps_the_subgroup_that_fixes_it():
    # the four atoms sit on the corners of a 0.6 x 0.5 rectangle whose
    # cells form the central 2 x 2 block: support and equal weights are
    # invariant under all 8 elements, the pointwise pair matrix only
    # under the two reflections and their product
    points = [(0.3, 0.2), (-0.3, 0.2), (0.3, -0.3), (-0.3, -0.3)]
    mu = discretize(FiniteAtomic(points, [0.25] * 4), GridSpec(1, 1.0, 2))
    support = mu.support()
    want = {_as_perm(g, support) for g in _elements(2) if g((1, 2))[1] in (2, -1)}
    group = _group_of(mu, 2, "pointwise")
    assert len(want) == 4
    assert {tuple(p) for p in group.tolist()} == want


@st.composite
def invariant_instances(draw):
    """A small grid, a random subgroup of its symmetries, and weights
    that are one random value per orbit of that subgroup."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([2, 3]))
    level = draw(st.integers(1, 2 if d == 1 else 1))
    grid = GridSpec(level, 1.0, d)
    support = sorted(grid.all_cells())
    elements = [_as_perm(g, support) for g in _elements(d)]
    chosen = draw(st.lists(st.sampled_from(elements), max_size=3))
    ident = tuple(range(len(support)))
    group = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in chosen:
            q = tuple(g[i] for i in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    perms = np.array([ident] + sorted(group - {ident}))
    orbit = perms.min(axis=0)
    values = {int(o): draw(st.floats(0.5, 2.0)) for o in np.unique(orbit)}
    raw = np.array([values[int(o)] for o in orbit])
    w = raw / raw.sum()
    recip = pair_recip_matrix(coulomb(n), grid, np.array(support))
    return w, recip, n, perms


@settings(max_examples=40, deadline=None)
@given(invariant_instances())
def test_orbit_lp_equals_the_unreduced_lp(instance):
    w, recip, n, perms = instance
    atoms, u, value = solve_transport(w, recip, n, group=perms)
    _, _, plain = solve_transport(w, recip, n)
    assert value == pytest.approx(plain, abs=1e-12)
    # past the cap, column generation pools the classes of violating tuples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_POOL_CAP", 0)
        _, _, generated = solve_transport(w, recip, n, group=perms)
    assert generated == pytest.approx(plain, abs=1e-12)
    assert max_dual_excess(np.broadcast_to(u, (n, u.size)), recip) <= 1e-9 * lp._cost_scale(recip, n)
    for slot in range(n):
        marg = np.zeros(w.size)
        for t, x in atoms.items():
            marg[t[slot]] += x
        assert np.abs(marg - w).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(invariant_instances(), st.booleans())
def test_class_pool_holds_the_cheapest_multiset_of_each_class(instance, distinct):
    # brute force: every multiset (subset when distinct, with an infinite
    # diagonal as in pointwise mode) grouped by its sorted tuple of orbits
    w, recip, n, perms = instance
    m = w.size
    if distinct:
        recip = recip.copy()
        np.fill_diagonal(recip, math.inf)
    tuples = itertools.combinations(range(m), n) if distinct else (
        itertools.combinations_with_replacement(range(m), n)
    )
    sym = Symmetry(perms)
    want: dict[tuple[int, ...], float] = {}
    for t in tuples:
        key = tuple(sorted(sym.cell_orbit[list(t)].tolist()))
        cost = math.fsum(recip[t[i], t[j]] for i in range(n) for j in range(i + 1, n))
        want[key] = min(want.get(key, math.inf), cost)
    classes = sym.classes(n, distinct)
    assert [tuple(c) for c in classes.tolist()] == sorted(want)
    assert sym.class_count(n, distinct) == len(want)
    prov = lp._MultisetColumns(recip, n, classes, sym)
    assert np.array_equal(prov.classes, classes)
    assert np.array_equal(np.sort(sym.cell_orbit[prov.members], axis=1), classes)
    assert (np.diff(prov.members, axis=1) >= 0).all()
    assert np.abs(prov.costs - [want[tuple(c)] for c in classes.tolist()]).max() <= 1e-12
    pair_sums = [
        math.fsum(recip[t[i], t[j]] for i in range(n) for j in range(i + 1, n))
        for t in prov.members.tolist()
    ]
    assert np.abs(prov.costs - pair_sums).max() <= 1e-12
    # blocks of a few classes find the same members
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmetry, "_ENUM_BUDGET", 4 * n)
        rows, costs = sym.cheapest(classes, recip)
    assert np.array_equal(rows, prov.members) and np.array_equal(costs, prov.costs)


def test_refined_potential_is_the_cell_level_min_norm():
    # point 0 is fixed and points 1, 2 swap: orbits of sizes 1 and 2.  The
    # optimal multisets {0, 1} and {0, 2} form one orbit, so u is only
    # pinned by u0 + u1 = 1 = u0 + u2.  The cell-level minimum-norm
    # potential is (2/3, 1/3, 1/3); an orbit system without the size
    # weights would give (1/2, 1/2, 1/2).
    perms = np.array([[0, 1, 2], [0, 2, 1]])
    recip = np.full((3, 3), 10.0)
    recip[0, 1:] = recip[1:, 0] = 1.0
    atoms, refined, value = solve_transport(np.array([0.5, 0.25, 0.25]), recip, 2, group=perms)
    assert atoms == {(0, 1): 0.25, (1, 0): 0.25, (0, 2): 0.25, (2, 0): 0.25}
    assert value == 1.0
    A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    want, *_ = np.linalg.lstsq(A, np.ones(2), rcond=None)
    assert np.abs(want - [2 / 3, 1 / 3, 1 / 3]).max() <= 1e-12
    assert np.abs(refined - want).max() <= 1e-12


def test_scale_instance_certified():
    # d = 3, level 3, N = 2: 2584 cells and 3.34 M multisets, past the
    # pool cap unreduced; 76 cell orbits and 2926 classes under the 48
    # symmetries of the centered ball
    mu = discretize(UniformBall(center=(0.0, 0.0, 0.0), radius=1.0), GridSpec(3, 1.0, 3))
    assert len(mu.atoms) == 2584
    plan, pots, value = solve_mmot(mu, coulomb(2))
    report = verify_duality(plan, pots, coulomb(2))
    assert report.relative_gap <= 1e-8
    assert report.max_dual_violation <= FEAS_TOL
    assert report.primal_value == value


@pytest.mark.parametrize("d, n", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_plan_lift_matches_the_per_orbit_loop(d, n):
    # the lift spreads a basic orbit's mass x over its distinct sorted
    # images, (x / images) apiece, then over the N cyclic shifts of each,
    # (share / N) apiece, summing repeats in that order from 0.0
    mu = discretize(UniformBall(center=(0.0,) * d, radius=1.0), GridSpec(1, 1.0, d))
    perms = _group_of(mu, n)
    sym = Symmetry(perms)
    recip = _support_recip(coulomb(n), mu.grid, mu.support(), "cell", None)
    pool = lp._MultisetColumns(recip, n, sym.classes(n, False), sym).members
    rng = np.random.default_rng(10 * d + n)
    picks = rng.choice(pool.shape[0], size=min(40, pool.shape[0]), replace=False)
    primal = {int(j): float(x) for j, x in zip(picks, rng.uniform(0.01, 1.0, size=picks.size))}
    want: dict[tuple[int, ...], float] = {}
    lowest = []
    for j, x in primal.items():
        images = sorted(set(map(tuple, np.sort(perms[:, pool[j]], axis=1).tolist())))
        lowest.append(images[0])
        share = x / len(images)
        for t in images:
            for s in range(n):
                shift = t[s:] + t[:s]
                want[shift] = want.get(shift, 0.0) + share / n
    idx, x, codes = lp._lift_plan(primal, pool, perms, (perms.shape[1],) * n)
    assert [tuple(t) for t in idx.tolist()] == sorted(want)
    assert x.tolist() == [want[t] for t in sorted(want)]
    m = perms.shape[1]
    assert codes.tolist() == [int(np.ravel_multi_index(t, (m,) * n)) for t in lowest]
