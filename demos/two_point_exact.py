#!/usr/bin/env python3
"""Two equal atoms at distance 2: the smallest instance with a closed form.

The optimal coupling puts all mass on the two off-diagonal pairs, the
value is 1/(distance) = 0.5, and the solver's dual potential, the same in
both marginal slots, is exactly 0.25 at both cells.
"""

from mmot.cost import coulomb
from mmot.grid import GridSpec
from mmot.measure import FiniteAtomic, discretize
from mmot.lp import solve_mmot
from mmot.transport import verify_duality

rho = FiniteAtomic(points=((-1.0,), (1.0,)), weights=(0.5, 0.5))
grid = GridSpec(level=3, window_halfwidth=1.0, dimension=1)
mu = discretize(rho, grid)
model = coulomb(2)

plan, pots, value = solve_mmot(mu, model, cost_mode="pointwise")

print("two atoms at -1 and +1, half mass each, pair interaction 1/|x-y|")
print(f"optimal value      {value!r}   (exact: 0.5)")
print("optimal plan atoms:")
for cells, w in sorted(plan.atoms.items()):
    pts = tuple(mu.positions[c][0] for c in cells)
    print(f"  {pts!r} -> {w!r}")

print(f"potential equal in every slot: {all((u == pots.values[0]).all() for u in pots.values)}")
print("potential per cell (exact: 0.25 each):")
for c in mu.support():
    print(f"  x={mu.positions[c][0]:+.1f}  u={pots.value(0, c)!r}")

report = verify_duality(plan, pots, model, cost_mode="pointwise", positions=mu.positions)
print(f"relative duality gap        {report.relative_gap:.3e}")
print(f"max slackness violation     {report.max_slackness_violation:.3e}")
print(f"max dual violation          {report.max_dual_violation:.3e}")
