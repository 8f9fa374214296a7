"""Every floating-point threshold of the package, each named once with its reason.

Whether a certificate passes depends on these numbers alone.  Integer
limits (pool cap, refactorization period, block sizes) stay with the code
they bound.  tests/test_tolerances.py fails on a float literal with a
negative exponent anywhere else in the package.
"""

# the certificate: defaults of solve_mmot, converge and --gap-tol / --feas-tol
GAP_TOL = 1e-8  # relative duality gap |primal - dual| / (1 + |primal|) an optimum may keep
FEAS_TOL = 1e-9  # dual and slackness margin, times 1 + |primal| (verify) or 1 + max cost (simplex)

# the simplex engine and the plan lift (lp.py)
PIVOT_TOL = 1e-10  # direction entries at or below this are no pivot
ZERO_LEVEL = 1e-11  # basic levels at or below this count as zero
SMALL_PIVOT = 1e-6  # a pivot element below this refactorizes the inverse at once
LOST_FEASIBILITY = 1e-7  # a level below -this * (1 + max b) after refactoring: update error
RATIO_TIE_REL = 1e-9  # ratio-test ties: ratios up to best * (1 + REL) + ABS
RATIO_TIE_ABS = 1e-15
STRONG_PIVOT = 0.9  # among tied rows, pivots within this fraction of the largest magnitude
STALL_DROP = 1e-12  # an objective drop below this * (1 + |objective|) is a stall
SLIVER = 1e-13  # quantile-shift breakpoints this close merge: no sliver piece repeats a cell
REFINE_RESIDUAL = 1e-9  # min-norm potential must meet its classes' costs to this * (1 + max cost)
WEIGHT_SUM = 1e-8  # solve_transport's weights must sum to one within this
INJECTIVE_SLACK = 1e-12  # round-off a pointwise weight may exceed 1/N by
NEGATIVE_WEIGHT = 1e-9  # a lifted plan weight below -this is a numerical breakdown
DROP_WEIGHT = 1e-12  # lifted plan weights at or below this are dropped
MARGINAL_DRIFT = 1e-8  # the plan's slot marginal may drift from the measure by this

# plans, measures and their files (transport.py, measure.py)
PLAN_TOL = 1e-10  # a plan's mass and its slot marginals must agree to this
NORMALIZED = 1e-12  # sums this close to one are left alone: dividing would churn low bits
FILE_SUM = 1e-9  # a stored measure or plan may miss total mass one by this
SWAP_DROP = 1e-15  # rearranged masses at or below this are not kept

# geometry (grid.py, measure.py, transport.py, cli.py)
GRID_INTEGRAL = 1e-9  # halfwidth * 2**level must be an integer to within this
WINDOW_SLACK = 1e-12  # comparisons of radii and halfwidths with the window edge
BOUND_SLACK = 1e-12  # round-off the potential's sup may exceed its a priori bound by

# refinement studies and the swap search (harness.py), relative to 1 + |value|
MONO_SLACK = 1e-12  # a level's value may fall below the coarser one's by this
REFERENCE_SLACK = 1e-9  # values may exceed the independent-coupling cost by this
IMPROVE_SLACK = 1e-12  # a rearrangement must lower the cost by more than this
