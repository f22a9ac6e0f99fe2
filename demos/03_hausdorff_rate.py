"""Hausdorff distance between empirical and true optimality sets.

With cost |x - y| (p = 1) and equal marginals the optimum is unique, but
the optimality set of a resampled problem often is not.  The distance of
that random polytope to the true one shrinks at the same square-root rate
as the marginals.  A skewed two-vertex instance then shows the exact
linear response to a deterministic perturbation.
"""

import numpy as np

import lplimits as lpl

r = np.ones(3) / 3.0
points = np.array([0.0, 1.0, 2.0])
problem = lpl.make_ot_problem(points_x=points, r=r, s=r, p=1.0, q=2.0)
solver = lpl.RepeatedSolver(lpl.enumerate_ledger(lpl.reduce_to_lp(problem)))

print("Resampling the first marginal at four sample sizes, 200 replicates each...")
experiment = lpl.hausdorff_run(solver, lpl.OneSample(), [100, 1_000, 10_000, 100_000], 200, seed=17)
print(f"\n{'n':>8} {'median d_H':>12} {'q25':>10} {'q75':>10}")
for n, median, q25, q75 in experiment.summary:
    print(f"{int(n):>8} {median:>12.5f} {q25:>10.5f} {q75:>10.5f}")
slope = lpl.hausdorff_rate_slope(experiment.summary)
print(f"\nlog-log slope: {slope:.3f}  (square-root decay would be -0.5)")

print("\nDeterministic perturbation of a two-vertex optimality set:")
r2 = np.array([0.25, 0.25, 0.5])
s2 = np.array([0.5, 0.25, 0.25])
base = lpl.enumerate_ledger(lpl.reduce_to_lp(
    lpl.make_ot_problem(points_x=points, r=r2, s=s2, p=1.0, q=2.0)
))
base_vertices = np.array(base.primal_optimal_vertices)
print(f"base optimality set has {len(base_vertices)} vertices")
for eps in (1e-2, 1e-3, 1e-4):
    shifted = lpl.make_ot_problem(
        points_x=points, r=r2 + eps * np.array([1.0, -1.0, 0.0]), s=s2, p=1.0, q=2.0
    )
    ledger = lpl.enumerate_ledger(lpl.reduce_to_lp(shifted))
    vertices = np.array(ledger.primal_optimal_vertices)
    dist = lpl.hausdorff_distance(base_vertices, vertices)
    print(f"  eps = {eps:g}: d_H = {dist:.6g}, d_H / eps = {dist / eps:.6f}")
print("The ratio is constant: the optimality set responds linearly.")
