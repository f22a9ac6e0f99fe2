"""Walk through the basis structure of a small transport problem.

Three ordered points on the real line, equal marginals, cost |x - y|**p.
The optimum is always the diagonal coupling (mass stays in place), but the
set of optimal bases -- and with it the entire fluctuation theory -- flips
as p crosses 1.
"""

import numpy as np

import lplimits as lpl

r = np.ones(3) / 3.0
points = np.array([0.0, 1.0, 2.0])

print("Transport between three line points with equal marginals r = s = 1/3.")
print("The unique optimal coupling is diag(1/3, 1/3, 1/3) for every p > 0;")
print("what changes with p is how many bases carry it.\n")

for p in (0.5, 1.0, 2.0):
    problem = lpl.make_ot_problem(points_x=points, r=r, s=r, p=p, q=2.0)
    lp = lpl.reduce_to_lp(problem)
    ledger = lpl.enumerate_ledger(lp)
    report = lpl.check_assumptions(ledger)
    print(f"p = {p}:")
    print(f"  dual feasible bases N = {len(ledger.bases)}, optimal bases K = {ledger.optimal_count}")
    print(f"  unique optimum: {report.a2_unique_optimum}, "
          f"distinct optimal duals: {report.a3_distinct_optimal_duals}")
    for k in range(ledger.optimal_count):
        scheme = np.zeros((3, 3), dtype=int)
        for col in ledger.bases[k].indices:
            scheme[col // 3, col % 3] = 1
        rows = ["".join("*" if v else "." for v in row) for row in scheme]
        print(f"  basis {ledger.bases[k].indices}  scheme {' / '.join(rows)}")
    print()

print("The convex-cost case (p = 2) keeps four optimal bases.  Their stability")
print("cones partition the space of marginal perturbations: each cone collects")
print("the directions under which one basis stays feasible, hence optimal.")
problem = lpl.make_ot_problem(points_x=points, r=r, s=r, p=2.0, q=2.0)
ledger = lpl.enumerate_ledger(lpl.reduce_to_lp(problem))
partition = lpl.support_partition(ledger)
print(f"\nSupport partition of the optimum: positive {partition.pos}, "
      f"true zeroes {partition.tz}, degenerate zeroes {partition.dz}")
cones = lpl.build_cones(ledger, partition)
for cone in cones:
    print(f"cone of basis {ledger.bases[cone.basis_index].indices}: "
          f"{cone.halfspace_normals.shape[0]} half-spaces")
    print(np.round(cone.halfspace_normals, 6))
