"""The three regression estimators side by side.

GM weighs each response by the kernel's integral over that design point's
Voronoi cell; NW weighs by the kernel value itself (normalized); LL fits a
kernel-weighted affine model and reports its intercept.  LL reproduces
affine surfaces exactly and adapts its bias near the boundary, which is why
it dominates the comparison study.
"""

import numpy as np

from simplexreg import (
    Design,
    batch_estimate,
    generate_responses,
    mesh_design_points,
    target_function,
)

points = mesh_design_points(7)
m = target_function("m6")
design = generate_responses(m, points, seed=42)

eval_points = np.array([[1 / 3, 1 / 3], [0.7, 0.1], [0.05, 0.05], [0.02, 0.9]])
b = 0.1

print(f"target m6(s) = (1+s1) exp(s2), noisy design n={design.n}, bandwidth b={b}")
print(f"{'point':>14}  {'truth':>8}  {'GM':>8}  {'NW':>8}  {'LL':>8}")
rows = {meth: batch_estimate(meth, design, b, eval_points) for meth in ("GM", "NW", "LL")}
for i, s in enumerate(eval_points):
    truth = float(m(s))
    print(
        f"  ({s[0]:.2f},{s[1]:.2f})  {truth:8.4f}  {rows['GM'][i]:8.4f}"
        f"  {rows['NW'][i]:8.4f}  {rows['LL'][i]:8.4f}"
    )

print("\naffine surfaces are reproduced exactly by LL (any bandwidth):")
affine = Design(points=points, responses=1.0 + 2.0 * points[:, 0] - points[:, 1])
for b in (0.05, 0.3, 0.9):
    est = batch_estimate("LL", affine, b, np.array([[0.2, 0.5]]))[0]
    print(f"  b={b}: LL = {est:.12f} (truth {1.0 + 0.4 - 0.5:.12f})")

print("\nconstant responses come back exactly for NW/LL, within cubature noise for GM:")
const = Design(points=points, responses=np.full(design.n, 5.0))
for meth in ("GM", "NW", "LL"):
    est = batch_estimate(meth, const, 0.1, np.array([[0.3, 0.3]]))[0]
    print(f"  {meth}: {est:.10f}")
