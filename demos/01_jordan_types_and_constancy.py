"""Jordan types of commuting nilpotent actions, point by point.

A module here is r commuting p-nilpotent matrices: the actions of
X_i = g_i - 1 for generators g_i of an elementary abelian p-group.
Every nonzero point alpha of affine r-space gives a nilpotent operator
X_alpha = sum lambda_i X_i, and its Jordan block sizes are the basic
invariant.  "Constant Jordan type" means the block profile is the same
at every point over every field extension.
"""

import numpy as np

from cjt import (
    Point,
    SamplingPlan,
    builtin,
    build_field,
    check_constant,
    jordan_type_at,
    new_module,
    x_alpha,
)
from cjt.kemod import projective_points

p, r = 3, 2
M = builtin("rad_quotient", p, r, m=2)  # k[X1,X2]/(squares and products)
print(f"module of dimension {M.n} over GF({p}), rank {r}")

print("\nJordan type at every rational point of P^1:")
for pt in projective_points(p, r):
    print(f"  alpha = {pt.coords}: {jordan_type_at(M, pt)}")

K = build_field(p, 2)
pt = Point(K, (1, 4))  # coordinates in GF(9), encoded base p
print(f"\nat a GF(9)-point {pt.coords}: {jordan_type_at(M, pt)}")
print("the matrix of X_alpha there:")
print(x_alpha(M, pt))

print("\nsampling-based constancy check (exhaustive small fields + random):")
print(" ", check_constant(M, SamplingPlan(extra=50)))

# a module that is NOT of constant Jordan type: one Jordan block plus a
# fixed vector, with the second generator acting as zero
X1 = np.zeros((3, 3))
X1[0, 1] = 1
N = new_module(2, 2, [X1, np.zeros((3, 3))])
print("\na falsifiable example (p = 2):")
verdict = check_constant(N)
print(f"  {verdict.reference_type} at the reference point, but")
print(f"  {verdict.type_at_witness} at alpha = {verdict.witness.coords}")
