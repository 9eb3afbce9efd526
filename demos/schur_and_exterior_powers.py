"""Exterior powers through Adams operations, from scratch.

A formal sum of group elements models the fiber of a clean cycle over a
very general point of its Gauss projection.  Exterior powers of the cycle
are then plain symmetric-function arithmetic: expand s_(1^k) in power sums
and substitute the multiplication-by-n pushforwards.
"""

from thetacycles.symfun import Partition, elementary_to_powersum, schur_to_powersum
from thetacycles.lambdaring import FgAbelianGroup, gr_element, lambda_op, gr_adams

# the transition coefficients behind lambda^2, lambda^3, lambda^4
for k in (2, 3, 4):
    print(f"lambda^{k} expansion:", schur_to_powersum(Partition((1,) * k)))

# the sign character gives the same answer
print("e_4 from the sign character:", elementary_to_powersum(4))

# a rank-one fiber: four points +/-1, +/-2 on a one-parameter group
Z = FgAbelianGroup(1)
fiber = (
    gr_element(Z, (1,))
    + gr_element(Z, (-1,))
    + gr_element(Z, (2,))
    + gr_element(Z, (-2,))
)
print("\nfiber:", fiber)
print("Psi^2 fiber:", gr_adams(2, fiber))
for k in range(1, 5):
    lk = lambda_op(k, fiber)
    print(f"lambda^{k}:", lk, " (coefficient sum", lk.coefficient_sum, ")")
# the coefficient sums are the binomials C(4, k): exterior powers of a
# four-dimensional object
