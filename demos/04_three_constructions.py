"""Three independent constructions of the same Shapovalov element.

1.  The closed sum over index sets: chains f_J weighted by products of h_i.
2.  The ordered determinant of an almost-triangular matrix whose
    subdiagonal carries the evaluated scalars -h_i(lam), expanded along
    its last column.
3.  The rank induction: conjugate the previous rank's element by a power of
    the new simple generator, using the finite conjugation operators.

All three agree exactly -- the first two symbolically, the third at every
admissible numeric weight after normalizing its leading coefficient.
"""

from qshapo.freealg import get_rewrite_system
from qshapo.roots import sample_dominant_chain
from qshapo.shapovalov import (
    theta_det,
    theta_inductive,
    theta_sum,
    theta_vector,
    verify_hwv,
)
from qshapo.verma import HighestWeight, is_hwv

n = 3
rs = get_rewrite_system(n)

element = theta_sum(n)
print(f"closed sum for rank {n}:")
print("  ", element.to_text())

print("\nsymbolic agreement with the ordered determinant (on the hyperplane):")
tied = HighestWeight.symbolic(n, hyperplane_m=1)
print("  det == sum?", theta_det(n, tied) == element.evaluate(tied))

lam = sample_dominant_chain(n, 1, 1, seed=42)[0]
print(f"\nrank induction at lambda = {lam}:")
res = theta_inductive(n, 1, lam, rs)
print("  conjugation exponents per step:", res.r_values)
print("  leading coefficient:", res.pi0, "(predicted:", str(res.predicted_pi0()) + ")")
match = res.normalized() == element.evaluate(HighestWeight.numeric(lam))
print("  normalized induction == evaluated sum?", match)

print("\nand the point of it all -- a highest weight vector in the Verma module:")
hw = HighestWeight.numeric(lam)
vec = theta_vector(element.evaluate(hw), hw, rs)
print("  is_hwv(theta * v) =", is_hwv(vec, rs))

print("\nsymbolic verification report:")
for entry in verify_hwv(n, 1, mode="symbolic"):
    print(f"  [{entry['status']}] {entry['check']}")
