"""Higher-level elements and the verification suites.

The level-m element factors as an ordered product of level-one elements
evaluated at shifted weights; it produces highest weight vectors of weight
lam - m*eta and matches the rank induction at level m.  A deliberately
off-hyperplane weight shows the machinery is not vacuously zero: the last
raising direction leaves a nonzero witness there.
"""

from qshapo.freealg import get_rewrite_system
from qshapo.roots import sample_dominant_chain
from qshapo.shapovalov import pi0_monomial, theta_inductive, theta_power, theta_vector
from qshapo.suites import run_suite
from qshapo.verma import HighestWeight, act_e, is_hwv

n, m = 2, 2
rs = get_rewrite_system(n)
lam = sample_dominant_chain(n, m, 1, seed=9)[0]
print(f"level {m} at lambda = {lam} (on the level-{m} hyperplane):")

tp = theta_power(n, m, lam, rs)
hw = HighestWeight.numeric(lam)
vec = theta_vector(tp, hw, rs)
print("  product of level-one factors is a highest weight vector:", is_hwv(vec, rs))
print("  its weight sits m*eta below the top:", vec.weight_offset())

ind = theta_inductive(n, m, lam, rs)
inv = tp[pi0_monomial(n, m)].inverse()
print(
    "  normalized product == normalized induction:",
    {M: c * inv for M, c in tp.items()} == ind.normalized(),
)

print("\nnegative control at an off-hyperplane weight:")
for entry in run_suite("negative", 2):
    print(f"  [{entry['status']}] {entry['check']}  witness: {entry['witness']}")

print("\nassorted suite one-liners:")
for name in ("calculus", "section44", "pbw"):
    rep = run_suite(name, 2)
    ok = all(r["status"] == "pass" for r in rep)
    print(f"  {name}: {len(rep)} checks, all pass = {ok}")
