"""Exact arithmetic in Q(q): quantum integers, Gaussian binomials, and
symbolic weight scalars.

Everything in this package is computed over the field of rational functions
in q with integer coefficients, kept in a canonical reduced form so that an
identity holds exactly when the canonical form is literally zero.
"""

from qshapo.scalars import RatQ, WeightScalar, qbinom, qbinom_formal, qint
from qshapo.verma import HighestWeight

q = RatQ.q_power(1)
v = RatQ.v_power(1)  # v = q^2 throughout

print("quantum integers [r]_v = (v^r - v^-r)/(v - v^-1):")
for r in range(0, 6):
    print(f"  [{r}]_v = {qint(r)}")

print("\nGaussian binomials:")
for n in range(0, 5):
    print(" ", "  ".join(str(qbinom(n, i)) for i in range(n + 1)))

print("\nthe symmetric identity [a+b]_v (v - v^-1) = "
      "v^b(v^a - v^-a) + v^-a(v^b - v^-b), spot checked:")
a, b = 4, -7
lhs = qint(a + b) * (v - v.inverse())
rhs = RatQ.v_power(b) * (RatQ.v_power(a) - RatQ.v_power(-a)) + RatQ.v_power(-a) * (
    RatQ.v_power(b) - RatQ.v_power(-b)
)
print(f"  a={a}, b={b}: equal? {lhs == rhs}")

print("\na formal upper parameter: the binomial with t = v^r")
f = qbinom_formal(2)
print(f"  C(r,2) as a Laurent polynomial in t: {f}")
for r in (3, 5, -2):
    print(f"  specialized at r={r}: {f.eval((2 * r,))}  vs  {qbinom(r, 2)}")

print("\nweight scalars: y_i stands for q^(lam, alpha_i)")
s = WeightScalar(2, {(2, 0): RatQ.from_int(1), (0, -2): RatQ.from_int(-1)})
print(f"  s = {s}")
print(f"  evaluated at (lam,a1)=3, (lam,a2)=1: {s.eval((3, 1))}")
print("  on the level-1 hyperplane (y1*y2 = q^-1), y2 is eliminated:")
tied = HighestWeight.symbolic(2, hyperplane_m=1)
print(f"  s|_H = {tied.k_eigen((2, 0)) - tied.k_eigen((0, -2))}")
