"""The rewriting engine behind equality in U_q(n^-).

The negative part of quantized sl(N+1) is the free algebra on f_1..f_N
modulo the q-Serre relations.  We orient those relations as rewrite rules
under the degree-lexicographic order and complete them by resolving overlap
ambiguities degree by degree; through the degree completed so far, normal
forms are then canonical, so "equal in the algebra" becomes "same normal
form".  A longer word extends the completion to its own length.
"""

from qshapo.freealg import NCPoly, complete, get_rewrite_system, serre_relations
from qshapo.roots import kostant_count, kostant_partitions
from qshapo.scalars import R_ONE
from qshapo.uqsl import expand_pbw, jimbo, to_pbw

n = 3
print(f"defining relations for rank {n}:")
for rel in serre_relations(n):
    print("  ", rel)

rs = get_rewrite_system(n)
print(f"\ncompleted system: {len(rs.rules)} rules, confluent to degree {rs.cap}")
extra = [lead for lead in rs.rules if len(lead) > 3]
print(f"rules discovered by completion (degree > 3): {sorted(extra)}")

p = NCPoly(n, {(3, 2, 2, 1): R_ONE})
print(f"\nnormal form of f3 f2 f2 f1: {rs.normal_form(p)}")

print("\ndimension audit: normal words vs partitions into positive roots")
for mu in [(1, 1, 0), (1, 1, 1), (2, 2, 1), (2, 2, 2)]:
    print(f"  multidegree {mu}: {rs.dim_weight_space(mu)} normal words, "
          f"{kostant_count(mu)} partitions")

print("\nroot vectors (the q-bracket recursion):")
print("  f_{1,3} =", jimbo(1, 3, n))
print("  f_{1,4} =", jimbo(1, 4, n))

print("\nchange of basis into ordered root-vector monomials:")
p = NCPoly(n, {(2, 1): R_ONE})
print(f"  f2 f1 = ", to_pbw(p, rs))
mu = (1, 1, 1)
monos = list(kostant_partitions(mu))
print(f"  PBW monomials of multidegree {mu}: {monos}")
for M in monos:
    assert to_pbw(expand_pbw(M, n), rs) == {M: R_ONE}
print("  round trip through normal forms: exact")
