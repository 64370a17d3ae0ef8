"""The three constructions, their agreements, and the verification drivers."""

import pytest

from qshapo.freealg import NCPoly, complete, get_rewrite_system, serre_relations
from qshapo.roots import (
    alpha,
    dot_reflect,
    eta_vec,
    hyperplane_sample,
    pairing,
    sample_dominant_chain,
)
from qshapo.scalars import R_ONE, RatQ, WeightScalar, qint
from qshapo.shapovalov import (
    Checks,
    InductionPreconditionError,
    ShapoElement,
    WeightError,
    compare_doot,
    make_doot_weight,
    theta_det,
    theta_inductive,
    theta_power,
    theta_sum,
    theta_vector,
    verify_hwv,
)
from qshapo.uqsl import H_cartan, from_pbw, to_pbw
from qshapo.verma import HighestWeight, act_e, cartan_eval, h_eval, is_hwv

V = RatQ.v_power
Q = RatQ.q_power


def test_theta_sum_structure():
    t1 = theta_sum(1)
    assert [term[0] for term in t1.terms] == [((1, 2),)]
    t2 = theta_sum(2)
    assert [(pbw, hs) for pbw, hs, _ in t2.terms] == [
        (((1, 2), (2, 3)), ()),
        (((1, 3),), (1,)),
    ]
    t3 = theta_sum(3)
    assert [(pbw, hs) for pbw, hs, _ in t3.terms] == [
        (((1, 2), (2, 3), (3, 4)), ()),
        (((1, 2), (2, 4)), (2,)),
        (((1, 3), (3, 4)), (1,)),
        (((1, 4),), (1, 2)),
    ]
    # normalization: the all-simple chain carries the identity Cartan part
    for n in range(1, 6):
        t = theta_sum(n)
        lead = [H for pbw, _, H in t.terms if pbw == t.pi0_monomial()]
        assert len(lead) == 1
        assert lead[0] == WeightScalar.one(n, "k")


def test_theta_sum_renderers():
    t2 = theta_sum(2)
    assert t2.to_text() == "f[1,2]f[2,3] + f[1,3]·h1"
    assert theta_sum(1).to_text() == "f[1,2]"
    obj = t2.to_json_obj()
    assert obj["n"] == 2 and obj["method"] == "sum"
    assert obj["terms"][0]["pbw"] == [[1, 2], [2, 3]]
    assert obj["terms"][1]["h_factors"] == [1]
    tex = t2.to_latex()
    assert "\\documentclass" in tex and "f_{1,3}h_{1}" in tex


def test_theta_det_small():
    hw = HighestWeight.symbolic(2)
    got = theta_det(2, hw)
    c1 = h_eval(1, hw)
    assert got == {((1, 2), (2, 3)): hw.one(), ((1, 3),): c1}
    # rank one: a single entry
    hw1 = HighestWeight.symbolic(1)
    assert theta_det(1, hw1) == {((1, 2),): hw1.one()}


def test_theta_det_equals_sum_symbolic():
    for n in range(1, 6):
        hw = HighestWeight.symbolic(n, hyperplane_m=1)
        assert theta_det(n, hw) == theta_sum(n).evaluate(hw)
        free = HighestWeight.symbolic(n)
        assert theta_det(n, free) == theta_sum(n).evaluate(free)


def test_theta_det_equals_sum_numeric():
    for n in range(2, 5):
        for lam in hyperplane_sample(n, 1, 6, seed=13):
            hw = HighestWeight.numeric(lam)
            assert theta_det(n, hw) == theta_sum(n).evaluate(hw)


def test_theta_det_pi0_coefficient_is_one():
    for n in range(1, 6):
        hw = HighestWeight.symbolic(n)
        got = theta_det(n, hw)
        assert got[theta_sum(n).pi0_monomial()] == hw.one()


def test_theta_vector_weight():
    n = 3
    rs = get_rewrite_system(n)
    hw = HighestWeight.symbolic(n)
    vec = theta_vector(theta_sum(n).evaluate(hw), hw, rs)
    assert vec.weight_offset() == (1, 1, 1)


def test_theta_inductive_rank_one_and_two():
    rs1 = get_rewrite_system(1)
    res = theta_inductive(1, 3, (5,), rs1)
    assert res.coords == {((1, 2), (1, 2), (1, 2)): R_ONE}
    assert res.pi0 == R_ONE

    rs = get_rewrite_system(2)
    for lam in sample_dominant_chain(2, 1, 4, seed=7):
        res = theta_inductive(2, 1, lam, rs)
        assert res.pi0 == res.predicted_pi0()
        hw = HighestWeight.numeric(lam)
        assert res.normalized() == theta_sum(2).evaluate(hw)


def test_theta_inductive_matches_sum():
    for n in (3, 4):
        rs = get_rewrite_system(n)
        for lam in sample_dominant_chain(n, 1, 3, seed=19):
            res = theta_inductive(n, 1, lam, rs)
            assert res.pi0 == res.predicted_pi0()
            assert res.normalized() == theta_sum(n).evaluate(
                HighestWeight.numeric(lam)
            )


def test_theta_inductive_hyperplane_boundary():
    # On the hyperplane, per-step positivity alone (no full dominance of the
    # base weight) already forces agreement with the closed sum: every step
    # then satisfies both induction hypotheses.  Off the hyperplane the
    # construction still lands in the polynomial algebra but the element is
    # only pinned on the hyperplane, so agreement may (and here does) fail.
    rs = get_rewrite_system(3)
    el = theta_sum(3)

    lam = (3, -2, -3)  # hyperplane; base-weight pairings (1, 3, -1)
    assert sum(lam) == 1 - 3
    res = theta_inductive(3, 1, lam, rs)
    assert res.r_values == [3, 2]
    assert res.normalized() == el.evaluate(HighestWeight.numeric(lam))

    off = (0, 1, -4)  # chain-positive but off the hyperplane
    assert sum(off) != 1 - 3
    res2 = theta_inductive(3, 1, off, rs)  # still polynomial: no residues
    assert res2.normalized() != el.evaluate(HighestWeight.numeric(off))


def test_theta_inductive_precondition():
    # (0, 0) reflects to (1, -2), whose pairing with the new root is -1
    with pytest.raises(InductionPreconditionError):
        theta_inductive(2, 1, (0, 0))
    with pytest.raises(WeightError):
        theta_inductive(2, 1, (0, 0, 0))


def test_theta_power_level_one_is_sum():
    n = 2
    rs = get_rewrite_system(n)
    for lam in hyperplane_sample(n, 1, 4, seed=3):
        tp = theta_power(n, 1, lam, rs)
        assert tp == theta_sum(n).evaluate(HighestWeight.numeric(lam))


def _power_by_free_product(n, m, lam, rs):
    """theta_power's product of shifted level-one evaluations multiplied out
    in the free algebra and normal-formed once, at the end."""
    base = theta_sum(n)
    eta_pair = [pairing(eta_vec(n), alpha(k, n)) for k in range(1, n + 1)]
    prod = NCPoly.one(n)
    for j in range(m - 1, -1, -1):
        shifted = tuple(lam[k] - j * eta_pair[k] for k in range(n))
        prod = prod * from_pbw(base.evaluate(HighestWeight.numeric(shifted)), n)
    return to_pbw(prod, rs)


@pytest.mark.parametrize(
    "n, m, cap, count", [(3, 3, None, 2), (4, 2, None, 2), (4, 3, 12, 1)]
)
def test_theta_power_equals_the_unreduced_product(n, m, cap, count):
    rs = get_rewrite_system(n, cap)
    for lam in hyperplane_sample(n, m, count, seed=5, spread=2):
        assert theta_power(n, m, lam, rs) == _power_by_free_product(n, m, lam, rs)


def test_theta_power_highest_weight_and_induction_match():
    for (n, m) in [(2, 2), (2, 3), (3, 2)]:
        rs = get_rewrite_system(n)
        for lam in sample_dominant_chain(n, m, 2, seed=8):
            tp = theta_power(n, m, lam, rs)
            hw = HighestWeight.numeric(lam)
            vec = theta_vector(tp, hw, rs)
            assert is_hwv(vec, rs)
            assert vec.weight_offset() == tuple(m for _ in range(n))
            ind = theta_inductive(n, m, lam, rs)
            pi0 = tuple(sorted([(i, i + 1) for i in range(1, n + 1)] * m))
            inv = tp[pi0].inverse()
            assert {M: c * inv for M, c in tp.items()} == ind.normalized()


def test_theta_power_past_the_initial_degree_matches_the_induction():
    # the level-6 element at N = 2 has degree 12, and the induction reaches
    # degree 14; the system completes itself that far from degree 6
    rs = complete(serre_relations(2), 6, n=2)
    lam = (7, -3)
    tp = theta_power(2, 6, lam, rs)
    ind = theta_inductive(2, 6, lam, rs)
    assert rs.cap == 14
    inv = tp[((1, 2),) * 6 + ((2, 3),) * 6].inverse()
    assert {M: c * inv for M, c in tp.items()} == ind.normalized()


def test_theta_times_F_power_is_hwv_in_bigger_module():
    # submodule picture at exact conjugation exponents: with the chain end
    # pinned to p, theta * F^p on the reflected weight stays highest weight
    from qshapo.roots import dot_reflect
    from qshapo.uqsl import from_pbw
    from qshapo.verma import vector_from_ncpoly

    n = 2
    rs = get_rewrite_system(n)
    for m in (1, 2):
        for p in (1, 2, 3):
            base = (m - 1, p - 1)
            lam = dot_reflect(2, base)
            res = theta_inductive(n, m, lam, rs)
            assert res.r_values == [p]
            mu = res.chain[1]
            assert mu == base
            theta_poly = from_pbw(res.coords, n)
            vec = vector_from_ncpoly(theta_poly.rmul_word((n,) * p), HighestWeight.numeric(mu), rs)
            assert is_hwv(vec, rs), (m, p)


def test_act_e_symbolic_specializes_to_numeric():
    # the symbolic raising action evaluated at a weight agrees with the
    # numeric-mode computation term by term
    from qshapo.uqsl import expand_pbw, f_monomial_of_index_set
    from qshapo.verma import vector_from_ncpoly

    n = 3
    rs = get_rewrite_system(n)
    sym = HighestWeight.symbolic(n)
    poly = expand_pbw(f_monomial_of_index_set((1, 3, 4)), n)
    vec_sym = vector_from_ncpoly(poly, sym, rs)
    for lam in [(0, 1, -2), (3, -1, 0)]:
        num = HighestWeight.numeric(lam)
        vec_num = vector_from_ncpoly(poly, num, rs)
        for i in (1, 2, 3):
            es = act_e(i, vec_sym, rs)
            en = act_e(i, vec_num, rs)
            values = {w: c.eval(lam) for w, c in es.terms.items()}
            values = {w: c for w, c in values.items() if c}
            assert values == en.terms, (lam, i)


def test_verify_hwv_symbolic():
    for n in (2, 3):
        rep = verify_hwv(n, 1, mode="symbolic")
        assert len(rep) == n
        assert all(r["status"] == "pass" for r in rep)
        assert all(r["witness"] == "0" for r in rep)


def test_verify_hwv_sampled_levels():
    rep = verify_hwv(2, 2, mode="sampled", samples=2, seed=5)
    assert all(r["status"] == "pass" for r in rep)
    rep = verify_hwv(3, 1, mode="sampled", samples=2, seed=5)
    assert all(r["status"] == "pass" for r in rep)


def test_verify_hwv_off_hyperplane_fails_at_last_root():
    n = 2
    rs = get_rewrite_system(n)
    lam = (0, 0)  # (lam + rho, eta) = 2, not 1
    hw = HighestWeight.numeric(lam)
    vec = theta_vector(theta_sum(n).evaluate(hw), hw, rs)
    assert act_e(1, vec, rs).is_zero()
    assert not act_e(2, vec, rs).is_zero()


def test_verify_hwv_mode_validation():
    with pytest.raises(ValueError):
        verify_hwv(2, 2, mode="symbolic")
    with pytest.raises(ValueError):
        verify_hwv(2, 1, mode="bogus")


def test_compare_doot():
    for n in (2, 3):
        for p in (1, 2, 3):
            rep = compare_doot(n, p)
            assert rep["status"] == "pass", (n, p)
            for sample in range(2):
                mu = make_doot_weight(n, p, seed=1, sample=sample)
                assert compare_doot(n, p, mu=mu)["status"] == "pass", (n, p, mu)


def test_compare_doot_weight_validation():
    with pytest.raises(WeightError):
        compare_doot(2, 1, mu=(5, 0))
    with pytest.raises(ValueError):
        compare_doot(1, 1)


def test_doot_scalar_side():
    # at the paired weights, the last subdiagonal scalar is forced
    n, p = 3, 2
    mu = make_doot_weight(n, p, seed=0, sample=0)
    lam = dot_reflect(n, mu)
    hw = HighestWeight.numeric(lam)
    assert h_eval(n - 1, hw) == -(Q(-1) * V(-p)) * qint(p + 1)
    for i in range(1, n - 1):
        assert h_eval(i, hw) == h_eval(i, HighestWeight.numeric(mu))


def test_checks_report_the_last_failure_witness():
    checks = Checks("a", "b")
    checks.check("a", False, "first")
    checks.check("a", True, "not shown")
    checks.check("a", False, "second")
    checks.check("b", False)
    assert checks.report() == [
        {"check": "a", "status": "fail", "witness": "second"},
        {"check": "b", "status": "fail", "witness": "0"},
    ]


def test_checks_declared_but_unvisited_check_passes():
    checks = Checks("never reached")
    checks.check("reached", True, "not shown")
    assert checks.report() == [
        {"check": "never reached", "status": "pass", "witness": "0"},
        {"check": "reached", "status": "pass", "witness": "0"},
    ]


def test_checks_entries_come_out_in_declaration_order():
    checks = Checks("x", "y")
    checks.check("z", False, "w")  # first recorded without a declaration
    checks.declare("t", "y")  # declaring again keeps the first position
    checks.check("y", False, "v")
    checks.check("x", True)
    assert [e["check"] for e in checks.report()] == ["x", "y", "z", "t"]


def test_checks_show_a_witness_on_a_pass_only():
    checks = Checks()
    assert checks.check("nonzero", True, "unexpected zero")
    checks.show("nonzero", "(1)*f1")
    assert checks.report()[0] == {"check": "nonzero", "status": "pass", "witness": "(1)*f1"}
    assert not checks.check("nonzero", False, "unexpected zero")
    assert checks.report()[0]["witness"] == "unexpected zero"
