"""The three constructions, their agreements, and the verification drivers."""

import itertools
import random

import pytest

from qshapo.freealg import (
    InconsistentResult,
    NCPoly,
    RewriteSystem,
    complete,
    get_rewrite_system,
    serre_relations,
)
from qshapo.roots import (
    alpha,
    dot_reflect,
    eta_vec,
    hyperplane_sample,
    pairing,
    sample_dominant_chain,
)
from qshapo.scalars import R_ONE, RatQ, WeightScalar, add_terms, qint
from qshapo.shapovalov import (
    Checks,
    InductionPreconditionError,
    ShapoElement,
    WeightError,
    _level_one,
    _power,
    compare_doot,
    make_doot_weight,
    pi0_monomial,
    reflection_chain,
    theta_det,
    theta_inductive,
    theta_power,
    theta_sum,
    theta_vector,
    verify_hwv,
)
from qshapo.uqsl import H_cartan, LocElement, from_pbw, psi, to_pbw
from qshapo.verma import (
    HighestWeight,
    VermaVector,
    act_e,
    cartan_eval,
    h_eval,
    is_hwv,
    vector_from_ncpoly,
)
from ratq_oracles import ratq_terms
from ratq_oracles import solve_linear as solve_linear_ratq

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
        lead = [H for pbw, _, H in t.terms if pbw == pi0_monomial(n, 1)]
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
        assert got[pi0_monomial(n, 1)] == hw.one()


def leibniz_det(n, hw, sub=-1):
    """The ordered determinant by the Leibniz sum over all permutations:
    entry (r, c) is f_{r,c+1} for r <= c and sub * h_c(lam) for r = c + 1,
    each product keeps its root vectors in column order, and a permutation
    through a zero entry is skipped."""
    c = {i: h_eval(i, hw) for i in range(1, n)}
    out = {}
    for rows in itertools.permutations(range(1, n + 1)):
        chain, x = [], hw.one()
        for col, r in enumerate(rows, 1):
            if r <= col:
                chain.append((r, col + 1))
            elif r == col + 1:
                x = x * (sub * c[col])
            else:
                break
        else:
            inv = sum(a > b for a, b in itertools.combinations(rows, 2))
            add_terms(out, [(tuple(chain), -x if inv % 2 else x)])
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_theta_det_matches_the_leibniz_sum(n):
    weights = [
        HighestWeight.symbolic(n),
        HighestWeight.symbolic(n, hyperplane_m=1),
        HighestWeight.numeric(hyperplane_sample(n, 1, 1, seed=7)[0]),
    ]
    for hw in weights:
        assert theta_det(n, hw) == leibniz_det(n, hw)
    # negative control: +c_i on the subdiagonal changes the determinant
    if n >= 2:
        assert theta_det(n, weights[0]) != leibniz_det(n, weights[0], sub=1)


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


def _inductive_by_psi(n, m, lam, rs):
    """The rank induction by the conjugation operators: each step expands
    F**m Psi_r(theta) into a LocElement, lifts it to W * F**-d, and divides
    W on the right by a solve against the normal forms of b * F**d, b over
    the normal words of the quotient multidegree, in the RatQ elimination
    of ratq_oracles, not the library's solve.  Returns theta's normal
    form."""
    _, r_values = reflection_chain(n, lam)
    theta = NCPoly.word((1,) * m, n)
    for i, r in enumerate(r_values, 2):
        loc = psi(r, theta, i, rs)
        loc = LocElement(n, i, {j: p.lmul_word((i,) * m) for j, p in loc.terms.items()})
        theta, d = loc.cleared(rs)
        if d:
            mu = list(theta.multidegree())
            mu[i - 1] -= d
            basis = rs.normal_words(tuple(mu))
            cols = [ratq_terms(rs._nf_word(b + (i,) * d)) for b in basis]
            status, xs = solve_linear_ratq(cols, theta.terms)
            assert status == "ok"
            theta = NCPoly(n, dict(zip(basis, xs)))
    return theta


@pytest.mark.parametrize("n, m", [(n, m) for n in (2, 3, 4) for m in (1, 2, 3)])
def test_theta_inductive_equals_the_conjugation_operator_induction(n, m):
    rs = get_rewrite_system(n)
    lams = sample_dominant_chain(n, m, 2, seed=0, spread=1)
    if (n, m) == (3, 1):
        lams.append((0, 1, -4))  # off the hyperplane
    for lam in lams:
        res = theta_inductive(n, m, lam, rs)
        theta = _inductive_by_psi(n, m, lam, rs)
        assert res.poly == theta
        assert res.coords == to_pbw(theta, rs)


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
    "n, m, cap, count",
    # (2, 9) has degree 18: the system completes itself that far
    [(3, 3, None, 2), (4, 2, None, 2), (4, 3, 12, 1), (2, 9, None, 1)],
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
            inv = tp[pi0_monomial(n, m)].inverse()
            assert {M: c * inv for M, c in tp.items()} == ind.normalized()


def test_theta_power_past_the_initial_degree_matches_the_induction():
    # the level-6 element at N = 2 has degree 12, and the induction reaches
    # degree 14; the system completes itself that far from degree 6
    rs = complete(serre_relations(2), 6, n=2)
    lam = (7, -3)
    tp = theta_power(2, 6, lam, rs)
    ind = theta_inductive(2, 6, lam, rs)
    assert rs.cap == 14
    inv = tp[pi0_monomial(2, 6)].inverse()
    assert {M: c * inv for M, c in tp.items()} == ind.normalized()


def _theta_F_power_is_hwv(res, k, rs):
    """Whether theta * F**k, F the last simple generator, applied to the
    highest weight vector of the reflected weight is a highest weight
    vector."""
    n = res.n
    hw_mu = HighestWeight.numeric(res.chain[n - 1])
    return is_hwv(vector_from_ncpoly(res.poly.rmul_word((n,) * k), hw_mu, rs), rs)


def test_theta_times_F_power_is_hwv_in_bigger_module():
    # submodule picture at exact conjugation exponents: with the chain end
    # pinned to p, theta * F^p on the reflected weight stays highest weight,
    # and theta * F^(p-1) and theta * F^(p+1) do not
    n = 2
    rs = get_rewrite_system(n)
    for m in (1, 2):
        for p in (1, 2, 3):
            base = (m - 1, p - 1)
            lam = dot_reflect(2, base)
            res = theta_inductive(n, m, lam, rs)
            assert res.r_values == [p]
            assert res.chain[1] == base
            assert res.poly == rs.normal_form(from_pbw(res.coords, n))
            assert _theta_F_power_is_hwv(res, p, rs), (m, p)
            assert not _theta_F_power_is_hwv(res, p - 1, rs), (m, p)
            assert not _theta_F_power_is_hwv(res, p + 1, rs), (m, p)
    for n, m in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        rs = get_rewrite_system(n)
        for lam in sample_dominant_chain(n, m, 2, seed=0, spread=1):
            res = theta_inductive(n, m, lam, rs)
            p = res.r_values[-1]
            got = [_theta_F_power_is_hwv(res, k, rs) for k in (p - 1, p, p + 1)]
            assert got == [False, True, False], (n, m, lam)


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


# ----------------------------------------------------------------------------
# theta*v built segment by segment
# ----------------------------------------------------------------------------

def builder_weights(n):
    """The free weight, three hyperplanes, seeded numeric weights, one with
    a zero h_i for each i < n, hyperplane samples, the zero weight and a far
    one, whose h_i span hundreds of powers of q."""
    yield HighestWeight.symbolic(n)
    for m in (1, 2, -1):
        yield HighestWeight.symbolic(n, hyperplane_m=m)
    rng = random.Random(n)
    for _ in range(3):
        yield HighestWeight.numeric([rng.randint(-4, 4) for _ in range(n)])
    for i in range(1, n):
        lam = [rng.randint(-3, 3) for _ in range(n)]
        lam[i - 1] -= sum(lam[:i]) + i  # (lam + rho, sigma_i) = 0
        hw = HighestWeight.numeric(lam)
        assert not h_eval(i, hw)
        yield hw
    for w in hyperplane_sample(n, 1, 2, 0):
        yield HighestWeight.numeric(w)
    yield HighestWeight.numeric((0,) * n)
    yield HighestWeight.numeric((300,) + (-301,) * (n - 1))


@pytest.mark.parametrize("n", range(1, 8))
def test_level_one_builder_equals_theta_vector_of_the_closed_sum(n):
    rs = get_rewrite_system(n)
    for hw in builder_weights(n):
        want = theta_vector(theta_sum(n).evaluate(hw), hw, rs)
        assert _level_one(hw, rs) == (want.D, want.ints), hw._key()


def test_level_one_builder_equals_theta_vector_at_the_free_weight_of_rank_8():
    rs, free = get_rewrite_system(8), HighestWeight.symbolic(8)
    want = theta_vector(theta_sum(8).evaluate(free), free, rs)
    assert _level_one(free, rs) == (want.D, want.ints)


def normal_words_on(rs, letters, length):
    """Every word of at most `length` letters from `letters` that no rule
    of rs reduces, read off the automaton."""
    out, frontier = [()], [((), 0)]
    for _ in range(length):
        frontier = [
            (w + (a,), t) for w, s in frontier for a in letters if (t := rs._delta[s][a]) >= 0
        ]
        out += [w for w, _ in frontier]
    return out


@pytest.mark.parametrize("n", range(2, 6))
def test_normal_words_on_ordered_letters_concatenate_to_normal_words(n):
    # the lemma _level_one rests on: a normal word on the letters below r
    # followed by a normal word on the letters from r up is normal
    rs = get_rewrite_system(n)
    assert rs.cap >= 2 * n
    swapped_fails = []
    for r in range(2, n + 1):
        low, high = range(1, r), range(r, n + 1)
        lows, highs = normal_words_on(rs, low, 2 * n), normal_words_on(rs, high, 2 * n)
        for u in lows:
            for v in highs:
                if len(u) + len(v) <= 2 * n:
                    assert rs._first_reduction(u + v) is None, (u, v)
                    if rs._first_reduction(v + u) is not None:
                        swapped_fails.append(v + u)
    # negative control: a larger letter first does not concatenate
    assert swapped_fails
    if n >= 3:
        assert (3, 1) in swapped_fails


def test_level_one_builder_refuses_a_system_where_the_lemma_fails():
    # f_1 f_2 = 0 makes the product of nf(f_{1,2}) and nf(f_{2,3}) reducible
    text = get_rewrite_system(2).to_text()
    count = int(text.split("rules=")[1].split()[0])
    text = text.replace(f"rules={count}", f"rules={count + 1}") + "LEAD 1,2\n"
    bad = RewriteSystem.from_text(text)
    for hw in (HighestWeight.symbolic(2), HighestWeight.numeric((0, 0))):
        with pytest.raises(InconsistentResult):
            _level_one(hw, bad)


def test_level_one_checks_build_no_pbw_column(monkeypatch):
    import qshapo.shapovalov as shapovalov
    import qshapo.uqsl as uqsl
    from qshapo.suites import suite_negative

    def refuse(*args):
        raise AssertionError("a PBW column was read")

    monkeypatch.setattr(uqsl, "_pbw_basis_columns", refuse)
    monkeypatch.setattr(shapovalov, "_pbw_column", refuse)
    for n in range(1, 7):
        report = verify_hwv(n, 1, "symbolic")
        assert len(report) == n and all(r["status"] == "pass" for r in report), n
    for n in range(2, 6):  # at N = 1 the zero weight is on the hyperplane
        report = suite_negative(n)
        assert all(r["status"] == "pass" for r in report), n
    # the sampled level-m check raises the product in normal form
    for n, m, lam in [(3, 2, None), (2, 4, None), (3, 6, (0, 0, 3)), (4, 4, (0,) * 4)]:
        report = verify_hwv(n, m, "sampled", lam=lam)
        assert report and all(r["status"] == "pass" for r in report), (n, m)


def test_powers_suite_reads_no_pbw_coordinates_of_the_product(monkeypatch):
    import qshapo.shapovalov as shapovalov
    from qshapo.suites import suite_powers

    def refuse(*args):
        raise AssertionError("the product went through PBW coordinates")

    # theta_inductive's own to_pbw still reads columns, through uqsl
    monkeypatch.setattr(shapovalov, "_kernel_to_pbw", refuse)
    monkeypatch.setattr(shapovalov, "theta_vector", refuse)
    for n, m in [(3, 2), (2, 3)]:
        report = suite_powers(n, m)
        assert report and all(r["status"] == "pass" for r in report), (n, m)


@pytest.mark.parametrize(
    "n, m", [(1, 3), (2, 2), (2, 4), (3, 2), (3, 3), (4, 2)] + [(n, 1) for n in range(1, 6)]
)
def test_power_equals_the_pbw_round_trip(n, m):
    # the checks raise _power's normal form; the reference is the path they
    # took before, through PBW coordinates and back through the columns
    rs = get_rewrite_system(n)
    for lam in hyperplane_sample(n, m, 2, seed=11):
        hw = HighestWeight.numeric(lam)
        got = VermaVector._kernel(hw, *_power(n, m, lam, rs))
        assert got == theta_vector(theta_power(n, m, lam, rs), hw, rs), lam


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
    # (-1, 0, 0, 5) satisfies both pairings on its first three entries
    for mu in [(-1, 0, 0, 5), (0, 0)]:
        with pytest.raises(WeightError, match="wrong rank"):
            compare_doot(3, 1, mu=mu)


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
