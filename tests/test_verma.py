"""Verma-module engine: generator actions, Cartan evaluation, raising tests."""

import itertools
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshapo.freealg import NCPoly, build_serre_system, get_rewrite_system
from qshapo.roots import alpha, cartan_entry, kostant_partitions, sample_dominant_chain, sigma_vec
from qshapo.scalars import P_ONE, R_ONE, RatQ, WeightScalar, _pack, _rebuild, add_terms, qint
from qshapo.shapovalov import theta_power, theta_sum, theta_vector
from qshapo.uqsl import H_cartan, _pbw_column, expand_pbw, h_cartan, jimbo
from qshapo.verma import (
    HighestWeight,
    H_eval,
    VermaVector,
    act_e,
    act_f,
    act_k,
    act_poly,
    cartan_eval,
    h_eval,
    is_hwv,
    quantum_bracket,
    vector_from_ncpoly,
)
from ratq_oracles import RatQNormalForms, cartan_eval_sum, k_eigen_by_substitution, monomial_key

V = RatQ.v_power
Q = RatQ.q_power
VMV = V(1) - V(-1)


def h_direct(i, hw):
    """Independent oracle for h_i at the weight, written straight from
    -1/q * (v - v**(1-2i) * q**(-4(lam, sigma_i))) / (v - 1/v) without the
    k-lattice form that the library evaluates."""
    gamma = tuple(-4 if k < i else 0 for k in range(hw.n))
    inner = hw.coerce(V(1)) - V(1 - 2 * i) * hw.k_eigen(gamma)
    return inner * (-Q(-1) * VMV.inverse())


def h_consistency_check(i, hw):
    """The k-lattice form of h_i, evaluated, agrees with the direct formula."""
    return cartan_eval(h_cartan(i, hw.n), hw) == h_eval(i, hw) == h_direct(i, hw)


def test_highest_weight_modes():
    hw = HighestWeight.numeric((1, -2))
    assert hw.k_eigen((1, 0)) == Q(1)
    assert hw.k_eigen((2, 1)) == Q(0)  # 2*1 + 1*(-2)
    sym = HighestWeight.symbolic(2)
    assert sym.k_eigen((1, 0)) == WeightScalar.monomial(2, (1, 0))
    with pytest.raises(ValueError):
        HighestWeight.numeric((1,)).k_eigen((1, 0, 0))
    with pytest.raises(ValueError):
        HighestWeight(2, "numeric", (0, 0), hyperplane_m=1)


def _eigen_weights(n):
    """Three drawn numeric weights, the free weight and four hyperplanes."""
    rng = random.Random(n)
    numeric = [HighestWeight.numeric([rng.randint(-6, 6) for _ in range(n)]) for _ in range(3)]
    return numeric + [HighestWeight.symbolic(n)] + [
        HighestWeight.symbolic(n, hyperplane_m=m) for m in (-1, 1, 2, 3)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eigen_matches_the_hyperplane_substitution(n):
    # eigen's exponents against the monomial y**gamma with the hyperplane
    # substituted into it, and the key act_e and act_k pack from them
    for hw in _eigen_weights(n):
        for gamma in itertools.product(range(-2, 3), repeat=n):
            want = k_eigen_by_substitution(hw, gamma)
            got = hw.k_eigen(gamma)
            assert type(got) is type(want) and got == want, (hw.mode, hw.hyperplane_m, gamma)
            assert (_pack(*hw.eigen(gamma)), 1) == monomial_key(want), (hw.mode, gamma)
        for bad in ((0,) * (n - 1), (1,) * (n + 1)):
            with pytest.raises(ValueError, match="wrong rank"):
                hw.eigen(bad)
            with pytest.raises(ValueError, match="wrong rank"):
                hw.k_eigen(bad)


def test_act_f_and_weight_offset():
    rs = get_rewrite_system(2)
    hw = HighestWeight.symbolic(2)
    v = VermaVector.highest(hw)
    w = act_f(1, v, rs)
    assert set(w.terms) == {(1,)}
    assert w.weight_offset() == (1, 0)
    w2 = act_f(2, w, rs)
    assert set(w2.terms) == {(2, 1)}
    # a Serre rewrite fires: f2 f2 f1 -> [2]_v f2 f1 f2 - f1 f2 f2
    w3 = act_f(2, w2, rs)
    assert w3.terms == {
        (2, 1, 2): hw.coerce(qint(2)),
        (1, 2, 2): hw.coerce(-R_ONE),
    }


def test_act_k_scalars():
    rs = get_rewrite_system(2)
    hw = HighestWeight.symbolic(2)
    v = VermaVector.highest(hw)
    a1 = (1, 0)
    assert act_k(a1, v).terms == {(): WeightScalar.monomial(2, (1, 0))}
    assert act_k((2, 0), v).terms == {(): WeightScalar.monomial(2, (2, 0))}
    w = act_f(1, v, rs)
    got = act_k(a1, w).terms[(1,)]
    assert got == WeightScalar.monomial(2, (1, 0), Q(-2))


def test_act_e_base_cases():
    rs = get_rewrite_system(2)
    hw = HighestWeight.symbolic(2)
    v = VermaVector.highest(hw)
    e = act_e(1, act_f(1, v, rs), rs)
    expect = WeightScalar(2, {(2, 0): R_ONE / VMV, (-2, 0): -(R_ONE / VMV)})
    assert e.terms == {(): expect}
    assert act_e(1, act_f(2, v, rs), rs).is_zero()


def test_act_e_two_step_ladder():
    rs = get_rewrite_system(2)
    for lam in [(0, 0), (4, -2), (-1, 3)]:
        hw = HighestWeight.numeric(lam)
        v = VermaVector.highest(hw)
        w = act_f(1, act_f(1, v, rs), rs)
        got = act_e(1, w, rs).terms.get((1,), RatQ.from_int(0))
        assert got == qint(2) * qint(lam[0] - 1)


def _commutator_rhs(i, j, vec):
    """delta_ij (K_i - K_i^-1)/(v - 1/v) applied to vec."""
    if i != j:
        return VermaVector(vec.hw, {})
    g = tuple(2 if k == i - 1 else 0 for k in range(vec.n))
    return (act_k(g, vec) - act_k(tuple(-x for x in g), vec)).scale(VMV.inverse())


def test_defining_relation_operator_identity():
    rng = random.Random(9)
    n = 3
    rs = get_rewrite_system(n)
    hw = HighestWeight.symbolic(n)
    for _ in range(12):
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 5)))
        vec = vector_from_ncpoly(NCPoly(n, {word: R_ONE}), hw, rs)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = act_e(i, act_f(j, vec, rs), rs) - act_f(j, act_e(i, vec, rs), rs)
                assert (lhs - _commutator_rhs(i, j, vec)).is_zero(), (word, i, j)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_defining_relation_at_numeric_weights(data):
    n = data.draw(st.integers(2, 4))
    rs = get_rewrite_system(n)
    pairings = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    hw = HighestWeight.numeric(pairings)
    words = data.draw(
        st.lists(st.lists(st.integers(1, n), max_size=5).map(tuple), min_size=1, max_size=3)
    )
    coeffs = [RatQ.from_int(k) * V(k) for k in range(1, len(words) + 1)]
    vec = vector_from_ncpoly(NCPoly(n, dict(zip(words, coeffs))), hw, rs)
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, n))
    lhs = act_e(i, act_f(j, vec, rs), rs) - act_f(j, act_e(i, vec, rs), rs)
    assert lhs == _commutator_rhs(i, j, vec), (hw.pairings, words, i, j)


@settings(deadline=None, max_examples=30)
@given(
    st.sampled_from(["numeric", "symbolic", "hyperplane"]),
    st.lists(st.lists(st.integers(1, 2), max_size=3).map(tuple), min_size=1, max_size=4),
    st.integers(-2, 2),
)
def test_vector_arithmetic_keeps_the_weight(mode, words, k):
    rs = get_rewrite_system(2)
    hw = {
        "numeric": HighestWeight.numeric((1, -2)),
        "symbolic": HighestWeight.symbolic(2),
        "hyperplane": HighestWeight.symbolic(2, hyperplane_m=1),
    }[mode]
    half = len(words) // 2
    # operands over different common denominators, q**4 - 1 and the
    # numerator of [3]_v, neither of them 1
    a = vector_from_ncpoly(NCPoly(2, {w: V(1) / VMV for w in words[: half + 1]}), hw, rs)
    b = vector_from_ncpoly(NCPoly(2, {w: Q(-1) / qint(3) for w in words[half:]}), hw, rs)
    assert (1,) != a.D != b.D != (1,)
    c = RatQ.from_int(k)
    # a scalar of the weight with a true denominator: y_1 / (v - 1/v)
    s = hw.k_eigen((1, 0)) * VMV.inverse()
    pa, pb = NCPoly(2, a.terms), NCPoly(2, b.terms)
    for got, expect in [
        (a + b, pa + pb),
        (a - b, pa - pb),
        (a - a, pa - pa),
        (-a, -pa),
        (a.scale(c), pa.scale(c)),
        (b.scale(s), pb.scale(s)),
        ((a + b).scale(s) - b.scale(s), pa.scale(s)),
    ]:
        assert type(got) is VermaVector and got.hw is hw
        assert got.terms == expect.terms


def test_vectors_of_different_weights_neither_add_nor_compare_equal():
    at_zero = VermaVector.highest(HighestWeight.numeric((0, 0)))
    for other in (HighestWeight.numeric((1, 1)), HighestWeight.symbolic(2),
                  HighestWeight.symbolic(2, hyperplane_m=1)):
        v = VermaVector.highest(other)
        assert at_zero != v
        with pytest.raises(ValueError):
            at_zero + v
        with pytest.raises(ValueError):
            at_zero - v
    assert VermaVector.highest(HighestWeight.symbolic(2)) != VermaVector.highest(
        HighestWeight.symbolic(2, hyperplane_m=1))
    # weights built separately but equal are one module's
    hw, again = HighestWeight.numeric((0, 0)), HighestWeight(2, "numeric", [0, 0])
    assert hw == again and hash(hw) == hash(again) and hw is not again
    assert at_zero == VermaVector.highest(again)
    assert at_zero + VermaVector.highest(again) == at_zero.scale(RatQ.from_int(2))


def test_weight_bookkeeping_under_k():
    # k_gamma scales a basis term of weight lam - nu by q**(lam - nu, gamma)
    rng = random.Random(31)
    n = 3
    rs = get_rewrite_system(n)
    for lam in [(1, 0, -2), (0, 3, 1)]:
        hw = HighestWeight.numeric(lam)
        for _ in range(8):
            word = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 4)))
            vec = vector_from_ncpoly(NCPoly(n, {word: R_ONE}), hw, rs)
            gamma = tuple(rng.randint(-2, 2) for _ in range(n))
            got = act_k(gamma, vec)
            from qshapo.freealg import word_multidegree
            from qshapo.roots import pairing

            for w, c in vec.terms.items():
                nu = word_multidegree(w, n)
                exp = sum(a * g for a, g in zip(lam, gamma)) - pairing(nu, gamma)
                assert got.terms.get(w, RatQ.from_int(0)) == Q(exp) * c


def test_h_eval_values():
    assert h_eval(1, HighestWeight.numeric((0, 0))) == -Q(-1)
    # at the reflected weight with pairing p against the last root,
    # h_(N-1) evaluates to -1/q v^-p [p+1]_v
    for p in (1, 2, 3):
        lam = (p + 1, -p - 1)  # (lam+rho, a1) = p+2... choose directly instead
        lam = (p, -1 - p)
        hw = HighestWeight.numeric(lam)
        # (lam + rho, sigma_1) = p + 1
        assert h_eval(1, hw) == -(Q(-1) * V(-p)) * qint(p + 1)


def test_h_eval_symbolic_form():
    hw = HighestWeight.symbolic(2)
    got = h_eval(1, hw)
    # -1/q * y1^-2 * (v y1^2 - 1/v y1^-2)/(v - 1/v), expanded by hand
    expect = WeightScalar(
        2,
        {(0, 0): -(Q(-1) * V(1)) / VMV, (-4, 0): (Q(-1) * V(-1)) / VMV},
    )
    assert got == expect


def test_H_eval_products():
    hw = HighestWeight.symbolic(3)
    assert H_eval((), hw) == hw.one()
    assert H_eval((1,), hw) == h_eval(1, hw)
    assert H_eval((1, 2), hw) == h_eval(1, hw) * h_eval(2, hw)


def test_cartan_eval_equals_the_sum_of_its_terms():
    for n in range(1, 6):
        weights = [
            HighestWeight.symbolic(n),
            HighestWeight.symbolic(n, hyperplane_m=1),
            HighestWeight.symbolic(n, hyperplane_m=2),
            HighestWeight.numeric((0,) * n),
            HighestWeight.numeric(tuple(range(n))),
            HighestWeight.numeric(tuple((-1) ** k * (k + 2) for k in range(n))),
        ]
        parts = [
            H_cartan(rset, n)
            for r in range(n + 1)
            for rset in itertools.combinations(range(1, n + 1), r)
        ]
        parts += [h_cartan(i, n) for i in range(1, n + 1)]
        parts += [WeightScalar.zero(n, "k"), H_cartan((1, 1), n)]
        for hw in weights:
            for H in parts:
                got, want = cartan_eval(H, hw), cartan_eval_sum(H, hw)
                assert type(got) is type(want) and got == want, (n, hw.mode, hw.hyperplane_m, H)
                assert str(got) == str(want)
                if isinstance(got, WeightScalar):
                    assert got.prefix == want.prefix == "y"
            with pytest.raises(ValueError, match="wrong rank"):
                cartan_eval(H_cartan((1,), n + 1), hw)


def test_cartan_eval_refuses_a_numerator_too_long_to_build():
    # h_1 at (lam + rho, sigma_1) = L is -(q**-1 + q**-5 + ... + q**(3 - 4L)),
    # summed over q**4 - 1 before the exact division: a numerator spanning
    # 4L + 1 powers of q, which is built dense only up to 2**20 of them
    h1 = h_cartan(1, 2)
    for lam1 in (1 << 20, 262143):
        with pytest.raises(ValueError, match="spans"):
            cartan_eval(h1, HighestWeight.numeric((lam1, 0)))
    L = 262143
    want = RatQ(tuple(-1 if k % 4 == 0 else 0 for k in range(4 * L - 3))) * Q(3 - 4 * L)
    assert cartan_eval(h1, HighestWeight.numeric((L - 1, 0))) == want
    # a Laurent sum, which the oracle adds in linear time, at the bound
    H = WeightScalar(2, {(0, 0): R_ONE, (1, 0): -R_ONE}, "k")
    hw = HighestWeight.numeric(((1 << 20) - 1, 0))
    assert cartan_eval(H, hw) == cartan_eval_sum(H, hw)
    with pytest.raises(ValueError, match="spans"):
        cartan_eval(H, HighestWeight.numeric((1 << 20, 0)))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_numeric_cartan_eval_equals_the_sum_of_its_terms(data):
    # repeated indices and negative pairings; the division of the summed
    # numerator is exact, and an H whose sum it does not divide takes the
    # RatQ division
    n = data.draw(st.integers(1, 5))
    hw = HighestWeight.numeric(data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    rset = data.draw(st.lists(st.integers(1, n), max_size=5))
    H = H_cartan(rset, n)
    odd = WeightScalar(n, {g: c * RatQ(COPRIME) ** -1 for g, c in H.terms.items()}, "k")
    for part in (H, odd, H + odd):
        got, want = cartan_eval(part, hw), cartan_eval_sum(part, hw)
        assert type(got) is RatQ and got == want and str(got) == str(want), (hw.pairings, rset)


def test_numeric_cartan_eval_of_every_cartan_part_runs_no_gcd(monkeypatch):
    import qshapo.scalars as scalars

    calls = []
    cancel = scalars._pcancel
    monkeypatch.setattr(scalars, "_pcancel", lambda a, b: calls.append(1) or cancel(a, b))
    for n in range(1, 6):
        weights = [(0,) * n, tuple(range(-n, 0)), tuple((-1) ** k * (2 * k + 1) for k in range(n))]
        parts = [
            H_cartan(rset, n)
            for r in range(n + 1)
            for rset in itertools.combinations(range(1, n + 1), r)
        ]
        for lam in weights:
            hw = HighestWeight.numeric(lam)
            got = [cartan_eval(H, hw) for H in parts]
            assert not calls, (n, lam)
            assert got == [cartan_eval_sum(H, hw) for H in parts], (n, lam)
            calls.clear()


def test_cartan_eval_consistency():
    for n in (2, 3, 4):
        weights = [
            HighestWeight.symbolic(n),
            HighestWeight.symbolic(n, hyperplane_m=1),
            HighestWeight.symbolic(n, hyperplane_m=3),
            HighestWeight.numeric(tuple(range(n))),
            HighestWeight.numeric(tuple(range(-2, 2 * n - 2, 2))),
        ]
        for hw in weights:
            for i in range(1, n + 1):
                assert h_consistency_check(i, hw), (n, i, hw.mode, hw.hyperplane_m)
            # products of h_i evaluate to products of the oracle values
            for rset in [(), (1,), (1, n), tuple(range(1, n + 1))]:
                expect = hw.one()
                for i in rset:
                    expect = expect * h_direct(i, hw)
                assert H_eval(rset, hw) == expect
            for bad in (0, n + 1):
                with pytest.raises(ValueError):
                    h_eval(bad, hw)
                with pytest.raises(ValueError):
                    H_eval((1, bad), hw)


def test_quantum_bracket_matches_numeric():
    for lam in [(0, 0, 0), (2, -1, 3)]:
        hw = HighestWeight.numeric(lam)
        for i in (1, 2, 3):
            for shift in (-1, 0, 2):
                # (lam + rho, sigma_i) + shift: rho pairs to i with sigma_i
                L = sum(lam[:i]) + i + shift
                assert quantum_bracket(hw, sigma_vec(i, 3), i + shift) == qint(L)
                assert quantum_bracket(hw, alpha(i, 3), shift) == qint(lam[i - 1] + shift)


def test_is_hwv():
    rs = get_rewrite_system(2)
    hw = HighestWeight.symbolic(2)
    v = VermaVector.highest(hw)
    assert is_hwv(v, rs)
    assert not is_hwv(act_f(1, v, rs), rs)
    assert not is_hwv(VermaVector(hw, {}), rs)


def test_act_poly_matches_repeated_act_f():
    rs = get_rewrite_system(3)
    hw = HighestWeight.symbolic(3)
    v = VermaVector.highest(hw)
    p = jimbo(1, 3, 3)
    via_poly = act_poly(p, v, rs)
    via_f = act_f(1, act_f(2, v, rs), rs).scale(Q(1)) + act_f(
        2, act_f(1, v, rs), rs
    ).scale(-Q(-1))
    assert (via_poly - via_f).is_zero()


def test_cancellation_scalar_identities_rank_five():
    # the quantum-integer recurrence behind the interior cancellation, and
    # the hyperplane identity behind the final one, both as symbolic scalars
    n = 5
    hw = HighestWeight.symbolic(n)

    def vpow_sigma(i, e):
        return hw.k_eigen(tuple(2 * e if k < i else 0 for k in range(n))) * V(e * i)

    for i in range(2, n + 1):
        lhs = (
            quantum_bracket(hw, alpha(i, n), 1)
            + vpow_sigma(i, -1) * quantum_bracket(hw, sigma_vec(i - 1, n), i - 1)
            - vpow_sigma(i - 1, -1) * quantum_bracket(hw, sigma_vec(i, n), i)
        )
        assert lhs.is_zero(), i

    tied = HighestWeight.symbolic(n, hyperplane_m=1)
    yN2 = tied.k_eigen(tuple(2 if k == n - 1 else 0 for k in range(n)))
    gamma = tuple(-4 if k < n - 1 else -2 for k in range(n))
    assert (yN2 - tied.k_eigen(gamma) * V(2 - 2 * n)).is_zero()


def test_hyperplane_constraint_mode():
    hw = HighestWeight.symbolic(2, hyperplane_m=1)
    # y1 * y2 = q^(m-N) = q^-1, so k_eigen of eta-like vectors collapses
    s = hw.k_eigen((1, 1))
    assert s == WeightScalar.const(2, Q(-1))
    rs = get_rewrite_system(2)
    vec = vector_from_ncpoly(expand_pbw(((1, 3),), 2), hw, rs)
    assert all(e[1] == 0 for w, c in vec.terms.items() for e in c.terms)


# ----------------------------------------------------------------------------
# act_e and theta_vector against their formulas with the denominators kept
# ----------------------------------------------------------------------------

def act_e_unhoisted(i, vec, rs):
    """The raising action with every coefficient carried as it is: each
    shortened word scaled by (Y v**-s - Y**-1 v**s)/(v - 1/v) directly."""
    hw = vec.hw
    Yp = hw.k_eigen(tuple(2 if k == i - 1 else 0 for k in range(hw.n)))
    Ym = hw.k_eigen(tuple(-2 if k == i - 1 else 0 for k in range(hw.n)))
    short = {}
    for w, c in vec.terms.items():
        for pos, letter in enumerate(w):
            if letter == i:
                s = sum(cartan_entry(i, x) for x in w[pos + 1:])
                scal = (Yp * V(-s) - Ym * V(s)) * VMV.inverse()
                add_terms(short, [(w[:pos] + w[pos + 1:], scal * c)])
    return normal_form_unhoisted(NCPoly(vec.n, short), hw, rs)


def normal_form_unhoisted(p, hw, rs):
    """vector_from_ncpoly in RatQ and WeightScalar arithmetic: the normal
    form of p with each coefficient read as a scalar of the weight."""
    nf = RatQNormalForms(rs).normal_form(p)
    return VermaVector(hw, {w: hw.coerce(c) for w, c in nf.terms.items()})


def theta_vector_unhoisted(coords, hw, rs):
    terms = {}
    for pbw, c in coords.items():
        nf = _rebuild(P_ONE, _pbw_column(pbw, rs), 0)
        add_terms(terms, ((w, hw.coerce(c * x)) for w, x in nf.items()))
    return VermaVector(hw, terms)


Q4M1 = (-1, 0, 0, 0, 1)  # q**4 - 1
COPRIME = (1, 1, 0, 1)  # 1 + q + q**3


@st.composite
def mixed_ratqs(draw):
    """q**k * a/b with b a power of q**4 - 1, that power times a coprime
    factor, or 1."""
    j = draw(st.integers(0, 3))
    den = RatQ(Q4M1) ** j
    if draw(st.booleans()):
        den = den * RatQ(COPRIME)
    num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))
    return RatQ(tuple(num)) * Q(draw(st.integers(-3, 3))) / den


@st.composite
def weight_and_scalars(draw):
    """A weight of rank 2..4 (numeric, symbolic or on the hyperplane) and a
    strategy for scalars of that weight with mixed denominators."""
    n = draw(st.integers(2, 4))
    mode = draw(st.sampled_from(["numeric", "symbolic", "hyperplane"]))
    if mode == "numeric":
        hw = HighestWeight.numeric(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        return n, hw, mixed_ratqs()
    hw = HighestWeight.symbolic(n, hyperplane_m=1 if mode == "hyperplane" else None)

    @st.composite
    def scalar(draw2):
        exps = draw2(st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple),
            min_size=1, max_size=3,
        ))
        out = hw.zero()
        for e in exps:
            out = out + hw.k_eigen(e) * draw2(mixed_ratqs())
        return out

    return n, hw, scalar()


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_act_e_matches_the_unhoisted_formula(data):
    n, hw, scalars = data.draw(weight_and_scalars())
    rs = get_rewrite_system(n)
    words = data.draw(
        st.lists(st.lists(st.integers(1, n), max_size=4).map(tuple), min_size=1, max_size=4)
    )
    p = NCPoly(n, {w: data.draw(scalars) for w in words})
    vec = vector_from_ncpoly(p, hw, rs)
    for i in range(1, n + 1):
        assert act_e(i, vec, rs) == act_e_unhoisted(i, vec, rs), (hw.mode, words, i)


@pytest.mark.parametrize("hw", [HighestWeight.numeric((1, -2, 0)), HighestWeight.symbolic(3)])
def test_act_e_folds_one_word_normal_forms_and_sums_the_others(hw, monkeypatch):
    # e_2 on f2 f1 f2 f1 leaves f1 f2 f1, normal, and f2 f1 f1, a q-Serre
    # lead with a normal form of several words; so one call takes both
    # branches of act_e: the first word goes straight to the output, and
    # only the second is summed and normal-formed
    import qshapo.verma as verma

    rs = build_serre_system(3, 10)
    p = NCPoly(3, {(2, 1, 2, 1): Q(1), (3, 2, 3, 2): V(3), (2, 1): R_ONE + Q(2)})
    vec = vector_from_ncpoly(p, hw, rs)
    assert {(2, 1, 2, 1), (3, 2, 3, 2)} <= set(vec.ints)
    assert len(rs._nf_word((1, 2, 1))) == 1 and len(rs._nf_word((2, 1, 1))) > 1
    summed = []
    nf_sum = verma._nf_sum

    def recording(ints, nf_of):
        summed.extend(ints)
        return nf_sum(ints, nf_of)

    monkeypatch.setattr(verma, "_nf_sum", recording)
    got = act_e(2, vec, rs)
    monkeypatch.undo()
    assert (2, 1, 1) in summed and (1, 2, 1) not in summed
    assert got == act_e_unhoisted(2, vec, rs)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_theta_vector_matches_the_unhoisted_sum(data):
    n, hw, scalars = data.draw(weight_and_scalars())
    rs = get_rewrite_system(n)
    mu = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    monos = kostant_partitions(mu)
    chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    coords = {M: data.draw(scalars) for M in chosen}
    assert theta_vector(coords, hw, rs) == theta_vector_unhoisted(coords, hw, rs), (mu, coords)


def test_raising_a_kernel_form_vector_clears_no_scalar(monkeypatch):
    # verify_hwv raises theta*v with every e_k; its scalars (the h_i) are
    # cleared into integers once, when shapovalov._level_one builds it at
    # the free weight, as theta_vector clears the coordinates once, however
    # often it is raised, and its hyperplane copy takes the same integers
    # and clears none
    import qshapo.scalars as scalars
    import qshapo.shapovalov as shapovalov
    import qshapo.verma as verma

    counts = {"clear": 0, "act_e": 0}
    clear, raising = scalars._clear, shapovalov.act_e

    def counting_clear(*args):
        counts["clear"] += 1
        return clear(*args)

    def counting_act_e(*args):
        counts["act_e"] += 1
        return raising(*args)

    # scalars' own name serves the round trip of normal_form, to_pbw and
    # from_pbw, and verma's alias serves its vectors
    monkeypatch.setattr(scalars, "_clear", counting_clear)
    monkeypatch.setattr(verma, "_clear_scalars", counting_clear)
    monkeypatch.setattr(shapovalov, "act_e", counting_act_e)
    n = 4
    rs = get_rewrite_system(n)
    report = shapovalov.verify_hwv(n, 1, "symbolic", rs=rs)
    assert all(c["status"] == "pass" for c in report) and counts["act_e"] == n
    during_verify, counts["clear"] = counts["clear"], 0
    free = HighestWeight.symbolic(n)
    vec = theta_vector(theta_sum(n).evaluate(free), free, rs)
    assert counts["clear"] == during_verify == 1
    vectors = [vec, VermaVector._kernel(HighestWeight.symbolic(n, hyperplane_m=1), vec.D, vec.ints)]
    assert counts["clear"] == during_verify
    for vec in vectors:
        for k in range(1, n + 1):
            act_e(k, act_e(k, vec, rs), rs)
    assert counts["clear"] == during_verify


@pytest.mark.parametrize("n", range(1, 8))
def test_theta_v_moved_to_the_hyperplane_equals_theta_v_built_there(n):
    # the free theta*v relabelled with a hyperplane weight, its integers
    # kept, against theta*v from the coordinates evaluated there; e_N raises
    # both to one witness, and kills them only at m = 1.  The relabel is
    # exact because no Cartan part holds a k_N exponent (tested below)
    rs = get_rewrite_system(n)
    base, free = theta_sum(n), HighestWeight.symbolic(n)
    vec = theta_vector(base.evaluate(free), free, rs)
    for m in (1, 2, 3, -1):
        tied = HighestWeight.symbolic(n, hyperplane_m=m)
        got = VermaVector._kernel(tied, vec.D, vec.ints)
        want = theta_vector(base.evaluate(tied), tied, rs)
        assert got.hw == tied and got == want, m
        e = act_e(n, got, rs)
        assert e.witness() == act_e(n, want, rs).witness(), m
        assert e.is_zero() == (m == 1), m


@pytest.mark.parametrize("n", range(1, 11))
def test_no_cartan_part_of_theta_sum_holds_k_N(n):
    # 1 and N+1 lie in every index set, so each skipped row i is below N,
    # and h_i shifts only the k-coordinates 1..i: gamma_N stays 0, so
    # theta*v at the free weight holds no y_N
    assert all(gamma[-1] == 0 for _, _, H in theta_sum(n).terms for gamma in H.terms)


def test_raising_the_free_theta_vector_pins_the_divided_back_witness():
    # e_3 does not kill theta*v at the unconstrained weight of N = 3; the
    # nonzero result is the one output of act_e that is multiplied back by
    # its common denominator, so its canonical form is pinned here
    rs = get_rewrite_system(3)
    free = HighestWeight.symbolic(3)
    vec = theta_vector(theta_sum(3).evaluate(free), free, rs)
    e = act_e(3, vec, rs)
    a = (
        "(-1/(q^14-2q^10+q^6))*y1^-8*y2^-4*y3^-2 + (1/(q^14-2q^10+q^6))*y1^-4*y2^-4*y3^-2"
        " + (q^2/(q^8-2q^4+1))*y1^-4*y3^2 + (-q^2/(q^8-2q^4+1))*y3^2"
    )
    b = (
        "(1/(q^16-2q^12+q^8))*y1^-8*y2^-4*y3^-2 + (-1/(q^12-2q^8+q^4))*y1^-4*y2^-4*y3^-2"
        " + (-1/(q^8-2q^4+1))*y1^-4*y3^2 + (q^4/(q^8-2q^4+1))*y3^2"
    )
    assert [(w, str(c)) for w, c in e.sorted_terms()] == [((1, 2), a), ((2, 1), b)]
    assert str(e) == f"({a})*f1*f2v + ({b})*f2*f1v"


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_vector_from_ncpoly_matches_the_unhoisted_normal_form(data):
    n, hw, scalars = data.draw(weight_and_scalars())
    rs = get_rewrite_system(n)
    words = data.draw(
        st.lists(st.lists(st.integers(1, n), max_size=4).map(tuple), min_size=1, max_size=4)
    )
    p = NCPoly(n, {w: data.draw(scalars) for w in words})
    got, expect = vector_from_ncpoly(p, hw, rs), normal_form_unhoisted(p, hw, rs)
    assert got == expect and str(got) == str(expect), (hw.mode, words)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_raising_theta_v_at_full_size_matches_the_unhoisted_formula(n):
    # theta*v has 2**(N-1) words whose coefficients have up to 2**(N-1)
    # y-monomials each, and e_N at the free weight is a nonzero result
    # divided back by its common denominator
    rs = get_rewrite_system(n)
    free = HighestWeight.symbolic(n)
    tied = HighestWeight.symbolic(n, hyperplane_m=1)
    for hw, ks in ((free, range(1, n + 1)), (tied, (n,))):
        coords = theta_sum(n).evaluate(hw)
        vec = theta_vector(coords, hw, rs)
        expect = theta_vector_unhoisted(coords, hw, rs)
        assert vec == expect and str(vec) == str(expect), (n, hw.hyperplane_m)
        for k in ks:
            got, expect = act_e(k, vec, rs), act_e_unhoisted(k, vec, rs)
            assert got == expect and str(got) == str(expect), (n, hw.hyperplane_m, k)
            assert got.is_zero() == (hw is tied or k < n)


@pytest.mark.parametrize("n, m", [(4, 2), (3, 3)])
def test_raising_numeric_theta_v_matches_the_unhoisted_formula(n, m):
    # the level-m element at a numeric weight: the kernel packs no y-digit,
    # and every output coefficient is the lone RatQ of its word
    rs = get_rewrite_system(n)
    w = sample_dominant_chain(n, m, 1)[0]
    hw = HighestWeight.numeric(w)
    coords = theta_power(n, m, w, rs)
    vec = theta_vector(coords, hw, rs)
    expect = theta_vector_unhoisted(coords, hw, rs)
    assert vec == expect and str(vec) == str(expect), w
    assert vec.terms and all(type(c) is RatQ for c in vec.terms.values())
    for k in range(1, n + 1):
        got, expect = act_e(k, vec, rs), act_e_unhoisted(k, vec, rs)
        assert got == expect and str(got) == str(expect), (w, k)
        assert got.is_zero() and all(type(c) is RatQ for c in got.terms.values())


def test_theta_vector_reads_ratq_coordinates_as_weight_scalars():
    rs = get_rewrite_system(3)
    hw = HighestWeight.symbolic(3)
    monos = kostant_partitions((1, 1, 1))
    coords = {M: (V(k) - Q(1)) / VMV ** k for k, M in enumerate(monos)}
    vec = theta_vector(coords, hw, rs)
    assert vec.terms and all(type(c) is WeightScalar for c in vec.terms.values())
    assert vec == theta_vector_unhoisted(coords, hw, rs)


def test_zero_symbolic_vector_stays_zero_with_its_weight():
    rs = get_rewrite_system(3)
    for hw in (
        HighestWeight.symbolic(3),
        HighestWeight.symbolic(3, hyperplane_m=1),
        HighestWeight.numeric((1, 0, -2)),
    ):
        zero = VermaVector(hw, {})
        for got in [act_e(i, zero, rs) for i in (1, 2, 3)] + [
            vector_from_ncpoly(NCPoly.zero(3), hw, rs),
            theta_vector({}, hw, rs),
        ]:
            assert type(got) is VermaVector and got.is_zero() and got.hw is hw


@pytest.mark.parametrize("mode", ["numeric", "symbolic"])
def test_act_e_rejects_a_letter_out_of_range(mode):
    n = 3
    rs = get_rewrite_system(n)
    hw = HighestWeight.numeric((1, 0, -2)) if mode == "numeric" else HighestWeight.symbolic(n)
    vec = theta_vector(theta_sum(n).evaluate(hw), hw, rs)
    for i in (0, -1, n + 1):
        with pytest.raises(ValueError, match="letter out of range"):
            act_e(i, vec, rs)
        with pytest.raises(ValueError, match="letter out of range"):
            act_f(i, vec, rs)


@pytest.mark.parametrize("c", [
    WeightScalar.monomial(2, (1 << 40, 0)),
    WeightScalar.monomial(2, (0, -(1 << 28))),
    WeightScalar.monomial(2, (0, 0), Q(1 << 30)),
], ids=["y1-exponent", "y2-exponent", "q-exponent"])
def test_symbolic_maps_refuse_exponents_too_large_for_the_kernel(c):
    rs = get_rewrite_system(2)
    hw = HighestWeight.symbolic(2)
    with pytest.raises(ValueError, match="out of range"):
        vector_from_ncpoly(NCPoly(2, {(2, 1): c}), hw, rs)
    with pytest.raises(ValueError, match="out of range"):
        act_e(1, VermaVector(hw, {(1,): c}), rs)


def test_numeric_act_e_refuses_a_pairing_too_large_for_the_kernel():
    # Y = q**(2 * 2**27) does not fit a digit of a kernel key
    rs = get_rewrite_system(2)
    hw = HighestWeight.numeric((1 << 27, 0))
    vec = VermaVector(hw, {(1,): R_ONE})
    with pytest.raises(ValueError, match="out of range"):
        act_e(1, vec, rs)
    assert act_e(2, vec, rs).is_zero()


def test_chained_maps_refuse_a_key_digit_past_the_kernel_limit():
    # each act_e at this weight shifts q-exponents by about 2**27, and a
    # vector keeps its keys between maps, so the second round would carry
    # a digit past the limit into every later map
    rs = get_rewrite_system(2)
    hw = HighestWeight.numeric((1 << 26, 0))
    vec = act_e(1, act_f(1, VermaVector.highest(hw), rs), rs)
    assert not vec.is_zero()
    with pytest.raises(ValueError, match="out of range"):
        act_e(1, act_f(1, vec, rs), rs)


def test_reading_a_vector_refuses_a_numerator_too_long_to_densify():
    # one term near q**(2**27) and one near q**(-2**27): a dense numerator
    # would take gigabytes, so the child runs under a 1 GB address-space
    # limit, where a regression fails fast instead of filling the machine
    import qshapo

    child = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from qshapo.freealg import get_rewrite_system
        from qshapo.verma import HighestWeight, VermaVector, act_e, act_f
        rs = get_rewrite_system(2)
        hw = HighestWeight.numeric((1 << 26, 0))
        vec = act_e(1, act_f(1, VermaVector.highest(hw), rs), rs)
        try:
            vec.terms
        except ValueError as exc:
            print("refused:", exc)
    """)
    src = str(Path(qshapo.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("refused: a numerator spans"), out.stdout


def test_numeric_maps_refuse_a_y_monomial():
    # a WeightScalar with a y-exponent has no value at a numeric weight
    rs = get_rewrite_system(2)
    hw = HighestWeight.numeric((1, 0))
    c = WeightScalar.monomial(2, (1, 0))
    with pytest.raises(ValueError, match="y-monomial at a numeric weight"):
        vector_from_ncpoly(NCPoly(2, {(2, 1): c}), hw, rs)
    with pytest.raises(ValueError, match="y-monomial at a numeric weight"):
        act_e(1, VermaVector(hw, {(2, 1): c}), rs)
