"""Root vectors, PBW conversion, and the twisted adjoint calculus."""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshapo import uqsl
from qshapo.freealg import NCPoly, complete, deglex_key, get_rewrite_system, serre_relations
from qshapo.roots import (
    enumerate_II,
    enumerate_JJ,
    kostant_partitions,
    positive_roots,
)
from qshapo.scalars import P_ONE, R_ONE, R_ZERO, RatQ, WeightScalar, _clear, _rebuild, qbinom
from qshapo.uqsl import (
    LocElement,
    NonUnitPivot,
    NotRightDivisible,
    SingularSystem,
    _pbw_basis_columns,
    _pbw_column,
    ad_F,
    ad_F_nilpotency,
    ad_F_pow,
    divide_right_F,
    expand_pbw,
    f_monomial_of_index_set,
    fell_u_expand,
    H_cartan,
    from_pbw,
    h_cartan,
    jimbo,
    leibniz_check,
    psi,
    psi_loc,
    sigma_aut,
    solve_linear,
    to_pbw,
    ws_t_rescale,
)
from ratq_oracles import H_cartan_product, RatQNormalForms, laurent_terms, ratq_terms
from ratq_oracles import solve_linear as solve_linear_ratq

Q = RatQ.q_power


def rand_word_poly(rng, n, length):
    w = tuple(rng.randint(1, n) for _ in range(length))
    return NCPoly(n, {w: R_ONE})


# ----------------------------------------------------------------------------
# Jimbo vectors and PBW basis
# ----------------------------------------------------------------------------

def test_jimbo_base_and_recursion():
    assert jimbo(1, 2, 2) == NCPoly.letter(1, 2)
    assert jimbo(1, 3, 2) == NCPoly(2, {(1, 2): Q(1), (2, 1): -Q(-1)})
    expect = NCPoly(
        3,
        {(1, 2, 3): Q(2), (2, 1, 3): -R_ONE, (3, 1, 2): -R_ONE, (3, 2, 1): Q(-2)},
    )
    assert jimbo(1, 4, 3) == expect
    for n in (3, 4):
        for i, j in positive_roots(n):
            assert len(jimbo(i, j, n).terms) == 2 ** (j - i - 1)


def test_jimbo_bad_indices():
    with pytest.raises(ValueError):
        jimbo(2, 2, 3)
    with pytest.raises(ValueError):
        jimbo(1, 5, 3)


def test_expand_pbw_examples():
    assert expand_pbw(((1, 2), (2, 3)), 2) == NCPoly(2, {(1, 2): R_ONE})
    assert expand_pbw(((1, 3),), 2) == jimbo(1, 3, 2)
    # chain of an index set: consecutive-pair product
    mono = f_monomial_of_index_set((1, 3, 4))
    assert mono == ((1, 3), (3, 4))
    assert expand_pbw(mono, 3) == jimbo(1, 3, 3) * NCPoly.letter(3, 3)


def test_to_pbw_round_trip():
    for n in (2, 3):
        rs = get_rewrite_system(n)
        degrees = [
            mu
            for mu in itertools.product(range(0, 4), repeat=n)
            if 0 < sum(mu) <= 6 and max(mu) <= 3
        ]
        for mu in degrees:
            for M in kostant_partitions(mu):
                coords = to_pbw(expand_pbw(M, n), rs)
                assert coords == {M: R_ONE}, (n, mu, M)


def test_to_pbw_examples():
    rs = get_rewrite_system(2)
    p = NCPoly(2, {(2, 1): R_ONE})
    coords = to_pbw(p, rs)
    assert coords == {((1, 3),): -Q(1), ((1, 2), (2, 3)): Q(2)}
    assert to_pbw(NCPoly.zero(2), rs) == {}
    # from_pbw inverts
    assert rs.normal_form(from_pbw(coords, 2)) == rs.normal_form(p)


def _leading_coefficient_is_unit(t):
    """The Laurent tuple t is +-q**k for some k."""
    return len(t) == 1 and t[0][1] in (1, -1)


def test_pbw_leads_are_the_normal_words():
    # Lyndon-word triangularity: the deglex-leading words of the PBW columns
    # are exactly the normal words, each with a unit coefficient +-q**k
    for n in (2, 3, 4, 5):
        rs = get_rewrite_system(n)
        degrees = [mu for mu in itertools.product(range(7), repeat=n) if 0 < sum(mu) <= 6]
        degrees += {3: [(3,) * 3], 4: [(2,) * 4], 5: [(2,) * 5]}.get(n, [])
        for mu in degrees:
            cols = _pbw_basis_columns(mu, rs).values()
            leads = [max(col, key=deglex_key) for col in cols]
            assert sorted(leads) == rs.normal_words(mu), (n, mu)
            for w, col in zip(leads, cols):
                assert _leading_coefficient_is_unit(col[w]), (n, mu, w)


def test_pbw_normal_form_reads_the_cache():
    rs = get_rewrite_system(3)
    basis = _pbw_basis_columns((2, 1, 1), rs)
    assert list(basis) == list(kostant_partitions((2, 1, 1)))
    for M, col in basis.items():
        assert _pbw_column(M, rs) is col
        assert _rebuild(P_ONE, col, 0) == ratq_terms(col)
        assert ratq_terms(col) == rs.normal_form(expand_pbw(M, 3)).terms
    assert _rebuild(P_ONE, _pbw_column((), rs), 0) == {(): R_ONE}
    with pytest.raises(ValueError):
        _pbw_column(((2, 3), (1, 2)), rs)  # not in sorted order


@st.composite
def _homogeneous_polys(draw):
    """A random polynomial whose words all rearrange one multiset of
    letters, at N = 2..4."""
    n = draw(st.integers(2, 4))
    letters = draw(st.lists(st.integers(1, n), min_size=1, max_size=5))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        terms[tuple(draw(st.permutations(letters)))] = draw(_nonzero_entries)
    return NCPoly(n, terms)


@settings(max_examples=100, deadline=None)
@given(_homogeneous_polys())
def test_to_pbw_matches_dense_solve(p):
    rs = get_rewrite_system(p.n)
    nf = rs.normal_form(p)
    got = to_pbw(p, rs)
    if nf.is_zero():
        assert got == {}
        return
    basis = _pbw_basis_columns(nf.multidegree(), rs)
    status, xs = _dense_solve([ratq_terms(col) for col in basis.values()], nf.terms)
    assert status == "ok"
    assert got == {M: x for M, x in zip(basis, xs) if x}
    assert list(got) == [M for M in basis if M in got]


# ----------------------------------------------------------------------------
# sigma and ad_F
# ----------------------------------------------------------------------------

def test_sigma_scaling():
    n = 3
    f3 = NCPoly.letter(3, n)
    assert sigma_aut(f3, 3) == f3.scale(RatQ.v_power(-1) ** 2)
    f2 = NCPoly.letter(2, n)
    assert sigma_aut(f2, 3) == f2.scale(RatQ.v_power(1))
    # distant letter untouched
    assert sigma_aut(NCPoly.letter(1, 4), 4) == NCPoly.letter(1, 4)


def test_sigma_commutes_with_ad_powers():
    rng = random.Random(41)
    n = 3
    for _ in range(10):
        z = rand_word_poly(rng, n, rng.randint(1, 3))
        for k in range(0, 4):
            lhs = sigma_aut(ad_F_pow(z, n, k), n)
            rhs = ad_F_pow(sigma_aut(z, n), n, k).scale(RatQ.v_power(-2 * k))
            assert lhs == rhs


def test_ad_F_on_its_own_generator():
    n = 2
    F = NCPoly.letter(2, n)
    got = ad_F(F, 2)
    assert got == NCPoly(2, {(2, 2): R_ONE - RatQ.v_power(-2)})


def test_ad_F_maps_root_vectors_up():
    # ad_F(f_{i,N}) = -q f_{i,N+1} identically in the free algebra
    for n in (2, 3, 4):
        for i in range(1, n):
            lhs = ad_F(jimbo(i, n, n), n)
            assert lhs == jimbo(i, n + 1, n).scale(-Q(1))


def test_ad_F_chain_maps_exhaustive():
    # ad_F(f_J) = -q f_{J_2} and f_J F = f_{J_1} in normal form, J over JJ
    for n in range(2, 6):
        rs = get_rewrite_system(n)
        for J in enumerate_JJ(n):
            fJ = expand_pbw(f_monomial_of_index_set(J), n)
            J1 = J + (n + 1,)
            J2 = tuple(x for x in J if x != n) + (n + 1,)
            lhs = rs.normal_form(ad_F(fJ, n))
            rhs = rs.normal_form(
                expand_pbw(f_monomial_of_index_set(J2), n).scale(-Q(1))
            )
            assert lhs == rhs, (n, J, "adjoint")
            lhs = rs.normal_form(fJ.rmul_word((n,)))
            rhs = rs.normal_form(expand_pbw(f_monomial_of_index_set(J1), n))
            assert lhs == rhs, (n, J, "append")


def test_ad_F_squared_kills_chains():
    # a chain carries one factor reaching the next-to-last letter, so the
    # second adjoint iterate already vanishes in the quotient
    for n in (3, 4):
        rs = get_rewrite_system(n)
        for J in enumerate_JJ(n):
            fJ = expand_pbw(f_monomial_of_index_set(J), n)
            assert rs.normal_form(ad_F_pow(fJ, n, 2)).is_zero(), (n, J)


def test_serre_nilpotency():
    for n in (2, 3, 4):
        rs = get_rewrite_system(n)
        for beta in range(1, n + 1):
            for gamma in range(1, n + 1):
                if gamma == beta:
                    continue
                power = 2 if abs(gamma - beta) == 1 else 1
                it = ad_F_pow(NCPoly.letter(gamma, n), beta, power)
                assert rs.normal_form(it).is_zero(), (n, beta, gamma)
    # and the explicit alternating-sum form agrees before reduction
    n = 2
    beta, gamma = 2, 1
    explicit = NCPoly.zero(n)
    for i in range(3):
        word = (beta,) * (2 - i) + (gamma,) + (beta,) * i
        coeff = qbinom(2, i) * RatQ.from_int((-1) ** i)
        explicit = explicit + NCPoly(n, {word: coeff})
    assert ad_F_pow(NCPoly.letter(gamma, n), beta, 2) == explicit


def test_ad_F_nilpotency_index():
    n = 3
    rs = get_rewrite_system(n)
    k, its = ad_F_nilpotency(NCPoly.letter(2, n), n, rs)
    assert k == 2 and len(its) == 2
    k, _ = ad_F_nilpotency(NCPoly.letter(1, n), n, rs)
    assert k == 1
    from qshapo.uqsl import NilpotencyCapExceeded

    with pytest.raises(NilpotencyCapExceeded):
        ad_F_nilpotency(NCPoly.letter(n, n), n, rs)


def test_leibniz_identity():
    rng = random.Random(17)
    n = 3
    a = NCPoly.letter(2, n)
    assert leibniz_check(a, a, n, 0)
    assert leibniz_check(a, a, n, 2)
    for _ in range(8):
        x = rand_word_poly(rng, n, rng.randint(1, 2))
        y = rand_word_poly(rng, n, rng.randint(1, 2))
        for deg in range(0, 5):
            assert leibniz_check(x, y, n, deg)


def test_fell_u_expand():
    n = 3
    u = jimbo(1, 3, n)
    assert fell_u_expand(0, u, n) == u
    assert fell_u_expand(1, u, n) == ad_F(u, n) + sigma_aut(u, n).rmul_word((n,))
    for ell in range(0, 6):
        lhs = NCPoly.word((n,) * ell, n) * u
        assert fell_u_expand(ell, u, n) == lhs


def test_fell_u_expand_normal_form_sweep():
    rng = random.Random(23)
    for n in (2, 3, 4):
        rs = get_rewrite_system(n)
        us = [jimbo(i, j, n) for i, j in positive_roots(n)]
        us += [rand_word_poly(rng, n, 3) for _ in range(3)]
        for u in us:
            for ell in range(0, 6):
                lhs = rs.normal_form(NCPoly.word((n,) * ell, n) * u)
                assert rs.normal_form(fell_u_expand(ell, u, n)) == lhs


def test_truncated_expansion_variant():
    # with k the nilpotency index, F^l u = sum_{i<=k} v^{-i(l-i)} v^{(l-i)pe}
    # [l choose i]_v ad^i(u) F^{l-i} in the quotient, for every l
    from qshapo.roots import alpha, pairing

    n = 3
    rs = get_rewrite_system(n)
    for u in [jimbo(1, 3, n), jimbo(2, 3, n), jimbo(1, 2, n) * jimbo(2, 3, n)]:
        pe = -pairing(alpha(n, n), u.multidegree())
        k, iterates = ad_F_nilpotency(u, n, rs)
        for ell in range(0, 5):
            rhs = NCPoly.zero(n)
            for i, ui in enumerate(iterates):
                coeff = RatQ.v_power(-i * (ell - i) + (ell - i) * pe) * qbinom(ell, i)
                rhs = rhs + ui.rmul_word((n,) * (ell - i)).scale(coeff)
            lhs = rs.normal_form(NCPoly.word((n,) * ell, n) * u)
            assert rs.normal_form(rhs) == lhs, (u, ell)


# ----------------------------------------------------------------------------
# Psi operators and right division
# ----------------------------------------------------------------------------

def test_psi_fixes_F():
    n = 2
    rs = get_rewrite_system(n)
    F_loc = LocElement(n, 2, {1: NCPoly.one(n)})
    for r in (0, 1, 3):
        out = psi_loc(r, F_loc, 2, rs)
        assert out.terms == {1: NCPoly.one(n)}


def test_psi_integer_is_conjugation():
    n = 3
    rs = get_rewrite_system(n)
    for u in [jimbo(1, 3, n), jimbo(2, 3, n), jimbo(1, 2, n) * jimbo(2, 3, n)]:
        for r in (1, 2, 3, 4):
            e = psi(r, u, n, rs).rmul_F_power(r)
            W, d = e.cleared(rs)
            assert d == 0
            assert W == rs.normal_form(NCPoly.word((n,) * r, n) * u)


def test_psi_formal_specializes():
    n = 3
    rs = get_rewrite_system(n)
    u = jimbo(1, 3, n)
    ef = psi(None, u, n, rs, formal=True)
    for r in (0, 1, 2, 5):
        ei = psi(r, u, n, rs)
        specialized = LocElement(
            n, n, {j: p.map_scalars(lambda c: c.eval((2 * r,))) for j, p in ef.terms.items()}
        )
        assert specialized.equals(ei, rs)


def test_psi_formal_shift_identity():
    n = 3
    rs = get_rewrite_system(n)
    minus_one = WeightScalar.const(1, RatQ.from_int(-1), "t")
    for u in [jimbo(1, 3, n), jimbo(2, 3, n), jimbo(1, 2, n) * jimbo(2, 3, n)]:
        inner = LocElement(n, n, {0: sigma_aut(u, n), -1: ad_F(u, n)})
        lhs = psi_loc(None, inner, n, rs, formal=True)
        rhs = psi(None, u, n, rs, formal=True)
        rhs = LocElement(
            n, n, {j: p.map_scalars(ws_t_rescale) for j, p in rhs.terms.items()}
        )
        diff = lhs + rhs.scale(minus_one)
        W, _ = diff.cleared(rs)
        assert W.is_zero()


def test_divide_right_F():
    n = 2
    rs = get_rewrite_system(n)
    W = rs.normal_form(NCPoly(2, {(1, 2): R_ONE}))
    assert divide_right_F(W, 1, 2, rs) == NCPoly.letter(1, 2)
    with pytest.raises(NotRightDivisible):
        divide_right_F(NCPoly.letter(1, 2), 1, 2, rs)
    with pytest.raises(NotRightDivisible):
        divide_right_F(NCPoly(2, {(2, 1): R_ONE}), 1, 2, rs)
    # f2 f1 = f2 * f1, but the strip only divides by the largest letter
    for W in (NCPoly(2, {(2, 1): R_ONE}), NCPoly.letter(2, 2)):
        with pytest.raises(ValueError, match="exceeds beta"):
            divide_right_F(W, 1, 1, rs)


@pytest.mark.parametrize("n", range(2, 8))
def test_no_lead_of_the_whole_basis_ends_in_its_largest_letter(n):
    # the premise of the strip: every lead has length at most 2N - 1, and
    # each ends in a letter below its largest, so for a normal word b on
    # the letters 1..beta, b * f_beta**d is normal
    rs = complete(serre_relations(n), 2 * n - 1, n=n)
    assert len(rs.rules) == {2: 2, 3: 7, 4: 15, 5: 26, 6: 40, 7: 57}[n]
    assert all(lead[-1] < max(lead) for lead in rs.rules)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_divide_right_F_undoes_a_right_multiplication(data):
    # for homogeneous X on the letters 1..beta, X * F**d always divides,
    # back to nf(X)
    n = 3
    rs = get_rewrite_system(n)
    beta = data.draw(st.integers(1, n))
    d = data.draw(st.integers(0, 3))
    w = data.draw(st.lists(st.integers(1, beta), min_size=1, max_size=5))
    words = data.draw(st.lists(st.permutations(w), min_size=1, max_size=4))
    X = NCPoly(n, {tuple(u): Q(k) for k, u in enumerate(words)})
    assert divide_right_F(X.rmul_word((beta,) * d), d, beta, rs) == rs.normal_form(X)


def test_divide_right_F_reads_its_input_in_the_quotient():
    # W need not be in normal form: a relation is 0 and divides by F**2,
    # though it has one F letter, and it drops out of a sum
    rs = get_rewrite_system(2)
    rel, F = serre_relations(2)[0], NCPoly.letter(2, 2)
    assert rel.multidegree() == (2, 1)
    assert divide_right_F(rel, 2, 2, rs).is_zero()
    p = jimbo(1, 3, 2) * NCPoly.letter(1, 2)
    assert divide_right_F(p * F * F + rel * F, 2, 2, rs) == rs.normal_form(p)


def test_solve_linear_paths():
    # rhs in the kernel as {word: {q-exponent: int}}, which the solve
    # consumes; the solution stays there, {column: [(q-exponent, int)]}
    # without the zero coordinates, and a caller rebuilds it over the D
    # it cleared rhs by
    a = laurent_terms({(1,): R_ONE})
    b = laurent_terms({(2,): R_ONE, (1,): Q(1)})

    def rhs():
        return {(2,): {0: 2}, (1,): {1: 2, 0: 3}}  # 3 a + 2 b

    assert solve_linear([a, b], rhs()) == {1: [(0, 2)], 0: [(0, 3)]}
    half = RatQ.from_int(2).inverse()
    xs = _rebuild((2,), solve_linear([b, a], rhs()), 0)
    assert xs == {0: R_ONE, 1: RatQ.from_int(3) * half}
    assert solve_linear([a, b], {(1,): {0: 1}}) == {0: [(0, 1)]}
    with pytest.raises(SingularSystem, match="share the lead"):
        solve_linear([a, a], {(1,): {0: 1}})
    with pytest.raises(SingularSystem, match="is zero"):
        solve_linear([a, {}], {})
    with pytest.raises(SingularSystem, match="outside the columns' span"):
        solve_linear([a], {(2,): {0: 1}})
    with pytest.raises(SingularSystem, match="outside the columns' span"):
        solve_linear([a, b], {(2,): {0: 1}, (1,): {0: 1}, (3,): {2: -1}})
    assert solve_linear([], {}) == {}


def test_cartan_elements():
    h1 = h_cartan(1, 2)
    h2 = h_cartan(2, 2)
    assert h1 * h2 == h2 * h1
    assert WeightScalar.one(2, "k") * h1 == h1
    assert (h1 - h1).is_zero()


def test_H_cartan_equals_the_product_of_the_h_i():
    cases = [
        (rset, n)
        for n in range(1, 7)
        for r in range(n + 1)
        for rset in itertools.combinations(range(1, n + 1), r)
    ]
    cases += [((1, 1), 2), ((2, 1, 2), 3), ((3, 1, 3, 3), 4)]
    for rset, n in cases:
        got, want = H_cartan(rset, n), H_cartan_product(rset, n)
        assert got.terms == want.terms and got.prefix == "k", (rset, n)
        assert str(got) == str(want)
    for n in (1, 3):
        for bad in (0, n + 1):
            with pytest.raises(ValueError, match="index out of range"):
                H_cartan((1, bad), n)
            with pytest.raises(ValueError, match="index out of range"):
                h_cartan(bad, n)


def _dense_solve(cols, rhs):
    """Reference Gauss-Jordan elimination updating every column."""
    rows = sorted({w for col in cols for w in col} | set(rhs), key=deglex_key)
    idx = {w: r for r, w in enumerate(rows)}
    m, k = len(rows), len(cols)
    A = [[R_ZERO] * k for _ in range(m)]
    for c, col in enumerate(cols):
        for w, x in col.items():
            A[idx[w]][c] = x
    b = [rhs.get(w, R_ZERO) for w in rows]
    r = 0
    for c in range(k):
        p = next((row for row in range(r, m) if A[row][c]), None)
        if p is None:
            return ("singular",)
        A[r], A[p] = A[p], A[r]
        b[r], b[p] = b[p], b[r]
        inv = A[r][c].inverse()
        A[r] = [x * inv for x in A[r]]
        b[r] = b[r] * inv
        for row in range(m):
            if row != r and A[row][c]:
                f = A[row][c]
                A[row] = [x - f * y for x, y in zip(A[row], A[r])]
                b[row] = b[row] - f * b[r]
        r += 1
    if any(b[r:]):
        return ("inconsistent",)
    return ("ok", b[:k])


_nonzero_entries = st.one_of(
    st.builds(lambda a, e: a * Q(e), st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(-4, 4)),
    st.builds(lambda a, b: RatQ((a, 0, b), (1, 1)), st.integers(-2, 2), st.integers(1, 2)),
)


@st.composite
def _linear_systems(draw, nonzero=_nonzero_entries, triangular=False):
    """(cols, rhs, expected outcome) with the outcome forced by the shape:
    a triangular block with a nonzero diagonal is solvable; a column that is
    a multiple of another is singular; a rhs on a row no column touches is
    inconsistent.  The entries are drawn from `nonzero`, or half of
    them zero, so that columns and solutions miss some words.  Column c
    owns a word and may hold the words of the columns before it and the
    extra rows; with triangular=True the extra rows lie below every owned
    word, so each column's own word is the largest in it."""
    entries = st.one_of(st.just(R_ZERO), nonzero)
    kind = draw(st.sampled_from(["ok", "singular", "inconsistent"]))
    k = draw(st.integers(1, 4))
    extra = draw(st.integers(0, 3))
    words = [(r + 1,) for r in range(k + extra)]
    low = extra if triangular else 0
    cols = []
    for c in range(k):
        col = {words[low + c]: draw(nonzero)}
        for w in words[: low + c] if triangular else words[:c] + words[k:]:
            col[w] = draw(entries)
        cols.append({w: x for w, x in col.items() if x})
    xs = [draw(entries) for _ in range(k)]
    rhs = {}
    for x, col in zip(xs, cols):
        for w, y in col.items():
            rhs[w] = rhs.get(w, R_ZERO) + x * y
    if kind == "singular":
        f = draw(nonzero)
        src = cols[draw(st.integers(0, k - 1))]
        cols.insert(draw(st.integers(0, k)), {w: f * y for w, y in src.items()})
    elif kind == "inconsistent":
        rhs[(k + extra + 1,)] = draw(nonzero)
    return cols, {w: x for w, x in rhs.items() if x}, kind, xs


@settings(max_examples=150, deadline=None)
@given(_linear_systems())
def test_solve_linear_matches_dense_reference(system):
    # the RatQ elimination, kept as the oracle of the Laurent solve; these
    # systems have non-unit pivots and true denominators, which the Laurent
    # solve refuses
    cols, rhs, kind, xs = system
    got = solve_linear_ratq(cols, rhs)
    assert got == _dense_solve(cols, rhs)
    assert got[0] == kind
    if kind == "ok":
        assert got[1] == xs


def test_pbw_cache_is_per_system():
    # Systems built and dropped in turn may reuse one another's id(); each
    # must still read only its own PBW columns.  The free algebra and the
    # Serre quotient of one rank disagree on these multidegrees.
    assert not hasattr(uqsl, "_PBW_BASIS_CACHE")
    for n, serre in ((2, True), (3, False), (2, False), (3, True), (2, True)):
        rs = complete(serre_relations(n) if serre else [], 6, n=n)
        mu = (2, 1) + (0,) * (n - 2)
        monos = list(kostant_partitions(mu))
        want = [rs.normal_form(expand_pbw(M, n)).terms for M in monos]
        entry = _pbw_basis_columns(mu, rs)
        assert list(entry) == monos
        assert [ratq_terms(col) for col in entry.values()] == want
        assert rs._pbw_cache == {mu: entry}
        del rs
        gc.collect()


# ----------------------------------------------------------------------------
# The Laurent solve and PBW columns against the RatQ oracles
# ----------------------------------------------------------------------------

# mostly +-q**k, so that most systems keep unit pivots
_laurent_entries = st.one_of(
    st.builds(lambda s, e: s * Q(e), st.sampled_from([-1, 1]), st.integers(-4, 4)),
    st.builds(lambda s, e: s * Q(e), st.sampled_from([-1, 1]), st.integers(-4, 4)),
    st.builds(lambda a, e: a * Q(e), st.sampled_from([-3, -2, 2, 3]), st.integers(-4, 4)),
    st.builds(lambda a, b: RatQ((a, 0, b)), st.integers(-2, 2), st.integers(1, 2)),
)


def _is_unit(x):
    return x in (Q(x.val), -Q(x.val))


def _solve_cleared(cols, rhs):
    """solve_linear of Laurent columns and a RatQ rhs, cleared into the
    kernel and rebuilt from it as to_pbw clears and rebuilds them, as the
    list of RatQ coordinates."""
    D, ints = _clear(rhs, 0)
    xs = _rebuild(D, solve_linear([laurent_terms(col) for col in cols], ints), 0)
    return [xs.get(c, R_ZERO) for c in range(len(cols))]


@settings(max_examples=200, deadline=None)
@given(_linear_systems(_laurent_entries, triangular=True))
def test_laurent_solve_matches_the_ratq_oracle(system):
    # triangular systems: equal to the RatQ oracle wherever every lead
    # coefficient is +-q**k, refused wherever one is not; a column sharing
    # another's lead, or a rhs outside the span, is refused as singular
    cols, rhs, kind, xs = system
    pivots = []
    want = solve_linear_ratq(cols, rhs, pivots)
    if kind == "singular":
        with pytest.raises(SingularSystem):
            _solve_cleared(cols, rhs)
    elif not all(map(_is_unit, pivots)):
        with pytest.raises(NonUnitPivot, match="not a signed power of q"):
            _solve_cleared(cols, rhs)
    elif kind == "inconsistent":
        assert want == ("inconsistent",)
        with pytest.raises(SingularSystem, match="outside the columns' span"):
            _solve_cleared(cols, rhs)
    else:
        assert want == ("ok", xs) and _solve_cleared(cols, rhs) == xs


def test_solve_linear_refuses_a_pivot_that_is_not_a_signed_power_of_q():
    one = R_ONE
    with pytest.raises(NonUnitPivot):
        solve_linear([laurent_terms({(1,): RatQ.from_int(2)})], {(1,): {0: 1}})
    # two independent columns that share the lead f2: the RatQ oracle
    # reduces one by the other, the back-substitution refuses them
    a = {(2,): one, (1,): one}
    b = {(2,): one, (1,): RatQ((2, 0, 1))}
    rhs = {(2,): one, (1,): RatQ.from_int(3)}
    assert solve_linear_ratq([a, b], rhs)[0] == "ok"
    with pytest.raises(SingularSystem, match="share the lead") as info:
        _solve_cleared([a, b], rhs)
    assert not isinstance(info.value, NonUnitPivot)


def test_pbw_columns_are_triangular():
    # the multidegrees past test_pbw_leads_are_the_normal_words, of degree 7
    # to 12 at N = 2..5: the PBW columns meet solve_linear's precondition,
    # distinct leads each with coefficient +-q**k
    for n in range(2, 6):
        rs = get_rewrite_system(n)
        for mu in itertools.product(range({2: 7, 3: 5, 4: 4, 5: 3}[n]), repeat=n):
            if sum(mu) <= 6:
                continue
            leads = set()
            for col in _pbw_basis_columns(mu, rs).values():
                lead = max(col, key=deglex_key)
                assert _leading_coefficient_is_unit(col[lead]) and lead not in leads, (mu, lead)
                leads.add(lead)


def _theta_power_ratq(n, m, lam, oracle):
    """theta_power in the RatQ oracle's arithmetic."""
    from qshapo.roots import alpha, eta_vec, pairing
    from qshapo.shapovalov import theta_sum
    from qshapo.verma import HighestWeight

    eta = eta_vec(n)
    prod = NCPoly.one(n)
    for j in range(m - 1, -1, -1):
        shifted = tuple(lam[k] - j * pairing(eta, alpha(k + 1, n)) for k in range(n))
        coords = theta_sum(n).evaluate(HighestWeight.numeric(shifted))
        prod = oracle.normal_form(prod * oracle.normal_form(from_pbw(coords, n)))
    return oracle.to_pbw(prod)


@pytest.mark.parametrize("n, m, lam", [
    (3, 3, (4, 1, -5)), (4, 2, (1, 0, 0, -3)), (5, 2, (1, 0, 0, 0, -4)),
])
def test_pbw_columns_and_to_pbw_match_the_ratq_oracle(n, m, lam):
    from qshapo.shapovalov import theta_power

    rs = get_rewrite_system(n)
    oracle = RatQNormalForms(rs)
    mu = (m,) * n
    cols, want = _pbw_basis_columns(mu, rs), oracle.pbw_columns(mu)
    assert list(cols) == list(want)
    assert [ratq_terms(col) for col in cols.values()] == list(want.values())
    got, want = theta_power(n, m, lam, rs), _theta_power_ratq(n, m, lam, oracle)
    assert got == want
    assert [(M, str(c)) for M, c in got.items()] == [(M, str(c)) for M, c in want.items()]

