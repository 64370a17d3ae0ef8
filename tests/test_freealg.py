"""Rewriting engine: Serre relations, completion, normal forms, dimensions."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshapo import freealg
from qshapo.freealg import (
    CacheCorrupt,
    NCPoly,
    RewriteSystem,
    audit_confluence,
    complete,
    get_rewrite_system,
    serre_relations,
)
from qshapo.roots import kostant_count
from qshapo.scalars import R_ONE, V_MINUS_VINV, RatQ


def test_serre_relation_counts():
    assert serre_relations(1) == []
    assert len(serre_relations(2)) == 2
    rels3 = serre_relations(3)
    assert len(rels3) == 5
    assert sum(1 for r in rels3 if r.degree() == 3) == 4
    assert sum(1 for r in rels3 if r.degree() == 2) == 1


def test_empty_relations_complete():
    rs = complete([], 5, n=2)
    assert rs.rules == {}
    assert rs.normal_form(NCPoly(2, {(2, 1, 2, 1): R_ONE})).terms == {
        (2, 1, 2, 1): R_ONE
    }


def test_normal_form_examples():
    rs = get_rewrite_system(2)
    # already-normal word is fixed
    p = NCPoly(2, {(1, 2): R_ONE})
    assert rs.normal_form(p) == p
    # one Serre rewrite: f2 f1 f1 -> (v + 1/v) f1 f2 f1 - f1 f1 f2
    two_v = RatQ.v_power(1) + RatQ.v_power(-1)
    got = rs.normal_form(NCPoly(2, {(2, 1, 1): R_ONE}))
    assert got == NCPoly(2, {(1, 2, 1): two_v, (1, 1, 2): -R_ONE})
    # the relation itself is an ideal member
    for rel in serre_relations(2):
        assert rs.normal_form(rel).is_zero()


def test_normal_form_is_linear_and_idempotent():
    rs = get_rewrite_system(3)
    rng = random.Random(11)
    words = [
        tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5))) for _ in range(40)
    ]
    for _ in range(15):
        a = NCPoly(3, {rng.choice(words): RatQ.from_int(rng.randint(-3, 3))})
        b = NCPoly(3, {rng.choice(words): RatQ.from_int(rng.randint(-3, 3))})
        nf = rs.normal_form
        assert nf(a + b) == nf(a) + nf(b)
        assert nf(nf(a)) == nf(a)


def test_normal_form_preserves_multidegree():
    rs = get_rewrite_system(3)
    rng = random.Random(5)
    for _ in range(20):
        w = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 6)))
        p = NCPoly(3, {w: R_ONE})
        q = rs.normal_form(p)
        if q:
            assert q.multidegree() == p.multidegree()


def test_dim_weight_space_examples():
    rs2 = get_rewrite_system(2)
    assert rs2.dim_weight_space((1, 0)) == 1
    assert rs2.dim_weight_space((1, 1)) == 2
    rs3 = get_rewrite_system(3)
    assert rs3.dim_weight_space((1, 1, 1)) == 4
    assert rs3.dim_weight_space((2, 2, 2)) == kostant_count((2, 2, 2))


def test_dim_audit_against_kostant():
    for n in (2, 3, 4):
        rs = get_rewrite_system(n, 8)
        for h in range(1, 9):
            for mu in itertools.product(range(h + 1), repeat=n):
                if sum(mu) != h:
                    continue
                assert rs.dim_weight_space(mu) == kostant_count(mu), (n, mu)


def test_confluence_audit():
    for n in (2, 3, 4):
        rs = complete(serre_relations(n), 8, n=n)
        assert audit_confluence(rs) == []


def test_cap_errors():
    # a word past the completed degree extends the system to its length
    rs = complete(serre_relations(2), 6, n=2)
    word = NCPoly(2, {(2, 1) * 4: R_ONE})
    assert rs.normal_form(word) == complete(serre_relations(2), 8, n=2).normal_form(word)
    assert rs.cap == 8
    # no degree is refused: past the completed leads, completion adds nothing
    far = complete(serre_relations(2), 40)
    assert far.cap == 40
    assert far.rules == complete(serre_relations(2), 6, n=2).rules


def test_one_system_per_rank(monkeypatch):
    # a larger degree extends the rank's system in place; a smaller one
    # leaves it as it is
    monkeypatch.setattr(freealg, "_SYSTEMS", {})
    rs = get_rewrite_system(3)
    assert rs is get_rewrite_system(3, 12)
    assert rs.cap == 12
    assert rs.to_text() == complete(serre_relations(3), 12, n=3).to_text()
    assert get_rewrite_system(3, 6) is rs and rs.cap == 12
    assert list(freealg._SYSTEMS) == [3]


@pytest.mark.parametrize(
    "n, start, degree, trigger",
    [
        (2, 6, 14, "word"),
        (3, 6, 12, "words"),
        (4, 6, 12, "word"),
        (4, 10, 14, "words"),
        # one degree up: only the overlaps of exactly the new degree are new
        (3, 4, 5, "word"),
        (4, 6, 7, "words"),
    ],
)
def test_extension_equals_direct_completion(n, start, degree, trigger):
    # a system read from a file extends from its rules alone to the same
    # rules that a completion straight to the larger degree finds
    rs = RewriteSystem.from_text(complete(serre_relations(n), start, n=n).to_text())
    if trigger == "word":
        rs.normal_form(NCPoly(n, {tuple(k % n + 1 for k in range(degree)): R_ONE}))
    else:
        rs.normal_words((degree - n + 1,) + (1,) * (n - 1))
    assert rs.cap == degree
    assert rs.to_text() == complete(serre_relations(n), degree, n=n).to_text()
    assert audit_confluence(rs) == []


def test_caches_stay_valid_across_an_extension():
    from qshapo.uqsl import jimbo, to_pbw

    rs = complete(serre_relations(3), 6, n=3)
    short = NCPoly(3, {(3, 2, 1, 3, 2, 1): R_ONE})
    element = rs.normal_form(jimbo(1, 4, 3) * jimbo(1, 3, 3))
    nf_before, pbw_before = rs.normal_form(short), to_pbw(element, rs)
    long = (3, 2, 1) * 3
    got = rs.normal_form(NCPoly(3, {long: R_ONE}))
    assert rs.cap == 9
    assert long in rs._nf_cache  # cached in the dict the extension left
    direct = complete(serre_relations(3), 9, n=3)
    assert got == direct.normal_form(NCPoly(3, {long: R_ONE}))
    assert rs.normal_form(short) == nf_before == direct.normal_form(short)
    assert to_pbw(element, rs) == pbw_before == to_pbw(element, direct)


def test_serialization_round_trip():
    rs = complete(serre_relations(3), 6, n=3)
    text = rs.to_text()
    rs2 = RewriteSystem.from_text(text)
    assert rs2.n == rs.n and rs2.cap == rs.cap
    assert set(rs2.rules) == set(rs.rules)
    for lead in rs.rules:
        assert rs2.rules[lead] == rs.rules[lead]
    assert rs2.to_text() == text


def test_serialization_rejects_corruption():
    rs = complete(serre_relations(2), 6, n=2)
    text = rs.to_text()
    with pytest.raises(CacheCorrupt):
        RewriteSystem.from_text("bogus\n" + text)
    with pytest.raises(CacheCorrupt):
        RewriteSystem.from_text(text.replace("rules=", "rules=9"))
    mangled = text.replace(" : ", " :: ", 1)
    with pytest.raises(CacheCorrupt):
        RewriteSystem.from_text(mangled)


def test_normal_form_is_multiplicative():
    # the quotient map is a ring map: NF(p q) = NF(NF(p) NF(q))
    rng = random.Random(29)
    for n in (2, 3):
        rs = get_rewrite_system(n)
        for _ in range(20):
            p = NCPoly(
                n,
                {
                    tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3))): RatQ.from_int(
                        rng.randint(-2, 2) or 1
                    )
                    for _ in range(2)
                },
            )
            q = NCPoly(
                n,
                {
                    tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3))): RatQ.from_int(
                        rng.randint(-2, 2) or 1
                    )
                    for _ in range(2)
                },
            )
            assert rs.normal_form(p * q) == rs.normal_form(
                rs.normal_form(p) * rs.normal_form(q)
            )


# scalars with and without a true denominator
_coeffs = st.builds(
    lambda k, e, d: RatQ.from_int(k) * RatQ.v_power(e) * d,
    st.integers(-3, 3).filter(bool),
    st.integers(-2, 2),
    st.sampled_from([R_ONE, V_MINUS_VINV.inverse()]),
)


@st.composite
def _homogeneous(draw, n, max_degree=4):
    """A polynomial whose words all have one drawn multidegree."""
    letters = draw(st.lists(st.integers(1, n), min_size=1, max_size=max_degree))
    words = draw(st.lists(st.permutations(letters).map(tuple), min_size=1, max_size=4))
    return NCPoly(n, {w: draw(_coeffs) for w in words})


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_normal_form_linear_and_multiplicative_on_homogeneous(data):
    n = data.draw(st.sampled_from([2, 3]))
    nf = get_rewrite_system(n).normal_form
    a = data.draw(_homogeneous(n))
    # b shares a's words half the time, so that sums cancel
    b = data.draw(st.one_of(_homogeneous(n), st.just(a).map(lambda p: -p)))
    c = data.draw(_coeffs)
    assert nf(a + b.scale(c)) == nf(a) + nf(b).scale(c)
    d = data.draw(_homogeneous(n))
    assert nf(a * d) == nf(nf(a) * nf(d))


def test_quotient_zero_test_vs_explicit_member():
    # a random two-sided multiple of a Serre relation reduces to zero
    rng = random.Random(3)
    for n in (2, 3):
        rs = get_rewrite_system(n)
        for rel in serre_relations(n):
            for _ in range(5):
                left = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
                right = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
                assert rs.normal_form(rel.lmul_word(left).rmul_word(right)).is_zero()
