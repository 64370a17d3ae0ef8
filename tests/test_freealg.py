"""Rewriting engine: Serre relations, completion, normal forms, dimensions."""

import functools
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
from qshapo.roots import kostant_count, pbw_dimension
from qshapo.scalars import R_ONE, V_MINUS_VINV, RatQ, add_terms


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
    for bad in ("LEAD 3,1,1", "LEAD 0,1,1"):
        with pytest.raises(CacheCorrupt, match="letter out of range"):
            RewriteSystem.from_text(text.replace("LEAD 2,1,1", bad))


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


# ----------------------------------------------------------------------------
# The reduction kernel against direct oracles
# ----------------------------------------------------------------------------

def _slicing_first_reduction(rules, w):
    """Leftmost reducible factor found by trying every lead length at every
    position: the scan the automaton replaced."""
    lengths = sorted({len(lead) for lead in rules})
    for pos in range(len(w)):
        for ln in lengths:
            if pos + ln > len(w):
                break
            if w[pos : pos + ln] in rules:
                return pos, ln
    return None


def _reduce_without_cache(rs, w):
    """Normal form of w by rewriting leftmost factors until none is left,
    one path at a time and with no cache."""
    out: dict = {}
    todo = [(w, R_ONE)]
    while todo:
        u, c = todo.pop()
        hit = _slicing_first_reduction(rs.rules, u)
        if hit is None:
            add_terms(out, [(u, c)])
            continue
        pos, ln = hit
        for v, d in rs.rules[u[pos : pos + ln]].terms.items():
            todo.append((u[:pos] + v + u[pos + ln :], c * d))
    return out


def _mixed_relations():
    """Relations whose rules have every kind of coefficient the kernel
    tells apart: f2 f1 -> -f1 f2, f3 f1 -> v f1 f3, and a cubic rule whose
    first term has coefficient 1 and whose second has -1."""
    v = RatQ.v_power(1)
    return [
        NCPoly(3, {(2, 1): R_ONE, (1, 2): R_ONE}),
        NCPoly(3, {(3, 1): R_ONE, (1, 3): -v}),
        NCPoly(3, {(3, 3, 2): R_ONE, (2, 3, 3): -R_ONE, (3, 2, 3): R_ONE}),
    ]


@functools.lru_cache(maxsize=None)
def _kernel_systems(rank):
    """The completed system (through degree 8) of rank `rank`, or of the
    mixed relations for rank "mixed", and one system for every rule set its
    completion passed through on the way."""
    n, relations = (3, _mixed_relations()) if rank == "mixed" else (rank, serre_relations(rank))
    snapshots = []
    refresh = RewriteSystem._refresh_automaton

    def record(self):
        refresh(self)
        snapshots.append(dict(self.rules))

    # the completion reduces by the slicing scan, so that these systems do
    # not depend on the automaton under test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_refresh_automaton", record)
        mp.setattr(RewriteSystem, "_first_reduction",
                   lambda self, w: _slicing_first_reduction(self.rules, w))
        done = complete(relations, 8, n=n)
    systems = []
    for rules in [done.rules, *snapshots]:
        rs = RewriteSystem(n, 8)
        rs.rules = dict(rules)
        rs._refresh_automaton()
        systems.append(rs)
    return systems


@st.composite
def _system_and_word(draw, ranks=(2, 3, 4, 5, 6, "mixed"), max_len=8):
    """A completed or half-completed system and a word for it, half the time
    with one of its leads planted in the middle."""
    rs = draw(st.sampled_from(_kernel_systems(draw(st.sampled_from(ranks)))))
    letters = st.lists(st.integers(1, rs.n), max_size=max_len).map(tuple)
    w = draw(letters)
    if rs.rules and draw(st.booleans()):
        lead = draw(st.sampled_from(sorted(rs.rules)))
        w = (w[: len(w) // 2] + lead + w[len(w) // 2 :])[:max_len]
    return rs, w


@settings(deadline=None, max_examples=300)
@given(_system_and_word(max_len=16))
def test_automaton_finds_the_leftmost_reduction(case):
    rs, w = case
    assert rs._first_reduction(w) == _slicing_first_reduction(rs.rules, w)


@settings(deadline=None, max_examples=150)
@given(_system_and_word(ranks=(2, 3, 4, "mixed"), max_len=7))
def test_nf_word_matches_a_cache_free_reduction(case):
    # the systems keep their caches from one example to the next, so later
    # words meet cached and shared dicts
    rs, w = case
    assert rs._nf_word(w) == _reduce_without_cache(rs, w)


@pytest.mark.parametrize("rank", [3, "mixed"])
def test_filling_the_cache_changes_no_cached_normal_form(rank):
    # a cached dict may be shared by several words, so rewriting one word
    # must leave the dicts of the words it reduces to as they were
    rs = RewriteSystem(3, 8)
    rs.rules = dict(_kernel_systems(rank)[0].rules)
    rs._refresh_automaton()
    for w in itertools.product((1, 2, 3), repeat=6):
        rs._nf_word(w)
    for w, got in rs._nf_cache.items():
        assert got == _reduce_without_cache(rs, w), w


@st.composite
def _system_and_multidegree(draw):
    rs = draw(st.sampled_from(_kernel_systems(draw(st.sampled_from((2, 3, 4, "mixed"))))))
    counts = st.lists(st.integers(0, 3), min_size=rs.n, max_size=rs.n)
    mu = draw(counts.filter(lambda m: sum(m) <= 6))
    return rs, tuple(mu)


@settings(deadline=None, max_examples=150)
@given(_system_and_multidegree())
def test_normal_words_are_the_irreducible_words(case):
    rs, mu = case
    letters = [i for i in range(1, rs.n + 1) for _ in range(mu[i - 1])]
    words = sorted(set(itertools.permutations(letters)))
    want = [w for w in words if _slicing_first_reduction(rs.rules, w) is None]
    assert rs.normal_words(mu) == want


def test_mutating_a_normal_form_leaves_the_cache_alone():
    # f3 f1 -> f1 f3 shares the dict of f1 f3, and f2 f2 f1 -> ... - f1 f2 f2
    # reads a child's dict through a coefficient of -1
    words = [(1, 3), (3, 1), (3, 1, 2), (1, 2, 2), (2, 2, 1), (3, 2, 2, 1), (2, 1)]
    rs = complete(serre_relations(3), 6, n=3)
    want = {w: rs.normal_form(NCPoly(3, {w: R_ONE})) for w in words}
    for w in words:
        got = rs.normal_form(NCPoly(3, {w: R_ONE}))
        for x in got.terms:
            got.terms[x] = R_ONE
        got.terms[(9,)] = R_ONE
    fresh = complete(serre_relations(3), 6, n=3)
    for w in words:
        p = NCPoly(3, {w: R_ONE})
        assert rs.normal_form(p) == want[w] == fresh.normal_form(p)



def _certified(n, cap):
    return complete(serre_relations(n), cap, n=n, dimensions=functools.partial(pbw_dimension, n))


@pytest.mark.parametrize(
    "n, cap", [(2, 8), (2, 12), (3, 5), (3, 12), (4, 7), (4, 12), (5, 9), (5, 12), (6, 11)]
)
def test_certified_completion_finds_the_same_system(n, cap):
    assert _certified(n, cap).to_text() == complete(serre_relations(n), cap, n=n).to_text()


@pytest.mark.parametrize("rank", [2, 3, 4, "mixed"])
def test_count_normal_words_sums_the_normal_words(rank):
    # on completed systems and on every rule set a completion passed through
    for rs in _kernel_systems(rank):
        for d in range(7):
            weights = (mu for mu in itertools.product(range(d + 1), repeat=rs.n) if sum(mu) == d)
            assert rs.count_normal_words(d) == sum(len(rs.normal_words(mu)) for mu in weights)


def test_count_does_not_certify_a_stopped_completion():
    # completion through degree 6 lacks the rank's degree-7 rule
    rs = _certified(4, 6)
    assert len(rs.rules) == 14
    assert [rs.count_normal_words(d) for d in range(7)] == [pbw_dimension(4, d) for d in range(7)]
    assert (rs.count_normal_words(7), pbw_dimension(4, 7)) == (637, 636)


# completion through 2N - 1 finds every lead, and the leads still overlap
# in the degrees past it (up to 6, 9 and 12 at N = 3, 4 and 5)
@pytest.mark.parametrize("n, cap, degree", [(3, 5, 8), (4, 7, 10), (5, 9, 12)])
def test_extending_a_certified_system_resolves_no_overlap(n, cap, degree, monkeypatch):
    # resolving an overlap multiplies a rule's replacement on the right,
    # and nothing else in an extension does
    calls = []
    rmul_word = NCPoly.rmul_word

    def counted(self, w):
        calls.append(w)
        return rmul_word(self, w)

    monkeypatch.setattr(NCPoly, "rmul_word", counted)
    word = NCPoly(n, {tuple(k % n + 1 for k in range(degree)): R_ONE})
    rs = _certified(n, cap)
    calls.clear()
    rs.normal_form(word)
    assert rs.cap == degree and calls == []
    # a system read from a file carries no dimensions and resolves them all
    loaded = RewriteSystem.from_text(rs.to_text().replace(f"cap={degree}", f"cap={cap}"))
    assert loaded.dimensions is None
    loaded.normal_form(word)
    assert calls
    assert loaded.to_text() == rs.to_text() == complete(serre_relations(n), degree, n=n).to_text()
