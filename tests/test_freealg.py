"""Rewriting engine: Serre relations, completion, normal forms, dimensions."""

import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshapo import freealg
from qshapo.freealg import (
    CacheCorrupt,
    InconsistentResult,
    NCPoly,
    RewriteSystem,
    audit_confluence,
    build_serre_system,
    complete,
    get_rewrite_system,
    serre_relations,
)
from qshapo.roots import kostant_count, pbw_dimension
from qshapo.scalars import (
    R_ONE,
    V_MINUS_VINV,
    RatQ,
    WeightScalar,
    _clear,
    _ratq_of,
    _rebuild,
    add_terms,
    qbinom_formal,
)
from ratq_oracles import RatQNormalForms, ratq_terms


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


def test_normal_form_refuses_a_q_exponent_out_of_the_kernels_range():
    # normal_form and to_pbw clear their scalars into the integer kernel,
    # whose keys hold q-exponents of size below 2**28
    from qshapo.uqsl import to_pbw

    rs = get_rewrite_system(2)
    for k in (1 << 28, -(1 << 28)):
        p = NCPoly(2, {(2, 1): RatQ.q_power(k)})
        with pytest.raises(ValueError, match="out of range for the integer kernel"):
            rs.normal_form(p)
        with pytest.raises(ValueError, match="out of range for the integer kernel"):
            to_pbw(p, rs)
    inside = NCPoly(2, {(2, 1): RatQ.q_power((1 << 28) - 8)})
    assert rs.normal_form(inside) == inside


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
        # past the longest lead, where a certified system resolves nothing
        (5, 8, 12, "words"),
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


def test_rules_are_the_ratq_view_of_the_working_rules():
    # rules is read from _rhs, so it follows a completion, an extension and
    # a round trip through the text form
    def view(rs):
        return {lead: NCPoly(rs.n, {u: _ratq_of(c) for u, c, _ in rhs})
                for lead, rhs in rs._rhs.items()}

    rs = complete(serre_relations(3), 3, n=3)
    assert rs.rules == view(rs) and len(rs.rules) == 5
    rs._extend(6)
    assert rs.rules == view(rs) and len(rs.rules) == 7
    again = RewriteSystem.from_text(rs.to_text())
    assert again.rules == view(again) == rs.rules
    assert list(again.rules) == list(again._rhs)


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
def _homogeneous(draw, n, max_degree=4, letters=None):
    """A polynomial whose words all have one drawn multidegree, or the
    multidegree of `letters`."""
    if letters is None:
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
        snapshots.append(dict(self._rhs))

    # the completion reduces by the slicing scan, so that these systems do
    # not depend on the automaton under test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_refresh_automaton", record)
        mp.setattr(RewriteSystem, "_first_reduction",
                   lambda self, w: _slicing_first_reduction(self._rhs, w))
        done = complete(relations, 8, n=n)
    systems = []
    for rhs in [done._rhs, *snapshots]:
        rs = RewriteSystem(n, 8)
        rs._rhs = dict(rhs)
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
    assert ratq_terms(rs._nf_word(w)) == _reduce_without_cache(rs, w)


@pytest.mark.parametrize("rank", [3, "mixed"])
def test_filling_the_cache_changes_no_cached_normal_form(rank):
    # a cached dict may be shared by several words, so rewriting one word
    # must leave the dicts of the words it reduces to as they were
    rs = RewriteSystem(3, 8)
    rs._set_rules(dict(_kernel_systems(rank)[0].rules))
    for w in itertools.product((1, 2, 3), repeat=6):
        rs._nf_word(w)
    for w, got in rs._nf_cache.items():
        assert ratq_terms(got) == _reduce_without_cache(rs, w), w


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


@pytest.mark.parametrize("rank", [2, 3, 4, "mixed"])
def test_count_normal_words_sums_the_normal_words(rank):
    # on completed systems and on every rule set a completion passed through
    for rs in _kernel_systems(rank):
        for d in range(7):
            weights = (mu for mu in itertools.product(range(d + 1), repeat=rs.n) if sum(mu) == d)
            assert rs.count_normal_words(d) == sum(len(rs.normal_words(mu)) for mu in weights)


def test_count_does_not_certify_a_stopped_completion():
    # completion through degree 2N - 2 lacks the rank's rule of degree
    # 2N - 1, one short of the whole basis
    for n, rules in [(4, 14), (5, 25), (6, 39), (7, 56)]:
        rs = complete(serre_relations(n), 2 * n - 2, n=n)
        assert len(rs.rules) == rules
        assert len(build_serre_system(n, 2 * n - 1).rules) == rules + 1
        assert [rs.count_normal_words(d) for d in range(2 * n - 1)] == [
            pbw_dimension(n, d) for d in range(2 * n - 1)
        ]
        assert rs.count_failure(0, 2 * n - 2) is None
        got, want = rs.count_normal_words(2 * n - 1), pbw_dimension(n, 2 * n - 1)
        assert got == want + 1
        assert rs.count_failure(0, 2 * n - 1) == (
            f"{got} normal words in degree {2 * n - 1}, not {want}"
        )
    assert (got, want) == (1094350, 1094349)
    stopped = complete(serre_relations(4), 6, n=4)
    assert (stopped.count_normal_words(7), pbw_dimension(4, 7)) == (637, 636)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_completion_reads_no_dimension(n, monkeypatch):
    # a wrong p_N(2N - 1) leaves completion as it was; the build's count
    # certificate refuses it
    want = complete(serre_relations(n), 2 * n - 1, n=n).to_text()
    right = pbw_dimension
    monkeypatch.setattr(freealg, "pbw_dimension", lambda m, d: right(m, d) + (d == 2 * n - 1))
    assert complete(serre_relations(n), 2 * n - 1, n=n).to_text() == want
    with pytest.raises(InconsistentResult, match=f"normal words in degree {2 * n - 1}, not"):
        build_serre_system(n, 2 * n - 1)


def test_completion_reduces_every_overlap_the_audit_does(monkeypatch):
    # no count stands in for an overlap of the completion
    seen = []
    remainder = RewriteSystem._overlap_remainder

    def recorded(self, w, la, lb):
        seen.append((w, la, lb))
        return remainder(self, w, la, lb)

    monkeypatch.setattr(RewriteSystem, "_overlap_remainder", recorded)
    rs = complete(serre_relations(3), 5, n=3)
    completed = set(seen)
    seen.clear()
    assert audit_confluence(rs) == []
    # no lead is retired at N = 3, so the two reduce the same overlaps
    assert seen and set(seen) == completed


def test_count_does_not_certify_a_system_missing_a_serre_rule():
    # the n = 2 system without LEAD 2,2,1, the lead of a Serre relation
    head, lead, _ = build_serre_system(2, 10).to_text().partition("LEAD 2,2,1\n")
    assert lead  # the last of the two rules
    rs = RewriteSystem.from_text(head.replace("rules=2", "rules=1"))
    assert list(rs.rules) == [(2, 1, 1)]
    assert (rs.count_normal_words(3), pbw_dimension(2, 3)) == (7, 6)
    assert rs.count_failure(0, 10) == "7 normal words in degree 3, not 6"


# a build through 2N - 1 holds every lead, and the leads still overlap in
# the degrees past it (up to 6, 9 and 12 at N = 3, 4 and 5)
@pytest.mark.parametrize("n, cap, degree", [(3, 5, 8), (4, 7, 10), (5, 9, 12)])
def test_extending_a_certified_system_resolves_no_overlap(n, cap, degree, monkeypatch):
    # every overlap is resolved by reducing its remainder; the scheduled
    # system certifies its new degrees by count, with no overlap left
    calls = []
    remainder = RewriteSystem._overlap_remainder

    def counted(self, w, la, lb):
        calls.append(w)
        return remainder(self, w, la, lb)

    monkeypatch.setattr(RewriteSystem, "_overlap_remainder", counted)
    word = NCPoly(n, {tuple(k % n + 1 for k in range(degree)): R_ONE})
    rs = build_serre_system(n, cap)
    calls.clear()
    rs.normal_form(word)
    assert rs.cap == degree and calls == []
    # a system read from a file has no schedule and resolves them all
    loaded = RewriteSystem.from_text(rs.to_text().replace(f"cap={degree}", f"cap={cap}"))
    assert loaded._schedule is None
    loaded.normal_form(word)
    assert calls
    assert loaded.to_text() == rs.to_text() == complete(serre_relations(n), degree, n=n).to_text()


# ----------------------------------------------------------------------------
# The closed-form schedule
# ----------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _completed_text(n, cap):
    return complete(serre_relations(n), cap, n=n).to_text()


# N = 1..7 about the degree 2N - 1 of the longest lead, and the six (N, cap)
# pairs the benchmark builds
@pytest.mark.parametrize(
    "n, cap",
    [(n, cap) for n in range(1, 8) for cap in (2 * n - 2, 2 * n - 1, 2 * n + 1)]
    + [(6, 8), (7, 8), (4, 10), (5, 10), (3, 12), (5, 12)],
)
def test_schedule_builds_the_completed_system(n, cap):
    assert build_serre_system(n, cap).to_text() == _completed_text(n, cap)


def refuse_overlaps(*args):
    raise AssertionError("a scheduled build enumerated overlaps")


# the whole basis at N = 3..7, and the six (N, cap) pairs the benchmark builds
@pytest.mark.parametrize(
    "n, cap",
    [(n, 2 * n - 1) for n in range(3, 8)] + [(6, 8), (7, 8), (4, 10), (5, 10), (3, 12), (5, 12)],
)
def test_a_scheduled_build_enumerates_no_overlap(n, cap, monkeypatch):
    want = _completed_text(n, cap)
    monkeypatch.setattr(freealg, "_overlaps", refuse_overlaps)
    assert build_serre_system(n, cap).to_text() == want


def test_a_scheduled_extension_enumerates_no_overlap(monkeypatch):
    want = _completed_text(5, 12)
    monkeypatch.setattr(freealg, "_overlaps", refuse_overlaps)
    rs = build_serre_system(5, 6)
    rs.normal_form(NCPoly(5, {tuple(k % 5 + 1 for k in range(12)): R_ONE}))
    assert rs.cap == 12 and rs.to_text() == want


def test_schedule_has_one_overlap_per_derived_rule():
    for n in range(1, 9):
        schedule = freealg._serre_schedule(n)
        assert len(schedule) == (n - 1) * (n - 2)
        assert schedule == sorted(schedule, key=lambda o: freealg.deglex_key(o[0]))
    # the relations give (N - 1)^2 rules, the schedule the rest
    assert len(build_serre_system(8, 15).rules) == (3 * 8 - 2) * (8 - 1) // 2


@pytest.mark.parametrize("n, degree", [(5, 12), (6, 11), (7, 13)])
def test_scheduled_extension_equals_completion_and_keeps_the_caches(n, degree):
    from qshapo.uqsl import jimbo, to_pbw

    rs = build_serre_system(n, 6)
    short = NCPoly(n, {(3, 2, 1, 3, 2, 1): R_ONE})
    element = rs.normal_form(jimbo(1, 4, n) * jimbo(1, 3, n))
    nf_before, pbw_before = rs.normal_form(short), to_pbw(element, rs)
    cached, columns = dict(rs._nf_cache), dict(rs._pbw_cache)
    assert cached and columns
    long = tuple(k % n + 1 for k in range(degree))
    got = rs.normal_form(NCPoly(n, {long: R_ONE}))
    assert rs.cap == degree
    assert long in rs._nf_cache
    assert rs.to_text() == _completed_text(n, degree)
    direct = RewriteSystem.from_text(_completed_text(n, degree))
    assert got == direct.normal_form(NCPoly(n, {long: R_ONE}))
    assert all(rs._nf_cache[w] is nf for w, nf in cached.items())
    assert all(rs._pbw_cache[mu] is col for mu, col in columns.items())
    assert rs.normal_form(short) == nf_before == direct.normal_form(short)
    assert to_pbw(element, rs) == pbw_before == to_pbw(element, direct)


def test_the_library_builds_and_extends_without_completion(tmp_path, monkeypatch):
    from qshapo import cli

    def refused(*args, **kwargs):
        raise AssertionError("completion ran")

    monkeypatch.setattr(freealg, "complete", refused)
    monkeypatch.setattr(RewriteSystem, "_complete", refused)
    monkeypatch.setattr(freealg, "_SYSTEMS", {})
    rs = get_rewrite_system(5)
    assert get_rewrite_system(5, 12) is rs and rs.cap == 12
    rs.normal_form(NCPoly(5, {tuple(k % 5 + 1 for k in range(14)): R_ONE}))
    assert rs.cap == 14
    built, status = cli.load_or_build(4, 8, tmp_path)
    assert status == "built"
    built.normal_words((4, 3, 2, 1))
    assert built.cap == 10
    monkeypatch.undo()
    assert rs.to_text() == _completed_text(5, 14)
    assert built.to_text() == _completed_text(4, 10)


@pytest.mark.parametrize(
    "n, dropped, message",
    [
        (4, 0, "has no rule (3, 2, 1, 2)"),  # D(3, 1), which C(3, 2) needs
        (4, 1, "has no rule (4, 3, 2, 3)"),  # D(4, 2), which D(4, 1) needs
        # C(3, 2), and C(N, 2), the longest lead: no other overlap needs
        # them, so only the count finds them missing
        (4, 2, "normal words in degree 5"),
        (4, -1, "normal words in degree 7"),
        (5, -1, "normal words in degree 9"),
    ],
)
def test_schedule_missing_an_overlap_is_refused(n, dropped, message, monkeypatch):
    full = freealg._serre_schedule

    def short(m):
        schedule = full(m)
        del schedule[dropped]
        return schedule

    monkeypatch.setattr(freealg, "_serre_schedule", short)
    with pytest.raises(InconsistentResult, match=re.escape(message)):
        build_serre_system(n, 2 * n - 1)
    if dropped == -1:  # the extension certifies its degrees too
        rs = build_serre_system(n, 2 * n - 2)
        with pytest.raises(InconsistentResult, match=re.escape(message)):
            rs.normal_words((1,) + (2,) * (n - 1))


@pytest.mark.parametrize("n, repeated", [(3, 0), (4, 2), (5, -1)])
def test_schedule_listing_an_overlap_twice_is_refused(n, repeated, monkeypatch):
    full = freealg._serre_schedule

    def doubled(m):
        schedule = full(m)
        return sorted(schedule + [schedule[repeated]], key=lambda o: freealg.deglex_key(o[0]))

    monkeypatch.setattr(freealg, "_serre_schedule", doubled)
    w = full(n)[repeated][0]
    with pytest.raises(InconsistentResult, match=re.escape(f"overlap {w} of ") + ".* reduces to 0"):
        build_serre_system(n, 2 * n - 1)


# ----------------------------------------------------------------------------
# Overlap resolution by one reduced remainder
# ----------------------------------------------------------------------------

def _two_normal_form_audit(rs):
    """audit_confluence as it was before overlaps were resolved by one
    remainder: both one-step rewrites of each overlap are put through the
    cached single-word normal forms and compared."""
    leads = sorted(rs.rules, key=freealg.deglex_key)
    failures = [(la, la, lb) for la, lb in freealg._nested_leads(leads)]
    for la in leads:
        for lb in leads:
            for w in freealg._overlaps(la, lb):
                if len(w) > rs.cap:
                    continue
                left = rs.normal_form(rs.rules[la].rmul_word(w[len(la) :]))
                right = rs.normal_form(rs.rules[lb].lmul_word(w[: len(w) - len(lb)]))
                if left != right:
                    failures.append((w, la, lb))
    return failures


def _damage_coefficient(text, line_index):
    """The text with the coefficient on its `line_index`-th term line
    negated."""
    lines = text.splitlines(keepends=True)
    terms = [i for i, ln in enumerate(lines) if ln.startswith("  ")]
    i = terms[line_index]
    word, _, coeff = lines[i].rstrip("\n").partition(" : ")
    lines[i] = f"{word} : {-RatQ.parse(coeff)}\n"
    return "".join(lines)


@pytest.mark.parametrize("line_index", [1, 6, -1])
@pytest.mark.parametrize("n, cap", [(3, 8), (4, 10)])
def test_audit_finds_a_damaged_coefficient(n, cap, line_index):
    text = complete(serre_relations(n), cap, n=n).to_text()
    damaged = _damage_coefficient(text, line_index)
    assert damaged != text
    rs = RewriteSystem.from_text(damaged)
    # the leads are intact, so the normal words still number the dimensions
    assert [rs.count_normal_words(d) for d in range(cap + 1)] == [
        pbw_dimension(n, d) for d in range(cap + 1)
    ]
    failures = audit_confluence(rs)
    assert failures
    assert failures == _two_normal_form_audit(RewriteSystem.from_text(damaged))


@pytest.mark.parametrize("n, count", [(3, 2), (4, 3)])
def test_audit_finds_the_overlaps_a_stopped_completion_left(n, count):
    # completion through 2n - 2 lacks the rank's longest lead; claiming one
    # degree more leaves that degree's overlaps unresolved
    text = complete(serre_relations(n), 2 * n - 2, n=n).to_text()
    rs = RewriteSystem.from_text(text.replace(f"cap={2 * n - 2}", f"cap={2 * n - 1}"))
    failures = audit_confluence(rs)
    assert len(failures) == count
    assert all(len(w) == 2 * n - 1 for w, _, _ in failures)
    assert failures == _two_normal_form_audit(rs)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_reduce_is_the_normal_form(data):
    # on completed systems and on the rule sets their completions passed
    # through, where leftmost reduction is not confluent
    rs = data.draw(st.sampled_from(_kernel_systems(data.draw(st.sampled_from([2, 3, 4])))))
    a = data.draw(_homogeneous(rs.n, max_degree=7))
    # b is -a half the time, so that the two sides cancel
    b = data.draw(st.one_of(_homogeneous(rs.n, letters=next(iter(a.terms))), st.just(-a)))
    p = a + b.scale(data.draw(_coeffs))
    # cleared to Laurent coefficients by one common denominator D
    D, ints = _clear(p.terms, 0)
    got = rs._reduce({w: tuple(sorted(c.items())) for w, c in ints.items()})
    got = _rebuild(D, {w: dict(t) for w, t in got.items()}, 0)
    assert got == rs.normal_form(p).terms == RatQNormalForms(rs).normal_form(p).terms


def test_reduce_refuses_mixed_lengths():
    rs = get_rewrite_system(2)
    assert rs._reduce({}) == {}
    with pytest.raises(ValueError, match="homogeneous"):
        rs._reduce({(2, 1, 1): R_ONE, (2, 1): R_ONE})


def test_audit_fills_no_normal_form_cache():
    rs = RewriteSystem.from_text(complete(serre_relations(4), 10, n=4).to_text())
    assert audit_confluence(rs) == []
    assert rs._nf_cache == {}


# ----------------------------------------------------------------------------
# Laurent coefficients: the engine's edges, the RatQ oracle, interning
# ----------------------------------------------------------------------------

def test_completion_refuses_a_lead_coefficient_that_does_not_divide():
    # f2 f1 = (v + 1/v)**-1 f1 f2 would be a rule with a true denominator
    v = RatQ.v_power(1)
    rel = NCPoly(2, {(2, 1): v + v.inverse(), (1, 2): -R_ONE})
    with pytest.raises(ValueError, match=r"rule \(2, 1\): .* does not divide"):
        complete([rel], 4)
    # a relation whose coefficient is not Laurent is refused by name
    rel = NCPoly(2, {(2, 1): R_ONE, (1, 2): V_MINUS_VINV.inverse()})
    with pytest.raises(ValueError, match=r"relation .* not a Laurent polynomial"):
        complete([rel], 4)


_ONE_RULE = "qshapo-rws-v1\nn=2 cap=3 rules=1\nLEAD 2,1\n  1,2 : {}\n"


def test_from_text_refuses_a_coefficient_with_a_true_denominator():
    rs = RewriteSystem.from_text(_ONE_RULE.format("q^2"))
    assert rs.normal_form(NCPoly(2, {(2, 1): R_ONE})) == NCPoly(2, {(1, 2): RatQ.q_power(2)})
    with pytest.raises(CacheCorrupt, match=r"rule \(2, 1\): .* not a Laurent polynomial"):
        RewriteSystem.from_text(_ONE_RULE.format("1/(q^4+1)"))


_laurent_ratqs = st.builds(
    lambda a, e: RatQ(tuple(a)) * RatQ.q_power(e),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
    st.integers(-4, 4),
)


def _scalars(kind, n):
    """Coefficients of one kind: Laurent RatQs, WeightScalars of a symbolic
    weight in n symbols ("y"), or formal ones in t = v**r ("t") as
    psi(formal=True) makes them, the last two with true denominators."""
    if kind == "laurent":
        return _laurent_ratqs
    if kind == "y":
        monomial = st.builds(
            lambda e, c: WeightScalar.monomial(n, e, c),
            st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple),
            st.one_of(_coeffs, _laurent_ratqs),
        )
        return st.lists(monomial, min_size=1, max_size=3).map(
            lambda ms: sum(ms[1:], ms[0])).filter(bool)
    return st.builds(
        lambda j, e, c: qbinom_formal(j) * WeightScalar.monomial(1, (e,), c, "t"),
        st.integers(0, 3), st.integers(-2, 2), st.one_of(_coeffs, _laurent_ratqs),
    )


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_normal_form_matches_the_ratq_oracle(data):
    from qshapo.uqsl import to_pbw

    n = data.draw(st.integers(2, 4))
    kind = data.draw(st.sampled_from(["laurent", "y", "t"]))
    letters = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6))
    words = data.draw(st.lists(st.permutations(letters).map(tuple), min_size=1, max_size=4))
    p = NCPoly(n, {w: data.draw(_scalars(kind, n)) for w in words})
    rs = get_rewrite_system(n)
    oracle = RatQNormalForms(rs)
    got, want = rs.normal_form(p), oracle.normal_form(p)
    assert got == want and str(got) == str(want)
    # to_pbw takes the same round trip through the kernel, and its solve
    # hands back the coordinates of the scalars' own kind
    got, want = to_pbw(p, rs), oracle.to_pbw(p)
    assert got == want
    assert [(M, str(c)) for M, c in got.items()] == [(M, str(c)) for M, c in want.items()]


def _cached_coefficients(rs):
    """Every Laurent tuple of the normal-form and PBW column caches."""
    kept = [t for nf in rs._nf_cache.values() for t in nf.values()]
    for cols in rs._pbw_cache.values():
        for col in cols.values():
            kept += col.values()
    return kept


def _interns_no_rule_coefficient(rs):
    return not any(rs._coeffs.get(t) is t for triples in rs._rhs.values() for _, t, _ in triples)


def test_interned_coefficients_are_shared_and_are_the_cached_ones():
    from qshapo.shapovalov import theta_power

    rs = complete(serre_relations(3), 5, n=3)
    theta_power(3, 2, (1, 0, -2), rs)
    kept = _cached_coefficients(rs)
    # one object for each value, and that object is the table's; the table
    # holds nothing else, and no rule's coefficient
    assert len({id(t) for t in kept}) == len(set(kept)) > 3
    assert all(rs._coeffs[t] is t for t in kept)
    assert set(rs._coeffs) == set(kept)
    assert _interns_no_rule_coefficient(rs)


def test_an_extension_keeps_the_caches_and_their_interning():
    from qshapo.shapovalov import theta_power, theta_sum, theta_vector
    from qshapo.verma import HighestWeight

    rs = complete(serre_relations(3), 5, n=3)
    hw = HighestWeight.numeric((1, 0, -3))
    theta_vector(theta_sum(3).evaluate(hw), hw, rs)  # the level-one columns
    before, columns = dict(rs._nf_cache), rs._pbw_cache[(1, 1, 1)]
    assert before
    # the product has degree 6, past the cap: it extends the system
    theta_power(3, 2, (1, 0, -2), rs)
    assert rs.cap == 6
    assert all(rs._nf_cache[w] is nf for w, nf in before.items())
    assert rs._pbw_cache[(1, 1, 1)] is columns
    kept = _cached_coefficients(rs)
    assert len(kept) > len([t for nf in before.values() for t in nf.values()])
    assert all(rs._coeffs[t] is t for t in kept)
    assert _interns_no_rule_coefficient(rs)

