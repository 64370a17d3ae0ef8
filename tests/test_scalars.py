"""Exact-arithmetic tests: canonical forms, field axioms, q-combinatorics."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshapo.scalars import (
    R_ONE,
    R_ZERO,
    RatQ,
    WeightScalar,
    _pcontent,
    _pgcd,
    _pmul,
    add_terms,
    qbinom,
    qbinom_formal,
    qint,
)

try:
    import sympy
except ImportError:  # sympy is only a test-time oracle
    sympy = None


def rand_ratq(rng):
    num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
    den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
    if not any(den):
        den = (1,)
    if not any(num):
        num = (1,)
    return RatQ(num, den)


def test_canonical_form_examples():
    # (q^2 - 1) / (q - 1) reduces to q + 1
    assert RatQ((-1, 0, 1), (-1, 1)) == RatQ((1, 1))
    # denominator sign is normalized to positive leading coefficient
    assert RatQ((1,), (-1, -1)) == RatQ((-1,), (1, 1))
    # common q powers cancel
    assert RatQ((0, 0, 3), (0, 6)) == RatQ((0, 1), (2,))


def test_ratq_string_round_trip():
    cases = [qint(2), qint(5), RatQ((0, 1), (1, 0, 1)), RatQ.from_int(-7), R_ZERO]
    for x in cases:
        assert RatQ.parse(str(x)) == x
    assert str(qint(2)) == "(q^4+1)/q^2"


def test_field_axioms_randomized():
    rng = random.Random(20240)
    for _ in range(60):
        a, b, c = (rand_ratq(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == R_ONE
        assert a + (-a) == R_ZERO


def test_qint_base_cases():
    assert qint(0) == R_ZERO
    assert qint(1) == R_ONE
    # [2]_v = v + 1/v = (q^4+1)/q^2, expanded by hand from the definition
    assert qint(2) == RatQ((1, 0, 0, 0, 1), (0, 0, 1))
    for r in range(-6, 7):
        assert qint(-r) == -qint(r)


def test_qint_pascal_style_identity():
    vmv = RatQ.v_power(1) - RatQ.v_power(-1)
    for a in range(-10, 11):
        for b in range(-10, 11):
            lhs = qint(a + b) * vmv
            rhs = RatQ.v_power(b) * (RatQ.v_power(a) - RatQ.v_power(-a)) + RatQ.v_power(
                -a
            ) * (RatQ.v_power(b) - RatQ.v_power(-b))
            assert lhs == rhs


def test_qbinom_values():
    assert qbinom(2, 1) == qint(2)
    assert qbinom(5, 0) == R_ONE
    assert qbinom(1, 2) == R_ZERO
    # symmetry
    for n in range(0, 13):
        for i in range(0, n + 1):
            assert qbinom(n, i) == qbinom(n, n - i)


def test_qbinom_recurrence_identity():
    # v^{-i(l-1-i)} C(l-1,i) + v^{-(i+1)(l-i)} C(l-1,i-1) = v^{-i(l-i)} C(l,i)
    for ell in range(2, 13):
        for i in range(1, ell):
            lhs = RatQ.v_power(-i * (ell - 1 - i)) * qbinom(ell - 1, i) + RatQ.v_power(
                -(i + 1) * (ell - i)
            ) * qbinom(ell - 1, i - 1)
            rhs = RatQ.v_power(-i * (ell - i)) * qbinom(ell, i)
            assert lhs == rhs


def test_qbinom_formal_base_cases():
    one = qbinom_formal(0)
    assert one == WeightScalar.one(1, "t")
    vmv = RatQ.v_power(1) - RatQ.v_power(-1)
    expect = WeightScalar(1, {(1,): R_ONE / vmv, (-1,): -(R_ONE / vmv)}, "t")
    assert qbinom_formal(1) == expect
    # specialization t -> v^3 recovers [3]_v
    assert qbinom_formal(1).eval((6,)) == qint(3)


def test_qbinom_formal_specializes():
    for i in range(0, 6):
        f = qbinom_formal(i)
        for n in range(-8, 9):
            assert f.eval((2 * n,)) == qbinom(n, i)


def test_ws_eval_cases():
    n = 3
    y1 = WeightScalar.monomial(n, (1, 0, 0))
    assert y1.eval((3, 0, 0)) == RatQ.q_power(3)
    s = WeightScalar.monomial(2, (2, -2))
    assert s.eval((1, 1)) == R_ONE
    # ((y1^2 - y1^-2)/(q^2-q^-2)) at y1 = q^2 equals [2]_v
    vmv = RatQ.v_power(1) - RatQ.v_power(-1)
    s = WeightScalar(1, {(2,): R_ONE / vmv, (-2,): -(R_ONE / vmv)})
    assert s.eval((2,)) == qint(2)


def test_ws_ring_ops_distribute_under_eval():
    rng = random.Random(7)
    for _ in range(25):
        n = 2
        a = WeightScalar(
            n,
            {
                (rng.randint(-2, 2), rng.randint(-2, 2)): rand_ratq(rng)
                for _ in range(3)
            },
        )
        b = WeightScalar(
            n,
            {
                (rng.randint(-2, 2), rng.randint(-2, 2)): rand_ratq(rng)
                for _ in range(3)
            },
        )
        pt = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)


def test_ratq_differential_against_fraction_oracle():
    # evaluate both sides of random arithmetic at integer points of q and
    # compare with exact Fraction arithmetic; q0 avoids denominator roots
    from fractions import Fraction

    def ev(x, q0):
        num, den = x.dense()
        num = sum(c * q0**k for k, c in enumerate(num))
        den = sum(c * q0**k for k, c in enumerate(den))
        return Fraction(num, den)

    rng = random.Random(777)
    for _ in range(80):
        a, b = rand_ratq(rng), rand_ratq(rng)
        ops = [
            (a + b, lambda x, y: x + y),
            (a - b, lambda x, y: x - y),
            (a * b, lambda x, y: x * y),
        ]
        if not b.is_zero():
            ops.append((a / b, lambda x, y: x / y))
        for q0 in (2, 3, 5, -2):
            try:
                ea, eb = ev(a, q0), ev(b, q0)
                for got, op in ops:
                    if ev(b, q0) == 0 and op is ops[-1][1]:
                        continue
                    assert ev(got, q0) == op(ea, eb)
            except ZeroDivisionError:
                continue  # q0 happens to be a root of a denominator


def test_hyperplane_substitution():
    # with n = 2 and m = 1 the constraint reads y1*y2 = q^{-1}
    s = WeightScalar.monomial(2, (0, 1))
    t = s.substitute_hyperplane(1)
    assert t == WeightScalar(2, {(-1, 0): RatQ.q_power(-1)})
    # a scalar supported on the hyperplane ideal collapses to zero
    prod = WeightScalar.monomial(2, (1, 1)) - WeightScalar.const(2, RatQ.q_power(-1))
    assert prod.substitute_hyperplane(1).is_zero()


# ----------------------------------------------------------------------------
# Property tests for the sparse kernel
# ----------------------------------------------------------------------------

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _dense_pmul(a, b):
    """Schoolbook product over every coefficient pair, zeros included."""
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return _trim(c)


def _from_support(support):
    """Polynomial with the given {degree: coefficient} support."""
    if not support:
        return ()
    c = [0] * (max(support) + 1)
    for k, x in support.items():
        c[k] = x
    return _trim(c)


_nonzero = st.integers(-40, 40).filter(bool)
_dense_polys = st.lists(st.integers(-40, 40), max_size=10).map(_trim)
# shaped like the coefficients of the level-m solves: a few nonzero
# coefficients on even degrees (powers of v = q**2), up to 140 long
_vpower_polys = st.dictionaries(
    st.integers(0, 70).map(lambda k: 2 * k), _nonzero, max_size=6
).map(_from_support)
_polys = st.one_of(_dense_polys, _vpower_polys)
_nonzero_polys = _polys.filter(bool)
# short dense or monomial denominators keep the gcds of a - b cheap
_monomials = st.builds(lambda k, c: (0,) * k + (c,), st.integers(0, 70), _nonzero)
_ratqs = st.builds(RatQ, _polys, st.one_of(_dense_polys.filter(bool), _monomials))


# few keys and a few small coefficients, so that sums collide and cancel
_keys = st.tuples(st.integers(0, 3), st.integers(0, 2))
_small_ratqs = st.builds(
    RatQ,
    st.lists(st.integers(-3, 3), max_size=3).map(_trim),
    st.sampled_from([(1,), (0, 0, 1), (1, 0, 1)]),
)


@settings(deadline=None)
@given(
    st.dictionaries(_keys, _small_ratqs.filter(bool), max_size=6),
    st.lists(st.tuples(_keys, st.one_of(st.just(R_ZERO), _small_ratqs)), max_size=12),
    st.data(),
)
def test_add_terms_matches_naive_oracle(start, pairs, data):
    # force cancellations: add back the negation of a drawn subset of the
    # starting terms and of the pairs, in a drawn order
    undo = list(start.items()) + pairs
    chosen = data.draw(st.lists(st.booleans(), min_size=len(undo), max_size=len(undo)))
    pairs = data.draw(
        st.permutations(pairs + [(k, -c) for (k, c), neg in zip(undo, chosen) if neg])
    )
    acc = dict(start)
    got = add_terms(acc, pairs)
    assert got is acc
    sums = {}
    for k, c in list(start.items()) + pairs:
        sums[k] = sums.get(k, R_ZERO) + c
    assert got == {k: c for k, c in sums.items() if c}
    assert all(got.values())


@settings(deadline=None)
@given(_polys, _polys)
def test_pmul_matches_dense_oracle(a, b):
    assert _pmul(a, b) == _dense_pmul(a, b)


@settings(deadline=None)
@given(_ratqs, _ratqs)
def test_sub_is_add_of_negation(a, b):
    assert a - b == a + (-b)
    assert b - a == -(a - b)
    assert a - 3 == a + RatQ.from_int(-3)
    assert 3 - a == RatQ.from_int(3) + (-a)


@settings(deadline=None)
@given(_polys, _monomials)
def test_monomial_denominator_canonical_form(num, den):
    # without a polynomial gcd, num / (c*q**k) must still come out coprime
    # and content-free, with a positive leading denominator coefficient
    x = RatQ(num, den)
    if x.num:
        assert x.den[-1] > 0
        assert _pgcd(x.num, x.den) == (1,)
        assert gcd(_pcontent(x.num), _pcontent(x.den)) == 1
    assert x * RatQ(den) == RatQ(num)


@pytest.mark.skipif(sympy is None, reason="sympy oracle not installed")
@settings(max_examples=60, deadline=None)
@given(
    _polys,
    st.one_of(st.just((1,)), _nonzero_polys.filter(lambda p: len(p) < 40)),
    st.integers(-6, 6).filter(bool),
    st.integers(0, 30),
)
def test_monomial_denominator_against_sympy(num, extra, c, k):
    # a monomial denominator, possibly times a factor sharing roots with num
    den = _pmul((0,) * k + (c,), extra)
    x = RatQ(num, den)
    assert x.dense() == _sympy_canonical(_expr(num), _expr(den))


def _expr(p):
    """The polynomial with ascending coefficients p as a sympy expression."""
    q = sympy.Symbol("q")
    return sum(int(x) * q**i for i, x in enumerate(p))


def _sympy_canonical(num, den):
    """Dense canonical (num, den) of the sympy polynomials num/den."""
    q = sympy.Symbol("q")

    def coeffs(p):
        return _trim(int(t) for t in reversed(p.all_coeffs()))

    # cancel gives num/den = r * p/d with r rational; the canonical pair is
    # r.p*p over r.q*d without integer content, with positive leading den
    r, p, d = sympy.Poly(num, q).cancel(sympy.Poly(den, q))
    r = sympy.Rational(r)
    p, d = coeffs(p * r.p), coeffs(d * r.q)
    if not p:
        return (), (1,)
    g = gcd(*p, *d) * (1 if d[-1] > 0 else -1)
    return tuple(t // g for t in p), tuple(t // g for t in d)


# ----------------------------------------------------------------------------
# Field laws and the canonical triple
# ----------------------------------------------------------------------------

# the factors of the denominators the library meets: q, q**4 - 1 (from
# 1/(v - v**-1)) and q**2 + 1; drawn powers of them times a small random
# polynomial give denominators that share factors, so sums take the Henrici
# path (gcd of the denominators, then only gcd(numerator, g)) and products
# cancel across (gcd(a, d) and gcd(c, b))
_FACTORS = ((0, 1), (-1, 0, 0, 0, 1), (1, 0, 1))


def _factored(powers, rest):
    p = rest
    for f, e in zip(_FACTORS, powers):
        for _ in range(e):
            p = _pmul(p, f)
    return p


_small_nonzero = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(_trim).filter(bool)
_shared = st.builds(_factored, st.tuples(*[st.integers(0, 2)] * 3), _small_nonzero)
_field_ratqs = st.builds(RatQ, st.one_of(st.just(()), _small_nonzero, _shared), _shared)


def _assert_canonical(x):
    val, num, den = x.val, x.num, x.den
    if not num:
        assert (val, num, den) == (0, (), (1,))
        return
    assert num[0] and num[-1] and den[0] and den[-1] > 0
    assert _pgcd(num, den) == (1,)
    assert gcd(_pcontent(num), _pcontent(den)) == 1


def _results(a, b):
    # (a + b) - b and (a * b) / b cancel a factor of the denominator that
    # the first operation brought in
    out = [a, -a, a + b, a - b, b - a, (a + b) - b, a * b, a * 3, 2 - a]
    if b:
        out += [a / b, (a * b) / b, b.inverse()]
    return out


@settings(max_examples=60, deadline=None)
@given(_field_ratqs, _field_ratqs, _field_ratqs)
def test_ratq_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == R_ZERO
    if a:
        assert a * a.inverse() == R_ONE
        assert (b / a) * a == b


@settings(max_examples=80, deadline=None)
@given(_field_ratqs, _field_ratqs)
def test_ratq_results_are_canonical(a, b):
    for x in _results(a, b):
        _assert_canonical(x)
        assert RatQ(*x.dense()) == x


@settings(max_examples=80, deadline=None)
@given(_field_ratqs, _field_ratqs)
def test_ratq_parse_round_trip(a, b):
    for x in _results(a, b):
        assert RatQ.parse(str(x)) == x


@pytest.mark.skipif(sympy is None, reason="sympy oracle not installed")
@settings(max_examples=60, deadline=None)
@given(_field_ratqs, _field_ratqs)
def test_ratq_against_sympy(a, c):
    # with b = c - a, the sum a + b must cancel the factors of a's
    # denominator that b brought in
    b = c - a
    (an, ad), (bn, bd), (cn, cd) = (x.dense() for x in (a, b, c))
    an, ad, bn, bd, cn, cd = map(_expr, (an, ad, bn, bd, cn, cd))
    assert b.dense() == _sympy_canonical(cn * ad - an * cd, cd * ad)
    assert (a + b).dense() == _sympy_canonical(an * bd + bn * ad, ad * bd)
    assert (a * b).dense() == _sympy_canonical(an * bn, ad * bd)
    if b:
        assert (a / b).dense() == _sympy_canonical(an * bd, ad * bn)
