"""Exact-arithmetic tests: canonical forms, field axioms, q-combinatorics."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshapo import scalars
from qshapo.scalars import (
    _HALF,
    _MASK,
    R_ONE,
    R_ZERO,
    RatQ,
    WeightScalar,
    _clear,
    _pcancel,
    _pcontent,
    _pdiv,
    _pgcd,
    _pmul,
    _pseudo_rem,
    _unpack,
    add_terms,
    common_denominator,
    qbinom,
    qbinom_formal,
    qint,
)

from ratq_oracles import ratq_str, weight_scalar_str

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


def _fraction_rem(a, b):
    """The remainder of a by b over Q, by long division in Fractions."""
    r = [Fraction(x) for x in a]
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        for j, y in enumerate(b):
            r[len(r) - len(b) + j] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return r


@settings(deadline=None)
@given(_polys, _polys, st.sampled_from([1, -1, 2, -6]))
@example((0, 0, 0, 0, 0, 1), (-1, 0, 0, 0), -1)
def test_pseudo_rem_is_an_integer_multiple_of_the_remainder(a, low, lead):
    # s*a - Q*b for an integer s != 0 is s times the remainder over Q; a
    # divisor led by +-1 never rescales, so s is then 1
    b = low + (lead,)
    r, exact = _pseudo_rem(a, b), _fraction_rem(a, b)
    assert len(r) == len(exact)
    if exact:
        s = r[-1] / exact[-1]
        assert s.denominator == 1 and list(r) == [s * x for x in exact]
        assert s == 1 or abs(b[-1]) != 1


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


# ----------------------------------------------------------------------------
# Common denominators: clear, compute in Laurent arithmetic, restore
# ----------------------------------------------------------------------------

Q4M1 = (-1, 0, 0, 0, 1)  # q**4 - 1, the denominator 1/(v - 1/v) brings in
COPRIME = (1, 1, 0, 1)  # 1 + q + q**3, coprime to q**4 - 1


def _ppow(a, j):
    out = (1,)
    for _ in range(j):
        out = _pmul(out, a)
    return out


def _split(key, n):
    """(e, k) of the kernel key of q**k * y**e in n symbols."""
    k = ((key + _HALF) & _MASK) - _HALF
    return _unpack(key - k, n), k


def _read_back(ints, n, D):
    """The value of {key: int} from _clear in n symbols, times 1/D, as a
    WeightScalar in n symbols."""
    out = WeightScalar.zero(n)
    for key, a in ints.items():
        e, k = _split(key, n)
        out = out + WeightScalar.monomial(n, e, RatQ.q_power(k) * a)
    return out * RatQ(1, D)


def _assert_clears(coeffs, D, n=2):
    """_clear of coeffs gives D, a multiple of every denominator; each
    cleared value is a dict of nonzero integers, a zero value is left out,
    and multiplying each back by 1/D gives the value."""
    got, ints = _clear(dict(enumerate(coeffs)), n)
    assert got == D
    assert set(ints) == {i for i, c in enumerate(coeffs) if c}
    for i, c in enumerate(coeffs):
        xs = c.terms.values() if isinstance(c, WeightScalar) else [c]
        assert all(_pdiv(D, x.den) is not None for x in xs)
        if c:
            assert all(type(a) is int and a for a in ints[i].values())
            assert _read_back(ints[i], n, D) == (
                c if isinstance(c, WeightScalar) else WeightScalar.const(n, c)
            )
    return ints


def test_common_denominator_of_nothing_or_laurent_values_is_one():
    assert common_denominator([]) == (1,)
    assert _clear({}, 2) == ((1,), {})
    laurent = [R_ONE, RatQ.q_power(-3), RatQ((2, 0, -1)), -RatQ.v_power(5)]
    assert common_denominator(laurent) == (1,)
    _assert_clears(laurent, (1,))


def test_common_denominator_of_a_divisibility_chain_runs_no_gcd(monkeypatch):
    # q**k / (q**4 - 1)**j, the shape of the h_i products at a symbolic weight
    coeffs = [RatQ((0,) * k + (1,), _ppow(Q4M1, j))
              for k, j in [(1, 2), (0, 1), (3, 4), (2, 3), (0, 4), (5, 0)]]

    def no_gcd(*args):
        raise AssertionError("gcd run on a divisibility chain")

    import qshapo.scalars as scalars

    monkeypatch.setattr(scalars, "_pgcd", no_gcd)
    monkeypatch.setattr(scalars, "_pcancel", no_gcd)
    D = common_denominator(coeffs)
    assert D == _ppow(Q4M1, 4)
    got, ints = _clear(dict(enumerate(coeffs)), 1)
    monkeypatch.undo()
    assert got == D and len(ints) == len(coeffs)
    _assert_clears(coeffs, D)


def test_common_denominator_of_a_coprime_pair_is_their_product():
    coeffs = [RatQ((1,), Q4M1), RatQ((0, 3), COPRIME), RatQ((2, 1), _pmul(Q4M1, Q4M1))]
    D = common_denominator(coeffs)
    assert D == _pmul(_pmul(Q4M1, Q4M1), COPRIME)
    _assert_clears(coeffs, D)


def test_common_denominator_skips_zero_coefficients():
    coeffs = [R_ZERO, RatQ((1,), Q4M1), R_ZERO]
    D = common_denominator(coeffs)
    assert D == Q4M1
    assert _clear({"zero": R_ZERO}, 2) == ((1,), {})
    assert set(_assert_clears(coeffs, D)) == {1}


def test_common_denominator_of_weight_scalars():
    a = WeightScalar(2, {(1, 0): RatQ((1,), Q4M1), (0, -2): RatQ.q_power(3)})
    b = WeightScalar(2, {(0, 0): RatQ((0, 0, 1), _pmul(Q4M1, COPRIME))})
    coeffs = [a, RatQ((1,), _pmul(Q4M1, Q4M1)), b, WeightScalar.zero(2)]
    D = common_denominator(coeffs)
    assert D == _pmul(_pmul(Q4M1, Q4M1), COPRIME)
    ints = _assert_clears(coeffs, D)
    assert {_split(key, 2)[0] for key in ints[0]} == set(a.terms)
    # a RatQ packs under the key of the zero y-exponent
    assert {_split(key, 2)[0] for key in ints[1]} == {(0, 0)}
    with pytest.raises(ValueError, match="symbol-count"):
        _clear({0: a}, 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(_field_ratqs, max_size=5))
def test_clear_and_restore_round_trip(coeffs):
    D = common_denominator(coeffs)
    _assert_clears(coeffs, D)
    # the result of a linear map on the cleared values, restored, is the
    # map on the originals
    _, ints = _clear(dict(enumerate(coeffs)), 1)
    total: dict = {}
    for c in ints.values():
        for key, a in c.items():
            total[key] = total.get(key, 0) + a
    assert _read_back(total, 1, D) == WeightScalar.const(1, sum(coeffs, R_ZERO))


# ----------------------------------------------------------------------------
# Cancellation against sympy, on the denominators the library meets
# ----------------------------------------------------------------------------

def _qint_factor(k):
    """(q**(4k) - 1)/(q**4 - 1) = 1 + q**4 + ... + q**(4k - 4)."""
    return tuple(0 if i % 4 else 1 for i in range(4 * k - 3))


# the denominators the library's arithmetic meets: q**4 - 1 from
# 1/(v - v**-1), and the quantum-integer factors of qint(k), k <= 11
_met_denominators = st.one_of(st.just(Q4M1), st.integers(2, 11).map(_qint_factor))


@pytest.mark.skipif(sympy is None, reason="sympy oracle not installed")
@settings(max_examples=80, deadline=None)
@given(_met_denominators, _small_nonzero, _small_nonzero, st.booleans())
@example(Q4M1, COPRIME, (1,), False)
@example(_qint_factor(3), (1, 1), (1, 0, 1), True)
def test_pcancel_against_sympy(d, a, b, planted):
    # a planted common factor d, or b a multiple of d beside an unrelated
    # a, which makes a coprime pair nearly always
    a, b = (_pmul(a, d), _pmul(b, d)) if planted else (a, _pmul(b, d))
    x, y = _pcancel(a, b)
    # a = x * g and b = y * g for one primitive g of positive leading
    # coefficient, of the degree of the gcd
    g = _pdiv(a, x)
    assert g is not None and _pmul(y, g) == b
    assert g[-1] > 0 and _pcontent(g) == 1
    assert len(g) - 1 == sympy.degree(sympy.gcd(_expr(a), _expr(b)), sympy.Symbol("q"))
    # and x/y is sympy's cancelled a/b
    c = gcd(_pcontent(x), _pcontent(y)) * (1 if y[-1] > 0 else -1)
    assert (tuple(t // c for t in x), tuple(t // c for t in y)) == _sympy_canonical(
        _expr(a), _expr(b)
    )


def test_pcancel_of_a_long_numerator_runs_in_linear_time():
    # h_1 at (lam + rho, sigma_1) = L summed term by term: each RatQ sum
    # cancels a numerator spanning up to 4L powers of q against q**4 - 1
    from qshapo.uqsl import h_cartan
    from qshapo.verma import HighestWeight, cartan_eval

    from ratq_oracles import cartan_eval_sum

    h1, hw = h_cartan(1, 2), HighestWeight.numeric((65536, 0))
    assert cartan_eval_sum(h1, hw) == cartan_eval(h1, hw)


# ----------------------------------------------------------------------------
# Rendering against the unmemoised oracle
# ----------------------------------------------------------------------------

# q**k times a field value, so val falls below, at and above 0, with Laurent
# values (den == 1) and zero among them
_rendered_ratqs = st.builds(
    lambda x, k: x * RatQ.q_power(k),
    st.one_of(_field_ratqs, st.builds(RatQ, _small_nonzero), st.just(R_ZERO)),
    st.integers(-4, 4),
)


@settings(max_examples=120, deadline=None)
@given(_rendered_ratqs)
def test_ratq_str_matches_the_oracle(x):
    # the second rendering reads the memo
    assert str(x) == ratq_str(x) == str(x)
    assert RatQ.parse(str(x)) == x


@st.composite
def _weight_scalars(draw, n, prefix):
    exps = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    terms = draw(st.dictionaries(exps, _rendered_ratqs, max_size=4))
    return WeightScalar(n, terms, prefix)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_weight_scalars(1, "t"), _weight_scalars(7, "y")))
def test_weight_scalar_str_matches_the_oracle(ws):
    assert str(ws) == weight_scalar_str(ws) == str(ws)


def test_ratq_string_memo_stays_within_its_bound():
    bound = scalars._ratq_str.cache_info().maxsize
    values = [RatQ((k, 1), (1, 0, 0, 0, 1)) for k in range(1, bound + 101)]
    for x in values:
        assert str(x) == ratq_str(x)
    assert 0 < scalars._ratq_str.cache_info().currsize <= bound
    scalars._ratq_str.cache_clear()
    assert scalars._ratq_str.cache_info().currsize == 0
    assert str(values[0]) == ratq_str(values[0])
