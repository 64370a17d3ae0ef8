"""Exact scalar arithmetic over the rational function field k = Q(q), and the
integer kernel that the rewriting engine and the Verma maps compute on.

Two scalar types live here:

* ``RatQ`` -- a rational function in the deformation parameter q, stored
  as q**val * num/den with integer polynomials num and den whose constant
  terms are nonzero, in a canonical reduced form so that equality is a
  plain data comparison.  The power of q is kept out of the coefficient
  tuples, so a Laurent polynomial has den == (1,) and adds and multiplies
  with no gcd at all.  True denominators go through Henrici's gcd
  splitting, which only looks for the factors that can actually cancel.
  RatQ is the type of the paper's formulas, which divide (quantum
  integers over v - 1/v), and of every coefficient the package hands out.
  The square v = q**2 is used pervasively by the representation-theoretic
  formulas, so helpers for v-powers, quantum integers [r]_v and Gaussian
  binomial coefficients are provided alongside.

* ``WeightScalar`` -- a multivariate Laurent polynomial in formal symbols
  y_1..y_n with RatQ coefficients.  The symbol y_i stands for q raised to the
  pairing of an indeterminate highest weight with the i-th simple root, so a
  WeightScalar is a scalar-valued function of a symbolic weight; substituting
  integers a_i via y_i -> q**a_i recovers a RatQ.  With prefix "k" the same
  type holds Cartan elements: the exponent vector gamma stands for k_gamma.

Below both types sits the integer kernel (the last section of this module).
Every rewrite-rule coefficient, every normal form and every PBW column is a
Laurent polynomial in q, which the kernel keeps as a tuple of (q-exponent,
int) pairs.  The boundary is two functions.  ``_clear`` is the way in: it
clears scalars of any kind at once, by a common multiple D of their
denominators (``common_denominator``; the (q**4 - 1)**j that 1/(v - v**-1)
brings into a symbolic-weight computation), into integers keyed by their
packed y- and q-exponents.  Linear maps then run on exact integers with no
gcd.  ``_rebuild`` is the way out: it divides a result by D once and hands
it out as RatQ or WeightScalar values.  ``_through_kernel`` is the round
trip of ``normal_form``, ``to_pbw`` and ``from_pbw``.  So every public map
that computes in the kernel refuses, with ValueError, a q-exponent of size
2**28 or more (``_LIMIT``) and a result whose numerator spans more than
2**20 powers of q (``_MAX_SPAN``).

Everything is immutable after construction and all operations are pure.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as _igcd

# ----------------------------------------------------------------------------
# Sparse sums: every dict-of-coefficients type in the package adds through here
# ----------------------------------------------------------------------------

def add_terms(acc: dict, pairs) -> dict:
    """Add (key, coeff) pairs into acc in place and return it.  A key whose
    sum is zero is dropped, and a zero coefficient is never stored."""
    for k, c in pairs:
        prev = acc.get(k)
        if prev is not None:
            c = prev + c
        if c:
            acc[k] = c
        elif prev is not None:
            del acc[k]
    return acc


# ----------------------------------------------------------------------------
# Integer polynomials in q, represented as tuples of coefficients in
# ascending degree with no trailing zeros.  () is the zero polynomial.
# ----------------------------------------------------------------------------

P_ZERO: tuple[int, ...] = ()
P_ONE: tuple[int, ...] = (1,)


def _ptrim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b, k=0, s=1):
    """a + s * q**k * b for k >= 0 and s = 1 or -1."""
    c = list(a)
    n = k + len(b)
    if len(c) < n:
        c += [0] * (n - len(c))
    if s > 0:
        for i, x in enumerate(b, k):
            c[i] += x
    else:
        for i, x in enumerate(b, k):
            c[i] -= x
    return _ptrim(c)


def _pneg(a):
    return tuple([-x for x in a])


def _pmul(a, b):
    if not a or not b:
        return P_ZERO
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        s = a[0]
        if s == 1:
            return b
        if s == -1:
            return _pneg(b)
        return tuple(s * x for x in b)
    # Operands are mostly-zero tuples of v = q**2 powers, so the inner loop
    # runs over the nonzero coefficients of b only.
    nzb = [(j, y) for j, y in enumerate(b) if y]
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nzb:
                c[i + j] += x * y
    return _ptrim(c)


def _pcontent(a, g=0) -> int:
    """gcd of g and the coefficients of a."""
    for x in a:
        g = _igcd(g, x)
        if g == 1:
            return 1
    return g


def _pdiv(a, b):
    """a/b in Z[q], or None when b does not divide a there."""
    if not a:
        return P_ZERO
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return None
    lead = b[-1]
    r = list(a)
    out = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        top = r[db + k]
        if top == 0:
            continue
        if top % lead:
            return None
        c = top // lead
        out[k] = c
        for j, bc in enumerate(b):
            r[k + j] -= c * bc
    if any(r):
        return None
    return _ptrim(out)


def _pseudo_rem(a, b):
    """A pseudo-remainder of a by b for the primitive PRS gcd: s*a - Q*b of
    degree below b's, for a nonzero integer s, so it has the primitive part
    of prem(a, b) up to sign.  A step rescales the remainder only when b's
    leading coefficient does not divide its top coefficient, so a b led by
    +-1 costs len(b) per step, not len(a)."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            return tuple(r)
        top = r[-1]
        g = _igcd(top, lead) if lead > 0 else -_igcd(top, lead)
        if g != lead:
            s = lead // g
            r = [s * c for c in r]
        c = top // g
        k = len(r) - 1 - db
        for j, bc in enumerate(b):
            r[k + j] -= c * bc


def _pprimitive(a):
    if not a:
        return a
    c = _pcontent(a)
    if a[-1] < 0:
        c = -c
    if c == 1:
        return a
    return tuple(x // c for x in a)


def _pgcd(a, b):
    """Primitive gcd in Z[q] with positive leading coefficient."""
    if not a:
        return _pprimitive(b)
    if not b:
        return _pprimitive(a)
    x, y = _pprimitive(a), _pprimitive(b)
    if len(x) < len(y):
        x, y = y, x
    while y:
        r = _pseudo_rem(x, y)
        x, y = y, _pprimitive(r)
    return x


def _pcancel(a, b):
    """a/g and b/g for the primitive gcd g of nonzero a and b, computed by
    _pgcd whenever both are non-constant.  A constant is coprime to every
    polynomial, so g is then 1 and no gcd runs."""
    if len(a) == 1 or len(b) == 1:
        return a, b
    g = _pgcd(a, b)
    if g == P_ONE:
        return a, b
    return _pdiv(a, g), _pdiv(b, g)


def _pstr(a) -> str:
    """Render in descending degree, e.g. (1, 0, -2, 3) -> "3q^3-2q^2+1"."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "q" if mag == 1 else f"{mag}q"
        else:
            body = f"q^{k}" if mag == 1 else f"{mag}q^{k}"
        parts.append(sign + body)
    return "".join(parts)


def _pparse(s: str) -> tuple[int, ...]:
    """Inverse of _pstr, used when loading cached rewrite systems."""
    s = s.strip().replace(" ", "")
    if s in ("0", ""):
        return P_ZERO
    if s[0] not in "+-":
        s = "+" + s
    coeffs: dict[int, int] = {}
    i = 0
    while i < len(s):
        sign = -1 if s[i] == "-" else 1
        i += 1
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        term = s[i:j]
        i = j
        if "q" in term:
            cs, _, es = term.partition("q")
            c = int(cs) if cs else 1
            k = int(es[1:]) if es.startswith("^") else (1 if es == "" else int(es))
        else:
            c, k = int(term), 0
        coeffs[k] = coeffs.get(k, 0) + sign * c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return _ptrim(out)


# ----------------------------------------------------------------------------
# RatQ
# ----------------------------------------------------------------------------

class RatQ:
    """A rational function in q over the integers, in canonical form.

    The value is q**val * num(q)/den(q), stored as the triple
    ``(val, num, den)`` of an integer and two integer polynomials:

    * num and den have nonzero constant terms and are coprime;
    * den has a positive leading coefficient, and the integer contents of
      num and den are coprime;
    * zero is ``(0, (), (1,))``.

    So the power of q never sits in the coefficient tuples, and a Laurent
    polynomial in q has ``den == (1,)``.  Two RatQ values are equal exactly
    when their stored data agree.  ``dense()`` gives the value as one
    numerator and one denominator polynomial, the power of q folded in.
    """

    __slots__ = ("val", "num", "den")

    def __init__(self, num, den=P_ONE):
        """num/den from integers or ascending coefficient sequences."""
        if isinstance(num, int):
            num = (num,) if num else P_ZERO
        if isinstance(den, int):
            den = (den,) if den else P_ZERO
        num = _ptrim(list(num))
        den = _ptrim(list(den))
        if not den:
            raise ZeroDivisionError("RatQ with zero denominator")
        val = 0
        if num:
            i = j = 0
            while not num[i]:
                i += 1
            while not den[j]:
                j += 1
            val = i - j
            num, den = _pcancel(num[i:], den[j:])
        else:
            den = P_ONE
        x = _unit_normal(val, num, den)
        self.val, self.num, self.den = x.val, x.num, x.den

    @classmethod
    def from_int(cls, n: int) -> "RatQ":
        return _raw(0, (n,), P_ONE) if n else R_ZERO

    @classmethod
    def q_power(cls, k: int) -> "RatQ":
        """q**k for any integer k."""
        return _raw(k, P_ONE, P_ONE)

    @classmethod
    def v_power(cls, k: int) -> "RatQ":
        """v**k with v = q**2."""
        return _raw(2 * k, P_ONE, P_ONE)

    def dense(self):
        """(numerator, denominator) as coprime polynomials in q."""
        v = self.val
        if v > 0:
            return (0,) * v + self.num, self.den
        if v < 0:
            return self.num, (0,) * -v + self.den
        return self.num, self.den

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RatQ):
            return other
        if isinstance(other, int):
            return RatQ.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(o, self, -1)

    def __neg__(self):
        return _raw(self.val, _pneg(self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self, o.inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(o, self.inverse())

    def inverse(self) -> "RatQ":
        if not self.num:
            raise ZeroDivisionError("inverse of zero RatQ")
        if self.num[-1] < 0:
            return _raw(-self.val, _pneg(self.den), _pneg(self.num))
        return _raw(-self.val, self.den, self.num)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = R_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, RatQ):
            return self.val == other.val and self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return (
                self.val == 0 and self.den == P_ONE and self.num == ((other,) if other else P_ZERO)
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.num, self.den))

    def __str__(self):
        return _ratq_str(self.val, self.num, self.den)

    def __repr__(self):
        return f"RatQ({self})"

    @classmethod
    def parse(cls, s: str) -> "RatQ":
        s = s.strip()
        if "/" in s:
            ns, _, ds = s.partition("/")
            return cls(_pparse(ns.strip("()")), _pparse(ds.strip("()")))
        return cls(_pparse(s.strip("()")), P_ONE)


@lru_cache(maxsize=4096)
def _ratq_str(val, num, den) -> str:
    """The string of the RatQ (val, num, den), memoised: output repeats a
    few values, often over one long denominator."""
    num, den = _raw(val, num, den).dense()
    ns = _pstr(num)
    if den == P_ONE:
        return ns
    if len([c for c in num if c]) > 1:
        ns = f"({ns})"
    ds = _pstr(den)
    if len([c for c in den if c]) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


_new = object.__new__


def _raw(val, num, den) -> RatQ:
    """The RatQ with the given triple, which must already be canonical."""
    x = _new(RatQ)
    x.val, x.num, x.den = val, num, den
    return x


def _unit_normal(val, num, den) -> RatQ:
    """q**val * num/den for coprime num and den with nonzero constant terms:
    divide out the common integer content and make den's leading
    coefficient positive."""
    if den != P_ONE:
        g = _pcontent(num, _pcontent(den))
        if den[-1] < 0:
            g = -g
        if g != 1:
            num = tuple(x // g for x in num)
            den = tuple(x // g for x in den)
    return _raw(val, num, den)


def _sum(x: RatQ, y: RatQ, s: int) -> RatQ:
    """x + s*y for s = 1 or -1.

    Laurent polynomials add coefficientwise, aligned on their powers of q,
    and low zeros of the sum move into val.  Otherwise this is Henrici's
    sum: with g = gcd(b, d), a/b + c/d has numerator a*(d/g) + c*(b/g) over
    (b/g)*(d/g)*g, and only gcd(numerator, g) can cancel.  When one
    denominator divides the other, it is g, and no gcd is run for it."""
    if not y.num:
        return x
    if not x.num:
        return y if s > 0 else -y
    b, d = x.den, y.den
    if b == d:
        g, a, c, bd = b, x.num, y.num, P_ONE
    else:
        if len(b) == 1 or len(d) == 1:
            g = P_ONE
        elif (dg := _pdiv(d, b)) is not None:
            g, b, d = b, P_ONE, dg
        elif (bg := _pdiv(b, d)) is not None:
            g, b, d = d, bg, P_ONE
        else:
            g = _pgcd(b, d)
            if g != P_ONE:
                b, d = _pdiv(b, g), _pdiv(d, g)
        a, c, bd = _pmul(x.num, d), _pmul(y.num, b), _pmul(b, d)
    k = y.val - x.val
    if k >= 0:
        val, t = x.val, _padd(a, c, k, s)
    elif s > 0:
        val, t = y.val, _padd(c, a, -k)
    else:
        val, t = y.val, _padd(_pneg(c), a, -k)
    if not t:
        return R_ZERO
    if not t[0]:
        i = 1
        while not t[i]:
            i += 1
        val, t = val + i, t[i:]
    if g != P_ONE:
        t, g = _pcancel(t, g)
        bd = _pmul(bd, g)
    return _unit_normal(val, t, bd)


def _product(x: RatQ, y: RatQ) -> RatQ:
    """x*y.  Laurent polynomials multiply their numerators and add their
    valuations; ±q**k only shifts the valuation.  Otherwise this is Henrici's
    product: (a/b)(c/d) cancels gcd(a, d) and gcd(c, b) first, so no gcd of
    the product is needed."""
    if not x.num or not y.num:
        return R_ZERO
    a, b, c, d = x.num, x.den, y.num, y.den
    if b == P_ONE and d == P_ONE:
        return _raw(x.val + y.val, _pmul(a, c), P_ONE)
    if b == P_ONE and a in _UNITS:
        return _raw(x.val + y.val, _pmul(a, c), d)
    if d == P_ONE and c in _UNITS:
        return _raw(x.val + y.val, _pmul(c, a), b)
    a, d = _pcancel(a, d)
    c, b = _pcancel(c, b)
    return _unit_normal(x.val + y.val, _pmul(a, c), _pmul(b, d))


_UNITS = ((1,), (-1,))
R_ZERO = _raw(0, P_ZERO, P_ONE)
R_ONE = _raw(0, P_ONE, P_ONE)


def qint(r: int) -> RatQ:
    """Quantum integer [r]_v = (v**r - v**-r)/(v - v**-1) with v = q**2."""
    vr = RatQ.v_power(r)
    return (vr - vr.inverse()) / V_MINUS_VINV


def qbinom(n: int, i: int) -> RatQ:
    """Gaussian binomial coefficient in v, as the product of [n-j+1]_v/[j]_v."""
    if i < 0:
        raise ValueError("qbinom requires i >= 0")
    out = R_ONE
    for j in range(1, i + 1):
        t = qint(n - j + 1)
        if t.is_zero():
            return R_ZERO
        out = out * t / qint(j)
    return out


V_MINUS_VINV = RatQ.v_power(1) - RatQ.v_power(-1)


# ----------------------------------------------------------------------------
# WeightScalar
# ----------------------------------------------------------------------------

class WeightScalar:
    """Laurent polynomial in symbols y_1..y_n over RatQ.

    The exponent vectors are the keys of ``terms``; no zero coefficient is
    ever stored.  ``prefix`` only affects printing: "y" for weight scalars,
    "t" for the one-symbol variant used for a formal power v**r, and "k" for
    Cartan elements.
    """

    __slots__ = ("n", "terms", "prefix")

    def __init__(self, n: int, terms=None, prefix: str = "y"):
        self.n = n
        self.prefix = prefix
        terms = terms or {}
        if any(len(e) != n for e in terms):
            raise ValueError("exponent vector of wrong length")
        self.terms = add_terms(
            {}, ((e, c if isinstance(c, RatQ) else RatQ.from_int(c)) for e, c in terms.items())
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def _raw(cls, n, terms, prefix):
        """A WeightScalar holding `terms` as given: no check and no copy, so
        the terms must have the right length and no zero coefficient."""
        self = object.__new__(cls)
        self.n, self.terms, self.prefix = n, terms, prefix
        return self

    @classmethod
    def zero(cls, n: int, prefix: str = "y") -> "WeightScalar":
        return cls(n, {}, prefix)

    @classmethod
    def const(cls, n: int, c, prefix: str = "y") -> "WeightScalar":
        if isinstance(c, int):
            c = RatQ.from_int(c)
        return cls(n, {(0,) * n: c}, prefix)

    @classmethod
    def one(cls, n: int, prefix: str = "y") -> "WeightScalar":
        return cls.const(n, R_ONE, prefix)

    @classmethod
    def monomial(cls, n: int, exps, c=R_ONE, prefix: str = "y") -> "WeightScalar":
        return cls(n, {tuple(exps): c}, prefix)

    # -- ring operations -----------------------------------------------------

    def _assert_compatible(self, other: "WeightScalar"):
        if self.n != other.n:
            raise ValueError("WeightScalar symbol-count mismatch")

    def __add__(self, other):
        if isinstance(other, (RatQ, int)):
            other = WeightScalar.const(self.n, other, self.prefix)
        if not isinstance(other, WeightScalar):
            return NotImplemented
        self._assert_compatible(other)
        terms = add_terms(dict(self.terms), other.terms.items())
        return WeightScalar._raw(self.n, terms, self.prefix)

    __radd__ = __add__

    def __neg__(self):
        terms = {e: -c for e, c in self.terms.items()}
        return WeightScalar._raw(self.n, terms, self.prefix)

    def __sub__(self, other):
        if isinstance(other, (RatQ, int)):
            other = WeightScalar.const(self.n, other, self.prefix)
        if not isinstance(other, WeightScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (RatQ, int)):
            if isinstance(other, int):
                other = RatQ.from_int(other)
            if not other.num:
                return WeightScalar.zero(self.n, self.prefix)
            terms = {e: c * other for e, c in self.terms.items()}
            return WeightScalar._raw(self.n, terms, self.prefix)
        if not isinstance(other, WeightScalar):
            return NotImplemented
        self._assert_compatible(other)
        terms = add_terms(
            {},
            (
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            ),
        )
        return WeightScalar._raw(self.n, terms, self.prefix)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatQ.from_int(other)
        if isinstance(other, RatQ):
            return self * other.inverse()
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (RatQ, int)):
            other = WeightScalar.const(self.n, other, self.prefix)
        if not isinstance(other, WeightScalar):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- evaluation ----------------------------------------------------------

    def eval(self, a) -> RatQ:
        """Substitute y_i -> q**a_i for the given integer vector a."""
        a = tuple(a)
        if len(a) != self.n:
            raise ValueError("evaluation vector of wrong length")
        out = R_ZERO
        for e, c in self.terms.items():
            out = out + c * RatQ.q_power(sum(x * k for x, k in zip(a, e)))
        return out

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        p = self.prefix
        names = [p] if self.n == 1 else [f"{p}{i}" for i in range(1, self.n + 1)]
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            syms = "*".join(
                f"{names[i]}^{k}" if k != 1 else names[i] for i, k in enumerate(e) if k
            )
            cs = str(c)
            if "/" in cs or "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{syms}" if syms else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"WeightScalar({self})"


def qbinom_formal(i: int, prefix: str = "t") -> WeightScalar:
    """Gaussian binomial with a formal upper parameter.

    The upper argument r enters only through t = v**r; the result is a
    Laurent polynomial in t over Q(q) that specializes to qbinom(r, i) under
    t -> v**r for every integer r.
    """
    if i < 0:
        raise ValueError("qbinom_formal requires i >= 0")
    out = WeightScalar.one(1, prefix)
    for j in range(1, i + 1):
        factor = WeightScalar(
            1,
            {(1,): RatQ.v_power(1 - j), (-1,): -RatQ.v_power(j - 1)},
            prefix,
        )
        denom = RatQ.v_power(j) - RatQ.v_power(-j)
        out = out * factor / denom
    return out


# ----------------------------------------------------------------------------
# The integer kernel
# ----------------------------------------------------------------------------
#
# Once its denominators are cleared, a scalar is a sum of integers times
# q**k * y**e (e = () for a RatQ, and e = 0 at a numeric weight).  The
# kernel keeps one such scalar as a dict {key: int}, where the int key packs
# the q-exponent k and the y-exponent e as the digits of
# k + e_1 * B + ... + e_n * B**n with B = 2**32; with no y-exponent the key
# is k itself.  Packing is linear, so multiplying by q**dk * y**de adds the
# key of (de, dk), and multiplying two scalars convolves their dicts.  Every
# digit stays below B/2 in size, so the key can be read back: each exponent
# that goes into a digit is checked against _LIMIT, and verma's maps check
# the digits of every vector they make.  A Laurent polynomial that is kept
# (a rule coefficient, a cached normal form, a PBW column) is the tuple of
# its (q-exponent, int) pairs in ascending order with no zero int, so equal
# ones compare, hash and intern as equal tuples; dicts are accumulators.

_SHIFT = 32
_HALF = 1 << (_SHIFT - 1)
_MASK = (1 << _SHIFT) - 1
_LIMIT = 1 << (_SHIFT - 4)
# a rebuilt numerator is a dense tuple from its lowest to its highest power
# of q; past this many powers (8 MB of pointers) _dense refuses it
_MAX_SPAN = 1 << 20

L_ONE = ((0, 1),)
L_MINUS_ONE = ((0, -1),)


def _digit(k) -> int:
    """An exponent that goes into a digit of a key, checked against _LIMIT."""
    if not -_LIMIT < k < _LIMIT:
        raise ValueError("exponent out of range for the integer kernel")
    return k


def _pack(e, k=0) -> int:
    """The key of q**k * y**e."""
    key = 0
    for x in reversed(e):
        key = (key << _SHIFT) + _digit(x)
    return (key << _SHIFT) + _digit(k)


def _unpack(key, n) -> tuple:
    """The y-exponent e of the key of y**e."""
    e = []
    for _ in range(n):
        key >>= _SHIFT
        d = ((key + _HALF) & _MASK) - _HALF
        e.append(d)
        key -= d
    return tuple(e)


def _laurent(acc: dict) -> tuple:
    """The Laurent tuple of an accumulator {q-exponent: int}; () for 0."""
    if len(acc) == 1:
        ka, = acc.items()
        return (ka,) if ka[1] else ()
    return tuple(sorted([ka for ka in acc.items() if ka[1]]))


def _laurent_of(x: RatQ) -> tuple:
    """The Laurent tuple of a RatQ; ValueError if it has a true denominator."""
    if x.den != P_ONE:
        raise ValueError(f"{x} is not a Laurent polynomial in q")
    return tuple([ka for ka in enumerate(x.num, x.val) if ka[1]])


def _dense(p: dict) -> tuple:
    """(lo, num) with q**lo * num the Laurent polynomial {q-exponent: int}
    p, nonempty with no zero int, and num its dense coefficient tuple.  A
    numerator spanning more than _MAX_SPAN powers of q raises ValueError
    before num is built."""
    lo = min(p)
    span = max(p) - lo + 1
    if span > _MAX_SPAN:
        raise ValueError(f"a numerator spans {span} powers of q, past {_MAX_SPAN}")
    num = [0] * span
    for k, a in p.items():
        num[k - lo] = a
    return lo, tuple(num)


def _ratq_of(t) -> RatQ:
    """The RatQ of a nonempty Laurent tuple (see _dense)."""
    lo, num = _dense(dict(t))
    return _raw(lo, num, P_ONE)


def _ldiv(a, b):
    """a/b for Laurent tuples, or None when b does not divide a in
    Z[q, 1/q]."""
    if len(b) == 1 and b[0][1] in (1, -1):
        (kb, s), = b
        return tuple([(k - kb, s * x) for k, x in a])
    quo = _pdiv(_ratq_of(a).num, _ratq_of(b).num)
    return None if quo is None else _laurent_of(_raw(a[0][0] - b[0][0], quo, P_ONE))


def _convolve(acc: dict, a, b) -> None:
    """Add into acc the product of two scalars given as (key, int) pairs,
    b the shorter; a is read once for each pair of b."""
    get = acc.get
    for kb, y in b:
        if y == 1:
            for key, x in a:
                key += kb
                acc[key] = get(key, 0) + x
        elif y == -1:
            for key, x in a:
                key += kb
                acc[key] = get(key, 0) - x
        else:
            for key, x in a:
                key += kb
                acc[key] = get(key, 0) + x * y


def common_denominator(coeffs) -> tuple[int, ...]:
    """A common multiple D in Z[q] of the denominators of the given RatQ or
    WeightScalar values: their lcm up to an integer factor, and (1,) when
    every value is a Laurent polynomial.  A denominator that divides D, or
    that D divides, costs one exact division; a gcd runs only for a pair
    where neither divides the other."""
    D = P_ONE
    seen = {P_ONE}
    for c in coeffs:
        for x in c.terms.values() if isinstance(c, WeightScalar) else (c,):
            d = x.den
            if d in seen:
                continue
            seen.add(d)
            if _pdiv(d, D) is not None:
                D = d
            elif _pdiv(D, d) is None:
                D = _pmul(D, _pdiv(d, _pgcd(D, d)))
    return D


def _clear(coeffs: dict, n: int):
    """(D, ints): D a common multiple of the denominators of the scalars c
    in coeffs (RatQs, or WeightScalars in n symbols), and D * c as {key:
    int} under the same key for each c that is not zero.  A RatQ packs
    under the key of the empty y-exponent, which is the key of (0,) * n.
    The key of each y-exponent and the quotient D/den of each denominator
    are computed once per call."""
    D = common_denominator(coeffs.values())
    keys: dict = {}
    quotients: dict = {}
    ints = {}
    for u, c in coeffs.items():
        if isinstance(c, WeightScalar):
            if c.n != n:
                raise ValueError("WeightScalar symbol-count mismatch")
            terms = c.terms.items()
        else:
            terms = (((), c),)
        out = {}
        for e, x in terms:
            base = keys.get(e)
            if base is None:
                base = keys[e] = _pack(e)
            num = x.num
            if x.den != D:
                quo = quotients.get(x.den)
                if quo is None:
                    quo = quotients[x.den] = _pdiv(D, x.den)
                num = _pmul(num, quo)
            _digit(x.val + len(num))
            for k, a in enumerate(num, base + _digit(x.val)):
                if a:
                    out[k] = a
        if out:
            ints[u] = out
    return D, ints


def _through_kernel(coeffs: dict, fn) -> dict:
    """fn(ints) / D as the same kind of scalars as coeffs (RatQs, or
    WeightScalars shaped like the first one among them), where (D, ints) =
    _clear(coeffs) and fn is a linear map to {u: {key: int}} or {u: [(key,
    int), ...]}: the round trip of normal_form, to_pbw and from_pbw."""
    ws = next((c for c in coeffs.values() if isinstance(c, WeightScalar)), None)
    n, prefix = (0, None) if ws is None else (ws.n, ws.prefix)
    D, ints = _clear(coeffs, n)
    return _rebuild(D, fn(ints), n, prefix)


def _rebuild(D, ints: dict, n: int, prefix=None) -> dict:
    """{u: c/D} for the items (u, c) of ints, each c a scalar as {key: int}
    or as a tuple of (key, int) pairs, without the zero ones: RatQs when
    prefix is None (the keys hold no y-exponent), else WeightScalars in n
    symbols with that prefix.  They repeat a few numerators up to a power of
    q, so each distinct one is divided by D once.  A numerator spanning more
    than _MAX_SPAN powers of q raises ValueError (see _dense)."""
    factor = None if D == P_ONE else R_ONE / RatQ(D)
    exponents: dict = {}  # key of y**e -> e
    scaled: dict = {}  # numerator -> numerator / D as a RatQ
    out = {}
    for u, acc in ints.items():
        # group by y-exponent: the key minus its q digit
        polys: dict = {}
        for key, a in acc.items() if type(acc) is dict else acc:
            if a:
                k = ((key + _HALF) & _MASK) - _HALF
                polys.setdefault(key - k, {})[k] = a
        if not polys:
            continue
        ws = {}
        for ekey, p in polys.items():
            lo, num = _dense(p)
            if factor is None:
                r = _raw(lo, num, P_ONE)
            else:
                r = scaled.get(num)
                if r is None:
                    r = scaled[num] = _raw(0, num, P_ONE) * factor
                r = _raw(r.val + lo, r.num, r.den)
            if prefix is not None:
                e = exponents.get(ekey)
                if e is None:
                    e = exponents[ekey] = _unpack(ekey, n)
                ekey = e
            ws[ekey] = r
        out[u] = ws[0] if prefix is None else WeightScalar._raw(n, ws, prefix)
    return out
