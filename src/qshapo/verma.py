"""Verma modules over symbolic or numeric highest weights.

A highest weight is known to the module only through the eigenvalues
q**(lam, gamma) of k_gamma on its highest weight vector, which
HighestWeight.eigen gives as y**e * q**k.  In numeric mode the pairings are
integers, e is empty and every scalar is a RatQ; in symbolic mode the
pairing with alpha_i enters through the symbol y_i (meaning q to that
pairing) and scalars are WeightScalars, so a single computation covers a
Zariski-dense family of weights at once.  An optional hyperplane constraint
(lam + rho, eta) = m eliminates y_N from every eigenvalue, which turns
"vanishes on the hyperplane" into literal vanishing of canonical forms.

M(lam) is free of rank one over the lowering subalgebra, so a vector of the
module is a polynomial in normal form (on the normal-word basis of the
quotient algebra) whose coefficients are scalars of the weight, applied to
the highest weight vector.  VermaVector keeps it in one form, that of the
integer kernel of scalars: a common denominator D in Z[q] and, for each
word, D times its coefficient as exact integers keyed by the packed
y-exponent and q-exponent.  Scalars of the weight are cleared into that
form once, when a vector is built from them, and rebuilt only when its
coefficients are read (``terms``, printing, ``==``).  Every left action of
a polynomial goes through act_poly, the one place where a product is put in
normal form.  shapovalov builds the level-one theta*v segment by segment,
as concatenations of root vectors' normal forms that need no rewriting
(shapovalov._level_one) and their level-m product (shapovalov._power);
shapovalov.theta_vector applies PBW coordinates (theta_det, theta_power),
reading each PBW monomial's normal form from uqsl's PBW column cache.
The raising action is computed purely from the defining commutation
relation by pushing e_i through the word letter by letter; none of the
derived commutation formulas feed the implementation, so they stay
available as independent test oracles.

The maps are Q(q)-linear, so they read and write the integers and leave D
alone, or multiply it by the one denominator they bring (q**4 - 1 for the
1/(v - 1/v) of act_e).  An eigenvalue y**e * q**k packs into one key, so a
shift by one adds to the key, and the normal forms of the rewriting engine
are Laurent tuples in the same q-exponents, so a rule coefficient
multiplies integers; no map runs a gcd, and raising a vector clears no
scalar.
"""

from __future__ import annotations

from .freealg import (
    NCPoly,
    RewriteSystem,
    _nf_sum,
    deglex_key,
    word_multidegree,
)
from .roots import cartan_entry
from .scalars import (
    _LIMIT,
    _MASK,
    _SHIFT,
    L_ONE,
    P_ONE,
    R_ONE,
    V_MINUS_VINV,
    RatQ,
    WeightScalar,
    _clear as _clear_scalars,
    _convolve,
    _digit,
    _laurent,
    _pack,
    _pdiv,
    _pmul,
    _ratq_of,
    _raw,
    _rebuild,
    add_terms,
)
from .uqsl import _Q4_MINUS_1, H_cartan, h_cartan

_VMV_INV = V_MINUS_VINV.inverse()


class HighestWeight:
    """A highest weight, numeric or symbolic, with an optional hyperplane
    constraint in symbolic mode.  Two weights are equal when they agree in
    rank, mode, pairings and hyperplane."""

    __slots__ = ("n", "mode", "pairings", "hyperplane_m")

    def __init__(self, n, mode, pairings=None, hyperplane_m=None):
        self.n = n
        self.mode = mode
        self.pairings = None if pairings is None else tuple(pairings)
        self.hyperplane_m = hyperplane_m
        if mode not in ("numeric", "symbolic"):
            raise ValueError("mode must be numeric or symbolic")
        if mode == "numeric":
            if pairings is None or len(pairings) != n:
                raise ValueError("numeric weight needs n pairings")
            if hyperplane_m is not None:
                raise ValueError("hyperplane constraint is symbolic-only")

    def _key(self):
        return (self.n, self.mode, self.pairings, self.hyperplane_m)

    def __eq__(self, other):
        if not isinstance(other, HighestWeight):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def numeric(cls, pairings) -> "HighestWeight":
        pairings = tuple(pairings)
        return cls(len(pairings), "numeric", pairings)

    @classmethod
    def symbolic(cls, n: int, hyperplane_m: int | None = None) -> "HighestWeight":
        return cls(n, "symbolic", None, hyperplane_m)

    # -- scalar helpers ----------------------------------------------------

    def zero(self):
        if self.mode == "numeric":
            return RatQ.from_int(0)
        return WeightScalar.zero(self.n)

    def one(self):
        if self.mode == "numeric":
            return R_ONE
        return WeightScalar.one(self.n)

    def coerce(self, c):
        """A scalar of this weight; a WeightScalar passes through unchanged."""
        if self.mode == "numeric" or isinstance(c, WeightScalar):
            return c
        return WeightScalar.const(self.n, c)

    def eigen(self, gamma):
        """(e, k) with q**(lam, gamma) = y**e * q**k, the eigenvalue of
        k_gamma on the highest weight vector: e = () at a numeric weight.
        On the hyperplane y_n**d is q**((m-n)d) (y_1...y_{n-1})**-d, so e
        has last entry 0 and vanishing there is literal vanishing."""
        n = self.n
        if len(gamma) != n:
            raise ValueError("lattice vector has wrong rank")
        if self.mode == "numeric":
            return (), sum(g * p for g, p in zip(gamma, self.pairings))
        m = self.hyperplane_m
        if m is not None and (d := gamma[-1]):
            return tuple(x - d for x in gamma[:-1]) + (0,), (m - n) * d
        return tuple(gamma), 0

    def k_eigen(self, gamma):
        """Eigenvalue of k_gamma on the highest weight vector: q**(lam, gamma)
        as a scalar of the weight."""
        e, k = self.eigen(gamma)
        if self.mode == "numeric":
            return RatQ.q_power(k)
        return WeightScalar.monomial(self.n, e, RatQ.q_power(k))


class VermaVector:
    """Element of the Verma module: a polynomial in normal form in the
    lowering generators, applied to the highest weight vector ``hw``, kept
    as 1/D times ``ints``, {word: {key: int}} with no zero integer and no
    empty word (the integer kernel below).  The constructor clears the
    scalars of ``terms``; ``terms`` rebuilds them on each read."""

    __slots__ = ("hw", "n", "D", "ints")

    def __init__(self, hw: HighestWeight, terms=None):
        D, ints = _clear(hw, terms or {})
        self.hw, self.n, self.D, self.ints = hw, hw.n, D, ints

    @classmethod
    def _kernel(cls, hw: HighestWeight, D, ints: dict) -> "VermaVector":
        """The vector 1/D times ints, without its zero integers and words.
        Raises ValueError if a digit of a key reached _LIMIT in size."""
        # with every digit d in (-_LIMIT, _LIMIT), each digit of key + off
        # is d + _LIMIT in [0, 2 * _LIMIT), so no bit of high is set
        unit = ((1 << _SHIFT * (hw.n + 1)) - 1) // _MASK
        off, high = _LIMIT * unit, (_MASK + 1 - 2 * _LIMIT) * unit
        kept = {}
        for w, c in ints.items():
            c = {key: a for key, a in c.items() if a}
            if c:
                if any((key + off) & high for key in c):
                    raise ValueError("exponent out of range for the integer kernel")
                kept[w] = c
        out = object.__new__(cls)
        out.hw, out.n, out.D, out.ints = hw, hw.n, D, kept
        return out

    @classmethod
    def highest(cls, hw: HighestWeight) -> "VermaVector":
        return cls(hw, {(): hw.one()})

    @property
    def terms(self) -> dict:
        """The coefficients as scalars of the weight, {word: WeightScalar}
        or {word: RatQ} at a numeric weight, rebuilt by scalars._rebuild
        (which refuses a numerator too long to densify)."""
        # a numeric weight packs no y-exponent (see _clear)
        prefix = "y" if self.hw.mode == "symbolic" else None
        return _rebuild(self.D, self.ints, self.n, prefix)

    def is_zero(self) -> bool:
        return not self.ints

    def __eq__(self, other):
        if not isinstance(other, VermaVector):
            return NotImplemented
        return self.hw == other.hw and self.terms == other.terms

    def _same_module(self, other):
        if self.hw != other.hw:
            raise ValueError("vectors of Verma modules of different highest weights")

    def __add__(self, other):
        self._same_module(other)
        return VermaVector(self.hw, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        self._same_module(other)
        terms = add_terms(dict(self.terms), ((w, -c) for w, c in other.terms.items()))
        return VermaVector(self.hw, terms)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "VermaVector":
        return VermaVector(self.hw, {w: c * x for w, x in self.terms.items()})

    def weight_offset(self):
        """The multidegree nu with vector weight lam - nu (all terms agree),
        or None for the zero vector."""
        degrees = {word_multidegree(w, self.n) for w in self.ints}
        if len(degrees) > 1:
            raise ValueError("polynomial is not multidegree-homogeneous")
        return degrees.pop() if degrees else None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: deglex_key(kv[0]))

    def __str__(self):
        if not self.ints:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            ws = "*".join(f"f{i}" for i in w) if w else ""
            parts.append(f"({c})*{ws}v" if ws else f"({c})*v")
        return " + ".join(parts)

    def witness(self) -> str:
        """The first term in deglex order, as a report witness ("0" if none)."""
        if not self.ints:
            return "0"
        w, c = self.sorted_terms()[0]
        ws = "*".join(f"f{i}" for i in w) if w else "v"
        return f"({c})*{ws}"


def vector_from_ncpoly(p: NCPoly, hw: HighestWeight, rs: RewriteSystem) -> VermaVector:
    """Apply a polynomial in the lowering generators to the highest weight
    vector: the normal form of p, with its coefficients read as scalars of
    the weight."""
    return act_poly(p, VermaVector.highest(hw), rs)


# ----------------------------------------------------------------------------
# Generator actions
# ----------------------------------------------------------------------------

def act_f(i: int, vec: VermaVector, rs: RewriteSystem) -> VermaVector:
    """Left multiplication by f_i followed by normal form."""
    return act_poly(NCPoly.letter(i, vec.n), vec, rs)


def act_k(gamma, vec: VermaVector) -> VermaVector:
    """Action of the group-like k_gamma: each term of weight lam - nu is
    scaled by q**(lam, gamma) * q**-(nu, gamma), a shift of its keys."""
    eig = _pack(*vec.hw.eigen(gamma))
    out = {}
    for w, c in vec.ints.items():
        shift = eig + _digit(-sum(
            g * cartan_entry(k + 1, letter)
            for letter in w
            for k, g in enumerate(gamma)
        ))
        out[w] = {key + shift: a for key, a in c.items()}
    return VermaVector._kernel(vec.hw, vec.D, out)


def act_e(i: int, vec: VermaVector, rs: RewriteSystem) -> VermaVector:
    """Raising action computed from the defining relation alone.

    Pushing e_i through a word leaves, for each occurrence of the letter i,
    the word with that letter deleted, scaled by
    (Y * v**-s - Y**-1 * v**s) / (v - 1/v) where Y = q**(2(lam, alpha_i))
    and s is the pairing of alpha_i with the multidegree of the suffix to
    the right of the deleted letter.

    Y = y**e * q**k from HighestWeight.eigen, and 1/(v - 1/v) = q**2/(q**4
    - 1), so each such scalar is two integers keyed by their y- and
    q-exponents, and scaling a word's integers by it adds to their keys: the
    integer kernel below.  The output's D is the input's times q**4 - 1.  A
    letter outside 1..n raises ValueError, as in act_f.

    A shortened word whose normal form is one word x with coefficient cx
    (a normal word, or one a commutation moves) goes straight to x, scaled
    by the scalar times cx; the others are summed first and normal-formed
    once each, as in act_poly.
    """
    hw, n = vec.hw, vec.n
    if not 1 <= i <= n:
        raise ValueError("letter out of range")
    plus = _pack(*hw.eigen(tuple(2 if k == i - 1 else 0 for k in range(n))))
    minus = _pack(*hw.eigen(tuple(-2 if k == i - 1 else 0 for k in range(n))))
    # s -> q**2 * (Y * v**-s - Y**-1 * v**s) as (key, int) pairs
    shifts: dict = {}
    nf_word = rs._nf_word
    out: dict = {}
    short: dict = {}
    for w, c in vec.ints.items():
        c = c.items()
        for pos, letter in enumerate(w):
            if letter != i:
                continue
            s = sum(cartan_entry(i, x) for x in w[pos + 1 :])
            pair = shifts.get(s)
            if pair is None:
                pair = shifts[s] = (
                    (plus + _digit(2 - 2 * s), 1),
                    (minus + _digit(2 + 2 * s), -1),
                )
            u = w[:pos] + w[pos + 1 :]
            nf = nf_word(u)
            if len(nf) == 1:
                (x, cx), = nf.items()
                d = out.get(x)
                if d is None:
                    d = out[x] = {}
                _convolve(d, c, [(k + kx, a * ax) for k, a in pair for kx, ax in cx])
            else:
                _convolve(short.setdefault(u, {}), c, pair)
    for x, acc in _nf_sum(short, nf_word).items():
        d = out.get(x)
        if d is None:
            out[x] = acc
        else:
            _convolve(d, acc.items(), L_ONE)
    return VermaVector._kernel(hw, _pmul(vec.D, _Q4_MINUS_1), out)


def act_poly(p: NCPoly, vec: VermaVector, rs: RewriteSystem) -> VermaVector:
    """Left action of a polynomial in the lowering generators: the normal
    form of the product.  Every left action of a polynomial goes through
    here; p's coefficients may be RatQs or scalars of the weight."""
    hw = vec.hw
    E, coeffs = _clear(hw, p.terms)
    prod: dict = {}
    for w, a in coeffs.items():
        a = a.items()
        for u, b in vec.ints.items():
            _convolve(prod.setdefault(w + u, {}), b.items(), a)
    return VermaVector._kernel(hw, _pmul(vec.D, E), _nf_sum(prod, rs._nf_word))


def is_hwv(vec: VermaVector, rs: RewriteSystem) -> bool:
    """True when the vector is nonzero and killed by every raising generator."""
    if vec.is_zero():
        return False
    return all(act_e(i, vec, rs).is_zero() for i in range(1, vec.hw.n + 1))


# ----------------------------------------------------------------------------
# Cartan-part evaluation
# ----------------------------------------------------------------------------

def cartan_eval(H: WeightScalar, hw: HighestWeight):
    """Evaluate a Cartan element at the highest weight: k_gamma goes to
    q**(lam, gamma) = y**e * q**k from HighestWeight.eigen, extended
    linearly in one pass.  A symbolic term shifts its coefficient's
    q-exponent by k, and two add only where they meet at one e.  Numeric
    numerators add as Laurent polynomials over each distinct denominator,
    which divides their sum exactly for the products of h_i (each h_i(lam)
    is a Laurent polynomial), so no gcd runs; a sum that it does not divide
    is divided as a RatQ, and a sum spanning more than 2**20 powers of q
    raises ValueError (see scalars._dense)."""
    eigen = hw.eigen
    if hw.mode == "numeric":
        sums: dict = {}  # denominator -> {q-exponent: int}
        for gamma, c in H.terms.items():
            acc = sums.setdefault(c.den, {})
            for k, a in enumerate(c.num, c.val + eigen(gamma)[1]):
                acc[k] = acc.get(k, 0) + a
        out = hw.zero()
        for den, acc in sums.items():
            if t := _laurent(acc):
                x = _ratq_of(t)
                quo = _pdiv(x.num, den)
                out = out + (x / _raw(0, den, P_ONE) if quo is None else _raw(x.val, quo, P_ONE))
        return out
    out = {}
    for gamma, c in H.terms.items():
        e, k = eigen(gamma)
        add_terms(out, ((e, _raw(c.val + k, c.num, c.den)),))
    return WeightScalar._raw(hw.n, out, "y")


def h_eval(i: int, hw: HighestWeight):
    """Scalar by which h_i acts on the highest weight vector,
    -1/q * v**(1 - L) * [L]_v with L = (lam + rho, sigma_i): the value of
    h_cartan(i) at the weight, in numeric and symbolic mode alike."""
    return cartan_eval(h_cartan(i, hw.n), hw)


def H_eval(rset, hw: HighestWeight):
    """Product of the h_i over an index collection at the highest weight."""
    return cartan_eval(H_cartan(rset, hw.n), hw)


def quantum_bracket(hw: HighestWeight, gamma, shift: int):
    """[ (lam, gamma) + shift ]_v as a scalar of the weight; at gamma =
    sigma_i with shift i it is [ (lam + rho, sigma_i) ]_v.  Used by the
    section-3 suite and by the commutation-formula oracles in the tests."""
    plus = hw.k_eigen(tuple(2 * x for x in gamma)) * RatQ.v_power(shift)
    minus = hw.k_eigen(tuple(-2 * x for x in gamma)) * RatQ.v_power(-shift)
    return (plus - minus) * _VMV_INV


# ----------------------------------------------------------------------------
# The integer kernel (scalars' last section) at a weight
# ----------------------------------------------------------------------------
#
# A vector is {word: {key: int}} over one common denominator D; each map
# adds at most three exponents, each checked against _LIMIT, to a stored
# digit, and VermaVector._kernel checks every digit of a map's output
# against _LIMIT, so a vector stays readable through any number of maps.


def _clear(hw: HighestWeight, coeffs: dict):
    """(D, ints): a common multiple D of the denominators of the scalars c
    in coeffs, and D * c as {key: int} under the same key for each c that
    is not zero.  A y-monomial at a numeric weight raises ValueError."""
    if hw.mode == "numeric":
        for c in coeffs.values():
            if isinstance(c, WeightScalar) and any(map(any, c.terms)):
                raise ValueError("a y-monomial at a numeric weight")
    return _clear_scalars(coeffs, hw.n)
