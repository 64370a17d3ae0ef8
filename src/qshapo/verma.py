"""Verma modules over symbolic or numeric highest weights.

A highest weight is known to the module only through its pairings with the
simple roots.  In numeric mode those pairings are integers and every scalar
is a RatQ; in symbolic mode the pairing with alpha_i enters through the
symbol y_i (meaning q to that pairing) and scalars are WeightScalars, so a
single computation covers a Zariski-dense family of weights at once.  An
optional hyperplane constraint (lam + rho, eta) = m is applied by eagerly
eliminating y_N, which turns "vanishes on the hyperplane" into literal
vanishing of canonical forms.

M(lam) is free of rank one over the lowering subalgebra, so a vector of the
module is a polynomial in normal form (an NCPoly on the normal-word basis of
the quotient algebra) whose coefficients are scalars of the weight, applied
to the highest weight vector.  VermaVector is that NCPoly plus its weight;
it inherits the arithmetic.  Every left action of a polynomial ends in
vector_from_ncpoly, the one place where a polynomial is put in normal form
and read as a vector; shapovalov.theta_vector applies PBW coordinates
instead, reading each PBW monomial's normal form from the PBW column cache
of uqsl.  The raising action is computed purely from the defining
commutation relation by pushing e_i through the word letter by letter; none
of the derived commutation formulas feed the implementation, so they stay
available as independent test oracles.
"""

from __future__ import annotations

from .freealg import NCPoly, RewriteSystem, latex_document
from .roots import cartan_entry, sigma_vec
from .scalars import (
    R_ONE,
    V_MINUS_VINV,
    RatQ,
    WeightScalar,
    add_terms,
    clear_denominator,
    common_denominator,
)
from .uqsl import H_cartan, h_cartan

_VMV_INV = V_MINUS_VINV.inverse()


class HighestWeight:
    """A highest weight, numeric or symbolic, with an optional hyperplane
    constraint in symbolic mode."""

    __slots__ = ("n", "mode", "pairings", "hyperplane_m")

    def __init__(self, n, mode, pairings=None, hyperplane_m=None):
        self.n = n
        self.mode = mode
        self.pairings = pairings
        self.hyperplane_m = hyperplane_m
        if mode not in ("numeric", "symbolic"):
            raise ValueError("mode must be numeric or symbolic")
        if mode == "numeric":
            if pairings is None or len(pairings) != n:
                raise ValueError("numeric weight needs n pairings")
            if hyperplane_m is not None:
                raise ValueError("hyperplane constraint is symbolic-only")

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

    def k_eigen(self, gamma):
        """Eigenvalue of k_gamma on the highest weight vector: q**(lam, gamma)."""
        if len(gamma) != self.n:
            raise ValueError("lattice vector has wrong rank")
        if self.mode == "numeric":
            return RatQ.q_power(sum(g * p for g, p in zip(gamma, self.pairings)))
        ws = WeightScalar.monomial(self.n, tuple(gamma))
        if self.hyperplane_m is not None:
            ws = ws.substitute_hyperplane(self.hyperplane_m)
        return ws


class VermaVector(NCPoly):
    """Element of the Verma module: a polynomial in normal form in the
    lowering generators, applied to the highest weight vector ``hw``.  The
    arithmetic is NCPoly's; its results carry ``hw`` through ``_new``."""

    __slots__ = ("hw",)

    def __init__(self, hw: HighestWeight, terms=None):
        super().__init__(hw.n, terms)
        self.hw = hw

    def _new(self, terms) -> "VermaVector":
        out = object.__new__(VermaVector)
        out.n, out.terms, out.hw = self.n, terms, self.hw
        return out

    @classmethod
    def highest(cls, hw: HighestWeight) -> "VermaVector":
        return cls(hw, {(): hw.one()})

    def weight_offset(self):
        """The multidegree nu with vector weight lam - nu (all terms agree),
        or None for the zero vector."""
        return self.multidegree() if self.terms else None

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            ws = "*".join(f"f{i}" for i in w) if w else ""
            parts.append(f"({c})*{ws}v" if ws else f"({c})*v")
        return " + ".join(parts)

    def witness(self) -> str:
        """The first term in deglex order, as a report witness ("0" if none)."""
        if not self.terms:
            return "0"
        w, c = self.sorted_terms()[0]
        ws = "*".join(f"f{i}" for i in w) if w else "v"
        return f"({c})*{ws}"

    def to_json_obj(self) -> dict:
        off = self.weight_offset()
        return {
            "weight_offset": None if off is None else list(off),
            "terms": {
                ",".join(map(str, w)): str(c) for w, c in self.sorted_terms()
            },
        }

    def to_latex(self) -> str:
        parts = []
        for w, c in self.sorted_terms():
            ws = "".join(f"f_{{{i}}}" for i in w)
            parts.append(f"\\left({c}\\right) {ws} v_\\lambda")
        return latex_document(" + ".join(parts) or "0")


def vector_from_ncpoly(p: NCPoly, hw: HighestWeight, rs: RewriteSystem) -> VermaVector:
    """Apply a polynomial in the lowering generators to the highest weight
    vector: the normal form of p, with its coefficients read as scalars of
    the weight.  Every left action of a polynomial goes through here."""
    nf = rs.normal_form(p)
    return VermaVector(hw, {w: hw.coerce(c) for w, c in nf.terms.items()})


# ----------------------------------------------------------------------------
# Generator actions
# ----------------------------------------------------------------------------

def act_f(i: int, vec: VermaVector, rs: RewriteSystem) -> VermaVector:
    """Left multiplication by f_i followed by normal form."""
    return act_poly(NCPoly.letter(i, vec.n), vec, rs)


def act_k(gamma, vec: VermaVector) -> VermaVector:
    """Action of the group-like k_gamma: each term of weight lam - nu is
    scaled by q**(lam, gamma) * q**-(nu, gamma)."""
    hw = vec.hw
    eig = hw.k_eigen(gamma)
    out = {}
    for w, c in vec.terms.items():
        shift = -sum(
            g * cartan_entry(k + 1, letter)
            for letter in w
            for k, g in enumerate(gamma)
        )
        s = c * eig * RatQ.q_power(shift)
        if s:
            out[w] = s
    return VermaVector(hw, out)


def act_e(i: int, vec: VermaVector, rs: RewriteSystem) -> VermaVector:
    """Raising action computed from the defining relation alone.

    Pushing e_i through a word leaves, for each occurrence of the letter i,
    the word with that letter deleted, scaled by
    (Y * v**-s - Y**-1 * v**s) / (v - 1/v) where Y = q**(2(lam, alpha_i))
    and s is the pairing of alpha_i with the multidegree of the suffix to
    the right of the deleted letter.

    The action is Q(q)-linear, so the coefficients of vec are first
    multiplied by a common denominator D: the shortened-word products and
    the normal form then see only Laurent coefficients and run no gcd.  The
    factor 1/D goes back on at the end together with 1/(v - 1/v), one
    product per output coefficient and none for a zero result.
    """
    hw = vec.hw
    D = common_denominator(vec.terms.values())
    Yp = hw.k_eigen(tuple(2 if k == i - 1 else 0 for k in range(hw.n)))
    Ym = hw.k_eigen(tuple(-2 if k == i - 1 else 0 for k in range(hw.n)))

    def shortened():
        for w, c in vec.terms.items():
            c = clear_denominator(c, D)
            for pos, letter in enumerate(w):
                if letter == i:
                    s = sum(cartan_entry(i, x) for x in w[pos + 1 :])
                    scal = Yp * RatQ.v_power(-s) - Ym * RatQ.v_power(s)
                    yield w[:pos] + w[pos + 1 :], scal * c

    short = NCPoly._raw(vec.n, add_terms({}, shortened()))
    return vector_from_ncpoly(short, hw, rs).scale(_VMV_INV / RatQ(D))


def act_poly(p: NCPoly, vec: VermaVector, rs: RewriteSystem) -> VermaVector:
    """Left action of a polynomial in the lowering generators."""
    return vector_from_ncpoly(p * vec, vec.hw, rs)


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
    q**(lam, gamma), extended linearly."""
    out = hw.zero()
    for gamma, c in H.terms.items():
        out = out + c * hw.k_eigen(gamma)
    return out


def h_eval(i: int, hw: HighestWeight):
    """Scalar by which h_i acts on the highest weight vector,
    -1/q * v**(1 - L) * [L]_v with L = (lam + rho, sigma_i): the value of
    h_cartan(i) at the weight, in numeric and symbolic mode alike."""
    return cartan_eval(h_cartan(i, hw.n), hw)


def H_eval(rset, hw: HighestWeight):
    """Product of the h_i over an index collection at the highest weight."""
    return cartan_eval(H_cartan(rset, hw.n), hw)


def quantum_bracket(hw: HighestWeight, L_shift: int, sigma_i: int):
    """[ (lam + rho, sigma_i) + L_shift ]_v as a scalar of the weight; the
    rho part contributes sigma_i to the exponent.  Used by the
    commutation-formula oracles in the tests."""
    s = sigma_vec(sigma_i, hw.n)
    shift = sigma_i + L_shift
    plus = hw.k_eigen(tuple(2 * x for x in s)) * RatQ.v_power(shift)
    minus = hw.k_eigen(tuple(-2 * x for x in s)) * RatQ.v_power(-shift)
    return (plus - minus) * _VMV_INV
