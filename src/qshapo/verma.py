"""Verma modules over symbolic or numeric highest weights.

A highest weight is known to the module only through its pairings with the
simple roots.  In numeric mode those pairings are integers and every scalar
is a RatQ; in symbolic mode the pairing with alpha_i enters through the
symbol y_i (meaning q to that pairing) and scalars are WeightScalars, so a
single computation covers a Zariski-dense family of weights at once.  An
optional hyperplane constraint (lam + rho, eta) = m is applied by eagerly
eliminating y_N, which turns "vanishes on the hyperplane" into literal
vanishing of canonical forms.

Vectors of the module are stored on the normal-word basis of the quotient
algebra applied to the highest weight vector.  The raising action is
computed purely from the defining commutation relation by pushing e_i
through the word letter by letter; none of the derived commutation formulas
feed the implementation, so they stay available as independent test oracles.
"""

from __future__ import annotations

from .freealg import NCPoly, RewriteSystem, word_multidegree
from .roots import cartan_entry, sigma_vec
from .scalars import R_ONE, V_MINUS_VINV, RatQ, WeightScalar, add_terms
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

    def coerce(self, c: RatQ):
        if self.mode == "numeric":
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


class VermaVector:
    """Element of the Verma module: a finite combination of normal words
    applied to the highest weight vector."""

    __slots__ = ("hw", "terms")

    def __init__(self, hw: HighestWeight, terms=None):
        self.hw = hw
        clean = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[w] = c
        self.terms = clean

    @classmethod
    def highest(cls, hw: HighestWeight) -> "VermaVector":
        return cls(hw, {(): hw.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, VermaVector):
            return NotImplemented
        return VermaVector(self.hw, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "VermaVector":
        if isinstance(c, int):
            c = RatQ.from_int(c)
        return VermaVector(self.hw, {w: c * x for w, x in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, VermaVector):
            return NotImplemented
        return self.terms == other.terms

    def weight_offset(self):
        """The multidegree nu with vector weight lam - nu (all terms agree)."""
        offs = {word_multidegree(w, self.hw.n) for w in self.terms}
        if len(offs) > 1:
            raise ValueError("vector is not weight-homogeneous")
        return offs.pop() if offs else None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            ws = "*".join(f"f{i}" for i in w) if w else ""
            parts.append(f"({c})*{ws}v" if ws else f"({c})*v")
        return " + ".join(parts)

    def __repr__(self):
        return f"VermaVector({self})"

    def witness(self) -> str:
        """The first term in deglex order, as a report witness ("0" if none)."""
        if not self.terms:
            return "0"
        w, c = self.sorted_terms()[0]
        ws = "*".join(f"f{i}" for i in w) if w else "v"
        return f"({c})*{ws}"

    def to_json_obj(self) -> dict:
        off = None if self.is_zero() else list(self.weight_offset())
        return {
            "weight_offset": off,
            "terms": {
                ",".join(map(str, w)): str(c) for w, c in self.sorted_terms()
            },
        }

    def to_latex(self) -> str:
        if not self.terms:
            body = "0"
        else:
            parts = []
            for w, c in self.sorted_terms():
                ws = "".join(f"f_{{{i}}}" for i in w)
                parts.append(f"\\left({c}\\right) {ws} v_\\lambda")
            body = " + ".join(parts)
        return (
            "\\documentclass{article}\n\\begin{document}\n"
            f"\\[ {body} \\]\n\\end{{document}}\n"
        )


def vector_from_ncpoly(p: NCPoly, hw: HighestWeight, rs: RewriteSystem) -> VermaVector:
    """Apply a polynomial in the lowering generators to the highest weight
    vector, normal-forming the words."""
    nf = rs.normal_form(p)
    return VermaVector(hw, {w: hw.coerce(c) for w, c in nf.terms.items()})


# ----------------------------------------------------------------------------
# Generator actions
# ----------------------------------------------------------------------------

def act_f(i: int, vec: VermaVector, rs: RewriteSystem) -> VermaVector:
    """Left multiplication by f_i followed by normal form."""
    out = add_terms(
        {}, ((x, c * cx) for w, c in vec.terms.items() for x, cx in rs._nf_word((i,) + w).items())
    )
    return VermaVector(vec.hw, out)


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
    """
    hw = vec.hw
    Yp = hw.k_eigen(tuple(2 if k == i - 1 else 0 for k in range(hw.n)))
    Ym = hw.k_eigen(tuple(-2 if k == i - 1 else 0 for k in range(hw.n)))
    out: dict = {}
    for w, c in vec.terms.items():
        # suffix pairings, scanned right to left
        for pos in range(len(w) - 1, -1, -1):
            if w[pos] != i:
                continue
            s = sum(cartan_entry(i, w[k]) for k in range(pos + 1, len(w)))
            scal = (Yp * RatQ.v_power(-s) - Ym * RatQ.v_power(s)) * c
            if not scal:
                continue
            rest = w[:pos] + w[pos + 1 :]
            add_terms(out, ((x, scal * cx) for x, cx in rs._nf_word(rest).items()))
    # the common factor 1/(v - 1/v), applied once per output coefficient
    return VermaVector(hw, {x: acc * _VMV_INV for x, acc in out.items()})


def act_poly(p: NCPoly, vec: VermaVector, rs: RewriteSystem) -> VermaVector:
    """Left action of a polynomial in the lowering generators."""
    out = add_terms(
        {},
        (
            (x, (cu * cx) * c)
            for u, cu in p.terms.items()
            for w, c in vec.terms.items()
            for x, cx in rs._nf_word(u + w).items()
        ),
    )
    return VermaVector(vec.hw, out)


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
