"""Structure constants of quantized sl(N+1) above the free algebra.

This module supplies, over the rewriting engine:

* Jimbo root vectors f_{i,j} (the q-bracket recursion) and ordered PBW
  monomials built from them, with conversion both ways between the
  normal-word basis and the PBW basis;
* Cartan-part elements: finite k-lattice combinations such as the h_i that
  decorate Shapovalov summands, stored as WeightScalars with prefix "k"
  (the key gamma stands for k_gamma);
* the twisted adjoint calculus for a fixed simple generator F = f_beta:
  the grading automorphism sigma, the sigma-derivation ad_F, its iterates,
  the finite expansion of F**l * u, and the one-parameter conjugation
  operators Psi_r that interpolate u -> F**r u F**-r, including a formal
  variant whose scalars live in a Laurent extension by t = v**r;
* right division by a power of the largest letter present, a suffix strip
  of the normal form.

All computations that need equality in the quotient take a RewriteSystem.
"""

from __future__ import annotations

from functools import lru_cache

from .freealg import (
    NCPoly,
    RewriteSystem,
    _nf_sum,
    _word_product,
    deglex_key,
    word_multidegree,
)
from .roots import alpha, cartan_entry, kostant_partitions, pairing
from .scalars import (
    P_ONE,
    RatQ,
    WeightScalar,
    _convolve,
    _laurent,
    _laurent_of,
    _pmul,
    _raw,
    _rebuild,
    _through_kernel,
    add_terms,
    qbinom,
    qbinom_formal,
)


_Q4_MINUS_1 = (-1, 0, 0, 0, 1)  # 1/(v - 1/v) = q**2/(q**4 - 1)


class SingularSystem(Exception):
    """A PBW solve met columns that are not triangular or a right-hand side
    outside their span: the rewrite system contradicts the PBW theorem and
    the computation must stop."""


class NonUnitPivot(SingularSystem):
    """A solve met a leading coefficient that is not +-q**k, so it cannot
    stay in Z[q, 1/q].  Every PBW column leads with a coefficient +-q**k, so
    this too means a rewrite system that contradicts the PBW theorem."""


class NotRightDivisible(Exception):
    """An element was not right-divisible by the requested power of F: a
    word of its normal form does not end in that power."""


class NilpotencyCapExceeded(Exception):
    """ad_F iterates failed to vanish within the guaranteed bound."""


# ----------------------------------------------------------------------------
# Jimbo root vectors and PBW monomials
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def jimbo(i: int, j: int, n: int) -> NCPoly:
    """Root vector f_{i,j}: f_{i,i+1} is the generator f_i, and for j > i+1
    f_{i,j} = q f_{i,j-1} f_{j-1,j} - 1/q f_{j-1,j} f_{i,j-1}."""
    if not 1 <= i < j <= n + 1:
        raise ValueError("root vector indices out of range")
    if j == i + 1:
        return NCPoly.letter(i, n)
    a = jimbo(i, j - 1, n)
    b = NCPoly.letter(j - 1, n)
    q = RatQ.q_power(1)
    return (a * b).scale(q) - (b * a).scale(q.inverse())


@lru_cache(maxsize=None)
def _jimbo_ints(i: int, j: int, n: int) -> dict:
    """jimbo(i, j, n) as {word: {q-exponent: int}}, its coefficients being
    Laurent.  Never to be mutated."""
    return {w: dict(_laurent_of(c)) for w, c in jimbo(i, j, n).terms.items()}


def _pbw_expansion(factors, n: int) -> dict:
    """expand_pbw(factors, n) as {word: Laurent tuple}."""
    prod = {(): {0: 1}}
    for (i, j) in factors:
        prod = _word_product(prod, _jimbo_ints(i, j, n))
    return {w: t for w, d in prod.items() if (t := _laurent(d))}


def expand_pbw(factors, n: int) -> NCPoly:
    """Expansion of an ordered product of root vectors into free words."""
    return NCPoly._raw(n, _rebuild(P_ONE, _pbw_expansion(factors, n), 0))


def f_monomial_of_index_set(I) -> tuple[tuple[int, int], ...]:
    """The multiplicative chain attached to an index set: consecutive pairs
    (j_0,j_1)(j_1,j_2)... of its elements; a singleton gives the empty
    monomial, i.e. the identity."""
    return tuple((I[k], I[k + 1]) for k in range(len(I) - 1))


# ----------------------------------------------------------------------------
# Exact linear algebra: one back-substitution by leading words
# ----------------------------------------------------------------------------

def solve_linear(cols: list[dict], rhs: dict) -> dict:
    """Solve sum_c x_c * cols[c] = rhs for PBW coordinates in the integer
    kernel: the columns {word: Laurent tuple}, rhs {word: {key: int}},
    which the solve consumes, and the solution {c: [(key, int), ...]} for
    each column index c whose coordinate is not zero.  A caller that
    cleared rhs by a common denominator D divides the solution by D when it
    rebuilds it (scalars._rebuild).

    The columns must be triangular, as PBW columns are (each leads with its
    own product of good Lyndon words): distinct deglex-leading words, each
    with coefficient +-q**k.  Then one pass over the leads, largest first,
    reads the solution in Z[q, 1/q].  SingularSystem refuses an empty
    column, a shared lead or rhs outside the span, and NonUnitPivot any
    other lead coefficient.
    """
    leads = {}  # lead -> (column index, (k, s) with its lead coefficient s * q**k)
    for c, col in enumerate(cols):
        if not col:
            raise SingularSystem(f"column {c} is zero")
        lead = max(col, key=deglex_key)
        if lead in leads:
            raise SingularSystem(f"columns {leads[lead][0]} and {c} share the lead {lead}")
        t = col[lead]
        if len(t) != 1 or t[0][1] not in (1, -1):
            raise NonUnitPivot(f"pivot {t} at {lead} is not a signed power of q")
        leads[lead] = (c, t[0])
    xs = {}
    for lead in sorted(leads, key=deglex_key, reverse=True):
        r = rhs.get(lead)
        if r is None:
            continue
        c, (k, s) = leads[lead]
        x = [(key - k, s * a) for key, a in r.items() if a]
        if x:
            xs[c] = x
            minus_x = [(key, -a) for key, a in x]
            for w, y in cols[c].items():
                _convolve(rhs.setdefault(w, {}), minus_x, y)
    if any(a for r in rhs.values() for a in r.values()):
        raise SingularSystem("right-hand side outside the columns' span")
    return xs


def _pbw_basis_columns(mu, rs: RewriteSystem) -> dict:
    """The normal forms of the PBW monomials of multidegree mu, as a dict
    monomial -> column (dict word -> Laurent tuple) in kostant_partitions order,
    cached on rs so that they can never outlive or cross to another system.
    Each column is built factor by factor, every partial product
    normal-formed, so no product leaves the normal words.  solve_linear
    checks that the columns are triangular when it reads them."""
    key = tuple(mu)
    got = rs._pbw_cache.get(key)
    if got is None:
        n = rs.n
        got = {}
        for M in kostant_partitions(mu):
            col = {(): {0: 1}}
            for (i, j) in M:
                col = _nf_sum(_word_product(col, _jimbo_ints(i, j, n)), rs._nf_word)
            got[M] = rs._interned(col)
        rs._pbw_cache[key] = got
    return got


def _pbw_column(M, rs: RewriteSystem) -> dict:
    """Normal form {word: Laurent tuple} of the PBW monomial M, read from
    the column cache; M must be in the sorted form kostant_partitions gives."""
    mu = word_multidegree([k for (i, j) in M for k in range(i, j)], rs.n)
    col = _pbw_basis_columns(mu, rs).get(M)
    if col is None:
        raise ValueError(f"{M} is not a sorted PBW monomial")
    return col


def to_pbw(p: NCPoly, rs: RewriteSystem) -> dict:
    """Coordinates of a homogeneous element in the PBW basis: one
    solve_linear against the PBW columns of its multidegree, on the integer
    kernel's round trip (scalars._through_kernel), as RatQs or, for
    WeightScalar input, WeightScalars.  Columns that are not triangular, or
    an element outside their span, mean the rewriting engine contradicts
    the PBW theorem, which is reported loudly (SingularSystem).  As in
    RewriteSystem.normal_form, ValueError refuses a q-exponent of size
    2**28 or more or a coordinate whose numerator spans more than 2**20
    powers of q; so do from_pbw, divide_right_F and theta_power.
    """
    return _through_kernel(p.terms, lambda ints: _kernel_to_pbw(rs, _nf_sum(ints, rs._nf_word)))


def _kernel_to_pbw(rs: RewriteSystem, nf: dict) -> dict:
    """The PBW coordinates of nf, a normal form in the kernel as {word:
    {key: int}}, which the solve consumes: {monomial: [(key, int), ...]}
    in kostant_partitions order, without the zero coordinates.  Words whose
    integers are all zero are dropped before the solve."""
    nf = {w: c for w, c in nf.items() if any(c.values())}
    if not nf:
        return {}
    basis = _pbw_basis_columns(NCPoly._raw(rs.n, nf).multidegree(), rs)
    xs = solve_linear(list(basis.values()), nf)
    return {M: xs[c] for c, M in enumerate(basis) if c in xs}


def from_pbw(coords: dict, n: int) -> NCPoly:
    """The free-algebra expansion of an element given in PBW coordinates,
    summed in the integer kernel."""
    return NCPoly._raw(
        n, _through_kernel(coords, lambda ints: _nf_sum(ints, lambda M: _pbw_expansion(M, n)))
    )


# ----------------------------------------------------------------------------
# Cartan elements: k_gamma is the WeightScalar monomial with exponent gamma,
# and K_mu is k_{2 mu}
# ----------------------------------------------------------------------------

def h_cartan(i: int, n: int) -> WeightScalar:
    """The Cartan-part factor h_i = -1/q * (v - v**(1-2i) K_{sigma_i}**-2) /
    (v - 1/v) on the k-lattice basis, K_{sigma_i}**-2 being k_{-4 sigma_i}."""
    return H_cartan((i,), n)


def H_cartan(rset, n: int) -> WeightScalar:
    """Product of h_i over an index collection (empty product is 1) as its
    binomial expansion: the factors S taking their k-term give (-1)**(r-|S|)
    q**(3(r-|S|) + sum_S (3-4i)) k_{gamma_S} / (q**4 - 1)**r.  Only repeated
    indices give one gamma_S twice; their integer numerators add."""
    terms = {(0,) * n: (0, 1)}  # gamma -> (q-exponent, integer numerator)
    den = P_ONE
    for i in rset:
        if not 1 <= i <= n:
            raise ValueError("index out of range")
        den = _pmul(den, _Q4_MINUS_1)
        step: dict = {}
        for g, (a, c) in terms.items():
            shifted = tuple(x - 4 if k < i else x for k, x in enumerate(g))
            for key, b, d in ((g, a + 3, -c), (shifted, a + 3 - 4 * i, c)):
                step[key] = (b, d + step.get(key, (0, 0))[1])
        terms = step
    return WeightScalar._raw(n, {g: _raw(a, (c,), den) for g, (a, c) in terms.items()}, "k")


# ----------------------------------------------------------------------------
# Twisted adjoint calculus for F = f_beta
# ----------------------------------------------------------------------------

def _beta_pairing_of_word(w, beta: int) -> int:
    """(alpha_beta, multidegree of w) computed letterwise."""
    return sum(cartan_entry(beta, letter) for letter in w)


def sigma_aut(x: NCPoly, beta: int) -> NCPoly:
    """Grading automorphism sigma = conjugation by K_beta: a word of
    multidegree nu (so of degree -nu in the lattice grading) is scaled by
    v**-(alpha_beta, nu)."""
    terms = {}
    for w, c in x.terms.items():
        s = _beta_pairing_of_word(w, beta)
        cc = RatQ.v_power(-s) * c
        if cc:
            terms[w] = cc
    return NCPoly._raw(x.n, terms)


def ad_F(x: NCPoly, beta: int) -> NCPoly:
    """The sigma-derivation ad_F(x) = F x - sigma(x) F with F = f_beta."""
    F = (beta,)

    def pairs():
        for w, c in x.terms.items():
            yield F + w, c
            yield w + F, -(RatQ.v_power(-_beta_pairing_of_word(w, beta)) * c)

    return NCPoly._raw(x.n, add_terms({}, pairs()))


def ad_F_pow(x: NCPoly, beta: int, n: int) -> NCPoly:
    if n < 0:
        raise ValueError("iterate count must be >= 0")
    out = x
    for _ in range(n):
        out = ad_F(out, beta)
    return out


def ad_F_nilpotency(x: NCPoly, beta: int, rs: RewriteSystem):
    """Smallest k with ad_F**k(x) = 0 in the quotient, together with the
    normal forms of the iterates ad_F**j(x) for j < k.

    Every generator other than F is killed by ad_F**2 and F-free elements
    are therefore annihilated by iterating at most (height + 1) times; the
    hard cap height + 2 flags non-nilpotent inputs (anything containing F
    itself) instead of looping.
    """
    if x.is_zero():
        return 0, []
    hard_cap = sum(x.multidegree()) + 2
    iterates = []
    cur = rs.normal_form(x)
    k = 0
    while not cur.is_zero():
        iterates.append(cur)
        k += 1
        if k > hard_cap:
            raise NilpotencyCapExceeded(
                f"ad_F iterates of multidegree {x.multidegree()} did not "
                f"vanish within {hard_cap} steps"
            )
        cur = rs.normal_form(ad_F(cur, beta))
    return k, iterates


def leibniz_check(a: NCPoly, b: NCPoly, beta: int, n: int) -> bool:
    """Compare ad_F**n(a b) against the twisted binomial expansion
    sum_i v**(i(n-i)) [n choose i]_v sigma**i(ad_F**(n-i)(a)) ad_F**i(b),
    as an identity of free polynomials."""
    lhs = ad_F_pow(a * b, beta, n)
    rhs = NCPoly.zero(a.n)
    for i in range(n + 1):
        term = ad_F_pow(a, beta, n - i)
        for _ in range(i):
            term = sigma_aut(term, beta)
        term = term * ad_F_pow(b, beta, i)
        rhs = rhs + term.scale(RatQ.v_power(i * (n - i)) * qbinom(n, i))
    return lhs == rhs


def fell_u_expand(ell: int, u: NCPoly, beta: int) -> NCPoly:
    """The finite expansion of F**l * u for multidegree-homogeneous u:
    sum_i v**(-i(l-i)) [l choose i]_v v**(i(beta,nu)) ad_F**(l-i)(u) F**i,
    where (beta, nu) is the lattice pairing of alpha_beta with the degree
    of u (so for words in the lowering generators it is minus the pairing
    with the letter-count vector).  Valid identically in the free algebra."""
    if ell < 0:
        raise ValueError("power must be >= 0")
    if u.is_zero():
        return u
    pe = -pairing(alpha(beta, u.n), u.multidegree())
    F = (beta,)
    out = NCPoly.zero(u.n)
    for i in range(ell + 1):
        coeff = RatQ.v_power(-i * (ell - i) + i * pe) * qbinom(ell, i)
        term = ad_F_pow(u, beta, ell - i).rmul_word(F * i).scale(coeff)
        out = out + term
    return out


# ----------------------------------------------------------------------------
# Localized elements and the conjugation operators Psi_r
# ----------------------------------------------------------------------------

class LocElement:
    """Finite sum  sum_j X_j F**j  with X_j polynomials and j any integer;
    the bookkeeping form for conjugation-operator values before their
    F-tails are cleared.  F is the fixed generator f_beta."""

    __slots__ = ("n", "beta", "terms")

    def __init__(self, n: int, beta: int, terms=None):
        self.n = n
        self.beta = beta
        clean = {}
        if terms:
            for j, p in terms.items():
                if p and not p.is_zero():
                    clean[j] = p
        self.terms = clean

    def __add__(self, other):
        if not isinstance(other, LocElement):
            return NotImplemented
        if self.beta != other.beta:
            raise ValueError("mismatched localization generators")
        return LocElement(self.n, self.beta, add_terms(dict(self.terms), other.terms.items()))

    def scale(self, c) -> "LocElement":
        return LocElement(self.n, self.beta, {j: p.scale(c) for j, p in self.terms.items()})

    def rmul_F_power(self, k: int) -> "LocElement":
        return LocElement(self.n, self.beta, {j + k: p for j, p in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def tail_depth(self) -> int:
        """How many inverse powers of F the representation carries."""
        return max(0, -min(self.terms, default=0))

    def cleared(self, rs: RewriteSystem):
        """Return (W, d) with this element equal to W * F**-d, W polynomial
        in normal form: W is the normal form of sum_j X_j F**(j+d)."""
        d = self.tail_depth()
        F = (self.beta,)
        terms: dict = {}
        for j, p in self.terms.items():
            add_terms(terms, ((w + F * (j + d), c) for w, c in p.terms.items()))
        return rs.normal_form(NCPoly._raw(self.n, terms)), d

    def equals(self, other: "LocElement", rs: RewriteSystem) -> bool:
        diff = self + other.scale(RatQ.from_int(-1))
        W, _ = diff.cleared(rs)
        return W.is_zero()


def divide_right_F(W: NCPoly, d: int, beta: int, rs: RewriteSystem) -> NCPoly:
    """The unique theta with theta * F**d = W, when it exists; W need not
    be in normal form, and is normal-formed once.

    Every letter of W must be at most beta (ValueError otherwise).  No lead
    of the q-Serre basis ends in its own largest letter, so for a normal
    word b on the letters 1..beta, b * F**d is normal: W is right-divisible
    exactly when every word of its normal form ends in F**d, and theta is
    that normal form with the suffix stripped (NotRightDivisible
    otherwise).  Each stripped word is a factor of a normal word, so theta
    is in normal form, and theta * F**d equals nf(W) word for word.
    """
    if any(a > beta for w in W.terms for a in w):
        raise ValueError(f"a letter of W exceeds beta = {beta}")
    F = (beta,) * d
    out = {}
    for w, c in rs.normal_form(W).terms.items():
        k = len(w) - d
        if k < 0 or w[k:] != F:
            raise NotRightDivisible("element keeps a negative F power")
        out[w[:k]] = c
    return NCPoly._raw(W.n, out)


def psi(r, u: NCPoly, beta: int, rs: RewriteSystem, formal: bool = False) -> LocElement:
    """Conjugation operator Psi_r(u) = F**r u F**-r as a finite expansion
    sum_j v**(-j(r-j)) [r choose j]_v v**((r-j)(beta,nu)) ad_F**j(u) F**-j,
    truncated at the nilpotency index of ad_F on u.

    With formal=True the parameter enters only through t = v**r and the
    coefficients are Laurent polynomials in t over Q(q); substituting
    t -> v**r recovers the integer-r operator for every r.
    """
    if u.is_zero():
        return LocElement(u.n, beta, {})
    pe = -pairing(alpha(beta, u.n), u.multidegree())
    k, iterates = ad_F_nilpotency(u, beta, rs)
    terms = {}
    for j, uj in enumerate(iterates):
        if formal:
            scal = qbinom_formal(j) * WeightScalar.monomial(
                1, (pe - j,), RatQ.v_power(j * j - j * pe), "t"
            )
            poly = uj.map_scalars(lambda c, s=scal: s * c)
        else:
            coeff = RatQ.v_power(j * j - j * r + (r - j) * pe) * qbinom(r, j)
            poly = uj.scale(coeff)
        if not poly.is_zero():
            terms[-j] = poly
    return LocElement(u.n, beta, terms)


def psi_loc(r, loc: LocElement, beta: int, rs: RewriteSystem, formal: bool = False) -> LocElement:
    """Extend Psi_r over F-tails by Psi_r(F) = F: apply it to each
    polynomial part and keep the tail exponent."""
    out = LocElement(loc.n, beta, {})
    for j, p in loc.terms.items():
        out = out + psi(r, p, beta, rs, formal=formal).rmul_F_power(j)
    return out


def ws_t_rescale(s: WeightScalar, steps: int = 1) -> WeightScalar:
    """Reinterpret a Laurent polynomial in t = v**(r+steps) in terms of
    t = v**r: each monomial t**k picks up v**(k*steps)."""
    return WeightScalar(
        s.n,
        {e: c * RatQ.v_power(e[0] * steps) for e, c in s.terms.items()},
        s.prefix,
    )
