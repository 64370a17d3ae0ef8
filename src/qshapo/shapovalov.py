"""Shapovalov elements three ways, and their cross-validations.

For the highest root eta of sl(N+1) and a level m, a Shapovalov element is a
degree -m*eta element of the lower Borel whose evaluation at any weight lam
with (lam + rho, eta) = m turns the highest weight vector of the Verma module
M(lam) into a highest weight vector, normalized so that the coefficient of
the all-simple-root monomial is 1.  This module constructs such elements by

* ``theta_sum``    -- the closed-form sum over index sets: each chain f_J
                      weighted by the Cartan product H_J of the h_i whose
                      rows the chain skips;
* ``theta_det``    -- the ordered determinant of an almost-triangular
                      matrix with root-vector entries on and above the
                      diagonal and evaluated scalars -c_i on the
                      subdiagonal, expanded along its last column:
                      det_k = sum_r (c_r ... c_{k-1}) det_{r-1} f_{r,k+1};
* ``theta_inductive`` -- the rank induction that conjugates the previous
                      rank's element by a power of the new simple generator,
                      F**(m+r) theta F**-r, realized as a normal form and a
                      right division that strips the suffix F**r;
* ``theta_power``  -- the level-m element as an ordered product of level-one
                      evaluations at shifted weights,

and provides the verification drivers for highest-weight behaviour and for
the determinant comparison identity that ties consecutive ranks together.
"""

from __future__ import annotations

from .freealg import (
    InconsistentResult,
    NCPoly,
    RewriteSystem,
    _nf_sum,
    _word_product,
    get_rewrite_system,
    latex_document,
)
from .roots import alpha, dot_reflect, enumerate_II, eta_vec, pairing, r_of
from .scalars import (
    P_ONE,
    R_ONE,
    RatQ,
    _convolve,
    _dense,
    _laurent,
    _pdiv,
    _pmul,
    _rebuild,
    qint,
)
from .uqsl import (
    _Q4_MINUS_1,
    H_cartan,
    _jimbo_ints,
    _kernel_to_pbw,
    _pbw_column,
    divide_right_F,
    f_monomial_of_index_set,
    from_pbw,
    to_pbw,
)
from .verma import (
    HighestWeight,
    VermaVector,
    _clear,
    act_e,
    cartan_eval,
    h_eval,
)


class InductionPreconditionError(ValueError):
    """A rank-induction step saw a non-positive conjugation exponent."""


class WeightError(ValueError):
    """A weight failed a construction's precondition."""


def pi0_monomial(n: int, m: int) -> tuple:
    """The sorted PBW monomial f_{1,2}^m ... f_{N,N+1}^m, whose coefficient
    normalizes a level-m element."""
    return tuple((i, i + 1) for i in range(1, n + 1) for _ in range(m))


# ----------------------------------------------------------------------------
# The closed sum form
# ----------------------------------------------------------------------------

class ShapoElement:
    """Level-one Shapovalov element as a sum of (PBW chain, Cartan part)
    pairs.  Each term also remembers which h_i indices make up its Cartan
    part, for rendering."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        self.n = n
        # terms: list of (pbw tuple, h-index tuple, Cartan part as a
        # WeightScalar in the k-lattice)
        self.terms = sorted(terms, key=lambda t: t[0])

    def evaluate(self, hw: HighestWeight) -> dict:
        """Map PBW monomial -> scalar obtained by evaluating each Cartan
        part at the weight; vanishing coefficients are dropped."""
        out = {}
        for pbw, _, H in self.terms:
            c = cartan_eval(H, hw)
            if c:
                out[pbw] = c
        return out

    # -- rendering --------------------------------------------------------

    def to_text(self) -> str:
        parts = []
        for pbw, hs, _ in self.terms:
            fs = "".join(f"f[{i},{j}]" for (i, j) in pbw)
            if hs:
                fs += "\u00b7" + "".join(f"h{i}" for i in hs)
            parts.append(fs)
        return " + ".join(parts)

    def to_json_obj(self) -> dict:
        terms = []
        for pbw, hs, H in self.terms:
            terms.append(
                {
                    "pbw": [list(p) for p in pbw],
                    "h_factors": list(hs),
                    "h": {
                        ",".join(map(str, g)): str(c) for g, c in sorted(H.terms.items())
                    },
                }
            )
        return {"n": self.n, "m": 1, "method": "sum", "terms": terms}

    def to_latex(self) -> str:
        parts = []
        for pbw, hs, _ in self.terms:
            fs = "".join(f"f_{{{i},{j}}}" for (i, j) in pbw)
            fs += "".join(f"h_{{{i}}}" for i in hs)
            parts.append(fs if fs else "1")
        return latex_document(" + ".join(parts))


def theta_sum(n: int) -> ShapoElement:
    """The level-one element: the sum over all index sets of the chain f_J
    times the product of h_i over the skipped rows."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    terms = []
    for J in enumerate_II(n):
        rset = r_of(J, n)
        terms.append((f_monomial_of_index_set(J), rset, H_cartan(rset, n)))
    return ShapoElement(n, terms)


def theta_vector(coords: dict, hw: HighestWeight, rs: RewriteSystem) -> VermaVector:
    """Apply an evaluated element (PBW coordinates) to the highest weight
    vector: each PBW monomial's normal form is read from the PBW column
    cache of rs, scaled by its coordinate and added into one sum.  The
    monomials must be in sorted PBW form.

    The map is Q(q)-linear, so the coordinates are cleared once, by a
    common denominator D (the (q**4 - 1)**j of the h_i at a symbolic
    weight), and the sum runs with no gcd on the integer kernel of verma;
    the vector keeps D, which act_e reads as it is."""
    D, ints = _clear(hw, {M: coords[M] for M in sorted(coords)})
    return VermaVector._kernel(hw, D, _nf_sum(ints, lambda M: _pbw_column(M, rs)))


def _level_one(hw: HighestWeight, rs: RewriteSystem):
    """The level-one element at hw applied to the highest weight vector,
    (D, {word: {key: int}}) in the integer kernel of verma: the D and the
    integers of theta_vector(theta_sum(n).evaluate(hw), hw, rs), built with
    no PBW coordinates, column or rewritten product.

    Grouping theta_sum's chains by their last segment (a, b), whose skipped
    rows are a..b-2, gives theta_det's recurrence P_b = sum_{a<b} P_a
    g(a, b) nf(f_{a,b}) with P_1 = 1, g(a, b) = h_a(lam) ... h_{b-2}(lam)
    and theta = P_{N+1}.  P_a lies on the letters 1..a-1 and nf(f_{a,b}) on
    a..b-1, and a normal word on smaller letters followed by one on larger
    letters is normal (no lead of the q-Serre basis has an ascent that such
    a boundary could cut), so each product is a concatenation.  Each word
    that P_b reaches is checked against the automaton all the same, since
    rs may be any system: one that is not normal raises InconsistentResult.

    The h_i are cleared once (a zero one drops out as a zero factor).  Over
    q**4 - 1 each has two terms, and each segment after the first brings
    one q**4 - 1, so every chain carries D = (q**4 - 1)**(N-1), the D of a
    symbolic weight.  At a numeric weight h_i(lam) is a Laurent polynomial
    spanning about 4 (lam + rho, sigma_i) powers of q, and products of such
    dense factors would cost the product of their spans; so the sum runs
    over the same D there, and D is divided out of each word at the end,
    leaving the D = 1 of theta_vector."""
    n = hw.n
    q4 = [(k, a) for k, a in enumerate(_Q4_MINUS_1) if a]
    _, h = _clear(hw, {i: h_eval(i, hw) for i in range(1, n)})
    if hw.mode == "numeric":
        h = {i: {k: a for k, a in _convolved(c.items(), q4) if a} for i, c in h.items()}
    first = rs._first_reduction
    levels = [None, {(): {0: 1}}]  # levels[a] is P_a
    for b in range(2, n + 2):
        # nf(f_{1,b}) first: it extends rs to the length of the words checked below
        roots = {}
        for a in range(1, b):
            nf = _nf_sum(_jimbo_ints(a, b, n), rs._nf_word)
            roots[a] = [(v, t) for v, d in nf.items() if (t := _laurent(d))]
        acc: dict = {}
        g = [(0, 1)]  # g(a, b) as (key, int) pairs
        for a in range(b - 1, 0, -1):
            if a < b - 1:
                if a not in h:
                    break  # h_a(lam) = 0, and so is g(a', b) for every a' <= a
                g = _convolved(h[a].items(), g)
            s = _convolved(g, q4) if a > 1 else g
            for u, c in levels[a].items():
                t = _convolved(c.items(), s)
                for v, cv in roots[a]:
                    d = acc.get(u + v)
                    if d is None:
                        d = acc[u + v] = {}
                    _convolve(d, t, cv)
        if any(first(w) is not None for w in acc):
            raise InconsistentResult("a product of normal words on ordered letters is not normal")
        # P_b is the rank b-1 element times (q**4 - 1)**(b-2), whose sum
        # cancels most of the integers it adds (two in three at N = 10);
        # each word's accumulator is dropped as its integers are copied
        levels.append(
            {w: d for w in list(acc) if (d := {k: a for k, a in acc.pop(w).items() if a})}
        )
    D = P_ONE
    for _ in range(n - 1):
        D = _pmul(D, _Q4_MINUS_1)
    if hw.mode == "symbolic" or D == P_ONE:
        return D, levels[-1]
    out = {}
    for w, c in levels[-1].items():
        lo, num = _dense(c)
        quo = _pdiv(num, D)
        if quo is None:
            raise InconsistentResult(f"theta at a numeric weight is not Laurent at {w}")
        out[w] = {k: a for k, a in enumerate(quo, lo) if a}
    return P_ONE, out


def _convolved(a, b) -> list:
    """The product of two scalars given as (key, int) pairs, b the shorter,
    as (key, int) pairs."""
    acc: dict = {}
    _convolve(acc, a, b)
    return list(acc.items())


# ----------------------------------------------------------------------------
# The ordered determinant form
# ----------------------------------------------------------------------------

def theta_det(n: int, hw: HighestWeight) -> dict:
    """The ordered determinant of the almost-triangular matrix, in PBW
    coordinates.

    Entry (r, c) is the root vector f_{r,c+1} for r <= c and the scalar
    -c_c = -h_c(lam) for r = c + 1.  Expanding det_k, the leading k x k
    minor, along its last column gives

        det_k = sum_{r=1..k} (c_r ... c_{k-1}) det_{r-1} f_{r,k+1},

    with det_0 = 1: row r of column k leaves a block triangular minor whose
    subdiagonal scalars -c_r .. -c_{k-1} cancel the sign of the cycle.
    Root vectors stay in column order, so each term is a chain f_J.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    if hw.n < n:
        raise WeightError("weight has too few pairings for this rank")
    det, scaled = {(): hw.one()}, []
    for k in range(1, n + 1):
        # scaled[r - 1] is (c_r ... c_{k-1}) det_{r-1}
        if scaled:
            c = h_eval(k - 1, hw)
            scaled = [{J: x * c for J, x in d.items()} if c else {} for d in scaled]
        scaled.append(det)
        det = {J + ((r, k + 1),): x for r, d in enumerate(scaled, 1) for J, x in d.items()}
    return det


# ----------------------------------------------------------------------------
# The rank induction
# ----------------------------------------------------------------------------

class InductiveTheta:
    """Result of the rank induction at a numeric weight: raw PBW
    coordinates, the per-step conjugation exponents, the leading
    coefficient with its predicted value, and the element's normal form."""

    __slots__ = ("n", "m", "chain", "r_values", "coords", "pi0", "poly")

    def __init__(self, n, m, chain, r_values, coords, pi0, poly):
        self.n = n
        self.m = m
        self.chain = chain
        self.r_values = r_values
        self.coords = coords
        self.pi0 = pi0
        self.poly = poly

    def predicted_pi0(self) -> RatQ:
        out = R_ONE
        for r in self.r_values:
            out = out * RatQ.v_power(self.m * (r + self.m))
        return out

    def normalized(self) -> dict:
        inv = self.pi0.inverse()
        return {M: c * inv for M, c in self.coords.items()}


def theta_inductive(
    n: int, m: int, lam, rs: RewriteSystem | None = None
) -> InductiveTheta:
    """Build the level-m element at a numeric weight by rank induction.

    Walking the flag of subalgebras generated by the first i simple roots,
    the element for rank i is the conjugation F_i**(m+r) theta F_i**-r of
    the element theta for rank i-1, where r = (mu + rho, alpha_i) and mu is
    the dot-reflection of the current weight at alpha_i; this is F_i**m
    Psi_r(theta).  Every step requires r to be a positive integer
    (InductionPreconditionError otherwise), and is one normal form of
    F_i**(m+r) theta and one right division by F_i**r, a suffix strip.
    NotRightDivisible there would mean the construction left the
    polynomial algebra.  The result keeps theta's normal form as ``poly``.
    """
    if n < 1 or m < 1:
        raise ValueError("rank and level must be >= 1")
    chain, r_values = reflection_chain(n, lam)
    if rs is None:
        rs = get_rewrite_system(n)
    theta = NCPoly.word((1,) * m, n)
    for i, r in enumerate(r_values, 2):
        theta = divide_right_F(theta.lmul_word((i,) * (m + r)), r, i, rs)
    coords = to_pbw(theta, rs)
    pi0 = coords.get(pi0_monomial(n, m))
    if pi0 is None:
        raise InconsistentResult("leading monomial missing from induction result")
    return InductiveTheta(n, m, chain, r_values, coords, pi0, theta)


def reflection_chain(n: int, lam) -> tuple[dict, list]:
    """(chain, r_values) of the rank induction at lam: chain[i] is the
    weight for rank i, and r_values the exponents of steps 2..n.  It raises
    as theta_inductive does on a bad weight, and builds nothing."""
    lam = tuple(lam)
    if len(lam) != n:
        raise WeightError("weight has wrong rank")
    chain = {n: lam}
    for i in range(n, 1, -1):
        chain[i - 1] = dot_reflect(i, chain[i])
    r_values = []
    for i in range(2, n + 1):
        r = chain[i - 1][i - 1] + 1
        if r < 1:
            raise InductionPreconditionError(
                f"step {i} needs a positive exponent, got {r}"
            )
        r_values.append(r)
    return chain, r_values


# ----------------------------------------------------------------------------
# Powers
# ----------------------------------------------------------------------------

def check_power_weight(n: int, m: int, lam) -> tuple:
    """lam as a tuple; raises WeightError unless it has rank n and satisfies
    (lam + rho, eta) = m.  It builds nothing, so a caller can refuse a
    weight before it loads a rewriting system."""
    lam = tuple(lam)
    if len(lam) != n:
        raise WeightError("weight has wrong rank")
    if sum(lam) != m - n:
        raise WeightError(f"weight must satisfy (lam + rho, eta) = {m}")
    return lam


def theta_power(n: int, m: int, lam, rs: RewriteSystem | None = None) -> dict:
    """Level-m element at lam as the ordered product of level-one
    evaluations at lam - (m-1)eta, ..., lam - eta, lam (left to right); at
    m = 1 this is the evaluated closed sum.  Raises WeightError unless
    (lam + rho, eta) = m."""
    lam = check_power_weight(n, m, lam)
    if m == 1:
        return theta_sum(n).evaluate(HighestWeight.numeric(lam))
    if rs is None:
        rs = get_rewrite_system(n)
    eta = eta_vec(n)
    eta_pair = [pairing(eta, alpha(k, n)) for k in range(1, n + 1)]
    # a factor is the level-one normal form that _level_one builds, with no
    # PBW coordinates or columns, and normal-forming each partial product
    # keeps the product on the normal words of its multidegree; the free
    # product would grow to as many as (N!)**m words.  The product stays in
    # the integer kernel, 1/D times {word: {q-exponent: int}}, through the
    # PBW solve.
    D, prod = P_ONE, {(): {0: 1}}
    for j in range(m - 1, -1, -1):
        hw = HighestWeight.numeric(tuple(lam[k] - j * eta_pair[k] for k in range(n)))
        E, factor = _level_one(hw, rs)
        prod = _nf_sum(_word_product(prod, factor), rs._nf_word)
        D = _pmul(D, E)
    return _rebuild(D, _kernel_to_pbw(rs, prod), 0)


# ----------------------------------------------------------------------------
# Verification drivers
# ----------------------------------------------------------------------------

class Checks:
    """A verification report, one entry {"check", "status", "witness"} per
    check, in the order the checks are declared (a check first recorded
    without a declaration is appended).

    A check fails if any recorded outcome failed, and its entry shows the
    witness of the last failure.  A check with no failure, including one
    declared but never reached, passes with witness "0", or with the
    witness given to ``show``.
    """

    def __init__(self, *names):
        self._failed = {}  # name -> witness of the last failure, or None
        self._shown = {}
        self.declare(*names)

    def declare(self, *names):
        for name in names:
            self._failed.setdefault(name, None)

    def check(self, name, ok, witness="0") -> bool:
        """Record one outcome of the check ``name``."""
        self.declare(name)
        if not ok:
            self._failed[name] = witness
        return ok

    def show(self, name, witness):
        """Set the witness that a passing ``name`` shows instead of "0"."""
        self._shown[name] = witness

    def report(self) -> list[dict]:
        return [
            {
                "check": name,
                "status": "pass" if bad is None else "fail",
                "witness": self._shown.get(name, "0") if bad is None else bad,
            }
            for name, bad in self._failed.items()
        ]


def check_hwv_args(n: int, m: int, mode: str, lam=None) -> None:
    """Raise ValueError for arguments verify_hwv refuses.  It builds
    nothing, so a caller can refuse them before it loads a system."""
    if mode == "symbolic":
        if m != 1:
            raise ValueError("symbolic verification is level-one only")
        if lam is not None:
            raise ValueError("symbolic verification takes no weight; use sampled mode")
    elif mode != "sampled":
        raise ValueError("mode must be symbolic or sampled")
    elif lam is not None:
        check_power_weight(n, m, lam)


def verify_hwv(
    n: int,
    m: int = 1,
    mode: str = "symbolic",
    lam=None,
    samples: int = 5,
    seed: int = 0,
    rs: RewriteSystem | None = None,
) -> list[dict]:
    """Check that the constructed element produces highest weight vectors.

    Symbolic mode (level one): theta*v is built once, at a fully
    unconstrained symbolic weight, segment by segment from the closed sum
    (_level_one), for the raising checks with k < N; the k = N check raises
    the same integers at the hyperplane weight, exact since no Cartan part
    of theta_sum, so no key of theta*v, holds k_N or y_N.  Sampled mode:
    numeric weights
    on the hyperplane (or the given lam), with the level-m element built as
    a power when m > 1.  Returns one report entry per check.
    """
    check_hwv_args(n, m, mode, lam)
    if rs is None:
        rs = get_rewrite_system(n)
    checks = Checks()

    def kills(k, vec, name):
        e = act_e(k, vec, rs)
        checks.check(name, e.is_zero(), e.witness())

    if mode == "symbolic":
        free = HighestWeight.symbolic(n)
        vec = VermaVector._kernel(free, *_level_one(free, rs))
        for k in range(1, n):
            kills(k, vec, f"e_{k} kills theta*v (symbolic, unconstrained)")
        tied = VermaVector._kernel(HighestWeight.symbolic(n, hyperplane_m=1), vec.D, vec.ints)
        kills(n, tied, f"e_{n} kills theta*v (symbolic, on hyperplane)")
        return checks.report()
    from .roots import hyperplane_sample

    weights = [tuple(lam)] if lam is not None else hyperplane_sample(n, m, samples, seed)
    for w in weights:
        hw = HighestWeight.numeric(w)
        vec = theta_vector(theta_power(n, m, w, rs), hw, rs)
        for k in range(1, n + 1):
            kills(k, vec, f"e_{k} kills theta*v at lambda={','.join(map(str, w))}")
    return checks.report()


def compare_doot(
    n: int,
    p: int,
    mu=None,
    rs: RewriteSystem | None = None,
) -> dict:
    """The determinant comparison across consecutive ranks.

    With mu integral such that (mu + rho) pairs to 1 with the sub-rank
    highest root and to p >= 1 with alpha_N, and lam its dot-reflection at
    alpha_N, check F**(p+1) det(rank N-1 at mu) = v**(p+1) det(rank N at
    lam) F**p in the quotient, along with the subdiagonal scalar matches
    c_{N-1}(lam) = -1/q v**-p [p+1]_v and c_i(lam) = c_i(mu) for small i.
    """
    if n < 2 or p < 1:
        raise ValueError("needs rank >= 2 and p >= 1")
    if rs is None:
        rs = get_rewrite_system(n)
    if mu is None:
        # (mu + rho, alpha_i) = b_i with b_1 + .. + b_{N-1} = 1 and b_N = p
        b = [1] + [0] * (n - 2) + [p]
        mu = tuple(x - 1 for x in b)
    mu = tuple(mu)
    if len(mu) != n:
        raise WeightError("weight has wrong rank")
    if sum(mu[: n - 1]) + (n - 1) != 1:
        raise WeightError("mu must pair to 1 with the sub-rank highest root")
    if mu[n - 1] + 1 != p:
        raise WeightError("mu must pair to p with the last simple root")
    lam = dot_reflect(n, mu)
    hw_mu = HighestWeight.numeric(mu[: n - 1])
    hw_lam = HighestWeight.numeric(lam)
    sub = theta_det(n - 1, hw_mu)
    full = theta_det(n, hw_lam)
    F = (n,)
    lhs = from_pbw(sub, n).lmul_word(F * (p + 1))
    rhs = from_pbw(full, n).rmul_word(F * p).scale(RatQ.v_power(p + 1))
    det_ok = rs.normal_form(lhs) == rs.normal_form(rhs)
    c_last = h_eval(n - 1, hw_lam)
    c_last_expect = -(RatQ.q_power(-1) * RatQ.v_power(-p)) * qint(p + 1)
    scalars_ok = c_last == c_last_expect and all(
        h_eval(i, hw_lam) == h_eval(i, HighestWeight.numeric(mu)) for i in range(1, n - 1)
    )
    checks = Checks()
    checks.check(
        f"rank comparison n={n} p={p} at mu={','.join(map(str, mu))}",
        det_ok and scalars_ok,
        "determinant or scalar mismatch",
    )
    return {**checks.report()[0], "lambda": lam}


def make_doot_weight(n: int, p: int, seed: int = 0, sample: int = 0):
    """A family of admissible mu for compare_doot: pairings (mu+rho, alpha_i)
    = b_i with b_1 + ... + b_{N-1} = 1 and b_N = p, varied by seed."""
    import random

    rng = random.Random(f"{seed}:{n}:{p}:{sample}")
    b = [rng.randint(-2, 2) for _ in range(n - 1)]
    b[0] += 1 - sum(b)
    b.append(p)
    return tuple(x - 1 for x in b)
