"""The rewriting engine's normal forms, PBW columns and solve in RatQ
arithmetic: the library's code before it moved onto Laurent tuples, kept
here as oracles for the Laurent engine.  The Cartan parts and the Kostant
partitions as they were computed before their closed forms follow at the
end: h_i products by WeightScalar multiplication, their evaluation as a sum
of RatQ terms, the eigenvalues of k_gamma by substituting the hyperplane
into a monomial, and the brute-force recursion over the interval list.
Last come RatQ and WeightScalar rendering as they were before their strings
were memoised.

Each oracle reads a system's rules (RatQ) and its automaton but none of its
caches; a normal-form oracle keeps its own cache of single-word normal
forms, dicts word -> RatQ shared between words as the library's are.
"""

from qshapo.freealg import NCPoly, deglex_key
from qshapo.roots import kostant_partitions, positive_roots, root_vector
from qshapo.scalars import (
    P_ONE,
    R_ONE,
    R_ZERO,
    V_MINUS_VINV,
    RatQ,
    WeightScalar,
    _laurent_of,
    _pack,
    _pstr,
    _ratq_of,
    add_terms,
)
from qshapo.uqsl import jimbo


def ratq_terms(laurent: dict) -> dict:
    """{word: RatQ} of {word: Laurent tuple}."""
    return {w: _ratq_of(t) for w, t in laurent.items()}


def laurent_terms(terms: dict) -> dict:
    """{word: Laurent tuple} of {word: RatQ}, each a Laurent polynomial."""
    return {w: _laurent_of(c) for w, c in terms.items()}


class RatQNormalForms:
    """Single-word normal forms over RatQ for one system, with their own
    cache: the library's _nf_word and normal_form as they were."""

    def __init__(self, rs):
        self.rs = rs
        self.cache: dict = {}
        minus_one = -R_ONE
        self.rhs = {
            lead: tuple((u, c, 1 if c == R_ONE else -1 if c == minus_one else 0)
                        for u, c in rule.terms.items())
            for lead, rule in rs.rules.items()
        }

    def nf_word(self, w) -> dict:
        cache = self.cache
        got = cache.get(w)
        if got is not None:
            return got
        pending: dict = {}
        stack = [w]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            children = pending.get(cur)
            if children is None:
                hit = self.rs._first_reduction(cur)
                if hit is None:
                    cache[cur] = {cur: R_ONE}
                    stack.pop()
                    continue
                pos, ln = hit
                pre, post = cur[:pos], cur[pos + ln :]
                rhs = self.rhs[cur[pos : pos + ln]]
                children = [(pre + u + post, c, unit) for u, c, unit in rhs]
                missing = [u for u, _, _ in children if u not in cache]
                if missing:
                    pending[cur] = children
                    stack.extend(missing)
                    continue
            stack.pop()
            if len(children) == 1 and children[0][2] == 1:
                cache[cur] = cache[children[0][0]]
                continue
            acc: dict = {}
            for u, c, unit in children:
                sub = cache[u].items()
                if unit == 1:
                    add_terms(acc, sub)
                elif unit == -1:
                    add_terms(acc, ((x, -cx) for x, cx in sub))
                else:
                    add_terms(acc, ((x, c * cx) for x, cx in sub))
            cache[cur] = acc
        return cache[w]

    def normal_form(self, p: NCPoly) -> NCPoly:
        terms: dict = {}
        for w, c in p.terms.items():
            add_terms(terms, ((x, c * cx) for x, cx in self.nf_word(w).items()))
        return NCPoly._raw(p.n, terms)

    def pbw_columns(self, mu) -> dict:
        """{PBW monomial: its normal form}, each built factor by factor."""
        n = self.rs.n
        got = {}
        for M in kostant_partitions(mu):
            prod = NCPoly.one(n)
            for (i, j) in M:
                prod = self.normal_form(prod * jimbo(i, j, n))
            got[M] = prod.terms
        return got

    def to_pbw(self, p: NCPoly) -> dict:
        nf = self.normal_form(p)
        if nf.is_zero():
            return {}
        basis = self.pbw_columns(nf.multidegree())
        status, xs = solve_linear(list(basis.values()), nf.terms)
        assert status == "ok"
        return {M: x for M, x in zip(basis, xs) if x}


def solve_linear(cols: list, rhs: dict, pivots_seen=None):
    """Solve sum_c x_c * cols[c] = rhs over RatQ by leading words; the
    library's solve_linear as it was.  Each pivot's lead coefficient is
    appended to pivots_seen when that is a list."""
    pivots = {}
    for c, col in enumerate(cols):
        combo = None
        while col:
            lead = max(col, key=deglex_key)
            hit = pivots.get(lead)
            if hit is None:
                break
            pc, pcol, pinv, pcombo = hit
            f = col[lead] * pinv
            col = add_terms(dict(col), ((w, -(f * y)) for w, y in pcol.items()))
            combo = add_terms(
                combo or {c: R_ONE},
                ((k, -(f * y)) for k, y in (pcombo or {pc: R_ONE}).items()),
            )
        else:
            return ("singular",)
        if pivots_seen is not None:
            pivots_seen.append(col[lead])
        pivots[lead] = (c, col, col[lead].inverse(), combo)
    rest = dict(rhs)
    xs: dict = {}
    for lead in sorted(pivots, key=deglex_key, reverse=True):
        r = rest.get(lead)
        if r is None:
            continue
        c, col, inv, combo = pivots[lead]
        x = r * inv
        add_terms(rest, ((w, -(x * y)) for w, y in col.items()))
        add_terms(xs, ((k, x * y) for k, y in combo.items()) if combo else ((c, x),))
    if rest:
        return ("inconsistent",)
    return ("ok", [xs.get(c, R_ZERO) for c in range(len(cols))])


def h_cartan_product(i: int, n: int) -> WeightScalar:
    """h_i = -1/q * (v - v**(1-2i) K_{sigma_i}**-2) / (v - 1/v), its two
    coefficients computed in RatQ arithmetic."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    qinv = RatQ.q_power(-1)
    c0 = -(qinv * RatQ.v_power(1)) / V_MINUS_VINV
    c1 = (qinv * RatQ.v_power(1 - 2 * i)) / V_MINUS_VINV
    gamma = tuple(-4 if k < i else 0 for k in range(n))
    return WeightScalar(n, {(0,) * n: c0, gamma: c1}, "k")


def H_cartan_product(rset, n: int) -> WeightScalar:
    """The product of the h_i over rset as WeightScalars."""
    out = WeightScalar.one(n, "k")
    for i in rset:
        out = out * h_cartan_product(i, n)
    return out


def cartan_eval_sum(H: WeightScalar, hw):
    """H at the highest weight as the sum of its terms c * hw.k_eigen(gamma),
    one scalar addition per term."""
    out = hw.zero()
    for gamma, c in H.terms.items():
        out = out + c * hw.k_eigen(gamma)
    return out


def k_eigen_by_substitution(hw, gamma):
    """q**(lam, gamma) as a scalar of the weight, as it was computed before
    HighestWeight.eigen: the pairing at a numeric weight, else the monomial
    y**gamma with, on the hyperplane y_1...y_n = q**(m-n), y_n replaced by
    q**(m-n) * (y_1...y_{n-1})**-1."""
    n = len(gamma)
    if n != hw.n:
        raise ValueError("lattice vector has wrong rank")
    if hw.mode == "numeric":
        return RatQ.q_power(sum(g * p for g, p in zip(gamma, hw.pairings)))
    ws = WeightScalar.monomial(n, tuple(gamma))
    m = hw.hyperplane_m
    if m is None:
        return ws
    terms: dict = {}
    for e, c in ws.terms.items():
        d = e[n - 1]
        if d:
            c = c * RatQ.q_power((m - n) * d)
            e = tuple(x - d for x in e[: n - 1]) + (0,)
        add_terms(terms, ((e, c),))
    return WeightScalar(n, terms)


def monomial_key(c):
    """(key, sign) of a scalar +-q**k * y**e, a WeightScalar or (with e = ())
    a RatQ, as act_e and act_k read an eigenvalue before
    HighestWeight.eigen; anything else raises ValueError."""
    terms = c.terms.items() if isinstance(c, WeightScalar) else (((), c),)
    if len(terms) == 1:
        (e, x), = terms
        if x.den == P_ONE and x.num in ((1,), (-1,)):
            return _pack(e, x.val), x.num[0]
    raise ValueError(f"not a signed q-power times a y-monomial: {c}")


def kostant_partitions_by_roots(mu) -> tuple:
    """The Kostant partitions of mu by a recursion over the interval list:
    each root in turn takes every multiplicity the remainder allows."""
    n = len(mu)
    roots = positive_roots(n)

    def rec(rem, idx):
        if all(x == 0 for x in rem):
            return [()]
        if idx == len(roots):
            return []
        out = []
        vec = root_vector(roots[idx], n)
        cap = min(r for r, v in zip(rem, vec) if v)
        for mult in range(cap + 1):
            rest = tuple(r - mult * v for r, v in zip(rem, vec))
            if any(x < 0 for x in rest):
                break
            for tail in rec(rest, idx + 1):
                out.append((roots[idx],) * mult + tail)
        return out

    if any(x < 0 for x in mu):
        return ()
    return tuple(sorted(rec(tuple(mu), 0)))


def ratq_str(x: RatQ) -> str:
    """str(x): the dense numerator, over the dense denominator unless that
    is 1, each in parentheses when it has more than one term."""
    num, den = x.dense()
    ns = _pstr(num)
    if den == P_ONE:
        return ns
    if len([c for c in num if c]) > 1:
        ns = f"({ns})"
    ds = _pstr(den)
    if len([c for c in den if c]) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def weight_scalar_str(ws: WeightScalar) -> str:
    """str(ws): its terms in sorted exponent order, each coefficient (in
    parentheses unless a single signed term) times its symbol powers."""

    def sym(i):
        return ws.prefix if ws.n == 1 else f"{ws.prefix}{i + 1}"

    if not ws.terms:
        return "0"
    parts = []
    for e in sorted(ws.terms):
        c = ws.terms[e]
        syms = "*".join(f"{sym(i)}^{k}" if k != 1 else sym(i) for i, k in enumerate(e) if k)
        cs = ratq_str(c)
        if "/" in cs or "+" in cs or "-" in cs[1:]:
            cs = f"({cs})"
        parts.append(f"{cs}*{syms}" if syms else cs)
    return " + ".join(parts)
