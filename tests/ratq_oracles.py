"""The rewriting engine's normal forms, PBW columns and solve in RatQ
arithmetic: the library's code before it moved onto Laurent tuples, kept
here as oracles for the Laurent engine.

Each oracle reads a system's rules (RatQ) and its automaton but none of its
caches; a normal-form oracle keeps its own cache of single-word normal
forms, dicts word -> RatQ shared between words as the library's are.
"""

from qshapo.freealg import NCPoly, deglex_key
from qshapo.scalars import R_ONE, R_ZERO, _laurent_of, _ratq_of, add_terms
from qshapo.uqsl import jimbo, pbw_monomials


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
        for M in pbw_monomials(mu, n):
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
