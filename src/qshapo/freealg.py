"""Free noncommutative algebra over the lowering generators f_1..f_N and the
degree-graded rewriting engine that decides equality in the quotient by the
q-Serre ideal.

Words are tuples of letters in 1..N; a polynomial is a finite map from words
to scalars.  The monomial order is degree-lexicographic with f_1 < ... < f_N,
comparing letters left to right, so tuple comparison on (len, word) realizes
it directly.  The Serre relations are homogeneous in the multidegree (the
letter-count vector), every rewrite preserves multidegree, and completion is
truncated at a degree cap: all overlap ambiguities of degree <= cap are
resolved, which certifies that normal forms are canonical in those degrees.
Zero-testing in the quotient is, by definition, normal_form(p) == 0.
"""

from __future__ import annotations

import heapq
from io import StringIO

from .scalars import R_ONE, RatQ, add_terms

FORMAT_VERSION = "qshapo-rws-v1"
DEFAULT_CAP_BUDGET = 16


class CapExceeded(Exception):
    """A word exceeded the certified degree cap of a rewrite system."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"degree {needed} exceeds the rewrite cap {cap}; "
            f"rebuild the system with cap >= {needed}"
        )


class CacheCorrupt(Exception):
    """A serialized rewrite system failed structural validation."""


# ----------------------------------------------------------------------------
# NCPoly
# ----------------------------------------------------------------------------

class NCPoly:
    """Finite linear combination of words over letters 1..n.

    Coefficients are RatQ by default but any commutative scalar type with
    +, -, * (including by RatQ on the left) and a truthy zero-test works;
    verma.VermaVector is this class with scalars of a weight as
    coefficients.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[w] = c
        self.terms = clean

    @classmethod
    def _raw(cls, n, terms):
        self = object.__new__(cls)
        self.n, self.terms = n, terms
        return self

    @classmethod
    def zero(cls, n: int) -> "NCPoly":
        return cls._raw(n, {})

    @classmethod
    def one(cls, n: int) -> "NCPoly":
        return cls._raw(n, {(): R_ONE})

    @classmethod
    def letter(cls, i: int, n: int) -> "NCPoly":
        if not 1 <= i <= n:
            raise ValueError("letter out of range")
        return cls._raw(n, {(i,): R_ONE})

    @classmethod
    def word(cls, w, n: int, coeff=R_ONE) -> "NCPoly":
        return cls(n, {tuple(w): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def _new(self, terms) -> "NCPoly":
        """An element of the same kind as self with the given terms (no zero
        coefficients); +, -, unary - and scale build their results here, so
        a subclass that carries more state overrides only this."""
        return NCPoly._raw(self.n, terms)

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._new(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        terms = add_terms(dict(self.terms), ((w, -c) for w, c in other.terms.items()))
        return self._new(terms)

    def __neg__(self):
        return self._new({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "NCPoly":
        if not c:
            return self._new({})
        return self._new({w: c * x for w, x in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        terms = add_terms(
            {},
            (
                (w1 + w2, c1 * c2)
                for w1, c1 in self.terms.items()
                for w2, c2 in other.terms.items()
            ),
        )
        return NCPoly._raw(self.n, terms)

    def lmul_word(self, w) -> "NCPoly":
        w = tuple(w)
        return NCPoly._raw(self.n, {w + u: c for u, c in self.terms.items()})

    def rmul_word(self, w) -> "NCPoly":
        w = tuple(w)
        return NCPoly._raw(self.n, {u + w: c for u, c in self.terms.items()})

    def map_scalars(self, fn) -> "NCPoly":
        out = {}
        for w, c in self.terms.items():
            x = fn(c)
            if x:
                out[w] = x
        return NCPoly._raw(self.n, out)

    def multidegree(self) -> tuple[int, ...]:
        """Letter-count vector, asserting homogeneity across all terms."""
        it = iter(self.terms)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("multidegree of the zero polynomial")
        deg = word_multidegree(first, self.n)
        for w in it:
            if word_multidegree(w, self.n) != deg:
                raise ValueError("polynomial is not multidegree-homogeneous")
        return deg

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def leading_word(self):
        return max(self.terms, key=lambda w: (len(w), w))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            ws = "*".join(f"f{i}" for i in w) if w else "1"
            parts.append(f"({c})*{ws}")
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def word_multidegree(w, n: int) -> tuple[int, ...]:
    d = [0] * n
    for letter in w:
        d[letter - 1] += 1
    return tuple(d)


def deglex_key(w):
    return (len(w), w)


def latex_document(body: str) -> str:
    """A standalone LaTeX document showing one displayed formula."""
    return (
        "\\documentclass{article}\n\\begin{document}\n"
        f"\\[ {body} \\]\n\\end{{document}}\n"
    )


# ----------------------------------------------------------------------------
# Serre relations
# ----------------------------------------------------------------------------

def serre_relations(n: int) -> list[NCPoly]:
    """Defining relations of the negative part: for adjacent generators the
    q-deformed cubic relation with middle coefficient v + 1/v, for distant
    ones plain commutation."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    two_v = RatQ.v_power(1) + RatQ.v_power(-1)
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if abs(i - j) == 1:
                out.append(
                    NCPoly(
                        n,
                        {
                            (i, i, j): R_ONE,
                            (i, j, i): -two_v,
                            (j, i, i): R_ONE,
                        },
                    )
                )
            elif j > i + 1:
                out.append(NCPoly(n, {(i, j): R_ONE, (j, i): -R_ONE}))
    return out


# ----------------------------------------------------------------------------
# Rewrite system
# ----------------------------------------------------------------------------

class RewriteSystem:
    """Confluent-up-to-cap rewriting rules for the q-Serre quotient.

    ``rules`` maps a leading word to its replacement polynomial; replacements
    are multidegree-homogeneous with every word strictly smaller in deglex.
    Instances are immutable once completed; normal_form is pure and caches
    single-word reductions.
    """

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        self.rules: dict[tuple, NCPoly] = {}
        self._lead_lengths: tuple[int, ...] = ()
        self._nf_cache: dict[tuple, dict] = {}
        # multidegree -> uqsl.PBWColumns (the PBW monomials, their normal
        # forms and leading words); filled by uqsl
        self._pbw_cache: dict[tuple, tuple] = {}

    # -- rule bookkeeping ------------------------------------------------

    def _refresh_lengths(self):
        self._lead_lengths = tuple(sorted({len(w) for w in self.rules}))

    def _first_reduction(self, w):
        """Leftmost position and lead length of a reducible factor, else None."""
        lw = len(w)
        for pos in range(lw):
            for ln in self._lead_lengths:
                if pos + ln > lw:
                    break
                if w[pos : pos + ln] in self.rules:
                    return pos, ln
        return None

    # -- normal forms ------------------------------------------------------

    def _nf_word(self, w) -> dict:
        """Normal form of a single word as a dict word -> RatQ (cached).
        Words beyond the cap are refused: reductions there are not covered
        by the confluence certificate."""
        cache = self._nf_cache
        got = cache.get(w)
        if got is not None:
            return got
        if len(w) > self.cap:
            raise CapExceeded(len(w), self.cap)
        stack = [w]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            hit = self._first_reduction(cur)
            if hit is None:
                cache[cur] = {cur: R_ONE}
                stack.pop()
                continue
            pos, ln = hit
            pre, post = cur[:pos], cur[pos + ln :]
            rhs = self.rules[cur[pos : pos + ln]]
            children = [(pre + u + post, c) for u, c in rhs.terms.items()]
            missing = [u for u, _ in children if u not in cache]
            if missing:
                stack.extend(missing)
                continue
            cache[cur] = add_terms(
                {}, ((x, c * cx) for u, c in children for x, cx in cache[u].items())
            )
            stack.pop()
        return cache[w]

    def normal_form(self, p: NCPoly) -> NCPoly:
        """Canonical representative of p in the quotient; a word longer than
        the cap raises CapExceeded (from _nf_word)."""
        terms: dict = {}
        for w, c in p.terms.items():
            add_terms(terms, ((x, c * cx) for x, cx in self._nf_word(w).items()))
        return NCPoly._raw(p.n, terms)

    def is_zero(self, p: NCPoly) -> bool:
        return self.normal_form(p).is_zero()

    # -- dimension counting --------------------------------------------------

    def normal_words(self, mu) -> list[tuple]:
        """All normal words of the given multidegree, sorted in deglex."""
        if sum(mu) > self.cap:
            raise CapExceeded(sum(mu), self.cap)
        out = []

        def rec(prefix, rem):
            if all(x == 0 for x in rem):
                out.append(tuple(prefix))
                return
            for i in range(1, self.n + 1):
                if rem[i - 1]:
                    prefix.append(i)
                    # prune as soon as the suffix ending here is reducible
                    ok = True
                    for ln in self._lead_lengths:
                        if ln <= len(prefix) and tuple(prefix[-ln:]) in self.rules:
                            ok = False
                            break
                    if ok:
                        rem[i - 1] -= 1
                        rec(prefix, rem)
                        rem[i - 1] += 1
                    prefix.pop()

        rec([], list(mu))
        return out

    def dim_weight_space(self, mu) -> int:
        """Dimension of the multidegree-mu slice of the quotient, counted as
        the number of normal words."""
        if any(x < 0 for x in mu):
            raise ValueError("multidegree must be nonnegative")
        return len(self.normal_words(mu))

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        buf = StringIO()
        buf.write(f"{FORMAT_VERSION}\n")
        buf.write(f"n={self.n} cap={self.cap} rules={len(self.rules)}\n")
        for lead in sorted(self.rules, key=deglex_key):
            buf.write("LEAD " + ",".join(map(str, lead)) + "\n")
            for w, c in self.rules[lead].sorted_terms():
                buf.write("  " + ",".join(map(str, w)) + " : " + str(c) + "\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "RewriteSystem":
        lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != FORMAT_VERSION:
            raise CacheCorrupt("unknown format version")
        try:
            header = dict(part.split("=") for part in lines[1].split())
            n, cap, nrules = int(header["n"]), int(header["cap"]), int(header["rules"])
            rs = cls(n, cap)
            i = 2
            while i < len(lines):
                if not lines[i].startswith("LEAD "):
                    raise CacheCorrupt("expected LEAD line")
                lead = tuple(int(x) for x in lines[i][5:].split(","))
                i += 1
                terms = {}
                while i < len(lines) and not lines[i].startswith("LEAD "):
                    ws, _, cs = lines[i].strip().partition(" : ")
                    w = tuple(int(x) for x in ws.split(",")) if ws else ()
                    terms[w] = RatQ.parse(cs)
                    i += 1
                rs.rules[lead] = NCPoly(n, terms)
        except CacheCorrupt:
            raise
        except Exception as exc:  # malformed ints, bad header, ...
            raise CacheCorrupt(f"parse failure: {exc}") from exc
        if len(rs.rules) != nrules:
            raise CacheCorrupt("rule count mismatch")
        for lead, rhs in rs.rules.items():
            mu = word_multidegree(lead, n)
            for w in rhs.terms:
                if word_multidegree(w, n) != mu or deglex_key(w) >= deglex_key(lead):
                    raise CacheCorrupt("rule violates order/homogeneity")
        rs._refresh_lengths()
        return rs


# ----------------------------------------------------------------------------
# Completion
# ----------------------------------------------------------------------------

def _make_rule(p: NCPoly):
    """Split p into (lead, replacement) with replacement = lead - p/c_lead."""
    lead = p.leading_word()
    c = p.terms[lead]
    rest = {w: x for w, x in p.terms.items() if w != lead}
    inv = c.inverse()
    return lead, NCPoly(p.n, {w: -(inv * x) for w, x in rest.items()})


def complete(relations: list[NCPoly], degree_cap: int, n: int | None = None) -> RewriteSystem:
    """Overlap completion of a homogeneous two-sided ideal, truncated by degree.

    Processes overlap ambiguities in increasing (degree, word) order; any
    ambiguity whose overlap word exceeds the cap is discarded, so the result
    is confluent for all words of degree <= degree_cap.  Raises CapExceeded
    when asked for a cap beyond the hard budget DEFAULT_CAP_BUDGET.
    """
    if degree_cap > DEFAULT_CAP_BUDGET:
        raise CapExceeded(degree_cap, DEFAULT_CAP_BUDGET)
    if not relations:
        return RewriteSystem(n if n is not None else 1, degree_cap)
    n = relations[0].n
    relations = [rel for rel in relations if not rel.is_zero()]
    for rel in relations:
        rel.multidegree()  # homogeneity check
        if rel.degree() > degree_cap:
            raise CapExceeded(rel.degree(), degree_cap)
    if not relations:
        return RewriteSystem(n, degree_cap)
    rs = RewriteSystem(n, degree_cap)
    queue: list = []  # (len, overlap word, lead_a, lead_b, split)

    def add_overlaps(lead):
        for other in rs.rules:
            # suffix of `lead` meets prefix of `other`
            for k in range(1, min(len(lead), len(other))):
                if lead[-k:] == other[:k]:
                    w = lead + other[k:]
                    if len(w) <= degree_cap:
                        heapq.heappush(queue, (len(w), w, lead, other))
            if other == lead:
                continue  # self-overlaps already covered above
            for k in range(1, min(len(lead), len(other))):
                if other[-k:] == lead[:k]:
                    w = other + lead[k:]
                    if len(w) <= degree_cap:
                        heapq.heappush(queue, (len(w), w, other, lead))

    def add_rule(p: NCPoly):
        lead, rhs = _make_rule(p)
        # retire any rule whose lead the new lead divides, and re-reduce it
        stale = [
            old
            for old in rs.rules
            if len(old) >= len(lead)
            and any(old[k : k + len(lead)] == lead for k in range(len(old) - len(lead) + 1))
        ]
        retired = []
        for old in stale:
            retired.append(NCPoly(n, {old: R_ONE}) - rs.rules.pop(old))
        rs.rules[lead] = rhs
        rs._refresh_lengths()
        rs._nf_cache = {}
        add_overlaps(lead)
        for p_old in retired:
            q = rs.normal_form(p_old)
            if q:
                add_rule(q)

    for rel in sorted(relations, key=lambda p: deglex_key(p.leading_word())):
        q = rs.normal_form(rel)
        if q:
            add_rule(q)

    while queue:
        _, w, la, lb = heapq.heappop(queue)
        rule_a = rs.rules.get(la)
        rule_b = rs.rules.get(lb)
        if rule_a is None or rule_b is None:
            continue  # a participant was retired
        # w = la + suffix = prefix + lb
        suffix = w[len(la) :]
        prefix = w[: len(w) - len(lb)]
        left = rs.normal_form(rule_a.rmul_word(suffix))
        right = rs.normal_form(rule_b.lmul_word(prefix))
        diff = left - right
        if diff:
            add_rule(diff)

    # tail-reduce replacements for a canonical, serializable system
    rs._nf_cache = {}
    for lead in list(rs.rules):
        rs.rules[lead] = rs.normal_form(rs.rules[lead])
    rs._nf_cache = {}
    return rs


def audit_confluence(rs: RewriteSystem) -> list[tuple]:
    """Re-check every overlap ambiguity of degree <= cap from scratch.

    Returns the list of failing overlap words (empty exactly when the system
    is locally -- hence, by the diamond lemma, globally -- confluent on
    words within the cap).
    """
    failures = []
    leads = sorted(rs.rules, key=deglex_key)
    # overlap ambiguities are the only ones to check provided no lead
    # contains another as a factor; assert that invariant first
    for la in leads:
        for lb in leads:
            if la is lb or len(lb) > len(la):
                continue
            if any(la[k : k + len(lb)] == lb for k in range(len(la) - len(lb) + 1)):
                failures.append((la, la, lb))
    for la in leads:
        for lb in leads:
            for k in range(1, min(len(la), len(lb))):
                if la[-k:] != lb[:k]:
                    continue
                w = la + lb[k:]
                if len(w) > rs.cap:
                    continue
                left = rs.normal_form(rs.rules[la].rmul_word(lb[k:]))
                right = rs.normal_form(rs.rules[lb].lmul_word(la[: len(la) - k]))
                if left != right:
                    failures.append((w, la, lb))
    return failures


# ----------------------------------------------------------------------------
# Shared, cached systems
# ----------------------------------------------------------------------------

# caps sized for the deepest computation each rank sees in the test suites
DEFAULT_CAPS = {1: 10, 2: 10, 3: 10, 4: 10, 5: 10}

_SYSTEMS: dict[tuple[int, int], RewriteSystem] = {}


def default_cap(n: int) -> int:
    return DEFAULT_CAPS.get(n, 6)


def get_rewrite_system(n: int, cap: int | None = None) -> RewriteSystem:
    """Process-wide cache of completed systems keyed by (rank, cap)."""
    if cap is None:
        cap = default_cap(n)
    key = (n, cap)
    rs = _SYSTEMS.get(key)
    if rs is None:
        rs = complete(serre_relations(n), cap)
        _SYSTEMS[key] = rs
    return rs
