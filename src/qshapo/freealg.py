"""Free noncommutative algebra over the lowering generators f_1..f_N and the
degree-graded rewriting engine that decides equality in the quotient by the
q-Serre ideal.

Words are tuples of letters in 1..N; a polynomial is a finite map from words
to scalars.  The monomial order is degree-lexicographic with f_1 < ... < f_N,
comparing letters left to right, so tuple comparison on (len, word) realizes
it directly.  The Serre relations are homogeneous in the multidegree (the
letter-count vector), every rewrite preserves multidegree, and completion
through degree D resolves all overlap ambiguities of degree <= D, which
certifies that normal forms are canonical in those degrees.  A system
extends its completion to the length of any longer word it meets; no degree
is refused, only the cost grows with it.  Zero-testing in the quotient is
normal_form(p) == 0.

A count can stand in for the overlaps of a degree.  Every rule lies in the
ideal, so the normal words of degree d span the degree-d part of the
quotient and number at least its dimension, which for the q-Serre ideal is
p_N(d) by the PBW theorem (roots.pbw_dimension).  When they number exactly
that they are a basis, so the difference of an overlap of degree d, in the
ideal and in their span, is 0 (Bergman's diamond lemma, Adv. Math. 29,
1978): a system completed from the Serre relations with their dimensions
skips that degree's overlaps.  audit_confluence still resolves every
overlap: it is the independent check.

An overlap w = la + suffix = prefix + lb is resolved when its remainder,
rules[la] * suffix - prefix * rules[lb], reduces to 0 by rules whose leads
are smaller than w; the diamond lemma needs no more (as in noncommutative
Groebner bases: Mora, Theor. Comput. Sci. 134, 1994).  Completion and the
audit reduce that one polynomial, largest word first, so the words that
both sides reach merge and cancel before either is rewritten; they never
take the normal form of each side.  This is still a full reduction, so a
nonzero remainder is exactly a pair of distinct normal forms.

No lead is a factor of another, so one Aho-Corasick automaton over the leads
(Aho and Corasick, CACM 18, 1975) finds the leftmost reducible factor of a
word in one left-to-right scan, and prunes the enumeration of normal words
as it grows them.  Single-word normal forms, which the Verma actions meet
again and again, are cached as dicts that are shared between words (a
commutation rewrite stores its child's dict) and never mutated once cached;
an overlap is met once, so completion and the audit leave that cache alone.
"""

from __future__ import annotations

import bisect
import heapq
from functools import partial
from io import StringIO

from .roots import pbw_dimension
from .scalars import R_ONE, RatQ, add_terms

FORMAT_VERSION = "qshapo-rws-v1"
R_MINUS_ONE = -R_ONE


class CacheCorrupt(Exception):
    """A serialized rewrite system failed structural validation.  Raised only
    by from_text and cli.load_or_build, kept for the benchmark until ROADMAP
    item 2, then item 7, removes them."""


# ----------------------------------------------------------------------------
# NCPoly
# ----------------------------------------------------------------------------

class NCPoly:
    """Finite linear combination of words over letters 1..n.

    Coefficients are RatQ by default but any commutative scalar type with
    +, -, * (including by RatQ on the left) and a truthy zero-test works;
    the Verma maps read polynomials whose coefficients are scalars of a
    weight.
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

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return NCPoly._raw(self.n, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        terms = add_terms(dict(self.terms), ((w, -c) for w, c in other.terms.items()))
        return NCPoly._raw(self.n, terms)

    def __neg__(self):
        return NCPoly._raw(self.n, {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "NCPoly":
        if not c:
            return NCPoly._raw(self.n, {})
        return NCPoly._raw(self.n, {w: c * x for w, x in self.terms.items()})

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
    """Rewriting rules for the q-Serre quotient, confluent through degree cap.

    ``rules`` maps a leading word to its replacement polynomial; replacements
    are multidegree-homogeneous with every word strictly smaller in deglex.
    ``cap`` is the degree completed so far; a longer word first extends the
    completion to its length.  That adds only rules with longer leads, so
    normal forms are pure and cached ones (and PBW columns) stay valid.

    No lead is a factor of another (completion retires any lead a new one
    divides, and ``from_text`` refuses a file that breaks this).  So a lead
    is never a proper prefix of another, and ``_delta``, the Aho-Corasick
    automaton over the leads, needs no state past a lead: its states are the
    proper prefixes of leads, 0 the empty one, and ``_delta[s][a]`` is the
    state after reading letter a, or -k when that letter completes a lead of
    k letters.  The first lead to end in a word is then also the leftmost.
    ``_rhs`` holds each replacement as (word, coefficient, unit) triples,
    unit being 1 or -1 for a coefficient of +-1 and 0 otherwise.  A dict in
    ``_nf_cache`` may be shared by several words and is never mutated;
    ``normal_form``, its only reader, builds a new dict.

    ``dimensions`` is None, or maps a degree to the dimension of the
    quotient's part of that degree; completion then skips every degree
    whose normal words (``count_normal_words``) number it.  Only a system
    completed here from relations with known dimensions carries it; one
    read by ``from_text`` does not, since nothing shows a file's rules lie
    in the ideal, and it resolves every overlap when it extends.
    """

    def __init__(self, n: int, cap: int, dimensions=None):
        self.n = n
        self.cap = cap
        self.dimensions = dimensions
        self.rules: dict[tuple, NCPoly] = {}
        self._delta: list[list[int]] = [[0] * (n + 1)]
        self._rhs: dict[tuple, tuple] = {}
        self._nf_cache: dict[tuple, dict] = {}
        # multidegree -> {PBW monomial: its normal form}; filled by uqsl
        self._pbw_cache: dict[tuple, dict] = {}

    # -- rule bookkeeping ------------------------------------------------

    def _refresh_automaton(self):
        """Rebuild ``_delta`` and ``_rhs`` from the rules."""
        trie: list[dict] = [{}]
        for lead in self.rules:
            s = 0
            for a in lead[:-1]:
                nxt = trie[s].get(a)
                if nxt is None:
                    nxt = trie[s][a] = len(trie)
                    trie.append({})
                s = nxt
            trie[s][lead[-1]] = -len(lead)
        # breadth first: a state's row is its failure state's row with its
        # own trie edges on top, and a child's failure state is where its
        # parent's failure state steps on the child's letter
        delta = [None] * len(trie)
        fail = [0] * len(trie)
        queue = [0]
        for s in queue:
            row = list(delta[fail[s]]) if s else [0] * (self.n + 1)
            for a, child in trie[s].items():
                row[a] = child
                if child > 0:
                    fail[child] = delta[fail[s]][a] if s else 0
                    queue.append(child)
            delta[s] = row
        self._delta = delta
        self._rhs = {
            lead: tuple((u, c, 1 if c == R_ONE else -1 if c == R_MINUS_ONE else 0)
                        for u, c in rhs.terms.items())
            for lead, rhs in self.rules.items()
        }

    def _first_reduction(self, w):
        """Leftmost position and lead length of a reducible factor, else None."""
        delta = self._delta
        s = 0
        for end, a in enumerate(w, 1):
            s = delta[s][a]
            if s < 0:
                return end + s, -s
        return None

    # -- normal forms ------------------------------------------------------

    def _nf_word(self, w) -> dict:
        """Normal form of a single word as a dict word -> RatQ (cached, and
        never to be mutated).  A word beyond the cap first extends the
        completion to its length."""
        got = self._nf_cache.get(w)
        if got is not None:
            return got
        if len(w) > self.cap:
            self._extend(len(w))
        cache = self._nf_cache  # extension replaces the dict
        # word -> its rewrite, once its children are queued
        pending: dict[tuple, list] = {}
        stack = [w]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            children = pending.get(cur)
            if children is None:
                hit = self._first_reduction(cur)
                if hit is None:
                    cache[cur] = {cur: R_ONE}
                    stack.pop()
                    continue
                pos, ln = hit
                pre, post = cur[:pos], cur[pos + ln :]
                rhs = self._rhs[cur[pos : pos + ln]]
                children = [(pre + u + post, c, unit) for u, c, unit in rhs]
                missing = [u for u, _, _ in children if u not in cache]
                if missing:
                    pending[cur] = children
                    stack.extend(missing)
                    continue
            stack.pop()
            if len(children) == 1 and children[0][2] == 1:
                cache[cur] = cache[children[0][0]]  # a commutation: share the dict
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
        """Canonical representative of p in the quotient."""
        terms: dict = {}
        for w, c in p.terms.items():
            add_terms(terms, ((x, c * cx) for x, cx in self._nf_word(w).items()))
        return NCPoly._raw(p.n, terms)

    def is_zero(self, p: NCPoly) -> bool:
        return self.normal_form(p).is_zero()

    def _reduce(self, terms) -> dict:
        """Normal form, as a new dict, of the polynomial with the given terms
        (word -> coefficient, no zero coefficient), which must all have one
        length: words are ordered by tuple comparison, which is deglex only
        within a length.  The pending words stay sorted and the largest is
        rewritten first, so the words that two rewrites reach merge, and may
        cancel, before either is rewritten.  It reads and writes no cache,
        and it does not extend the completion."""
        if len({len(w) for w in terms}) > 1:
            raise ValueError("polynomial is not homogeneous")
        coeffs = dict(terms)
        pending = sorted(coeffs)
        first, rhs_of = self._first_reduction, self._rhs
        out = {}
        while pending:
            w = pending.pop()
            c = coeffs.pop(w)
            if not c:
                continue
            hit = first(w)
            if hit is None:
                out[w] = c
                continue
            pos, ln = hit
            pre, post = w[:pos], w[pos + ln :]
            # every word of a replacement is smaller than its lead, so no
            # word reached here has been rewritten already
            for u, cu, unit in rhs_of[w[pos : pos + ln]]:
                x = pre + u + post
                y = c if unit == 1 else -c if unit == -1 else cu * c
                prev = coeffs.get(x)
                if prev is None:
                    coeffs[x] = y
                    bisect.insort(pending, x)
                else:
                    coeffs[x] = prev + y
        return out

    def _overlap_remainder(self, w, la, lb) -> dict:
        """The reduced difference of the two one-step rewrites of the overlap
        w = la + suffix = prefix + lb: the normal form of
        rules[la] * suffix - prefix * rules[lb]."""
        suffix, prefix = w[len(la) :], w[: len(w) - len(lb)]
        terms = {u + suffix: c for u, c in self.rules[la].terms.items()}
        add_terms(terms, ((prefix + u, -c) for u, c in self.rules[lb].terms.items()))
        return self._reduce(terms)

    # -- dimension counting --------------------------------------------------

    def normal_words(self, mu) -> list[tuple]:
        """All normal words of the given multidegree, sorted in deglex."""
        if sum(mu) > self.cap:
            self._extend(sum(mu))
        out = []
        delta = self._delta

        def rec(state, prefix, rem):
            if not any(rem):
                out.append(tuple(prefix))
                return
            row = delta[state]
            for i in range(1, self.n + 1):
                # prune as soon as a lead ends here
                if rem[i - 1] and row[i] >= 0:
                    prefix.append(i)
                    rem[i - 1] -= 1
                    rec(row[i], prefix, rem)
                    rem[i - 1] += 1
                    prefix.pop()

        rec(0, [], list(mu))
        return out

    def dim_weight_space(self, mu) -> int:
        """Dimension of the multidegree-mu slice of the quotient, counted as
        the number of normal words."""
        if any(x < 0 for x in mu):
            raise ValueError("multidegree must be nonnegative")
        return len(self.normal_words(mu))

    def count_normal_words(self, degree: int) -> int:
        """The number of words of length `degree` that no rule reduces, under
        the rules as they stand (the system is not extended): the walks of
        that length from state 0 through the non-negative states of
        ``_delta``."""
        delta = self._delta
        walks = [1] + [0] * (len(delta) - 1)
        for _ in range(degree):
            nxt = [0] * len(delta)
            for s, k in enumerate(walks):
                if k:
                    for t in delta[s][1:]:
                        if t >= 0:
                            nxt[t] += k
            walks = nxt
        return sum(walks)

    # -- completion --------------------------------------------------------

    def _add_rule(self, terms: dict, queue: list):
        """Orient the reduced polynomial with these terms into a rule and
        queue its overlaps of degree <= cap."""
        lead, rhs = _make_rule(terms, self.n)
        # retire any rule whose lead the new lead divides, and re-reduce it
        stale = [old for old in self.rules if _is_factor(lead, old)]
        retired = [(NCPoly(self.n, {old: R_ONE}) - self.rules.pop(old)).terms for old in stale]
        self.rules[lead] = rhs
        self._refresh_automaton()
        for other in self.rules:
            pairs = [(lead, other)] if other == lead else [(lead, other), (other, lead)]
            for la, lb in pairs:
                for w in _overlaps(la, lb):
                    if len(w) <= self.cap:
                        heapq.heappush(queue, (len(w), w, la, lb))
        for old in retired:
            q = self._reduce(old)
            if q:
                self._add_rule(q, queue)

    def _resolve(self, queue: list):
        """Resolve the queued overlaps (len, word, lead_a, lead_b) in (degree,
        word) order, adding a rule for each one whose reduced remainder
        (``_overlap_remainder``) is not 0, then tail-reduce every
        replacement for a canonical, serializable system.

        A system that carries its quotient's dimensions drops the queued
        overlaps of each degree whose normal words already number its
        dimension (see the module docstring), counting again after each
        new rule."""
        counted = None  # a degree found short since the last new rule
        while queue:
            d = queue[0][0]
            if self.dimensions is not None and d != counted:
                if self.count_normal_words(d) == self.dimensions(d):
                    while queue and queue[0][0] == d:
                        heapq.heappop(queue)
                    continue
                counted = d
            _, w, la, lb = heapq.heappop(queue)
            if la not in self.rules or lb not in self.rules:
                continue  # a participant was retired
            diff = self._overlap_remainder(w, la, lb)
            if diff:
                self._add_rule(diff, queue)
                counted = None
        for lead, rhs in self.rules.items():
            self.rules[lead] = NCPoly._raw(self.n, self._reduce(rhs.terms))
        # the rules may have changed: drop what callers cached before
        self._nf_cache = {}

    def _extend(self, degree: int):
        """Complete through `degree`.  Completion through cap resolved every
        overlap of degree <= cap, so only the overlaps of the current leads
        with degree in (cap, degree] are new; the rules alone determine
        them, so a system read from a cache file extends the same way."""
        # raise the cap first: resolving reduces words of up to `degree` letters
        done, self.cap = self.cap, degree
        queue = [
            (len(w), w, la, lb)
            for la in self.rules
            for lb in self.rules
            for w in _overlaps(la, lb)
            if done < len(w) <= degree
        ]
        heapq.heapify(queue)
        self._resolve(queue)

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
        """The system that to_text wrote.  Raises CacheCorrupt when the text
        does not parse, uses a letter outside 1..n, has one lead that is a
        factor of another, or has a rule out of order or not homogeneous.
        Only the benchmark (directly and through cli.load_or_build) and the
        tests read a system back; it is kept until ROADMAP item 2, then
        item 7, removes it."""
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
        words = [w for lead, rhs in rs.rules.items() for w in (lead, *rhs.terms)]
        if any(not 1 <= a <= n for w in words for a in w):
            raise CacheCorrupt("letter out of range")
        # the automaton needs it, and completion never leaves one
        if _nested_leads(list(rs.rules)):
            raise CacheCorrupt("one lead is a factor of another")
        for lead, rhs in rs.rules.items():
            mu = word_multidegree(lead, n)
            for w in rhs.terms:
                if word_multidegree(w, n) != mu or deglex_key(w) >= deglex_key(lead):
                    raise CacheCorrupt("rule violates order/homogeneity")
        rs._refresh_automaton()
        return rs


# ----------------------------------------------------------------------------
# Completion
# ----------------------------------------------------------------------------

def _make_rule(terms: dict, n: int):
    """Split the polynomial p with these terms into (lead, replacement) with
    replacement = lead - p/c_lead."""
    lead = max(terms, key=deglex_key)
    inv = terms[lead].inverse()
    return lead, NCPoly(n, {w: -(inv * x) for w, x in terms.items() if w != lead})


def _is_factor(u, w):
    """True when u occurs in w as a run of consecutive letters."""
    return any(w[k : k + len(u)] == u for k in range(len(w) - len(u) + 1))


def _nested_leads(leads):
    """The pairs (la, lb) of distinct leads where lb is a factor of la, in
    the order of `leads`."""
    return [(la, lb) for la in leads for lb in leads if la != lb and _is_factor(lb, la)]


def _overlaps(la, lb):
    """The words la + lb[k:] in which a proper suffix of la is a proper
    prefix of lb."""
    for k in range(1, min(len(la), len(lb))):
        if la[-k:] == lb[:k]:
            yield la + lb[k:]


def complete(
    relations: list[NCPoly], degree_cap: int, n: int | None = None, *, dimensions=None
) -> RewriteSystem:
    """Overlap completion of a homogeneous two-sided ideal through degree
    degree_cap, the system's initial degree (or its longest relation's).

    Resolves every overlap ambiguity of degree <= degree_cap in increasing
    (degree, word) order; the system extends itself past that on demand.
    `dimensions`, if given, maps a degree d to the dimension of the
    quotient's degree-d part; the system keeps it and skips every degree
    whose normal words number it (see RewriteSystem._resolve).  Only a map
    known to hold for these relations may be passed.
    """
    relations = [rel for rel in relations if not rel.is_zero()]
    for rel in relations:
        rel.multidegree()  # homogeneity check
    # reducing a relation longer than degree_cap must not outrun the cap
    cap = max([degree_cap] + [rel.degree() for rel in relations])
    rs = RewriteSystem(relations[0].n if relations else n or 1, cap, dimensions)
    queue: list = []
    for rel in sorted(relations, key=lambda p: deglex_key(p.leading_word())):
        q = rs._reduce(rel.terms)
        if q:
            rs._add_rule(q, queue)
    rs._resolve(queue)
    return rs


def audit_confluence(rs: RewriteSystem) -> list[tuple]:
    """Re-check every overlap ambiguity of degree <= cap from scratch.

    Each overlap fails when its remainder does not reduce to 0
    (``RewriteSystem._overlap_remainder``).  The check uses the rules alone:
    no dimension count, no cached normal form, and none is left behind.
    Returns the list of (word, lead_a, lead_b) that fail (empty exactly when
    the system is locally -- hence, by the diamond lemma, globally --
    confluent on words within the cap).
    """
    leads = sorted(rs.rules, key=deglex_key)
    # overlap ambiguities are the only ones to check provided no lead
    # contains another as a factor; assert that invariant first
    failures = [(la, la, lb) for la, lb in _nested_leads(leads)]
    for la in leads:
        for lb in leads:
            for w in _overlaps(la, lb):
                if len(w) > rs.cap:
                    continue
                if rs._overlap_remainder(w, la, lb):
                    failures.append((w, la, lb))
    return failures


# ----------------------------------------------------------------------------
# Shared, cached systems
# ----------------------------------------------------------------------------

# initial completion degrees; a system extends itself past them on demand
DEFAULT_CAPS = {1: 10, 2: 10, 3: 10, 4: 10, 5: 10}

_SYSTEMS: dict[int, RewriteSystem] = {}


def default_cap(n: int) -> int:
    return DEFAULT_CAPS.get(n, 6)


def get_rewrite_system(n: int, cap: int | None = None) -> RewriteSystem:
    """The rank's process-wide system: completed through `cap` (default
    default_cap(n)) when the rank is new, otherwise extended in place to at
    least `cap`, so one process holds one completion (and one set of
    normal-form and PBW caches) per rank."""
    rs = _SYSTEMS.get(n)
    if rs is None:
        cap = default_cap(n) if cap is None else cap
        rs = _SYSTEMS[n] = complete(
            serre_relations(n), cap, n=n, dimensions=partial(pbw_dimension, n)
        )
    elif cap is not None and cap > rs.cap:
        rs._extend(cap)
    return rs
