"""Free noncommutative algebra over the lowering generators f_1..f_N and the
degree-graded rewriting engine that decides equality in the quotient by the
q-Serre ideal.

Words are tuples of letters in 1..N; a polynomial is a finite map from words
to scalars.  The monomial order is degree-lexicographic with f_1 < ... < f_N,
comparing letters left to right, so tuple comparison on (len, word) realizes
it directly.  The Serre relations are homogeneous in the multidegree (the
letter-count vector), every rewrite preserves multidegree, and a system is
confluent through its degree cap, so normal forms are canonical in those
degrees.  A system extends itself to the length of any longer word it
meets; no degree is refused, only the cost grows with it.  Zero-testing in
the quotient is normal_form(p) == 0.

A count can stand in for the overlaps of a degree.  Every rule lies in the
ideal, so the normal words of degree d span the degree-d part of the
quotient and number at least its dimension, which for the q-Serre ideal is
p_N(d) by the PBW theorem (roots.pbw_dimension).  When they number exactly
that they are a basis, so the difference of an overlap of degree d, in the
ideal and in their span, is 0 (Bergman's diamond lemma, Adv. Math. 29,
1978).  ``RewriteSystem.count_failure`` is that certificate.

The library's Serre systems (build_serre_system, behind get_rewrite_system
and cli.load_or_build) come from a closed-form schedule.  The q-Serre basis
is the finite Groebner-Shirshov basis of Bokut and Malcolmson (Israel J.
Math. 96, 1996): every lead is the product of two decreasing runs, and each
rule the relations do not give comes from one overlap, (N - 1)(N - 2) in
all (``_serre_schedule``).  A build and a completion both start from the
relations, as the rules of a degree-0 system, and grow it through
``RewriteSystem._extend``.  A build adds the rule of each scheduled overlap
up to its degree cap in (degree, word) order, certifies every degree by
count, and tail-reduces; an extension does the same over its new degrees.
Every other overlap then resolves by the count, so none is reduced.  A
scheduled overlap that reduces to 0, or a count that fails, raises
InconsistentResult: the build never falls back.

``complete``, general overlap completion through a degree, stays for what
the schedule does not cover: the pbw suite's own completion check, the
systems that ``from_text`` reads (they extend by completion, since nothing
shows a file's rules lie in the ideal), the test oracles, and the
benchmark.  Completion reduces every overlap and reads no dimension, so it
is an oracle independent of the count; so is audit_confluence, which
reduces every overlap of a finished system.

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
word in one left-to-right scan, and its walks that end no lead are the
normal words, counted by multidegree without building them.  Single-word
normal forms, which the Verma actions meet again and again, are cached as
dicts that are shared between words (a commutation rewrite stores its
child's dict) and never mutated once cached; an overlap is met once, so
completion and the audit leave that cache alone.

Every coefficient the engine computes with lies in Z[q, 1/q]: the rules of
the q-Serre quotient have Laurent coefficients (Bokut and Malcolmson, Israel
J. Math. 96, 1996), and completion divides a remainder by its leading
coefficient only where that division is exact.  So rules, normal forms and
reductions run on the Laurent tuples of the integer kernel (the last
section of scalars), with no gcd and with one object per system for each
distinct cached coefficient.  ``normal_form`` clears a polynomial's
scalars into that form once and rebuilds its result as the same kind of
scalars.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from io import StringIO

from .roots import pbw_dimension
from .scalars import (
    L_MINUS_ONE,
    L_ONE,
    P_ONE,
    R_ONE,
    RatQ,
    _convolve,
    _laurent,
    _laurent_of,
    _ldiv,
    _ratq_of,
    _through_kernel,
    add_terms,
)

FORMAT_VERSION = "qshapo-rws-v1"


class CacheCorrupt(Exception):
    """A serialized rewrite system failed structural validation.  Raised only
    by from_text and cli.load_or_build, kept for the benchmark until ROADMAP
    item 2, then item 7, removes them."""


class InconsistentResult(Exception):
    """A construction produced a result its derivation rules out, so the
    rewrite system or the code is inconsistent."""


# ----------------------------------------------------------------------------
# NCPoly
# ----------------------------------------------------------------------------

class NCPoly:
    """Finite linear combination of words over letters 1..n.

    Coefficients are RatQs, or WeightScalars in one set of symbols: the
    scalars of a weight, or of a formal parameter t.  normal_form clears
    either kind into the integer kernel and rebuilds the same kind.
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
    ``cap`` is the degree built or completed so far; a longer word first
    extends the system to its length (``_extend``, the only code that
    raises it): by its schedule, for a system that build_serre_system made
    (``_schedule``, its overlaps), and by completion otherwise.  Either
    adds only rules with longer leads, so normal forms are pure and cached
    ones (and PBW columns) stay valid.

    No lead is a factor of another (``_insert_rule`` retires any lead a new one
    divides, and ``from_text`` refuses a file that breaks this).  So a lead
    is never a proper prefix of another, and ``_delta``, the Aho-Corasick
    automaton over the leads, needs no state past a lead: its states are the
    proper prefixes of leads, 0 the empty one, and ``_delta[s][a]`` is the
    state after reading letter a, or -k when that letter completes a lead of
    k letters.  The first lead to end in a word is then also the leftmost.
    ``_rhs`` holds the rules the engine rewrites by: each lead's replacement
    as (word, coefficient, unit) triples, the coefficient as a Laurent tuple
    of the integer kernel and unit 1 or -1 for a coefficient of +-1, 0
    otherwise.  ``rules`` is their copy in RatQs for readers, built from
    ``_rhs`` each time it is read.  ``_nf_cache``
    maps a word to its normal form {word: Laurent tuple}; a dict there may
    be shared by several words and is never mutated, and every reader
    builds a new dict.  The Laurent tuples of ``_nf_cache`` and
    ``_pbw_cache`` are interned in ``_coeffs``, so equal ones are one
    object; a rule's coefficients are not, since the engine only multiplies
    by them.  An extension adds only leads longer than the old cap, and no
    cached word or old rule is longer than that, so none of them changes:
    the caches and the table live as long as the system.  Only
    ``_walk_counts`` reads the states of ``_delta``, which a change of
    leads renumbers, so ``_refresh_automaton`` empties it.
    """

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        # the overlaps (word, lead_a, lead_b) this system is built from, or
        # None for a system that completion extends
        self._schedule: list | None = None
        self._delta: list[list[int]] = [[0] * (n + 1)]
        # (state of _delta, multidegree) -> its walks; see _walks_from
        self._walk_counts: dict[tuple, int] = {}
        self._rhs: dict[tuple, tuple] = {}
        self._nf_cache: dict[tuple, dict] = {}
        self._coeffs: dict[tuple, tuple] = {}
        # multidegree -> {PBW monomial: its normal form}; filled by uqsl
        self._pbw_cache: dict[tuple, dict] = {}

    # -- rule bookkeeping ------------------------------------------------

    def _set_rules(self, rules: dict):
        """Rewrite by these rules, {lead: NCPoly}: ValueError if a
        coefficient is not a Laurent polynomial."""
        self._rhs = {lead: self._triples({u: _laurent_of(c) for u, c in rule.terms.items()})
                     for lead, rule in rules.items()}
        self._refresh_automaton()

    @property
    def rules(self) -> dict:
        """The rules as {lead: NCPoly}, the RatQ copy of ``_rhs``."""
        return {lead: NCPoly._raw(self.n, {u: _ratq_of(c) for u, c, _ in rhs})
                for lead, rhs in self._rhs.items()}

    @staticmethod
    def _triples(terms: dict) -> tuple:
        """The ``_rhs`` entry of a replacement {word: nonzero Laurent tuple}."""
        return tuple((u, t, 1 if t == L_ONE else -1 if t == L_MINUS_ONE else 0)
                     for u, t in terms.items())

    def _refresh_automaton(self):
        """Rebuild ``_delta`` from the leads of ``_rhs``, and empty the
        walk counts read off the old one."""
        trie: list[dict] = [{}]
        for lead in self._rhs:
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
        self._walk_counts = {}

    def _interned(self, acc: dict) -> dict:
        """{word: Laurent tuple} from {word: Laurent tuple or accumulator
        {q-exponent: int}}, each tuple interned in ``_coeffs`` and no zero
        kept."""
        intern = self._coeffs.setdefault
        out = {}
        for x, t in acc.items():
            if type(t) is dict:
                t = _laurent(t)
            if t:
                out[x] = intern(t, t)
        return out

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
        """Normal form of a single word as a dict word -> Laurent tuple
        (cached, and never to be mutated).  A word beyond the cap first
        extends the system to its length."""
        cache = self._nf_cache
        got = cache.get(w)
        if got is not None:
            return got
        if len(w) > self.cap:
            self._extend(len(w))
        one = self._coeffs.setdefault(L_ONE, L_ONE)
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
                    cache[cur] = {cur: one}
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
            # as in _reduce, a word reached once keeps a tuple
            acc: dict = {}
            for u, c, unit in children:
                for x, cx in cache[u].items():
                    d = acc.get(x)
                    if d is None:
                        if unit:
                            acc[x] = cx if unit == 1 else _lneg(cx)
                            continue
                        d = acc[x] = {}
                    elif type(d) is not dict:
                        d = acc[x] = dict(d)
                    _convolve(d, cx, c)
            cache[cur] = self._interned(acc)
        return cache[w]

    def normal_form(self, p: NCPoly) -> NCPoly:
        """Canonical representative of p in the quotient.  Its coefficients,
        RatQs or WeightScalars, are cleared once into the integer kernel and
        the result is rebuilt as the same kind of scalars, so the kernel's
        refusals apply: ValueError for a q-exponent of size 2**28 or more,
        or for a result whose numerator spans more than 2**20 powers of q."""
        return NCPoly._raw(p.n, _through_kernel(p.terms, lambda ints: _nf_sum(ints, self._nf_word)))

    def is_zero(self, p: NCPoly) -> bool:
        return self.normal_form(p).is_zero()

    def _reduce(self, terms) -> dict:
        """Normal form, as a new dict word -> Laurent tuple, of the
        polynomial with the given terms (word -> Laurent tuple, or an
        accumulator {q-exponent: int} that it consumes), which must all
        have one length: words are ordered by tuple comparison, which is
        deglex only within a length.  The pending words stay sorted and the
        largest is rewritten first, so the words that two rewrites reach
        merge, and may cancel, before either is rewritten.  A word reached
        once keeps its coefficient's tuple; only a word reached again gets
        an accumulator.  It reads and writes no cache, and it does not
        extend the system."""
        if len({len(w) for w in terms}) > 1:
            raise ValueError("polynomial is not homogeneous")
        coeffs = dict(terms)
        pending = sorted(coeffs)
        first, rhs_of = self._first_reduction, self._rhs
        out = {}
        while pending:
            w = pending.pop()
            c = coeffs.pop(w)
            if type(c) is dict:
                c = _laurent(c)
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
                d = coeffs.get(x)
                if d is None:
                    bisect.insort(pending, x)
                    if unit:
                        coeffs[x] = c if unit == 1 else _lneg(c)
                        continue
                    d = coeffs[x] = {}
                elif type(d) is not dict:
                    d = coeffs[x] = dict(d)
                _convolve(d, c, cu)
        return out

    def _overlap_remainder(self, w, la, lb) -> dict:
        """The reduced difference of the two one-step rewrites of the overlap
        w = la + suffix = prefix + lb: the normal form of
        rules[la] * suffix - prefix * rules[lb]."""
        suffix, prefix = w[len(la) :], w[: len(w) - len(lb)]
        terms = {u + suffix: dict(c) for u, c, _ in self._rhs[la]}
        for u, c, _ in self._rhs[lb]:
            _convolve(terms.setdefault(prefix + u, {}), c, L_MINUS_ONE)
        return self._reduce(terms)

    # -- dimension counting --------------------------------------------------

    def _multidegree(self, mu) -> tuple:
        """mu as a tuple, extending the system to its degree: ValueError,
        before any extension, for a length other than the rank or a
        negative entry."""
        mu = tuple(mu)
        if len(mu) != self.n:
            raise ValueError("multidegree has wrong rank")
        if any(x < 0 for x in mu):
            raise ValueError("multidegree must be nonnegative")
        if sum(mu) > self.cap:
            self._extend(sum(mu))
        return mu

    def normal_words(self, mu) -> list[tuple]:
        """All normal words of the given multidegree, sorted in deglex."""
        mu = self._multidegree(mu)
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
        """Dimension of the multidegree-mu slice of the quotient: the number
        of normal words, counted without building them as the walks from
        state 0 of ``_delta`` that read mu and end no lead."""
        return self._walks_from(0, self._multidegree(mu))

    def _walks_from(self, state: int, rem: tuple) -> int:
        """The walks from this state through the non-negative states of
        ``_delta`` that read the letters of multidegree rem, in any order:
        the sum over the letters i left in rem whose step ends no lead of
        the walks from that step with one i fewer.  Memoised in
        ``_walk_counts``, which only the leads determine, so
        ``_refresh_automaton`` empties it."""
        if not any(rem):
            return 1
        key = (state, rem)
        got = self._walk_counts.get(key)
        if got is None:
            got = 0
            row = self._delta[state]
            for i, r in enumerate(rem):
                if r and row[i + 1] >= 0:
                    got += self._walks_from(row[i + 1], rem[:i] + (r - 1,) + rem[i + 1 :])
            self._walk_counts[key] = got
        return got

    def count_normal_words(self, degree: int) -> int:
        """The number of words of length `degree` that no rule reduces, under
        the rules as they stand (the system is not extended)."""
        return self._normal_word_counts(degree)[-1]

    def _normal_word_counts(self, degree: int) -> list[int]:
        """``count_normal_words`` of each degree 0..degree: the walks of each
        length from state 0 through the non-negative states of ``_delta``."""
        delta = self._delta
        walks = [1] + [0] * (len(delta) - 1)
        counts = [1]
        for _ in range(degree):
            nxt = [0] * len(delta)
            for s, k in enumerate(walks):
                if k:
                    for t in delta[s][1:]:
                        if t >= 0:
                            nxt[t] += k
            walks = nxt
            counts.append(sum(walks))
        return counts

    def count_failure(self, done: int, degree: int) -> str | None:
        """The certificate of degrees (done, degree]: None when the normal
        words of each such degree d number p_N(d), the dimension of the
        q-Serre quotient's degree-d part (roots.pbw_dimension), so that the
        rules are confluent through `degree` (see the module docstring);
        otherwise a message naming the first degree where they do not."""
        for d, got in enumerate(self._normal_word_counts(degree)):
            if d > done and got != pbw_dimension(self.n, d):
                return f"{got} normal words in degree {d}, not {pbw_dimension(self.n, d)}"
        return None

    # -- growth ------------------------------------------------------------

    def _insert_rule(self, terms: dict) -> list:
        """Orient the reduced polynomial with these terms (word -> Laurent
        tuple) into a rule and refresh the automaton.  Any rule whose lead
        the new lead divides is retired and, reduced, inserted again unless
        it reduces to 0.  Returns the leads inserted, the new one first.
        Only completion (``_complete``) looks for their overlaps; a
        scheduled build names its own."""
        lead, rhs = _make_rule(terms)
        retired = []
        for old in [old for old in self._rhs if _is_factor(lead, old)]:
            retired.append({old: L_ONE, **{u: _lneg(c) for u, c, _ in self._rhs.pop(old)}})
        self._rhs[lead] = self._triples(rhs)
        self._refresh_automaton()
        inserted = [lead]
        for old in retired:
            q = self._reduce(old)
            if q:
                inserted += self._insert_rule(q)
        return inserted

    def _complete(self, done: int, degree: int):
        """Overlap completion over the degrees (done, degree]: resolve the
        overlaps of the leads in those degrees in (degree, word) order,
        adding a rule for each one whose reduced remainder
        (``_overlap_remainder``) is not 0 and queuing the overlaps in those
        degrees of each lead that adds with every rule.  Every overlap is
        reduced; no count stands in for one."""
        queue: list = []

        def queue_overlaps(pairs):
            for la, lb in pairs:
                for w in _overlaps(la, lb):
                    if done < len(w) <= degree:
                        heapq.heappush(queue, (len(w), w, la, lb))

        queue_overlaps(itertools.product(self._rhs, repeat=2))
        while queue:
            _, w, la, lb = heapq.heappop(queue)
            if la not in self._rhs or lb not in self._rhs:
                continue  # a participant was retired
            diff = self._overlap_remainder(w, la, lb)
            if diff:
                for lead in self._insert_rule(diff):
                    if lead in self._rhs:
                        queue_overlaps({p for b in self._rhs for p in ((lead, b), (b, lead))})

    def _run_schedule(self, done: int, degree: int):
        """Add the rule of each scheduled overlap of degree in (done,
        degree], in (degree, word) order, and certify those degrees by
        count.  Raises InconsistentResult when an overlap lacks a
        participant or reduces to 0, or when a count fails."""
        for w, la, lb in self._schedule:
            if done < len(w) <= degree:
                missing = [x for x in (la, lb) if x not in self._rhs]
                if missing:
                    raise InconsistentResult(f"the scheduled overlap {w} has no rule {missing[0]}")
                diff = self._overlap_remainder(w, la, lb)
                if not diff:
                    raise InconsistentResult(
                        f"the scheduled overlap {w} of {la} and {lb} reduces to 0")
                self._insert_rule(diff)
        failure = self.count_failure(done, degree)
        if failure:
            raise InconsistentResult(failure)

    def _extend(self, degree: int):
        """Extend through `degree`, the one way a system grows: a scheduled
        system by its schedule over (cap, degree], any other by completion
        (``_complete``), then replace every replacement by its normal form,
        for a canonical, serializable system.  Growth through cap resolved
        every overlap of degree <= cap, so only the overlaps with degree in
        (cap, degree] are new; the rules alone determine them, so a system
        read from a cache file extends the same way."""
        # raise the cap first: resolving reduces words of up to `degree` letters
        done, self.cap = self.cap, degree
        if self._schedule is not None:
            self._run_schedule(done, degree)
        else:
            self._complete(done, degree)
        self._rhs = {lead: self._triples(self._reduce({u: c for u, c, _ in rhs}))
                     for lead, rhs in self._rhs.items()}

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        buf = StringIO()
        buf.write(f"{FORMAT_VERSION}\n")
        rules = self.rules
        buf.write(f"n={self.n} cap={self.cap} rules={len(rules)}\n")
        for lead in sorted(rules, key=deglex_key):
            buf.write("LEAD " + ",".join(map(str, lead)) + "\n")
            for w, c in rules[lead].sorted_terms():
                buf.write("  " + ",".join(map(str, w)) + " : " + str(c) + "\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "RewriteSystem":
        """The system that to_text wrote.  Raises CacheCorrupt when the text
        does not parse, uses a letter outside 1..n, has one lead that is a
        factor of another, has a rule out of order or not homogeneous, or
        has a coefficient that is not a Laurent polynomial.
        Only the benchmark (directly and through cli.load_or_build) and the
        tests read a system back; it is kept until ROADMAP item 2, then
        item 7, removes it."""
        lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != FORMAT_VERSION:
            raise CacheCorrupt("unknown format version")
        try:
            header = dict(part.split("=") for part in lines[1].split())
            n, cap, nrules = int(header["n"]), int(header["cap"]), int(header["rules"])
            rules: dict = {}
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
                rules[lead] = NCPoly(n, terms)
        except CacheCorrupt:
            raise
        except Exception as exc:  # malformed ints, bad header, ...
            raise CacheCorrupt(f"parse failure: {exc}") from exc
        if len(rules) != nrules:
            raise CacheCorrupt("rule count mismatch")
        words = [w for lead, rhs in rules.items() for w in (lead, *rhs.terms)]
        if any(not 1 <= a <= n for w in words for a in w):
            raise CacheCorrupt("letter out of range")
        # the automaton needs it, and completion never leaves one
        if _nested_leads(list(rules)):
            raise CacheCorrupt("one lead is a factor of another")
        for lead, rhs in rules.items():
            mu = word_multidegree(lead, n)
            for w in rhs.terms:
                if word_multidegree(w, n) != mu or deglex_key(w) >= deglex_key(lead):
                    raise CacheCorrupt("rule violates order/homogeneity")
            if any(c.den != P_ONE for c in rhs.terms.values()):
                raise CacheCorrupt(f"rule {lead}: a coefficient is not a Laurent polynomial")
        rs = cls(n, cap)
        rs._set_rules(rules)
        return rs


# ----------------------------------------------------------------------------
# Completion
# ----------------------------------------------------------------------------

def _make_rule(terms: dict):
    """Split the polynomial p with these terms (word -> Laurent tuple) into
    (lead, replacement) with replacement = lead - p/c_lead, as word ->
    Laurent tuple.  Raises ValueError, naming the rule, unless c_lead
    divides every coefficient in Z[q, 1/q]."""
    lead = max(terms, key=deglex_key)
    minus_lead = _lneg(terms[lead])
    rhs = {}
    for w, x in terms.items():
        if w != lead:
            rhs[w] = _ldiv(x, minus_lead)
            if rhs[w] is None:
                raise ValueError(f"rule {lead}: the leading coefficient "
                                 f"{_ratq_of(terms[lead])} does not divide {_ratq_of(x)}")
    return lead, rhs


def _lneg(t):
    return tuple([(k, -a) for k, a in t])


def _nf_sum(ints: dict, nf_of) -> dict:
    """The sum of c * nf_of(u) over the items (u, c) of ints, as
    accumulators {word: {key: int}}: each c a scalar as {key: int}, and
    nf_of(u) the image of u, {word: Laurent tuple}, under a linear map (its
    normal form, or uqsl's free expansion of a PBW monomial).  nf_of is
    called once for each u whose c is not zero.  Every normal form of a
    polynomial is summed here."""
    acc: dict = {}
    for u, c in ints.items():
        c = [ka for ka in c.items() if ka[1]]
        if c:
            for x, cx in nf_of(u).items():
                d = acc.get(x)
                if d is None:
                    d = acc[x] = {}
                _convolve(d, c, cx)
    return acc


def _word_product(a: dict, b: dict) -> dict:
    """The free product of two polynomials given as {word: {key: int}},
    as accumulators of the same form."""
    out: dict = {}
    for w1, c1 in a.items():
        c1 = c1.items()
        for w2, c2 in b.items():
            d = out.get(w1 + w2)
            if d is None:
                d = out[w1 + w2] = {}
            _convolve(d, c1, c2.items())
    return out


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


def complete(relations: list[NCPoly], degree_cap: int, n: int | None = None) -> RewriteSystem:
    """Overlap completion of a homogeneous two-sided ideal through degree
    degree_cap, the system's initial degree (or its longest relation's).

    Resolves every overlap ambiguity of degree <= degree_cap in increasing
    (degree, word) order (``RewriteSystem._complete``); the system extends
    itself past that on demand.  Raises ValueError, naming the relation or
    rule, when a coefficient is not a Laurent polynomial or a leading
    coefficient does not divide its remainder in Z[q, 1/q].
    """
    rs = _relation_system(relations, n)
    rs._extend(max([degree_cap] + [rel.degree() for rel in relations]))
    return rs


def _relation_system(relations: list[NCPoly], n: int | None) -> RewriteSystem:
    """The degree-0 system whose rules are the relations, each reduced by
    the rules before it, smallest lead first, and dropped if it reduces to
    0; complete and build_serre_system then grow it by ``_extend``."""
    relations = [rel for rel in relations if not rel.is_zero()]
    rs = RewriteSystem(relations[0].n if relations else n or 1, 0)
    for rel in sorted(relations, key=lambda p: deglex_key(p.leading_word())):
        rel.multidegree()  # homogeneity check
        try:
            terms = {w: _laurent_of(c) for w, c in rel.terms.items()}
        except ValueError as exc:
            raise ValueError(f"relation {rel}: {exc}") from None
        q = rs._reduce(terms)
        if q:
            rs._insert_rule(q)
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
    leads = sorted(rs._rhs, key=deglex_key)
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
# The closed-form schedule
# ----------------------------------------------------------------------------

def _run(j: int, i: int) -> tuple:
    """The decreasing run (j, j-1, ..., i)."""
    return tuple(range(j, i - 1, -1))


def _serre_schedule(n: int) -> list[tuple]:
    """The (N - 1)(N - 2) overlaps (word, lead_a, lead_b) that give every
    rule of the rank-n q-Serre basis the relations do not, in (degree, word)
    order: with D(j, i) = (j, ..., i)(j - 1) and C(j, i) = (j, ..., i)(j,
    ..., i - 1),

    * D(j, j-2) from (j, j-1, j-1) and (j-1, j-1, j-2);
    * D(j, i), i < j - 2, from D(j, i+1) and the commutation (j-1, i);
    * C(j, i), i < j, from C(j, i+1) and D(i+1, i-1), where C(j, j) is the
      relation (j, j, j-1)."""
    out = []
    for j in range(3, n + 1):
        out.append((_run(j, j - 1) + (j - 1, j - 2), (j, j - 1, j - 1), (j - 1, j - 1, j - 2)))
        for i in range(j - 3, 0, -1):
            d = _run(j, i + 1) + (j - 1,)
            out.append((d + (i,), d, (j - 1, i)))
        for i in range(j - 1, 1, -1):
            c = _run(j, i + 1) + _run(j, i)
            out.append((c + (i - 1, i), c, _run(i + 1, i - 1) + (i,)))
    return sorted(out, key=lambda o: deglex_key(o[0]))


def build_serre_system(n: int, cap: int) -> RewriteSystem:
    """The rank-n q-Serre system through degree `cap` (or through its
    longest relation's), from the closed-form schedule: the relations as
    rules, the rule of each scheduled overlap of degree <= cap
    (``_serre_schedule``), a tail reduction, and the count certificate of
    every degree <= cap (``RewriteSystem.count_failure``).  It extends
    itself by the same schedule.  Raises InconsistentResult when a scheduled
    overlap reduces to 0 or a count fails; it never falls back to
    completion."""
    relations = serre_relations(n)
    rs = _relation_system(relations, n)
    rs._schedule = _serre_schedule(n)
    rs._extend(max([cap] + [rel.degree() for rel in relations]))
    return rs


# ----------------------------------------------------------------------------
# Shared, cached systems
# ----------------------------------------------------------------------------

# initial completion degrees; a system extends itself past them on demand
DEFAULT_CAPS = {1: 10, 2: 10, 3: 10, 4: 10, 5: 10}

_SYSTEMS: dict[int, RewriteSystem] = {}


def default_cap(n: int) -> int:
    return DEFAULT_CAPS.get(n, 6)


def get_rewrite_system(n: int, cap: int | None = None) -> RewriteSystem:
    """The rank's process-wide system: built through `cap` (default
    default_cap(n)) by build_serre_system when the rank is new, otherwise
    extended in place, by the same schedule, to at least `cap`; so one
    process holds one system (and one set of normal-form and PBW caches)
    per rank, and never runs completion."""
    rs = _SYSTEMS.get(n)
    if rs is None:
        rs = _SYSTEMS[n] = build_serre_system(n, default_cap(n) if cap is None else cap)
    elif cap is not None and cap > rs.cap:
        rs._extend(cap)
    return rs
