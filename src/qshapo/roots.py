"""Type-A root and weight combinatorics.

Conventions used throughout the package:

* Elements of the root lattice are integer tuples of length N giving
  coefficients in the simple-root basis alpha_1..alpha_N of sl(N+1).
* Weights are identified by their pairings with the simple roots, i.e. a
  weight lam is the tuple ((lam, alpha_1), ..., (lam, alpha_N)).  All the
  formulas downstream consume only such pairings, which sidesteps the
  gl-versus-sl coordinate ambiguity.
* Index sets are strictly increasing tuples of integers inside [N+1].  A set
  containing 1 and N+1 encodes a multiplicative chain of root vectors whose
  total degree is the highest root eta; these index the summands of the
  Shapovalov element.

Everything here is pure combinatorics over immutable tuples.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import NamedTuple


# ----------------------------------------------------------------------------
# Cartan pairing and distinguished vectors
# ----------------------------------------------------------------------------

def cartan_entry(i: int, j: int) -> int:
    """Entry a_ij of the type-A Cartan matrix (1-based indices)."""
    if i == j:
        return 2
    if abs(i - j) == 1:
        return -1
    return 0


def pairing(mu, nu) -> int:
    """Bilinear form on the root lattice, (alpha_i, alpha_j) = a_ij."""
    if len(mu) != len(nu):
        raise ValueError("rank mismatch in pairing")
    n = len(mu)
    total = 0
    for i in range(n):
        m = mu[i]
        if not m:
            continue
        s = 2 * nu[i]
        if i > 0:
            s -= nu[i - 1]
        if i + 1 < n:
            s -= nu[i + 1]
        total += m * s
    return total


def alpha(i: int, n: int) -> tuple[int, ...]:
    """The i-th simple root as a lattice vector (1-based)."""
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def sigma_vec(i: int, n: int) -> tuple[int, ...]:
    """sigma_i = alpha_1 + ... + alpha_i, the highest root of the leading
    rank-i subsystem."""
    return tuple(1 if k < i else 0 for k in range(n))


def eta_vec(n: int) -> tuple[int, ...]:
    """The highest root eta = alpha_1 + ... + alpha_N."""
    return (1,) * n


# ----------------------------------------------------------------------------
# Index sets
# ----------------------------------------------------------------------------

def enumerate_II(n: int) -> list[tuple[int, ...]]:
    """All subsets of [N+1] containing 1 and N+1, ordered by the bitmask of
    their interior elements (bit 0 of the mask toggles element 2)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    interior = list(range(2, n + 1))
    out = []
    for mask in range(1 << len(interior)):
        elems = [1]
        for b, e in enumerate(interior):
            if mask >> b & 1:
                elems.append(e)
        elems.append(n + 1)
        out.append(tuple(elems))
    return out


def enumerate_JJ(n: int) -> list[tuple[int, ...]]:
    """All subsets of [N] containing 1 and N, in interior-bitmask order.
    These index the summands of the rank-(N-1) Shapovalov element sitting
    inside rank N."""
    if n < 2:
        raise ValueError("requires rank >= 2")
    return enumerate_II(n - 1)


def in_II(I, n: int) -> bool:
    s = set(I)
    return (
        1 in s
        and n + 1 in s
        and all(1 <= x <= n + 1 for x in s)
        and len(s) == len(I)
        and tuple(sorted(s)) == tuple(I)
    )


def r_of(I, n: int) -> tuple[int, ...]:
    """Complement of I in [N+1] with every element shifted down by one.
    These are the subdiagonal rows a chain misses; they label which h_i
    factors accompany the chain in the Shapovalov element."""
    if not in_II(I, n):
        raise ValueError("index set must contain 1 and N+1")
    s = set(I)
    return tuple(x - 1 for x in range(1, n + 2) if x not in s)


class SplitI(NamedTuple):
    I_plus: tuple[int, ...] | None
    I_minus: tuple[int, ...] | None
    I1: tuple[int, ...]
    I2: tuple[int, ...]


def split_I(I, i: int, n: int) -> SplitI:
    """Derived sets of I at the pivot i, for I containing both i and i+1.

    I_plus drops i, I_minus drops i+1; each is flagged absent (None) when
    dropping it would violate membership of 1 or N+1.  I1/I2 cut I at the
    pivot.
    """
    s = set(I)
    if not in_II(I, n) or i not in s or i + 1 not in s:
        raise ValueError("split requires an index set containing i and i+1")
    I_plus = tuple(x for x in I if x != i) if i != 1 else None
    I_minus = tuple(x for x in I if x != i + 1) if i != n else None
    I1 = tuple(x for x in I if x <= i)
    I2 = tuple(x for x in I if x >= i + 1)
    return SplitI(I_plus, I_minus, I1, I2)


# ----------------------------------------------------------------------------
# Dot action and weight sampling
# ----------------------------------------------------------------------------

def dot_reflect(i: int, lam) -> tuple[int, ...]:
    """rho-shifted simple reflection on a weight given by pairings:
    lam -> lam - (lam + rho, alpha_i) * alpha_i."""
    n = len(lam)
    c = lam[i - 1] + 1
    out = list(lam)
    for j in range(1, n + 1):
        out[j - 1] -= c * cartan_entry(i, j)
    return tuple(out)


def _distinct_weights(n, m, count, seed, spread, draw):
    """``count`` distinct weights ``draw(rng, spread)`` from a generator
    seeded with ``seed``; the spread grows by one whenever 40 draws per
    weight found so far bring nothing new (the sample space is too small)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if n == 1:
        return [(m - 1,)]  # the only weight on the hyperplane; nothing to reflect
    rng = random.Random(seed)
    seen = set()
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 40 * (len(out) + 1):
            spread += 1
            tries = 0
        lam = draw(rng, spread)
        if lam in seen:
            continue
        seen.add(lam)
        out.append(lam)
    return out


def hyperplane_sample(n, m, count, seed=0, spread=3):
    """Deterministic integer weights with (lam + rho, eta) = m.

    Since (rho, eta) = N this means the pairings sum to m - N.  Duplicates
    are rejected; the sequence depends only on the seed.
    """

    def draw(rng, spread):
        head = [rng.randint(-spread, spread) for _ in range(n - 1)]
        return tuple(head) + (m - n - sum(head),)

    return _distinct_weights(n, m, count, seed, spread, draw)


def sample_dominant_chain(n, m, count, seed=0, spread=2):
    """Weights on the hyperplane (lam + rho, eta) = m suitable for the
    conjugation-operator induction.

    Each returned weight is the pushforward, along the chain of dot
    reflections at alpha_2, ..., alpha_N, of a base weight nu with
    (nu + rho, alpha_1) = m and (nu + rho, alpha_j) >= 1 for all j.  That
    guarantees every induction step sees a strictly positive integer
    parameter.
    """

    def draw(rng, spread):
        lam = (m - 1,) + tuple(rng.randint(0, spread) for _ in range(n - 1))
        for i in range(2, n + 1):
            lam = dot_reflect(i, lam)
        return lam

    return _distinct_weights(n, m, count, seed, spread, draw)


# ----------------------------------------------------------------------------
# Kostant partitions
# ----------------------------------------------------------------------------

def positive_roots(n: int) -> list[tuple[int, int]]:
    """Positive roots of sl(N+1) as intervals (i, j) with 1 <= i < j <= N+1,
    the pair (i, j) standing for alpha_i + ... + alpha_{j-1}."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]


def root_vector(ij: tuple[int, int], n: int) -> tuple[int, ...]:
    i, j = ij
    return tuple(1 if i <= k + 1 < j else 0 for k in range(n))


def kostant_partitions(mu) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All multisets of positive roots summing to mu (any integer sequence),
    each a lex-sorted tuple of intervals, in sorted order.  kostant_count
    counts them without building them, by a sweep that shares no code
    with this one (the oracle for basis dimensions)."""
    return _kostant_partitions(tuple(mu))


@lru_cache(maxsize=None)
def _kostant_partitions(mu: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The roots (k, j) starting at coordinate k are the last to cover it,
    so they spend its remainder exactly; walking right, each coordinate t
    chooses how many end there, keeping the remainder at t + 1 nonnegative.
    Every nonnegative remainder has a partition, so no branch dies."""
    if any(x < 0 for x in mu):
        return ()
    if not any(mu):
        return ((),)
    n = len(mu)
    out = []

    def walk(rem, k, t, s, part):
        # s roots from coordinate k (0-based) cover t; more ending at t sort first
        rem = rem[:t] + (rem[t] - s,) + rem[t + 1:]
        lo = s - rem[t + 1] if t + 1 < n else s
        for e in range(s, max(lo, 0) - 1, -1):
            p = part + ((k + 1, t + 2),) * e
            if e < s:
                walk(rem, k, t + 1, s - e, p)
            elif k + 1 < n:
                walk(rem, k + 1, k + 1, rem[k + 1], p)
            else:
                out.append(p)

    walk(mu, 0, 0, mu[0], ())
    return tuple(out)


def kostant_count(mu) -> int:
    """The number of Kostant partitions of mu, counted without building them:
    the ways to end every interval still open after mu[:-1] (each covers
    the last coordinate) and to fill that coordinate with new ones."""
    mu = tuple(mu)
    if any(x < 0 for x in mu):
        return 0
    if not mu:
        return 1
    return sum(k for state, k in _open_intervals(mu[:-1]).items() if sum(state) <= mu[-1])


@lru_cache(maxsize=None)
def _open_intervals(prefix: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The sweep of a weight's coordinates, left to right, through prefix:
    {state: the number of multisets of positive roots (intervals) that
    cover each coordinate t of prefix prefix[t] times and whose intervals
    in state go on past its last coordinate}.  A state counts those open
    intervals by their start and keeps only the nonzero counts, sorted:
    no later step reads a start.  A coordinate is covered by the intervals
    open before it and by new ones starting there; each start then keeps
    any number of its intervals open.  The map depends on the prefix
    alone, so one cached map serves every weight that extends it, of any
    rank; it is shared, so never mutated.  No entry of prefix is negative."""
    if not prefix:
        return {(): 1}
    out: dict[tuple[int, ...], int] = {}
    for state, k in _open_intervals(prefix[:-1]).items():
        fresh = prefix[-1] - sum(state)
        if fresh < 0:
            continue
        for kept in itertools.product(*(range(c + 1) for c in state + (fresh,))):
            nxt = tuple(sorted(c for c in kept if c))
            out[nxt] = out.get(nxt, 0) + k
    return out


def weights_of_height(n: int, h: int):
    """The nonnegative n-tuples of sum h, in lexicographic order."""
    if n == 0:
        if h == 0:
            yield ()
        return
    for first in range(h + 1):
        for rest in weights_of_height(n - 1, h - first):
            yield (first,) + rest


def pbw_dimension(n: int, d: int) -> int:
    """p_N(d), the coefficient of t^d in prod over positive roots beta of
    1/(1 - t^(ht beta)): by the PBW theorem the dimension of the degree-d
    part of U_q(n^-), the sum of kostant_count(mu) over |mu| = d."""
    coeffs = [1] + [0] * d
    for i, j in positive_roots(n):
        for k in range(j - i, d + 1):
            coeffs[k] += coeffs[k - (j - i)]
    return coeffs[d]
