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


def rho_pairing(mu) -> int:
    """(rho, mu) for mu in the root lattice; rho pairs to 1 with each
    simple root, so this is just the coordinate sum."""
    return sum(mu)


def special_vectors(n: int):
    """Return (sigmas, eta, rho_pairing) for rank n: the vectors sigma_1..
    sigma_n, the highest root, and the functional mu -> (rho, mu)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    sigmas = [sigma_vec(i, n) for i in range(1, n + 1)]
    return sigmas, eta_vec(n), rho_pairing


def weight_root_pairing(lam, mu) -> int:
    """(lam, mu) for a weight lam (stored by simple-root pairings) and a
    root-lattice vector mu."""
    if len(lam) != len(mu):
        raise ValueError("rank mismatch in weight pairing")
    return sum(a * b for a, b in zip(lam, mu))


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
    I1_plus: tuple[int, ...]
    I2_minus: tuple[int, ...]


def split_I(I, i: int, n: int) -> SplitI:
    """Derived sets of I at the pivot i, for I containing both i and i+1.

    I_plus drops i, I_minus drops i+1; each is flagged absent (None) when
    dropping it would violate membership of 1 or N+1.  I1/I2 cut I at the
    pivot, and I1_plus/I2_minus additionally strip the pivot elements.
    """
    s = set(I)
    if not in_II(I, n) or i not in s or i + 1 not in s:
        raise ValueError("split requires an index set containing i and i+1")
    I_plus = tuple(x for x in I if x != i) if i != 1 else None
    I_minus = tuple(x for x in I if x != i + 1) if i != n else None
    I1 = tuple(x for x in I if x <= i)
    I2 = tuple(x for x in I if x >= i + 1)
    return SplitI(I_plus, I_minus, I1, I2, I1[:-1], I2[1:])


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


@lru_cache(maxsize=None)
def kostant_partitions(mu: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All multisets of positive roots summing to mu, each returned as a
    lexicographically sorted tuple of intervals.  Brute-force recursion over
    the interval list; kostant_count runs the same recursion without
    building the partitions, as the independent counting oracle for basis
    dimensions in the quotient algebra."""
    n = len(mu)
    roots = positive_roots(n)

    def rec(rem, idx):
        if all(x == 0 for x in rem):
            return [()]
        if idx == len(roots):
            return []
        out = []
        i, j = roots[idx]
        vec = root_vector((i, j), n)
        # max multiplicity of this root in the remainder
        cap = min(r for r, v in zip(rem, vec) if v) if any(vec) else 0
        for mult in range(0, cap + 1):
            rest = tuple(r - mult * v for r, v in zip(rem, vec))
            if any(x < 0 for x in rest):
                break
            for tail in rec(rest, idx + 1):
                out.append(((i, j),) * mult + tail)
        return out

    if any(x < 0 for x in mu):
        return ()
    return tuple(sorted(rec(tuple(mu), 0)))


def kostant_count(mu) -> int:
    """The number of Kostant partitions of mu, counted without building them."""
    mu = tuple(mu)
    if any(x < 0 for x in mu):
        return 0
    return _count_partitions(mu, 0)


@lru_cache(maxsize=None)
def _count_partitions(rem: tuple[int, ...], idx: int) -> int:
    """The number of multisets of the roots positive_roots(n)[idx:] that sum
    to rem; the memo is shared by every weight of a rank."""
    vecs = _root_vectors(len(rem))
    if idx == len(vecs):
        return 0 if any(rem) else 1
    vec = vecs[idx]
    total = 0
    while all(x >= 0 for x in rem):
        total += _count_partitions(rem, idx + 1)
        rem = tuple(r - v for r, v in zip(rem, vec))
    return total


@lru_cache(maxsize=None)
def _root_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(root_vector(ij, n) for ij in positive_roots(n))


def pbw_dimension(n: int, d: int) -> int:
    """p_N(d), the coefficient of t^d in prod over positive roots beta of
    1/(1 - t^(ht beta)): by the PBW theorem the dimension of the degree-d
    part of U_q(n^-), the sum of kostant_count(mu) over |mu| = d."""
    coeffs = [1] + [0] * d
    for i, j in positive_roots(n):
        for k in range(j - i, d + 1):
            coeffs[k] += coeffs[k - (j - i)]
    return coeffs[d]
