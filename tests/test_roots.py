"""Root/weight combinatorics: pairings, index sets, dot action, partitions."""

import itertools

from qshapo.roots import (
    alpha,
    dot_reflect,
    enumerate_II,
    enumerate_JJ,
    eta_vec,
    hyperplane_sample,
    in_II,
    kostant_count,
    kostant_partitions,
    pairing,
    pbw_dimension,
    r_of,
    sample_dominant_chain,
    sigma_vec,
    split_I,
    weights_of_height,
)
from ratq_oracles import kostant_partitions_by_roots


def test_pairing_cartan_entries():
    n = 3
    assert pairing(alpha(1, n), alpha(1, n)) == 2
    assert pairing(alpha(1, n), alpha(2, n)) == -1
    assert pairing(alpha(1, n), alpha(3, n)) == 0
    assert pairing(eta_vec(3), eta_vec(3)) == 2


def test_pairing_symmetric():
    n = 4
    vecs = [alpha(i, n) for i in range(1, n + 1)] + [eta_vec(n), sigma_vec(2, n)]
    for a, b in itertools.product(vecs, vecs):
        assert pairing(a, b) == pairing(b, a)


def test_enumerate_II():
    assert enumerate_II(1) == [(1, 2)]
    assert enumerate_II(2) == [(1, 3), (1, 2, 3)]
    assert enumerate_II(3) == [(1, 4), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4)]
    for n in range(1, 7):
        sets = enumerate_II(n)
        assert len(sets) == 2 ** (n - 1)
        assert len(set(sets)) == len(sets)
        # index sets biject with partitions of eta into positive roots
        assert kostant_count(eta_vec(n)) == len(sets)


def test_r_of():
    assert r_of((1, 3), 2) == (1,)
    assert r_of((1, 2, 3), 2) == ()
    assert r_of((1, 2, 4), 3) == (2,)


def test_split_examples():
    s = split_I((1, 2, 3, 4), 2, 3)
    assert s.I_plus == (1, 3, 4)
    assert s.I_minus == (1, 2, 4)
    assert s.I1 == (1, 2)
    assert s.I2 == (3, 4)
    s = split_I((1, 2, 3), 1, 2)
    assert s.I_plus is None
    assert s.I_minus == (1, 3)
    s = split_I((1, 2, 3), 2, 2)
    assert s.I_minus is None
    assert s.I_plus == (1, 3)


def test_split_r_relations_exhaustive():
    # r(I_plus) = r(I) + {i-1} and r(I_minus) = r(I) + {i}
    for n in range(2, 7):
        for I in enumerate_II(n):
            s = set(I)
            for i in range(1, n + 1):
                if i not in s or i + 1 not in s:
                    continue
                sp = split_I(I, i, n)
                base = set(r_of(I, n))
                if sp.I_plus is not None:
                    assert set(r_of(sp.I_plus, n)) == base | {i - 1}
                if sp.I_minus is not None:
                    assert set(r_of(sp.I_minus, n)) == base | {i}
                # I is the disjoint union of I1 and I2
                assert sorted(sp.I1 + sp.I2) == list(I)


def test_split_injective_on_pivot_class():
    for n in range(2, 7):
        for i in range(1, n + 1):
            seen = {}
            for I in enumerate_II(n):
                s = set(I)
                if i not in s or i + 1 not in s:
                    continue
                sp = split_I(I, i, n)
                key = (sp.I1, sp.I2)
                assert key not in seen
                seen[key] = I


def test_dot_reflect():
    n = 2
    minus_rho = (-1, -1)
    assert dot_reflect(1, minus_rho) == minus_rho
    assert dot_reflect(1, (0, 0)) == (-2, 1)
    for i in range(1, n + 1):
        for lam in itertools.product(range(-5, 6), repeat=n):
            assert dot_reflect(i, dot_reflect(i, lam)) == lam


def test_hyperplane_sample():
    for n, m in [(2, 1), (3, 1), (2, 2), (4, 3)]:
        for lam in hyperplane_sample(n, m, 8, seed=5):
            # (lam + rho, eta) = m: rho pairs to 1 with each simple root
            assert n + sum(lam) == m
    # deterministic in the seed
    assert hyperplane_sample(3, 1, 5, seed=9) == hyperplane_sample(3, 1, 5, seed=9)


def test_sampling_sequences_are_pinned():
    # sampled reports and the benchmark's digests depend on these exact
    # sequences, so the order of the generator calls must not change; the
    # last two cases exhaust the starting spread and widen it
    assert hyperplane_sample(3, 1, 5, seed=0) == [
        (3, 0, -5), (-3, -1, 2), (1, 0, -3), (0, 3, -5), (3, -1, -4)
    ]
    assert hyperplane_sample(3, 1, 5, seed=7) == [
        (-1, -2, 1), (0, 2, -4), (-3, -3, 4), (3, 1, -6), (-3, -1, 2)
    ]
    assert hyperplane_sample(4, 2, 4, seed=123, spread=1) == [
        (-1, 0, -1, 0), (0, 0, -1, -1), (-1, 0, 1, -2), (1, 0, 0, -3)
    ]
    assert sample_dominant_chain(3, 2, 4, seed=0) == [
        (3, 1, -5), (2, 1, -4), (4, 1, -6), (4, 0, -5)
    ]
    assert sample_dominant_chain(3, 2, 4, seed=7) == [
        (3, 0, -4), (3, 2, -6), (2, 0, -3), (4, 0, -5)
    ]
    assert sample_dominant_chain(4, 2, 3, seed=123, spread=1) == [
        (2, 1, 0, -5), (3, 1, 0, -6), (2, 1, 1, -6)
    ]
    assert hyperplane_sample(2, 1, 12, seed=3, spread=1) == [
        (-1, 0), (1, -2), (0, -1), (2, -3), (-2, 1), (-3, 2),
        (3, -4), (-4, 3), (4, -5), (-5, 4), (5, -6), (6, -7),
    ]
    assert sample_dominant_chain(2, 1, 6, seed=3, spread=0) == [
        (1, -2), (2, -3), (3, -4), (4, -5), (5, -6), (6, -7)
    ]
    assert hyperplane_sample(1, 3, 4, seed=0) == [(2,)]
    assert sample_dominant_chain(1, 3, 4, seed=0) == [(2,)]


def test_sample_dominant_chain_positivity():
    for n in range(2, 5):
        for m in (1, 2):
            for lam in sample_dominant_chain(n, m, 6, seed=3):
                # target lies on the hyperplane for eta
                assert sum(lam) == m - n
                # walking back down the chain sees positive parameters
                cur = lam
                for i in range(n, 1, -1):
                    prev = dot_reflect(i, cur)
                    assert prev[i - 1] + 1 >= 1
                    cur = prev


def test_kostant_small_counts():
    assert kostant_count((1,)) == 1
    assert kostant_count((1, 1)) == 2
    assert kostant_count((1, 1, 1)) == 4
    assert kostant_count((2, 1)) == 2
    assert kostant_count((0, 0)) == 1
    assert kostant_count([1, -1]) == 0
    # partitions themselves sum back to the weight
    for part in kostant_partitions((2, 2)):
        total = [0, 0]
        for (i, j) in part:
            for k in range(i, j):
                total[k - 1] += 1
        assert tuple(total) == (2, 2)


def test_in_II():
    assert in_II((1, 4), 3)
    assert not in_II((1, 3), 3)
    assert not in_II((2, 4), 3)


def test_kostant_count_counts_the_partitions():
    for n in range(1, 5):
        for h in range(7):
            for mu in itertools.product(range(h + 1), repeat=n):
                if sum(mu) == h:
                    assert kostant_count(mu) == len(kostant_partitions(mu)), mu


def kostant_count_by_series(mu):
    """The coefficient of x^mu in the product over positive roots beta of
    1/(1 - x^beta), each factor multiplied in over the box [0, mu]."""
    n = len(mu)
    box = list(itertools.product(*(range(m + 1) for m in mu)))
    coeff = dict.fromkeys(box, 0)
    coeff[(0,) * n] = 1
    for i in range(n):
        for j in range(i + 1, n + 1):
            # beta covers coordinates i..j-1; box is in lex order, so x - beta
            # is reached before x and may already hold powers of x^beta
            for x in box:
                if all(x[k] for k in range(i, j)):
                    coeff[x] += coeff[x[:i] + tuple(c - 1 for c in x[i:j]) + x[j:]]
    return coeff[tuple(mu)]


def test_kostant_count_is_the_series_coefficient():
    for n in range(1, 6):
        for h in range(7):
            for mu in weights_of_height(n, h):
                assert kostant_count(mu) == kostant_count_by_series(mu), mu
    assert kostant_count((2,) * 8) == kostant_count_by_series((2,) * 8) == 5875
    assert kostant_count((1,) * 12) == kostant_count_by_series((1,) * 12) == 2048
    assert kostant_count((3, -1, 2)) == kostant_count((0, 0, -1)) == 0
    assert kostant_count(()) == 1


def test_weights_of_height_is_the_filtered_product():
    for n in range(6):
        for h in range(7):
            want = [mu for mu in itertools.product(range(h + 1), repeat=n) if sum(mu) == h]
            assert list(weights_of_height(n, h)) == want, (n, h)


def test_pbw_dimension_sums_the_kostant_counts():
    for n in range(1, 5):
        for d in range(9):
            weights = (mu for mu in itertools.product(range(d + 1), repeat=n) if sum(mu) == d)
            assert pbw_dimension(n, d) == sum(map(kostant_count, weights)), (n, d)


def test_kostant_partitions_takes_any_sequence():
    assert kostant_partitions([1, 1]) == kostant_partitions((1, 1)) == (((1, 2), (2, 3)), ((1, 3),))
    assert kostant_partitions([1, -1]) == ()
    assert kostant_partitions([0, 0]) == ((),)


def test_kostant_partitions_equal_the_recursion_over_roots():
    weights = [mu for n in range(1, 5) for mu in itertools.product(range(4), repeat=n)]
    weights += [(2, 2, 2, 2, 2), (6, 6, 6), (1,) * 8, (1, -1), (0, -2, 3)]
    for mu in weights:
        got = kostant_partitions(mu)
        assert got == kostant_partitions_by_roots(mu), mu
        assert list(got) == sorted(set(got)), mu
        assert all(list(part) == sorted(part) for part in got), mu
        assert len(got) == kostant_count(mu), mu
