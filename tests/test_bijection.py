"""Tests for the subsum bijection: examples, roundtrips, pair counting."""

import pytest
from hypothesis import given, settings

from partsums import bijection, exact, oracle
from partsums.bijection import forward, inverse
from partsums.exact import ConsistencyError

from conftest import partitions


def _pairs_of_weight(j):
    """All partition pairs (alpha, beta) with |alpha| + |beta| = j."""
    for a in range(j + 1):
        for alpha in oracle.partitions_of(a):
            for beta in oracle.partitions_of(j - a):
                yield alpha, beta


def test_forward_examples():
    image = forward((3, 2, 1))
    assert (image.alpha, image.beta, image.n, image.j) == ((1,), (1,), 6, 2)
    image = forward((2, 2))
    assert (image.alpha, image.beta, image.j) == ((1, 1), (), 2)
    image = forward((6,))
    assert (image.alpha, image.beta, image.j) == ((), (), 0)
    image = forward(())
    assert (image.alpha, image.beta, image.n, image.j) == ((), (), 0, 0)


def test_forward_weight_is_even_index_subsum():
    for n in range(19):
        for lam in oracle.partitions_of(n):
            image = forward(lam)
            assert image.j == oracle.x_statistic(lam, 2, 2)
            assert image.n == n


def test_inverse_examples():
    assert inverse((1,), (1,), 6) == (3, 2, 1)
    assert inverse((), (), 5) == (5,)
    assert inverse((), (), 0) == ()
    assert inverse((1, 1), (), 4) == (2, 2)


def test_inverse_validation():
    with pytest.raises(ValueError):
        inverse((1,), (1, 1, 1), 9)  # beta has too many parts
    with pytest.raises(ValueError):
        inverse((3,), (3,), 10)  # 2j > n
    with pytest.raises(ValueError):
        inverse((), (), -1)
    with pytest.raises(ValueError):
        inverse((1, 2), (), 8)  # not a partition


def test_broken_invariants_raise_consistency_error(monkeypatch):
    # The checks must be real raises, not asserts that vanish under -O.
    # Unchecked, the parts (3, 1, 2) give beta = (1, 1) of weight 2 > 1,
    # and (1, 3) gives j = 3 > n/2, so even an empty beta overflows n - 2j.
    monkeypatch.setattr(bijection, "check_partition", tuple)
    with pytest.raises(ConsistencyError, match="even-index subsum"):
        forward((3, 1, 2))
    with pytest.raises(ConsistencyError, match="part-count bound"):
        forward((1, 3))
    monkeypatch.undo()

    suffix = bijection._suffix_counts
    # (alpha, beta, n, {parts: {k: change to the count of parts >= k}}, check)
    cases = [
        ((1,), (1,), 6, {(1,): {1: 1}}, "first part"),
        ((2,), (), 4, {(2,): {1: -1}}, "weight n"),
        ((2, 2), (2, 1), 20, {(2, 2): {1: 2, 2: 1}, (2, 1): {1: -2}}, "subsum j"),
        ((2, 2), (2, 1), 20, {(2, 2): {2: 1}, (2, 1): {2: -1}}, "weakly decreasing"),
    ]
    for alpha, beta, n, changes, check in cases:
        def miscounted(parts, top):
            counts = suffix(parts, top)
            for k, change in changes.get(parts, {}).items():
                counts[k] += change
            return counts

        monkeypatch.setattr(bijection, "_suffix_counts", miscounted)
        with pytest.raises(ConsistencyError, match=check):
            inverse(alpha, beta, n)


def test_roundtrip_forward_then_inverse():
    for n in range(23):
        for lam in oracle.partitions_of(n):
            image = forward(lam)
            assert inverse(image.alpha, image.beta, n) == lam


def test_roundtrip_inverse_then_forward():
    for n in range(19):
        for j in range(n // 3 + 1):
            for alpha, beta in _pairs_of_weight(j):
                if len(beta) > n - 2 * j:
                    continue
                lam = inverse(alpha, beta, n)
                image = forward(lam)
                assert (image.alpha, image.beta) == (alpha, beta)


def test_pair_counting_matches_f_table():
    # The bijection's counting corollary, including the bounded-beta regime
    # past j = n/3 where pairs start being excluded.
    for n in range(15):
        f = exact.f_table(n)
        for j in range(n // 2 + 1):
            count = sum(
                1
                for _, beta in _pairs_of_weight(j)
                if len(beta) <= n - 2 * j
            )
            assert count == f[j]


@settings(deadline=None)
@given(partitions())
def test_roundtrip_random_partitions(lam):
    image = forward(lam)
    assert inverse(image.alpha, image.beta, image.n) == lam
