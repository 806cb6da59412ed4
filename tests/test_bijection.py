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
    build = bijection._from_multiplicities
    monkeypatch.setattr(
        bijection, "_from_multiplicities", lambda mult: build(mult)[:-1]
    )
    with pytest.raises(ConsistencyError):
        forward((3, 2, 1))
    monkeypatch.undo()

    suffix = bijection._suffix_counts

    def off_by_one(parts, top):
        counts = suffix(parts, top)
        counts[1] += 1
        return counts

    monkeypatch.setattr(bijection, "_suffix_counts", off_by_one)
    with pytest.raises(ConsistencyError):
        inverse((1,), (1,), 6)


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
