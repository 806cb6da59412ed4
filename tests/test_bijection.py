"""Tests for the subsum bijection: examples, roundtrips, pair counting."""

import itertools

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


@pytest.mark.parametrize("n", [6.5, 6.0, True, "6", None])
def test_inverse_rejects_an_n_that_is_not_an_int(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        inverse((1,), (1,), n)
    with pytest.raises(ValueError, match="n must be an integer"):
        inverse((), (), n)


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

    # The step count is seamed at accumulate, whose list runs a_last, ..., a_2.
    # Unpatched, ((2, 2), (2, 2), 18) rebuilds (4, 4, 4, 4, 2).
    # ({s: change to a_s}, check)
    cases = [
        ({2: 1}, "first part"),
        ({4: 1}, "weight n"),
        ({3: 1, 4: -1}, "subsum j"),
        ({3: 1, 5: -1}, "weakly decreasing"),
    ]
    for changes, check in cases:
        def miscounted(steps):
            rest = [*itertools.accumulate(steps)]
            for s, change in changes.items():
                rest[1 - s] += change
            return rest

        monkeypatch.setattr(bijection, "accumulate", miscounted)
        with pytest.raises(ConsistencyError, match=check):
            inverse((2, 2), (2, 2), 18)


def _forward_by_multiplicities(lam):
    """alpha gets t with multiplicity a_{2t} - a_{2t+1}, beta a_{2t+1} - a_{2t+2}."""
    a = (0, *lam, 0, 0)  # a[t] is a_t
    top = range(len(lam) // 2, 0, -1)
    alpha = tuple(t for t in top for _ in range(a[2 * t] - a[2 * t + 1]))
    beta = tuple(t for t in top for _ in range(a[2 * t + 1] - a[2 * t + 2]))
    return alpha, beta


def _inverse_by_suffix_counts(alpha, beta, n):
    """a_t, t >= 2, counts alpha parts >= ceil(t/2) and beta parts >= floor(t/2)."""
    parts = []
    t = 2
    while True:
        a_t = sum(x >= (t + 1) // 2 for x in alpha) + sum(y >= t // 2 for y in beta)
        if a_t == 0:
            break
        parts.append(a_t)
        t += 1
    first = (parts[0] if parts else 0) + n - 2 * (sum(alpha) + sum(beta)) - len(beta)
    return tuple([first] + parts if first else parts)


def test_bijection_matches_its_definition():
    # A round trip cannot see a fault made the same way in both directions,
    # so each direction is held to the formula it implements.
    for n in range(25):
        for lam in oracle.partitions_of(n):
            image = forward(lam)
            assert (image.alpha, image.beta) == _forward_by_multiplicities(lam)
    for j in range(9):
        for alpha, beta in _pairs_of_weight(j):
            for n in range(2 * j + len(beta), 2 * j + len(beta) + 4):
                assert inverse(alpha, beta, n) == _inverse_by_suffix_counts(alpha, beta, n)


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
