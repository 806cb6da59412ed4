"""Brute-force enumeration of partitions, for use as a small-n ground truth.

Everything here is deliberately naive: statistics are read straight off the
definition, one partition at a time.  The closed-form and DP routes in
exact.py are tested against these functions on ranges where full
enumeration stays cheap.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .exact import Partition, _check_mod_class, check_partition

ORACLE_LIMIT = 40


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield all partitions of n as weakly decreasing tuples.

    Order is reverse lexicographic, starting from (n) and ending at the
    all-ones partition.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    a = [n]
    while True:
        yield tuple(a)
        # Locate the rightmost part larger than 1; everything after it is 1s.
        j = len(a) - 1
        ones = 0
        while j >= 0 and a[j] == 1:
            ones += 1
            j -= 1
        if j < 0:
            return
        a[j] -= 1
        val = a[j]
        rem = ones + 1
        del a[j + 1 :]
        while rem > val:
            a.append(val)
            rem -= val
        if rem:
            a.append(rem)


def x_statistic(parts: Sequence[int], m: int, i: int) -> int:
    """Spaced subsum of a partition: parts at positions i, i+m, i+2m, ...

    Positions are 1-based, so i = 1 starts at the largest part.
    """
    _check_mod_class(m, i)
    parts = check_partition(parts)
    return sum(parts[i - 1 :: m])


def brute_distribution(n: int, m: int, i: int) -> list[int]:
    """Histogram counts[k] of the (m, i) subsum over all partitions of n."""
    return brute_distributions(n, [(m, i)])[(m, i)]


def brute_distributions(
    n: int, pairs: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], list[int]]:
    """Histograms for several (m, i) classes from a single enumeration pass.

    The enumeration, partitions_of, checks n >= 0.
    """
    for m, i in pairs:
        _check_mod_class(m, i)
    if n > ORACLE_LIMIT:
        raise ValueError(f"n = {n} exceeds the enumeration guard ({ORACLE_LIMIT})")
    out = {pair: [0] * (n + 1) for pair in pairs}
    for parts in partitions_of(n):
        for m, i in pairs:
            out[(m, i)][sum(parts[i - 1 :: m])] += 1
    return out


def brute_total(n: int, m: int, i: int) -> int:
    """Sum of the (m, i) subsum over all partitions of n."""
    hist = brute_distribution(n, m, i)
    return sum(k * c for k, c in enumerate(hist))


def brute_f(n: int, j: int) -> int:
    """Number of partitions of n whose even-index subsum equals j."""
    if j < 0:
        raise ValueError("j must be >= 0")
    hist = brute_distribution(n, 2, 2)
    return hist[j] if j <= n else 0
