"""Weight-preserving bijection behind the even-index subsum counts.

A partition lambda of n with even-index subsum j maps to a pair of
partitions (alpha, beta) with |alpha| + |beta| = j, where beta additionally
has at most n - 2j parts.  Multiplicities are read off consecutive gaps of
lambda: alpha picks up the gaps at even positions, beta the gaps at odd
positions.  The inverse rebuilds lambda from one step count: each part of
the pair adds a step at the last part of lambda it reaches.
"""

from __future__ import annotations

from itertools import accumulate
from operator import lt
from typing import Iterable, NamedTuple

from .exact import ConsistencyError, Partition, check_partition


class BijectionImage(NamedTuple):
    """Image of a partition of n: a pair (alpha, beta) of total weight j."""

    alpha: Partition
    beta: Partition
    n: int
    j: int


def forward(parts: Iterable[int]) -> BijectionImage:
    """Map a partition to its (alpha, beta) pair.

    With a_s the s-th part (zero past the end), alpha gets the part t with
    multiplicity a_{2t} - a_{2t+1} and beta gets it with multiplicity
    a_{2t+1} - a_{2t+2}: the gap a_s - a_{s+1} goes to alpha for even s.
    """
    parts = check_partition(parts)
    n = sum(parts)
    alpha: list[int] = []
    beta: list[int] = []
    prev = 0  # a_{s+1}
    for s in range(len(parts), 1, -1):  # largest part first
        x = parts[s - 1]  # a_s
        if x == prev:  # no gap at s
            continue
        if s & 1:
            beta += [s // 2] * (x - prev)
        else:
            alpha += [s // 2] * (x - prev)
        prev = x
    alpha, beta = tuple(alpha), tuple(beta)
    j = sum(alpha) + sum(beta)
    if j != sum(parts[1::2]):
        raise ConsistencyError("pair weight must equal the even-index subsum")
    if len(beta) > n - 2 * j:
        raise ConsistencyError("beta must fit the part-count bound")
    return BijectionImage(alpha, beta, n, j)


def inverse(alpha: Iterable[int], beta: Iterable[int], n: int) -> Partition:
    """Rebuild the partition of n mapping to the pair (alpha, beta).

    Requires an int n >= 2(|alpha| + |beta|) and that beta have at most
    n - 2(|alpha| + |beta|) parts; otherwise no preimage exists and a
    ValueError is raised.  Each alpha part x reaches the parts a_2..a_{2x}
    of the preimage and each beta part y the parts a_2..a_{2y+1}, so a_s,
    for s >= 2, counts the steps at s or above; the first part then
    absorbs the leftover weight.
    """
    alpha = check_partition(alpha)
    beta = check_partition(beta)
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    j = sum(alpha) + sum(beta)
    if 2 * j > n:
        raise ValueError(f"pair weight {j} exceeds floor(n/2) for n = {n}")
    slack = n - 2 * j
    if len(beta) > slack:
        raise ValueError(
            f"beta has {len(beta)} parts; at most {slack} allowed for n = {n}"
        )
    last = max(2 * alpha[0] if alpha else 0, 2 * beta[0] + 1 if beta else 0)
    steps = [0] * (last + 1)  # steps[s]: the pair's parts that reach a_s, not a_{s+1}
    for x in alpha:
        steps[2 * x] += 1
    for y in beta:
        steps[2 * y + 1] += 1
    rest = [*accumulate(steps[:1:-1])]  # a_last, ..., a_2
    rest.reverse()
    first = (rest[0] if rest else 0) + slack - len(beta)
    out = (first, *rest) if first else tuple(rest)
    if out and out[0] != n - 2 * j + len(alpha):
        raise ConsistencyError("rebuilt first part must be n - 2j + len(alpha)")
    if sum(out) != n:
        raise ConsistencyError("rebuilt partition must have weight n")
    if sum(out[1::2]) != j:
        raise ConsistencyError("rebuilt partition must have subsum j")
    if any(map(lt, out, out[1:])):
        raise ConsistencyError("rebuilt parts must be weakly decreasing")
    return out
