"""Weight-preserving bijection behind the even-index subsum counts.

A partition lambda of n with even-index subsum j maps to a pair of
partitions (alpha, beta) with |alpha| + |beta| = j, where beta additionally
has at most n - 2j parts.  Multiplicities are read off consecutive gaps of
lambda: alpha picks up the gaps at even positions, beta the gaps at odd
positions.  The inverse rebuilds lambda from suffix counts of the pair.
"""

from __future__ import annotations

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

    With a_t the t-th part (zero past the end), alpha gets the part t with
    multiplicity a_{2t} - a_{2t+1} and beta gets it with multiplicity
    a_{2t+1} - a_{2t+2}.
    """
    parts = check_partition(parts)
    n = sum(parts)
    a = (0, *parts, 0, 0)  # a[t] is a_t
    top = range(len(parts) // 2, 0, -1)  # largest part first
    alpha = tuple(t for t in top for _ in range(a[2 * t] - a[2 * t + 1]))
    beta = tuple(t for t in top for _ in range(a[2 * t + 1] - a[2 * t + 2]))
    j = sum(alpha) + sum(beta)
    if j != sum(parts[1::2]):
        raise ConsistencyError("pair weight must equal the even-index subsum")
    if len(beta) > n - 2 * j:
        raise ConsistencyError("beta must fit the part-count bound")
    return BijectionImage(alpha, beta, n, j)


def inverse(alpha: Iterable[int], beta: Iterable[int], n: int) -> Partition:
    """Rebuild the partition of n mapping to the pair (alpha, beta).

    Requires 2(|alpha| + |beta|) <= n and that beta have at most
    n - 2(|alpha| + |beta|) parts; otherwise no preimage exists and a
    ValueError is raised.  Part t of the preimage, for t >= 2, counts the
    alpha-parts of size >= ceil(t/2) plus the beta-parts of size >=
    floor(t/2); the first part then absorbs the leftover weight.
    """
    alpha = check_partition(alpha)
    beta = check_partition(beta)
    if n < 0:
        raise ValueError("n must be >= 0")
    j = sum(alpha) + sum(beta)
    if 2 * j > n:
        raise ValueError(f"pair weight {j} exceeds floor(n/2) for n = {n}")
    slack = n - 2 * j
    if len(beta) > slack:
        raise ValueError(
            f"beta has {len(beta)} parts; at most {slack} allowed for n = {n}"
        )
    # suffix[k] = number of parts of size >= k, for k = 1..top+1
    top = max(alpha[0] if alpha else 0, beta[0] if beta else 0)
    alpha_ge = _suffix_counts(alpha, top)
    beta_ge = _suffix_counts(beta, top)
    parts: list[int] = [0]  # placeholder for a_1
    t = 2
    while True:
        a_t = alpha_ge[(t + 1) // 2] + beta_ge[t // 2]
        if a_t == 0:
            break
        parts.append(a_t)
        t += 1
    a_2 = parts[1] if len(parts) > 1 else 0
    parts[0] = a_2 + (slack - len(beta))
    if parts[0] == 0:
        parts.pop(0)
    out = tuple(parts)
    if out and out[0] != n - 2 * j + len(alpha):
        raise ConsistencyError("rebuilt first part must be n - 2j + len(alpha)")
    if sum(out) != n:
        raise ConsistencyError("rebuilt partition must have weight n")
    if sum(out[1::2]) != j:
        raise ConsistencyError("rebuilt partition must have subsum j")
    return check_partition(out)


def _suffix_counts(parts: Partition, top: int) -> list[int]:
    """suffix[k] = number of parts >= k, with suffix[top + 1] = 0."""
    suffix = [0] * (top + 2)
    for count, part in enumerate(parts, 1):  # parts decrease: count parts >= part
        suffix[part] = count
    for k in range(top, 0, -1):
        suffix[k] = suffix[k] or suffix[k + 1]
    return suffix
