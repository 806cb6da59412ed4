"""Exact integer tables for partition counts and spaced-subsum statistics.

Everything in this module is arbitrary-precision integer or rational
arithmetic; floating point never enters.  The statistic of interest, for a
partition lambda = (a_1 >= a_2 >= ...) and a residue class i mod m, is the
sum of the parts a_i, a_{i+m}, a_{i+2m}, ...  Nothing is enumerated (that
ground truth is oracle.py's).  The p-table recurrence sums p-table slices
in C.  A total over all partitions of n is Euler's n p(n) = sum_k sigma(k)
p(n - k) plus residue-class sums of slices of the partition table, split
at isqrt(n).  p-tables persist on disk as checksummed binary files.
"""

from __future__ import annotations

import struct
import zlib
from fractions import Fraction
from itertools import islice, repeat
from math import isqrt
from operator import mul
from typing import BinaryIO, Iterable, NamedTuple, Optional, Sequence, TextIO


class ConsistencyError(Exception):
    """An internal cross-check failed; indicates a bug, not bad input."""


Partition = tuple[int, ...]
_INT_ONLY = {int}  # the part types check_partition's fast path accepts


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize a partition given as any iterable of ints.

    Parts must be positive and weakly decreasing.  Returns a tuple.
    """
    out = tuple(parts)
    # fast path in C: exact ints, the last one positive, already sorted descending
    if (out and {*map(type, out)} == _INT_ONLY and out[-1] >= 1
            and sorted(out, reverse=True) == [*out]):
        return out
    for x in out:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"parts must be positive integers, got {x!r}")
    for a, b in zip(out, out[1:]):
        if a < b:
            raise ValueError("parts must be weakly decreasing")
    return out


def canonical_residue(d: int, m: int) -> int:
    """Residue of d mod m, reported in 1..m (multiples of m report as m)."""
    return d % m or m


def _check_mod_class(m: int, i: int) -> None:
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if not 1 <= i <= m:
        raise ValueError(f"residue index must lie in 1..{m}, got {i}")


# ---------------------------------------------------------------------------
# partition counts
# ---------------------------------------------------------------------------

_P_VALUES: list[int] = [1]  # p(0), p(1), ...; grows monotonically
_P_BLOCK = 128  # p-table values added per step of the recurrence
_IO_CHUNK = 512  # p-table slots encoded per write or read
_UNPACK = 128  # slots decoded per unpack_from: 512 raised a warm job's peak RSS
_P_HEADER = "p-table max_n={} width={}\n"  # a regex here adds 0.4 MB to peak RSS
_P_TRAILER = b"crc32=%08x\n"  # the CRC-32 of the header and body


def _pentagonal_offsets(max_n: int) -> tuple[list[int], list[int]]:
    """Generalized pentagonal numbers g <= max_n, split by sign.

    g = k(3k -+ 1)/2 enters Euler's recurrence with sign (-1)^(k+1): the
    first list holds g for odd k (added terms), the second for even k
    (subtracted terms).  Both lists are increasing.
    """
    added: list[int] = []
    subtracted: list[int] = []
    k = 1
    while True:
        g = k * (3 * k - 1) // 2
        if g > max_n:
            return added, subtracted
        side = added if k % 2 else subtracted
        side.append(g)
        if g + k <= max_n:
            side.append(g + k)
        k += 1


def partition_counts(max_n: int) -> list[int]:
    """Return [p(0), ..., p(max_n)] via Euler's pentagonal recurrence.

    p(n) = sum_{k>=1} (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)),
    evaluated a block of new values at a time; see _p_values.

    The table grows in place in a process-wide cache, so repeated calls
    share work.  This returns a copy that callers may
    mutate; package code reads the shared list in place via _p_values.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    return _p_values(max_n)[: max_n + 1]


def _p_values(max_n: int) -> list[int]:
    """Grow the shared p-table through p(max_n) and return the shared list.

    Each step appends p(n0..n0 + B - 1), B = _P_BLOCK.  Offsets B <= g <= n0
    read known values only, so each sign's slices values[n0 - g:n0 - g + B]
    are summed column by column.  The rest are summed per n, as values[-g]
    while the table holds p(0..n-1), a cursor per sign marking the offsets
    g <= n.  Growing from any length gives the same list.

    Package code reads it in place and never mutates it; it may run past
    p(max_n).  partition_counts hands out copies.
    """
    values = _P_VALUES
    if len(values) > max_n:
        return values
    offsets, get = _pentagonal_offsets(max_n), values.__getitem__
    while len(values) <= max_n:
        n0 = len(values)
        width = min(_P_BLOCK, max_n + 1 - n0)
        far = [map(sum, zip(repeat(0, width),  # the zero column keeps width
                            *[values[n0 - g:n0 - g + width]
                              for g in side if _P_BLOCK <= g <= n0]))
               for side in offsets]
        near_a, near_s = ([-g for g in side if not _P_BLOCK <= g <= n0]
                          for side in offsets)
        a = s = 0
        for n, plus, minus in zip(range(n0, n0 + width), *far):
            while a < len(near_a) and near_a[a] >= -n:
                a += 1
            while s < len(near_s) and near_s[s] >= -n:
                s += 1
            values.append(plus - minus + sum(map(get, near_a[:a]))
                          - sum(map(get, near_s[:s])))
    return values


def preload_partition_counts(values: Sequence[int]) -> None:
    """Seed the shared p-table cache, e.g. from a file written earlier.

    The supplied prefix must agree with whatever is already cached.
    """
    if not values or values[0] != 1:
        raise ValueError("a p-table must start with p(0) = 1")
    n_check = min(len(values), len(_P_VALUES))
    if list(values[:n_check]) != _P_VALUES[:n_check]:
        raise ConsistencyError("supplied p-table disagrees with cached values")
    if len(values) > len(_P_VALUES):
        _P_VALUES.extend(islice(values, len(_P_VALUES), None))  # no list copy


def restricted_counts(max_n: int, max_j: int) -> list[list[int]]:
    """Table t[n][j] = number of partitions of n into at most j parts.

    Recurrence: a partition of n into at most j parts either uses fewer
    than j parts or has all j parts >= 1 (subtract one from each).
    """
    if max_n < 0 or max_j < 0:
        raise ValueError("table bounds must be >= 0")
    table = [[0] * (max_j + 1) for _ in range(max_n + 1)]
    for j in range(max_j + 1):
        table[0][j] = 1
    for n in range(1, max_n + 1):
        row = table[n]
        for j in range(1, max_j + 1):
            row[j] = row[j - 1] + (table[n - j][j] if n >= j else 0)
    return table


# ---------------------------------------------------------------------------
# divisor sums
# ---------------------------------------------------------------------------


class DivisorSumTables(NamedTuple):
    """Sieved divisor data for 1..max_k for a modulus m and a class i.

    tau[k] counts all divisors of k.  tau_mod[h][k] counts divisors with
    canonical residue h in 1..m (h = m holds the divisors that are multiples
    of m; row 0 is unused); these depend on m alone.  floor_sum[k] is the
    divisor kernel sum_{d | k} floor((d + m - i) / m) of the (m, i) total,
    which total_subsum does not need; at m = 1 it is sigma(k).  Index 0 of
    each k-indexed list is unused.
    """

    max_k: int
    m: int
    i: int
    tau: list[int]
    tau_mod: list[list[int]]
    floor_sum: list[int]


def divisor_tables(max_k: int, m: int, i: int) -> DivisorSumTables:
    """Sieve tau, residue-split tau, and the floor kernel up to max_k."""
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    _check_mod_class(m, i)
    tau_mod = [[0] * (max_k + 1) for _ in range(m + 1)]
    floor_sum = [0] * (max_k + 1)
    for d in range(1, max_k + 1):
        row = tau_mod[canonical_residue(d, m)]
        w = (d + m - i) // m
        for k in range(d, max_k + 1, d):
            row[k] += 1
            floor_sum[k] += w
    tau = list(map(sum, zip(*tau_mod[1:])))  # every divisor has one residue
    return DivisorSumTables(max_k, m, i, tau, tau_mod, floor_sum)


_DIV_CACHE: dict[int, DivisorSumTables] = {}


def _divisors_for(max_k: int, m: int) -> DivisorSumTables:
    """One sieve per modulus for s_sums_exact, rebuilt only to grow."""
    if m not in _DIV_CACHE or _DIV_CACHE[m].max_k < max_k:
        adopt_divisor_tables(divisor_tables(max_k, m, 1))
    return _DIV_CACHE[m]


# ---------------------------------------------------------------------------
# spaced-subsum totals
# ---------------------------------------------------------------------------


def total_subsum(n: int, m: int, i: int, p: Optional[Sequence[int]] = None) -> int:
    """Sum of the (m, i) spaced subsum over all partitions of n, exactly.

    The total is sum_d floor((d + m - i) / m) T_d, T_d = p(n - d) + p(n - 2d)
    + ... (the Lambert series swap).  With r = d mod m and Euler's identity
    sum_d d T_d = n p(n), m total = n p(n) + sum_{r=1..m-1} (m [r >= i] - r)
    S_r, S_r the sum of T_d over d = r mod m.  S_r is split at R = isqrt(n):
    the d <= R add their T_d; the d > R meet only multiples j d, and for
    each j <= n // d0 (d0 the least d > R in class r) form the slice from
    n - j d0 down in steps of j m.  From R down, T_d = T_qd + the p(n - kd)
    with q not dividing k, for the least q of 2, 3 with qd <= R off class 0.
    Each slice is summed from its small end, so most bigint adds stay short.
    A sum not divisible by m raises ConsistencyError.  p, if given, must
    hold p(0..n); by default the shared table is read.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_mod_class(m, i)
    if p is None:
        p = _p_values(n)
    elif len(p) <= n:
        raise ValueError("p-table too short for n")
    acc, root, t = n * p[n], isqrt(n), {}  # t[d] = T_d for d <= R off class 0
    for d in range(root, 0, -1):
        if d % m:
            q = next((c for c in (2, 3) if c * d in t), 0)  # 0: no T_qd known
            rungs = [(n - k * d, q * d) for k in range(1, q)] if q else [(n - d, d)]
            t[d] = sum(sum(p[top % step:top + 1:step]) for top, step in rungs)
            t[d] += t.get(q * d, 0)
    for r in range(1, m):
        d0 = root + 1 + (r - root - 1) % m
        rungs = [(n - j * d0, j * m) for j in range(1, n // d0 + 1)]
        s_r = sum(sum(p[top % step:top + 1:step]) for top, step in rungs)
        s_r += sum(t[d] for d in range(r, root + 1, m))
        acc += (m * (r >= i) - r) * s_r
    total, rem = divmod(acc, m)
    if rem:
        raise ConsistencyError(f"n p(n) + the weighted S_r is not a multiple of {m}")
    return total


def expected_subsum(n: int, m: int, i: int) -> Fraction:
    """Mean of the (m, i) spaced subsum over partitions of n, as a Fraction."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = _p_values(n)
    return Fraction(total_subsum(n, m, i, p=p), p[n])


def s_sums_exact(
    n: int,
    m: int,
    p: Optional[Sequence[int]] = None,
    tables: Optional[DivisorSumTables] = None,
) -> tuple[int, list[int]]:
    """Divisor-count convolutions S and S_1..S_m against the p-table.

    S = sum_k tau(k) p(n-k); the returned list holds S_h = the same sum with
    tau restricted to divisors of canonical residue h, at index h - 1.
    p, if given, must hold p(0..n-1); by default the shared table is read.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_mod_class(m, 1)
    if p is None:
        p = _p_values(n)
    elif len(p) < n:
        raise ValueError("p-table too short for n")
    if tables is None:
        tables = _divisors_for(n, m)
    elif tables.m != m or tables.max_k < n:
        raise ValueError("divisor tables do not match (n, m)")
    total = sum(tables.tau[k] * p[n - k] for k in range(1, n + 1))
    split = [
        sum(tables.tau_mod[h][k] * p[n - k] for k in range(1, n + 1))
        for h in range(1, m + 1)
    ]
    if sum(split) != total:
        raise ConsistencyError("residue-split divisor sums do not add up to S")
    return total, split


def total_subsum_from_s_sums(
    n: int, m: int, i: int, s: int, split: Sequence[int], p_n: int
) -> int:
    """Recombine S and S_1..S_m into the exact spaced-subsum total.

    total = (n/m) p(n) + ((m-i)/m) S - sum_{j=1..m-1} (j/m) S_{i+j}, with the
    residue i+j folded into 1..m.  The inputs are redundant (the residue
    sums must add up to S), so inconsistencies surface here: a split that
    does not sum to S, or a recombined value that is not an integer.
    """
    _check_mod_class(m, i)
    if len(split) != m:
        raise ValueError("need exactly m residue sums")
    if sum(split) != s:
        raise ConsistencyError("residue sums do not add up to S")
    acc = n * p_n + (m - i) * s - sum(
        j * split[canonical_residue(i + j, m) - 1] for j in range(1, m))
    total, rem = divmod(acc, m)
    if rem:
        raise ConsistencyError("recombined total is not an integer")
    return total


def euler_identity_check(n_max: int) -> bool:
    """Verify n p(n) = sum_{k=1..n} sigma(k) p(n-k) for every n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = _p_values(n_max)
    sigma = divisor_tables(n_max, 1, 1).floor_sum  # floor((d+0)/1) = d, so sigma
    for n in range(1, n_max + 1):
        if n * p[n] != sum(sigma[k] * p[n - k] for k in range(1, n + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# even-index subsum counts and the pair-count comparison
# ---------------------------------------------------------------------------


def a000712(j: int) -> int:
    """Pairs of partitions of total weight j (OEIS A000712)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    p = _p_values(j)
    return sum(p[t] * p[j - t] for t in range(j + 1))


def f_table(n: int) -> list[int]:
    """Counts f(n, j) of partitions of n whose even-index subsum is j.

    Returned list has length n + 1; entries beyond j = floor(n/2) are zero
    since the even-index parts can carry at most half the weight.  Each
    entry sums pairs (partition of t, partition of j - t into at most
    n - 2j parts).  Entries not summing to p(n) raise ConsistencyError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    half = n // 2
    p = _p_values(n)
    bounded = restricted_counts(half, half)  # r <= half has at most half parts
    out = [0] * (n + 1)
    for j in range(half + 1):
        cap = min(n - 2 * j, half)
        out[j] = sum(p[t] * bounded[j - t][cap] for t in range(j + 1))
    if sum(out) != p[n]:
        raise ConsistencyError(f"f({n}, j) does not sum to p({n})")
    return out


def theorem1_check(n: int) -> int:
    """First j where f(n, j) departs from the unrestricted pair count.

    Scans j = 0..n//2 + 1 and returns the smallest j with
    f(n, j) != a000712(j).  f(n, n//2 + 1) = 0 lies below the pair count,
    so one is always found, and f stays 0 past it.  Also insists the
    departure is one-sided: past the agreement range f must fall strictly
    below the pair count.  f_table, called first, checks n >= 0.
    """
    hi = n // 2 + 1
    f = f_table(n) + [0]  # f(0, 1) = 0: at n = 0 the scan passes the table
    first = None
    for j in range(hi + 1):
        fj, aj = f[j], a000712(j)
        if fj != aj and first is None:
            first = j
        if j > n // 3 and fj >= aj:
            raise ConsistencyError(
                f"f({n}, {j}) = {fj} is not below the pair count {aj}"
            )
    return first


# ---------------------------------------------------------------------------
# full distribution of the statistic
# ---------------------------------------------------------------------------


class SubsumDistribution(NamedTuple):
    """counts[k] = number of partitions of n whose (m, i) subsum equals k."""

    n: int
    m: int
    i: int
    counts: list[int]


def subsum_distribution(n: int, m: int, i: int) -> SubsumDistribution:
    """Joint count of partitions of n by their (m, i) spaced subsum.

    Works on the conjugate side: a column of height s = a*m + b (1 <= b <= m)
    contributes a to the statistic, plus 1 more when b >= i.  That turns the
    distribution into an unbounded knapsack over column heights with a
    (weight, statistic) pair per height.  The knapsack is packed: row wt
    holds its whole statistic axis in one int, count k at bit k * width,
    so adding a height is one shift-and-add per row.  No count exceeds
    p(n) < 2^(width - 1), so slots never carry into each other.  Height s
    adds to row n from row n - s, and later heights read only lower rows,
    so each height updates rows s..n - s, then row n.  The counts cover
    statistic values 0..n; they must sum to p(n) and have total_subsum's
    first moment, or ConsistencyError is raised.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_mod_class(m, i)
    pn = _p_values(n)[n]
    width = pn.bit_length() + 1
    dp = [0] * (n + 1)
    dp[0] = 1
    for s in range(1, n + 1):
        a, b = divmod(s - 1, m)  # s = a*m + (b + 1) with residue b + 1 in 1..m
        shift = (a + (1 if b + 1 >= i else 0)) * width
        for wt in range(s, n - s + 1):
            dp[wt] += dp[wt - s] << shift
        dp[n] += dp[n - s] << shift
    row, mask = dp[n], (1 << width) - 1
    counts = [(row >> (k * width)) & mask for k in range(n + 1)]
    if sum(counts) != pn:
        raise ConsistencyError(f"distribution counts do not sum to p({n})")
    if sum(map(mul, range(n + 1), counts)) != total_subsum(n, m, i):
        raise ConsistencyError("distribution's first moment is not the slice total")
    return SubsumDistribution(n, m, i, counts)


# ---------------------------------------------------------------------------
# table serialization
# ---------------------------------------------------------------------------


def save_p_table(fh: BinaryIO, values: Sequence[int]) -> None:
    """Write a p-table as binary, a chunk of values per map of int.to_bytes.

    The file is the line "p-table max_n=N width=W", then N + 1 unsigned
    little-endian W-byte slots (W bytes hold p(N)), then the line
    "crc32=XXXXXXXX", the CRC-32 of everything before it, in hex.
    """
    if not values or values[0] != 1:
        raise ValueError("a p-table must start with p(0) = 1")
    width = (values[-1].bit_length() + 7) // 8
    head = _P_HEADER.format(len(values) - 1, width).encode()
    fh.write(head)
    crc = zlib.crc32(head)
    for start in range(0, len(values), _IO_CHUNK):
        chunk = b"".join(map(int.to_bytes, values[start:start + _IO_CHUNK],
                             repeat(width), repeat("little")))
        crc = zlib.crc32(chunk, crc)
        fh.write(chunk)
    fh.write(_P_TRAILER % crc)


def load_p_table(fh: BinaryIO, max_n: int) -> list[int]:
    """Read p(0..max_n) from a table written by save_p_table.

    Decodes _UNPACK slots per struct.unpack_from mapped through
    int.from_bytes, but checks the length and checksums the whole file.
    Each failure, max_n past the table, or p(0) != 1 raises ValueError.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    head = fh.readline(80)
    try:
        size, width = (int(f.partition(b"=")[2]) for f in head.split()[1:])
    except ValueError:
        size = width = -1
    if size < 0 or width < 1 or head != _P_HEADER.format(size, width).encode():
        raise ValueError(f"not a p-table header: {head[:40]!r}")
    if max_n > size:
        raise ValueError(f"p-table holds max_n={size}, fewer than {max_n}")
    body, keep = (size + 1) * width, (max_n + 1) * width
    expected, start = body + len(_P_TRAILER % 0), fh.tell()
    found = fh.seek(0, 2) - fh.seek(start)  # fh must be seekable
    if found != expected:
        raise ValueError(f"expected {expected} bytes after the header, found {found}")
    crc, values = zlib.crc32(head), []
    for pos in range(0, body, width * _IO_CHUNK):
        chunk = fh.read(min(width * _IO_CHUNK, body - pos))
        crc = zlib.crc32(chunk, crc)
        end = min(len(chunk), keep - pos)  # <= 0 past p(max_n)
        for at in range(0, end, width * _UNPACK):
            slots = f"{width}s" * min(_UNPACK, (end - at) // width)
            values += map(int.from_bytes, struct.unpack_from(slots, chunk, at),
                          repeat("little"))
    if fh.read() != _P_TRAILER % crc:
        raise ValueError("checksum mismatch: the table is damaged")
    if values[0] != 1:
        raise ValueError("p(0) must be 1")
    return values


def save_divisor_tables(fh: TextIO, tables: DivisorSumTables) -> None:
    """Write divisor tables; one line per k carrying tau, floor, residues."""
    fh.write(
        f"divisor-tables max_k={tables.max_k} m={tables.m} i={tables.i}\n"
    )
    for k in range(1, tables.max_k + 1):
        cells = [tables.tau[k], tables.floor_sum[k]]
        cells.extend(tables.tau_mod[h][k] for h in range(1, tables.m + 1))
        fh.write(" ".join(str(c) for c in cells) + "\n")


def load_divisor_tables(fh: TextIO) -> DivisorSumTables:
    """Read tables written by save_divisor_tables."""
    header = fh.readline().strip()
    fields = header.split()
    if len(fields) != 4 or fields[0] != "divisor-tables":
        raise ValueError(f"not a divisor-tables header: {header!r}")
    try:
        kv = dict(f.split("=", 1) for f in fields[1:])
        max_k = int(kv["max_k"])
        m = int(kv["m"])
        i = int(kv["i"])
    except (ValueError, KeyError):
        raise ValueError(f"bad divisor-tables header: {header!r}") from None
    tau = [0] * (max_k + 1)
    tau_mod = [[0] * (max_k + 1) for _ in range(m + 1)]
    floor_sum = [0] * (max_k + 1)
    for k in range(1, max_k + 1):
        cells = fh.readline().split()
        if len(cells) != 2 + m:
            raise ValueError(f"row {k}: expected {2 + m} cells")
        tau[k] = int(cells[0])
        floor_sum[k] = int(cells[1])
        for h in range(1, m + 1):
            tau_mod[h][k] = int(cells[1 + h])
    return DivisorSumTables(max_k, m, i, tau, tau_mod, floor_sum)


def adopt_divisor_tables(tables: DivisorSumTables) -> None:
    """Install divisor tables in the shared cache; a larger cached sieve stays."""
    cached = _DIV_CACHE.get(tables.m)
    if cached is None or cached.max_k < tables.max_k:
        _DIV_CACHE[tables.m] = tables
