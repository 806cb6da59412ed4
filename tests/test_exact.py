"""Tests for the exact integer engine, checked against enumeration."""

import io
import zlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partsums import exact, oracle
from partsums.exact import ConsistencyError

# Reference rows for the even-index subsum counts at n = 20 and n = 25,
# and the first sixteen unrestricted pair counts.
F_ROW_20 = [1, 2, 5, 10, 20, 36, 65, 109, 167, 170, 42, 0, 0, 0]
F_ROW_25 = [1, 2, 5, 10, 20, 36, 65, 110, 185, 297, 443, 512, 272, 0, 0, 0]
PAIR_COUNTS = [1, 2, 5, 10, 20, 36, 65, 110, 185, 300,
               481, 752, 1165, 1770, 2665, 3956]


def test_partition_counts_against_enumeration():
    p = exact.partition_counts(25)
    for n in range(26):
        assert p[n] == sum(1 for _ in oracle.partitions_of(n))


def test_partition_counts_known_values():
    p = exact.partition_counts(100)
    assert p[0] == 1
    assert p[5] == 7
    assert p[20] == 627
    assert p[100] == 190569292


def test_partition_counts_rejects_negative():
    with pytest.raises(ValueError):
        exact.partition_counts(-1)


def test_preload_partition_counts():
    good = exact.partition_counts(30)
    exact.preload_partition_counts(good)  # prefix of the cache: accepted
    with pytest.raises(ConsistencyError):
        exact.preload_partition_counts([1, 999])
    with pytest.raises(ValueError):
        exact.preload_partition_counts([2, 1])


def _coin_change_counts(max_n):
    # Independent route: count partitions part size by part size.
    counts = [1] + [0] * max_n
    for part in range(1, max_n + 1):
        for t in range(part, max_n + 1):
            counts[t] += counts[t - part]
    return counts


def test_partition_counts_against_coin_change():
    assert exact.partition_counts(3000) == _coin_change_counts(3000)


def test_partition_counts_spot_values():
    # n = 1, 2 bring in the first added offsets, n = 5, 7 the first
    # subtracted ones.
    p = exact.partition_counts(7)
    assert [p[n] for n in (0, 1, 2, 5, 7)] == [1, 1, 2, 7, 15]


def test_partition_counts_grows_cache_in_steps(monkeypatch):
    want = _coin_change_counts(3000)
    monkeypatch.setattr(exact, "_P_VALUES", [1])
    for n in (10, 500, 3000):
        assert exact.partition_counts(n) == want[: n + 1]
    assert exact._P_VALUES == want

    monkeypatch.setattr(exact, "_P_VALUES", [1])
    exact.preload_partition_counts(want[:37])
    assert exact.partition_counts(3000) == want
    assert exact._P_VALUES == want

    # Blocks start wherever the table ends; lengths around the block size
    # move which offsets are summed per n and which as slices.
    block = exact._P_BLOCK
    for length in (block - 1, block, block + 1, 2 * block + 1):
        monkeypatch.setattr(exact, "_P_VALUES", want[:length])
        assert exact._p_values(3000) == want, length


def test_p_values_builds_no_offsets_without_growth(monkeypatch):
    want = exact.partition_counts(600)
    monkeypatch.setattr(exact, "_P_VALUES", want[:])

    def no_offsets(max_n):
        raise RuntimeError(f"offsets built for {max_n} without growth")

    monkeypatch.setattr(exact, "_pentagonal_offsets", no_offsets)
    for n in (0, 1, 599, 600):
        assert exact._p_values(n) is exact._P_VALUES
    # the default-table callers that read the shared list
    total = exact.total_subsum(600, 3, 2)
    assert total == exact.total_subsum(600, 3, 2, p=want)
    assert exact.expected_subsum(600, 3, 2) == Fraction(total, want[600])
    assert exact.a000712(300) == sum(want[t] * want[300 - t] for t in range(301))
    assert exact._P_VALUES == want


def test_restricted_counts_basics():
    table = exact.restricted_counts(10, 10)
    assert all(table[0][j] == 1 for j in range(11))
    assert table[5][1] == 1
    assert table[5][2] == 3  # 5, 4+1, 3+2
    p = exact.partition_counts(10)
    for n in range(11):
        assert table[n][10] == p[n]
        assert table[n][n] == p[n]


def test_restricted_counts_against_enumeration():
    table = exact.restricted_counts(12, 6)
    for n in range(13):
        for j in range(7):
            direct = sum(1 for lam in oracle.partitions_of(n) if len(lam) <= j)
            assert table[n][j] == direct


def test_divisor_tables_tau():
    tables = exact.divisor_tables(200, 1, 1)
    assert tables.tau[12] == 6
    primes = [k for k in range(2, 201)
              if all(k % d for d in range(2, int(k**0.5) + 1))]
    for k in primes:
        assert tables.tau[k] == 2
    # floor kernel at m = i = 1 is the ordinary divisor sum sigma
    for k in range(1, 201):
        assert tables.floor_sum[k] == sum(d for d in range(1, k + 1) if k % d == 0)


def test_divisor_tables_residue_split():
    for m in range(2, 7):
        tables = exact.divisor_tables(500, m, 1)
        for k in range(1, 501):
            assert sum(tables.tau_mod[h][k] for h in range(1, m + 1)) == tables.tau[k]
            mults = sum(1 for d in range(m, k + 1, m) if k % d == 0)
            assert tables.tau_mod[m][k] == mults


def test_divisor_tables_floor_kernel_direct():
    m, i = 3, 2
    tables = exact.divisor_tables(300, m, i)
    for k in range(1, 301):
        direct = sum((d + m - i) // m for d in range(1, k + 1) if k % d == 0)
        assert tables.floor_sum[k] == direct


def test_divisor_tables_validation():
    with pytest.raises(ValueError):
        exact.divisor_tables(0, 1, 1)
    with pytest.raises(ValueError):
        exact.divisor_tables(10, 2, 3)
    with pytest.raises(ValueError):
        exact.divisor_tables(10, 0, 0)


def test_floor_decomposition_identity():
    # m*floor((d+m-i)/m) = (d+m-i) - sum_{j=1..m-1} j*[d = i+j mod m].
    # At most one j contributes; verify it by the residue definition.
    for m in range(1, 13):
        for i in range(1, m + 1):
            for d in range(1, 10001):
                j0 = (d - i) % m
                jsum = 0
                if 1 <= j0 <= m - 1:
                    assert (d - (i + j0)) % m == 0
                    jsum = j0
                assert m * ((d + m - i) // m) == (d + m - i) - jsum


def test_canonical_residue():
    assert exact.canonical_residue(6, 3) == 3
    assert exact.canonical_residue(7, 3) == 1
    assert exact.canonical_residue(1, 1) == 1


def test_total_subsum_against_enumeration():
    for n in range(17):
        for m in range(1, 5):
            for i in range(1, m + 1):
                assert exact.total_subsum(n, m, i) == oracle.brute_total(n, m, i)


def test_total_subsum_m1_is_weighted_count():
    # At m = 1 every weight is d, so the slice sum is sum_k sigma(k) p(n - k),
    # which Euler's identity makes n p(n).
    p = exact.partition_counts(100)
    for n in range(1, 101):
        assert exact.total_subsum(n, 1, 1, p=p) == _slice_sum_total(n, 1, 1, p) == n * p[n]
        with pytest.raises(ValueError, match="too short"):
            exact.total_subsum(n, 1, 1, p=p[:n])


def test_total_subsum_residues_cover_weight():
    p = exact.partition_counts(60)
    for m in range(1, 7):
        for n in range(61):
            total = sum(exact.total_subsum(n, m, i, p=p) for i in range(1, m + 1))
            assert total == n * p[n]


def _slice_sums(n, p):
    # T_d = p(n - d) + p(n - 2d) + ..., one slice per divisor d <= n.
    return [sum(p[n - d::-d]) for d in range(1, n + 1)]


def _slice_sum_total(n, m, i, p, slices=None):
    # The one-line Lambert-swap sum, sum_d floor((d + m - i) / m) T_d.
    t = _slice_sums(n, p) if slices is None else slices
    return sum((d + m - i) // m * t[d - 1] for d in range(1, n + 1))


def test_total_subsum_matches_slice_sum():
    p = exact.partition_counts(3602)
    # n = k^2 - 1, k^2, k^2 + 1 move the split R = isqrt(n) and the least
    # d > R in each residue class.
    squares = {k * k + e for k in range(1, 61) for e in (-1, 0, 1)}
    for n in sorted(set(range(80)) | squares | {997, 3001}):
        slices = _slice_sums(n, p)
        for m in range(1, 7):
            for i in range(1, m + 1):
                want = _slice_sum_total(n, m, i, p, slices)
                assert exact.total_subsum(n, m, i, p=p[:n + 1]) == want, (n, m, i)
                with pytest.raises(ValueError, match="too short"):
                    exact.total_subsum(n, m, i, p=p[:n])
    p = exact.partition_counts(32001)
    slices = _slice_sums(32000, p)
    for m in range(1, 5):
        for i in range(1, m + 1):
            want = _slice_sum_total(32000, m, i, p, slices)
            assert exact.total_subsum(32000, m, i, p=p) == want, (m, i)


def test_total_subsum_rejects_a_table_that_breaks_euler():
    # With p(n) one too large at odd n, n p(n) + the weighted S_r is odd.
    p = exact.partition_counts(200)
    for n in (1, 3, 25, 199):
        bad = p[:n] + [p[n] + 1]
        for i in (1, 2):
            with pytest.raises(ConsistencyError):
                exact.total_subsum(n, 2, i, p=bad)


def test_total_subsum_validation():
    with pytest.raises(ValueError):
        exact.total_subsum(-1, 1, 1)
    with pytest.raises(ValueError):
        exact.total_subsum(10, 2, 0)
    with pytest.raises(ValueError):
        exact.total_subsum(10, 2, 1, p=[1, 1, 2])  # table too short
    with pytest.raises(ValueError):
        exact.s_sums_exact(10, 2, p=[1, 1, 2])


def test_expected_subsum_small_case():
    # n = 6, m = 2, i = 1: mean of a_1 + a_3 + a_5 over the 11 partitions.
    want = Fraction(oracle.brute_total(6, 2, 1), 11)
    assert exact.expected_subsum(6, 2, 1) == want == Fraction(45, 11)


def test_expected_subsum_identity_class():
    for n in range(1, 30):
        assert exact.expected_subsum(n, 1, 1) == n


def test_expected_subsum_monotone_in_residue():
    # Earlier classes pick up larger parts: strict dominance once n >= m.
    for m in range(2, 6):
        for n in range(m, 41):
            means = [exact.expected_subsum(n, m, i) for i in range(1, m + 1)]
            for left, right in zip(means, means[1:]):
                assert left > right


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=6))
def test_expected_subsum_residues_sum_to_n(n, m):
    total = sum(exact.expected_subsum(n, m, i) for i in range(1, m + 1))
    assert total == n


def test_a000712_reference_values():
    assert [exact.a000712(j) for j in range(16)] == PAIR_COUNTS


def test_a000712_against_pair_enumeration():
    for j in range(9):
        direct = 0
        for a in range(j + 1):
            direct += sum(1 for _ in oracle.partitions_of(a)) * sum(
                1 for _ in oracle.partitions_of(j - a)
            )
        assert exact.a000712(j) == direct


def test_f_table_reference_rows():
    f20 = exact.f_table(20)
    assert f20[: len(F_ROW_20)] == F_ROW_20
    assert all(v == 0 for v in f20[len(F_ROW_20):])
    f25 = exact.f_table(25)
    assert f25[: len(F_ROW_25)] == F_ROW_25
    assert all(v == 0 for v in f25[len(F_ROW_25):])


def test_f_table_shape():
    assert exact.f_table(0) == [1]
    p = exact.partition_counts(40)
    for n in range(41):
        f = exact.f_table(n)
        assert len(f) == n + 1
        assert sum(f) == p[n]
        assert all(f[j] == 0 for j in range(n // 2 + 1, n + 1))
    # n even: the top entry packs everything into the even positions
    assert exact.f_table(20)[10] == p[10]


def test_f_table_against_enumeration():
    for n in range(19):
        hist = oracle.brute_distribution(n, 2, 2)
        assert exact.f_table(n) == hist


def test_f_table_matches_distribution_dp():
    # Independent routes: pair convolution vs conjugate-side knapsack.
    for n in range(31):
        assert exact.f_table(n) == exact.subsum_distribution(n, 2, 2).counts


def test_theorem1_check_values():
    for n, want in [(0, 1), (1, 1), (2, 1), (3, 2), (20, 7), (25, 9)]:
        assert exact.theorem1_check(n) == want


def test_theorem1_first_mismatch_position():
    for n in range(61):
        assert exact.theorem1_check(n) == n // 3 + 1


def test_subsum_distribution_small_case():
    dist = exact.subsum_distribution(5, 2, 2)
    assert dist.counts == [1, 2, 4, 0, 0, 0]


def test_subsum_distribution_point_mass_for_identity():
    p = exact.partition_counts(25)
    for n in range(26):
        counts = exact.subsum_distribution(n, 1, 1).counts
        assert counts[n] == p[n]
        assert sum(counts) == p[n]


def test_subsum_distribution_against_enumeration():
    for n in range(15):
        for m in range(1, 4):
            for i in range(1, m + 1):
                dist = exact.subsum_distribution(n, m, i)
                assert dist.counts == oracle.brute_distribution(n, m, i)


def test_subsum_distribution_first_moment():
    for m, i in [(2, 1), (2, 2), (3, 2)]:
        for n in range(0, 61, 3):
            counts = exact.subsum_distribution(n, m, i).counts
            moment = sum(k * c for k, c in enumerate(counts))
            assert moment == exact.total_subsum(n, m, i)
    counts = exact.subsum_distribution(120, 2, 1).counts
    assert sum(k * c for k, c in enumerate(counts)) == exact.total_subsum(120, 2, 1)


def _full_table_distribution(n, m, i):
    # Reference knapsack: every row is updated at every height.
    width = exact.partition_counts(n)[n].bit_length() + 1
    dp = [1] + [0] * n
    for s in range(1, n + 1):
        a, b = divmod(s - 1, m)
        shift = (a + (1 if b + 1 >= i else 0)) * width
        for wt in range(s, n + 1):
            dp[wt] += dp[wt - s] << shift
    return [(dp[n] >> (k * width)) & ((1 << width) - 1) for k in range(n + 1)]


def test_subsum_distribution_matches_the_full_table_loop():
    # Odd and even n both reach the boundary height s = n // 2, where the
    # rows updated (s..n - s) shrink to one or none.
    for n in (0, 1, 2, 3, 36, 37, 120, 121):
        for m in range(1, 7):
            for i in range(1, m + 1):
                want = _full_table_distribution(n, m, i)
                assert exact.subsum_distribution(n, m, i).counts == want


def test_distribution_moment_check_raises(monkeypatch):
    # The checks must be real raises, not asserts that vanish under -O.
    total = exact.total_subsum(30, 3, 2)
    monkeypatch.setattr(exact, "total_subsum", lambda n, m, i: total + 1)
    with pytest.raises(ConsistencyError, match="first moment"):
        exact.subsum_distribution(30, 3, 2)


def test_distribution_sum_check_raises(monkeypatch):
    # A p-table whose p(30) is one too large leaves the counts right.  The
    # slice total is held at its true value, so only the sum check fails.
    total = exact.total_subsum(30, 3, 2)
    p = exact.partition_counts(30)
    p[30] += 1
    monkeypatch.setattr(exact, "_p_values", lambda max_n: p)
    monkeypatch.setattr(exact, "total_subsum", lambda n, m, i: total)
    with pytest.raises(ConsistencyError, match="do not sum to p"):
        exact.subsum_distribution(30, 3, 2)


def test_f_table_sum_check_raises(monkeypatch):
    restricted = exact.restricted_counts

    def off_by_one(max_n, max_j):
        table = restricted(max_n, max_j)
        table[1][-1] += 1  # read at n = 20 for j = 1..5
        return table

    monkeypatch.setattr(exact, "restricted_counts", off_by_one)
    with pytest.raises(ConsistencyError, match="does not sum to p"):
        exact.f_table(20)


def test_theorem1_one_sided_check_raises(monkeypatch):
    # Past n/3, f(n, j) must stay below the pair count; one f entry raised to
    # it (f(30, 11) = 744 against A000712(11) = 752) must fail the scan.
    f_table = exact.f_table

    def at_the_pair_count(n):
        f = f_table(n)
        f[11] = exact.a000712(11)
        return f

    monkeypatch.setattr(exact, "f_table", at_the_pair_count)
    with pytest.raises(ConsistencyError, match="not below the pair count"):
        exact.theorem1_check(30)


@settings(deadline=None)
@given(st.data())
def test_subsum_distribution_matches_enumeration_under_cap(data):
    n = data.draw(st.integers(min_value=0, max_value=35))
    m = data.draw(st.integers(min_value=1, max_value=6))
    i = data.draw(st.integers(min_value=1, max_value=m))
    want = oracle.brute_distribution(n, m, i)
    assert exact.subsum_distribution(n, m, i).counts == want


def test_euler_identity(monkeypatch):
    assert exact.euler_identity_check(300)
    # n = 6 spelled out: 6 p(6) = sum sigma(k) p(6-k)
    p = exact.partition_counts(6)
    sigma = [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(7)]
    assert 6 * p[6] == sum(sigma[k] * p[6 - k] for k in range(1, 7))
    # a table with p(6) = 12 breaks the identity at n = 6
    p[6] += 1
    monkeypatch.setattr(exact, "_p_values", lambda max_n: p)
    assert not exact.euler_identity_check(6)


def test_s_sums_smallest():
    total, split = exact.s_sums_exact(1, 3)
    assert total == 1
    assert split == [1, 0, 0]


def test_s_sums_recombination():
    p = exact.partition_counts(50)
    for m in range(1, 7):
        tables = exact.divisor_tables(50, m, 1)
        for n in range(1, 51):
            total, split = exact.s_sums_exact(n, m, p=p, tables=tables)
            for i in range(1, m + 1):
                want = exact.total_subsum(n, m, i, p=p)
                got = exact.total_subsum_from_s_sums(n, m, i, total, split, p[n])
                assert got == want
    # Past n/2 each slice holds a single term, and the totals are big ints.
    # total_subsum needs p(0..n): a table longer than that at n = 997 gives
    # the same total, and one of length n is rejected.
    p = exact.partition_counts(3001)
    for m in range(1, 7):
        tables = exact.divisor_tables(3001, m, 1)
        for n in (997, 3001):
            total, split = exact.s_sums_exact(n, m, p=p, tables=tables)
            for i in range(1, m + 1):
                want = exact.total_subsum_from_s_sums(n, m, i, total, split, p[n])
                assert exact.total_subsum(n, m, i, p=p) == want
                with pytest.raises(ValueError, match="too short"):
                    exact.total_subsum(n, m, i, p=p[:n])


def test_s_sums_recombination_rejects_bad_input():
    p = exact.partition_counts(20)
    total, split = exact.s_sums_exact(20, 3)
    with pytest.raises(ValueError):
        exact.total_subsum_from_s_sums(20, 3, 1, total, split[:2], p[20])
    tampered = [split[0] + 1, split[1], split[2]]
    with pytest.raises(ConsistencyError, match="do not add up"):
        exact.total_subsum_from_s_sums(20, 3, 1, total, tampered, p[20])
    # S = 1 split as (0, 1) adds up, but n p(n) + (m - i) S is 2 + 1, odd
    with pytest.raises(ConsistencyError, match="not an integer"):
        exact.total_subsum_from_s_sums(1, 2, 1, 1, [0, 1], 1)
    # one tau entry one too large no longer matches its residue split
    tables = exact.divisor_tables(20, 3, 1)
    tau = tables.tau[:]
    tau[5] += 1
    with pytest.raises(ConsistencyError, match="residue-split"):
        exact.s_sums_exact(20, 3, tables=tables._replace(tau=tau))


def test_check_partition():
    assert exact.check_partition([]) == ()
    assert exact.check_partition([5, 4, 4, 1]) == (5, 4, 4, 1)
    for bad in ([1, 2], [0], [-3], [2.5, 1], [True]):
        with pytest.raises(ValueError):
            exact.check_partition(bad)


def _check_partition_loop(parts):
    """check_partition without its fast path: one part at a time."""
    out = tuple(parts)
    for x in out:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"parts must be positive integers, got {x!r}")
    for a, b in zip(out, out[1:]):
        if a < b:
            raise ValueError("parts must be weakly decreasing")
    return out


class _Part(int):
    """An int subclass: the fast path leaves it to the loop, which accepts it."""


PART_VALUES = st.one_of(st.integers(-2, 6), st.booleans(),
                        st.integers(1, 6).map(_Part), st.just(2.0))


@settings(deadline=None)
@given(st.lists(PART_VALUES, max_size=6), st.booleans(), st.booleans())
@example([], False, False)
@example([], False, True)
@example([True], False, False)
@example([3, False], False, False)
@example([_Part(3), 1], False, False)
@example([3, 0], False, False)
@example([2, -1], False, False)
@example([1, 2], False, False)
@example([3, 2, 2], False, True)
def test_check_partition_fast_path_matches_the_loop(values, decreasing, as_generator):
    if decreasing:
        values = sorted(values, reverse=True)

    def outcome(check):
        parts = (x for x in values) if as_generator else list(values)
        try:
            out = check(parts)
        except ValueError as exc:
            return "ValueError", str(exc)
        return out, [type(x) for x in out]

    assert outcome(exact.check_partition) == outcome(_check_partition_loop)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=7))
def test_restricted_counts_match_enumeration_random(n, j):
    table = exact.restricted_counts(n, j)
    direct = sum(1 for lam in oracle.partitions_of(n) if len(lam) <= j)
    assert table[n][j] == direct


def test_p_table_serialization_roundtrip():
    values = exact.partition_counts(64)
    buf = io.BytesIO()
    exact.save_p_table(buf, values)
    width = (values[64].bit_length() + 7) // 8
    head = f"p-table max_n=64 width={width}\n".encode()
    assert buf.getvalue().startswith(head)
    assert len(buf.getvalue()) == len(head) + 65 * width + len("crc32=01234567\n")
    buf.seek(0)
    assert exact.load_p_table(buf, 64) == values


def test_p_table_serialization_errors():
    with pytest.raises(ValueError):
        exact.save_p_table(io.BytesIO(), [2, 3])
    buf = io.BytesIO()
    exact.save_p_table(buf, [1, 1, 2])
    good = buf.getvalue()
    head_and_body = b"p-table max_n=2 width=1\n\x01\x01\x02"
    assert good == head_and_body + b"crc32=%08x\n" % zlib.crc32(head_and_body)
    for data in (
        b"junk\n\x01crc32=00000000\n",
        b"p-table max_n=oops width=1\n\x01",
        b"p-table max_n=0 width=0\ncrc32=00000000\n",
        b"p-table max_n=-1 width=1\n" + b"\x01" * 15,
        b"p-table max_n=02 width=1\n\x01\x01\x02crc32=00000000\n",
        b"p-table max_n=2 width=1 crc=0\n\x01\x01\x02crc32=00000000\n",
        b"P-table max_n=2 width=1\n\x01\x01\x02crc32=00000000\n",
        b"p-table max_n=2 width=1" + b"x" * 1000,  # no newline in reach
        good[:-3],  # truncated
        good + b"\n",  # trailing bytes
        good.replace(b"\x02crc", b"\x03crc"),  # one value edited
        good.replace(b"max_n=2 width=1\n\x01", b"max_n=2 width=1\n\x07"),
    ):
        with pytest.raises(ValueError):
            exact.load_p_table(io.BytesIO(data), 0)
    # p(0) != 1 with a matching checksum is still rejected
    bad = b"p-table max_n=0 width=1\n\x07"
    with pytest.raises(ValueError, match="p\\(0\\)"):
        exact.load_p_table(io.BytesIO(bad + b"crc32=%08x\n" % zlib.crc32(bad)), 0)


def test_p_table_prefix_read():
    values = exact.partition_counts(64)
    buf = io.BytesIO()
    exact.save_p_table(buf, values)
    for max_n in (0, 17, 64):
        buf.seek(0)
        assert exact.load_p_table(buf, max_n) == values[: max_n + 1]
    # The checksum covers the whole body: a damaged tail fails a prefix read.
    damaged = bytearray(buf.getvalue())
    damaged[-20] ^= 1
    with pytest.raises(ValueError, match="checksum"):
        exact.load_p_table(io.BytesIO(bytes(damaged)), 30)
    buf.seek(0)
    with pytest.raises(ValueError, match="fewer than 65"):
        exact.load_p_table(buf, 65)
    with pytest.raises(ValueError, match="bytes after the header"):
        exact.load_p_table(io.BytesIO(buf.getvalue()[:-40]), 3)
    buf.seek(0)
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        exact.load_p_table(buf, -1)
    assert buf.tell() == 0  # rejected before reading anything


def test_p_table_serialization_across_chunks():
    # p(0..1300) spans several read chunks and unpack calls; the file is
    # encoded here independently of save_p_table, which pins the format.
    values = exact.partition_counts(1300)
    width = (values[-1].bit_length() + 7) // 8
    head_and_body = (f"p-table max_n=1300 width={width}\n".encode()
                     + b"".join(v.to_bytes(width, "little") for v in values))
    data = head_and_body + b"crc32=%08x\n" % zlib.crc32(head_and_body)
    buf = io.BytesIO()
    exact.save_p_table(buf, values)
    assert buf.getvalue() == data
    # reads and unpack calls end at multiples of their sizes: one step either side
    edges = {k * size + d for size in (exact._IO_CHUNK, exact._UNPACK)
             for k in range(1, 1300 // size + 1) for d in (-1, 0, 1)}
    for max_n in sorted(edges | {0, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025, 1300}):
        assert exact.load_p_table(io.BytesIO(data), max_n) == values[: max_n + 1], max_n
    # A flipped byte in the last chunk fails a prefix read of the first.
    damaged = bytearray(data)
    damaged[-20] ^= 1
    with pytest.raises(ValueError, match="checksum"):
        exact.load_p_table(io.BytesIO(bytes(damaged)), 10)


def test_divisor_tables_serialization_roundtrip():
    tables = exact.divisor_tables(40, 4, 2)
    buf = io.StringIO()
    exact.save_divisor_tables(buf, tables)
    buf.seek(0)
    loaded = exact.load_divisor_tables(buf)
    assert loaded == tables


def test_divisor_tables_serialization_errors():
    with pytest.raises(ValueError):
        exact.load_divisor_tables(io.StringIO("nope\n"))
    with pytest.raises(ValueError):
        exact.load_divisor_tables(io.StringIO("divisor-tables max_k=2 m=2 i=1\n1 1 1 0\n"))
