"""Tests for the enumeration oracle itself."""

import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partsums import exact, oracle

from conftest import partitions


def test_partitions_of_smallest():
    assert list(oracle.partitions_of(0)) == [()]
    assert list(oracle.partitions_of(1)) == [(1,)]
    assert list(oracle.partitions_of(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]


def test_partitions_of_rejects_negative():
    with pytest.raises(ValueError):
        next(oracle.partitions_of(-1))


def test_partitions_of_counts():
    p = exact.partition_counts(35)
    for n in range(36):
        assert sum(1 for _ in oracle.partitions_of(n)) == p[n]


def test_partitions_of_are_valid_and_ordered():
    for n in range(16):
        seen = list(oracle.partitions_of(n))
        for lam in seen:
            assert sum(lam) == n
            assert all(x >= 1 for x in lam)
            assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert seen == sorted(seen, reverse=True)  # reverse lexicographic
        assert len(set(seen)) == len(seen)


def test_x_statistic_examples():
    assert oracle.x_statistic((3, 2, 1), 1, 1) == 6
    assert oracle.x_statistic((3, 2, 1), 2, 1) == 4
    assert oracle.x_statistic((3, 2, 1), 2, 2) == 2
    assert oracle.x_statistic((3, 2, 1), 3, 1) == 3
    assert oracle.x_statistic((3, 2, 1), 3, 2) == 2
    assert oracle.x_statistic((3, 2, 1), 3, 3) == 1
    assert oracle.x_statistic((5, 5, 5, 5), 2, 1) == 10
    assert oracle.x_statistic((), 4, 2) == 0


def test_x_statistic_validation():
    with pytest.raises(ValueError):
        oracle.x_statistic((3, 2, 1), 2, 3)
    with pytest.raises(ValueError):
        oracle.x_statistic((1, 2), 2, 1)


@given(partitions(), st.integers(min_value=1, max_value=6))
def test_x_statistic_residues_partition_weight(parts, m):
    pieces = [oracle.x_statistic(parts, m, i) for i in range(1, m + 1)]
    assert sum(pieces) == sum(parts)


def test_brute_f_reference_values():
    hist20 = oracle.brute_distribution(20, 2, 2)
    assert hist20[6] == 65
    assert hist20[7] == 109
    hist25 = oracle.brute_distribution(25, 2, 2)
    assert hist25[8] == 185
    assert hist25[9] == 297
    assert oracle.brute_f(12, 3) == exact.f_table(12)[3]
    assert oracle.brute_f(12, 13) == 0


def test_brute_total_identity_class():
    p = exact.partition_counts(20)
    for n in range(1, 21):
        assert oracle.brute_total(n, 1, 1) == n * p[n]


def test_brute_distributions_shared_pass():
    pairs = [(m, i) for m in range(1, 4) for i in range(1, m + 1)]
    merged = oracle.brute_distributions(10, pairs)
    for m, i in pairs:
        assert merged[(m, i)] == oracle.brute_distribution(10, m, i)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        oracle.brute_distribution(41, 2, 1)
    with pytest.raises(ValueError):
        oracle.brute_total(100, 2, 1)


def test_oracle_shares_no_route_with_the_package():
    # The ground truth borrows only input checks and the Partition alias from
    # exact, so it can never compute through the code it checks.
    tree = ast.parse(Path(oracle.__file__).read_text())
    borrowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "partsums" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["partsums", module]))
            if module.split(".")[0] == "partsums":
                assert module == "partsums.exact", module
                borrowed |= {a.name for a in node.names}
    assert borrowed <= {"Partition", "_check_mod_class", "check_partition"}


def test_package_starts_no_threads_or_processes():
    """No module under src/partsums imports threading, _thread,
    multiprocessing or concurrent: nothing in the package runs concurrently,
    so it needs no locks.  A change that adds concurrency with a measured
    gain edits this check."""
    banned = {"threading", "_thread", "multiprocessing", "concurrent"}
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            assert not banned & {name.split(".")[0] for name in names}, path.name
