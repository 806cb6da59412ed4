"""Tests for the enumeration oracle, and for the independence of the routes
that the package and the tests check against each other."""

import ast
from itertools import combinations
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


@pytest.mark.parametrize("path, allowed", [
    # the ground truth borrows only input checks and the Partition alias
    (Path(oracle.__file__), {"Partition", "_check_mod_class", "check_partition"}),
    # the tests' 90-digit references borrow nothing
    (Path(__file__).with_name("references.py"), set()),
], ids=["oracle", "references"])
def test_oracle_shares_no_route_with_the_package(path, allowed):
    # so neither can ever compute through the code it checks
    tree = ast.parse(path.read_text())
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
    assert borrowed <= allowed


def _call_graph():
    """Each module-level function of src/partsums, as "module.name", and the
    names its body uses that resolve to one: its own module's functions, and
    those taken by "from .module import".  Classes and annotations are not
    nodes, so an edge to ConsistencyError or Precision is dropped."""
    graph = {}
    for path in Path(oracle.__file__).parent.glob("*.py"):
        tree, scope = ast.parse(path.read_text()), {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                scope.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
            elif isinstance(node, ast.FunctionDef):
                scope[node.name] = f"{path.stem}.{node.name}"
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                graph[scope[node.name]] = {scope[n.id] for stmt in node.body for n in ast.walk(stmt)
                                           if isinstance(n, ast.Name) and n.id in scope}
    return graph


def _closure(graph, roots):
    """The functions that the space-separated roots reach, roots included."""
    todo, seen = roots.split(), set()
    assert set(todo) <= graph.keys(), roots
    while todo:
        f = todo.pop()
        if f in graph and f not in seen:
            seen.add(f)
            todo.extend(graph[f])
    return seen


CHECK = {"exact._check_mod_class"}  # checks (m, i) and computes nothing
# One exact integer dot product, rounded once.  It sums only the tables it is
# handed, and each route builds its own from its own transcendentals.
DOT = {"asymptotics._mantissas", "asymptotics._dot"}
# The p-table: exact integers, checked on their own against enumeration and
# a coin-change count, so the routes still check all they build on it.
P_TABLE = {"exact._p_values", "exact._pentagonal_offsets"}
GAMMAS = ("asymptotics.gamma_mh_roots", "asymptotics.gamma_mh_gauss",
          "asymptotics.gamma_mh_digamma")
# Each pair of routes the package or the tests cross-check, and all that
# their call closures may share.
ROUTE_PAIRS = [
    *((a, b, CHECK | DOT) for a, b in combinations(GAMMAS, 2)),
    # C and gamma + log(2/C): the tests' references recompute both on their own
    ("asymptotics.c_coeff", "asymptotics.c_coeff_via_gammas",
     CHECK | DOT | {"asymptotics._growth_terms"}),
    # alpha's parsing and its finite, positive check, none of what is summed
    ("asymptotics.lambert_tau_exact", "asymptotics.lambert_tau_asymptotic",
     CHECK | {"asymptotics._alpha_mpf", "asymptotics._to_mpf"}),
    ("exact.f_table", "exact.subsum_distribution", P_TABLE),
    ("exact.total_subsum", "exact.s_sums_exact exact.total_subsum_from_s_sums",
     CHECK | P_TABLE),
]


def test_cross_checked_routes_share_only_their_allowlists():
    graph = _call_graph()
    for left, right, allowed in ROUTE_PAIRS:
        shared = _closure(graph, left) & _closure(graph, right)
        assert shared <= allowed, (left, right, sorted(shared - allowed))


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
