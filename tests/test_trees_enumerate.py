"""Unit tests for exhaustive tree enumeration."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from repro.errors import SearchBudgetExceeded
from repro.trees.enumerate import MAX_ENUMERABLE_N, all_parent_arrays, count_rooted_trees
from repro.trees.rooted_tree import RootedTree


class TestCounts:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 9), (4, 64), (5, 625)])
    def test_cayley_counts(self, n, expected):
        assert count_rooted_trees(n) == expected
        assert all_parent_arrays(n).shape == (expected, n)


class TestUniqueness:
    def test_no_duplicates_n4(self):
        seen = set()
        for parents in all_parent_arrays(4).tolist():
            assert tuple(parents) not in seen
            seen.add(tuple(parents))

    def test_all_yielded_are_valid_trees(self):
        for parents in all_parent_arrays(4).tolist():
            t = RootedTree(parents)
            assert t.n == 4
            # exactly one root
            assert sum(1 for v in range(4) if t.parent(v) == v) == 1


def _walks_to_root(parents: tuple) -> bool:
    """Brute-force tree check: one fixed point, and every node's parent walk
    reaches it without revisiting a node."""
    roots = [v for v, p in enumerate(parents) if p == v]
    if len(roots) != 1:
        return False
    for start in range(len(parents)):
        seen = set()
        v = start
        while v != roots[0]:
            if v in seen:
                return False
            seen.add(v)
            v = parents[v]
    return True


class TestTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force_in_product_order(self, n):
        expected = [p for p in product(range(n), repeat=n) if _walks_to_root(p)]
        table = all_parent_arrays(n)
        assert table.dtype == np.uint8
        assert [tuple(row) for row in table.tolist()] == expected


class TestBudgets:
    def test_refuses_large_n(self):
        with pytest.raises(SearchBudgetExceeded):
            list(all_parent_arrays(MAX_ENUMERABLE_N + 1))
