"""Unit tests for exhaustive tree enumeration."""

from __future__ import annotations

import pytest

from repro.errors import SearchBudgetExceeded
from repro.trees.enumerate import MAX_ENUMERABLE_N, all_parent_arrays, count_rooted_trees
from repro.trees.rooted_tree import RootedTree


class TestCounts:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 9), (4, 64), (5, 625)])
    def test_cayley_counts(self, n, expected):
        assert count_rooted_trees(n) == expected
        assert sum(1 for _ in all_parent_arrays(n)) == expected


class TestUniqueness:
    def test_no_duplicates_n4(self):
        seen = set()
        for parents in all_parent_arrays(4):
            assert parents not in seen
            seen.add(parents)

    def test_all_yielded_are_valid_trees(self):
        for parents in all_parent_arrays(4):
            t = RootedTree(parents)
            assert t.n == 4
            # exactly one root
            assert sum(1 for v in range(4) if t.parent(v) == v) == 1


class TestBudgets:
    def test_refuses_large_n(self):
        with pytest.raises(SearchBudgetExceeded):
            list(all_parent_arrays(MAX_ENUMERABLE_N + 1))
