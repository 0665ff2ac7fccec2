"""Unit tests for repro.trees.rooted_tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidTreeError
from repro.trees.rooted_tree import RootedTree


class TestConstruction:
    def test_single_node(self):
        t = RootedTree([0])
        assert t.n == 1
        assert t.root == 0
        assert t.edges() == ()

    def test_path_parents(self):
        t = RootedTree([0, 0, 1, 2])
        assert t.root == 0
        assert t.edges() == ((0, 1), (1, 2), (2, 3))

    def test_minus_one_is_self_alias(self):
        t = RootedTree([-1, 0, 0])
        assert t.root == 0
        assert t.parent(0) == 0

    def test_rejects_two_roots(self):
        with pytest.raises(InvalidTreeError, match="exactly one root"):
            RootedTree([0, 1, 0])

    def test_rejects_no_root(self):
        with pytest.raises(InvalidTreeError, match="exactly one root"):
            RootedTree([1, 0])

    def test_rejects_cycle(self):
        # 0 is root; 1 -> 2 -> 3 -> 1 is a cycle off to the side.
        with pytest.raises(InvalidTreeError, match="cycle"):
            RootedTree([0, 3, 1, 2])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(InvalidTreeError, match="outside range"):
            RootedTree([0, 7, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RootedTree([])


class TestAccessors:
    def test_children(self, caterpillar6):
        assert caterpillar6.children(0) == (1, 2)
        assert caterpillar6.children(1) == (3, 4)
        assert caterpillar6.children(5) == ()

    def test_leaves_and_inner(self, caterpillar6):
        assert caterpillar6.leaves == (3, 4, 5)
        assert caterpillar6.leaf_count() + caterpillar6.inner_count() == 6

    def test_depths_and_height(self, caterpillar6):
        assert caterpillar6.depths == (0, 1, 1, 2, 2, 2)
        assert caterpillar6.height == 2

    def test_degree(self, caterpillar6):
        assert caterpillar6.degree(0) == 2
        assert caterpillar6.degree(5) == 0

    def test_single_node_root_is_leaf(self):
        t = RootedTree([0])
        assert t.leaves == (0,)
        assert t.height == 0


class TestTraversals:
    def test_topological_order_root_first(self, caterpillar6):
        order = caterpillar6.topological_order()
        assert order[0] == caterpillar6.root
        seen = set()
        for v in order:
            if v != caterpillar6.root:
                assert caterpillar6.parent(v) in seen
            seen.add(v)
        assert seen == set(range(6))

    def test_subtree_nodes(self, caterpillar6):
        assert caterpillar6.subtree_nodes(1) == {1, 3, 4}
        assert caterpillar6.subtree_nodes(0) == set(range(6))
        assert caterpillar6.subtree_nodes(5) == {5}

    def test_is_path_and_star(self, path5, star5, caterpillar6):
        assert path5.is_path()
        assert not path5.is_star() or path5.n <= 2
        assert star5.is_star()
        assert not star5.is_path()
        assert not caterpillar6.is_path()
        assert not caterpillar6.is_star()


class TestConversions:
    def test_adjacency_with_loops(self, path5):
        a = path5.to_adjacency()
        assert a.dtype == np.bool_
        assert a.diagonal().all()
        assert a.sum() == 5 + 4  # loops + path edges

    def test_adjacency_without_loops(self, path5):
        a = path5.to_adjacency(include_self_loops=False)
        assert not a.diagonal().any()
        assert a.sum() == 4


class TestDunder:
    def test_equality_and_hash(self, path5):
        same = RootedTree(list(path5.parents))
        assert same == path5
        assert hash(same) == hash(path5)
        assert path5 != RootedTree([0, 0, 0, 0, 0])

    def test_len_iter(self, path5):
        assert len(path5) == 5
        assert list(path5) == [0, 1, 2, 3, 4]

    def test_repr_and_describe(self, caterpillar6):
        assert "RootedTree" in repr(caterpillar6)
        assert "height=2" in caterpillar6.describe()
