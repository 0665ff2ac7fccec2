"""Unit tests for product graphs and nonsplitness."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import matrix as M
from repro.core.product import is_nonsplit, product_of_trees, split_pairs
from repro.errors import DimensionMismatchError
from repro.trees.generators import path, random_tree, star


class TestProductGraph:
    def test_associativity(self, rng):
        n = 5
        graphs = [rng.random((n, n)) < 0.4 for _ in range(3)]
        left = M.bool_product(M.bool_product(graphs[0], graphs[1]), graphs[2])
        right = M.bool_product(graphs[0], M.bool_product(graphs[1], graphs[2]))
        assert (left == right).all()


class TestProductOfTrees:
    def test_matches_generic_composition(self, rng):
        n = 6
        trees = [random_tree(n, rng) for _ in range(5)]
        fast = product_of_trees(trees)
        generic = functools.reduce(
            M.bool_product, [M.identity_matrix(n)] + [t.to_adjacency() for t in trees]
        )
        assert (fast == generic).all()

    def test_static_path_k_rounds_is_k_hop(self):
        n, k = 6, 3
        reach = product_of_trees([path(n)] * k)
        for x in range(n):
            for y in range(n):
                assert reach[x, y] == (x <= y <= x + k)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            product_of_trees([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            product_of_trees([path(3), path(4)])


class TestNonsplit:
    def test_complete_graph_is_nonsplit(self):
        assert is_nonsplit(np.ones((4, 4), dtype=bool))

    def test_identity_is_split_for_n_ge_2(self):
        assert not is_nonsplit(M.identity_matrix(3))
        assert is_nonsplit(M.identity_matrix(1))

    def test_single_tree_usually_split(self):
        # A path plus loops: leaves' columns are singletons -> split.
        a = path(4).to_adjacency()
        assert not is_nonsplit(a)

    def test_star_is_nonsplit(self):
        # Every column contains the center.
        assert is_nonsplit(star(5).to_adjacency())

    def test_split_pairs_lists_witnesses(self):
        a = M.identity_matrix(3)
        pairs = split_pairs(a)
        assert (0, 1) in pairs and (0, 2) in pairs and (1, 2) in pairs
        assert split_pairs(np.ones((3, 3), dtype=bool)) == []

    def test_split_pairs_consistent_with_is_nonsplit(self, rng):
        for _ in range(10):
            a = rng.random((5, 5)) < 0.4
            np.fill_diagonal(a, True)
            assert is_nonsplit(a) == (not split_pairs(a))
