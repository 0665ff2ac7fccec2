"""Unit tests for repro.trees.generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidTreeError
from repro.trees.generators import (
    binary_tree,
    broom,
    caterpillar,
    path,
    path_from_order,
    random_tree,
    rotated_path,
    spider,
    star,
)


class TestPaths:
    def test_identity_path(self):
        t = path(4)
        assert t.root == 0
        assert t.edges() == ((0, 1), (1, 2), (2, 3))
        assert t.is_path()

    def test_path_from_order(self):
        t = path_from_order([2, 0, 1])
        assert t.root == 2
        assert set(t.edges()) == {(2, 0), (0, 1)}

    def test_path_from_order_rejects_non_permutation(self):
        with pytest.raises(InvalidTreeError):
            path_from_order([0, 0, 1])

    def test_rotated_path(self):
        t = rotated_path(5, start=3)
        assert t.root == 3
        assert (4, 0) in t.edges()
        back = rotated_path(5, start=3, backward=True)
        assert back.root == 3
        assert (3, 2) in back.edges()

    def test_single_node_path(self):
        assert path(1).n == 1


class TestStarsAndBrooms:
    def test_star_center(self):
        t = star(5, center=2)
        assert t.root == 2
        assert t.leaf_count() == 4
        assert t.height == 1

    def test_broom_extremes(self):
        assert broom(6, 6).is_path()
        assert broom(6, 1).is_star()

    def test_broom_structure(self):
        t = broom(6, 3)
        assert t.inner_count() == 3
        assert t.leaf_count() == 3
        assert t.height == 3

    def test_broom_rejects_bad_handle(self):
        with pytest.raises(InvalidTreeError):
            broom(4, 0)
        with pytest.raises(InvalidTreeError):
            broom(4, 5)


class TestCaterpillarSpider:
    def test_caterpillar_spine(self):
        t = caterpillar(7, spine=[0, 1, 2])
        assert t.root == 0
        # spine edges exist
        assert (0, 1) in t.edges() and (1, 2) in t.edges()
        # legs attach round-robin to the spine
        for v in (3, 4, 5, 6):
            assert t.parent(v) in (0, 1, 2)

    def test_caterpillar_rejects_duplicate_spine(self):
        with pytest.raises(InvalidTreeError):
            caterpillar(5, spine=[0, 0, 1])

    def test_spider_legs(self):
        t = spider(7, legs=3)
        assert t.root == 0
        assert t.leaf_count() == 3

    def test_spider_rejects_zero_legs(self):
        with pytest.raises(InvalidTreeError):
            spider(5, legs=0)


class TestBinary:
    def test_binary_heap_order(self):
        t = binary_tree(7)
        assert t.children(0) == (1, 2)
        assert t.children(1) == (3, 4)
        assert t.children(2) == (5, 6)
        assert t.height == 2


class TestRandom:
    def test_random_tree_deterministic_with_seed(self):
        a = random_tree(10, np.random.default_rng(7))
        b = random_tree(10, np.random.default_rng(7))
        assert a == b

    def test_random_tree_valid_sizes(self, rng):
        for n in (1, 2, 3, 8):
            t = random_tree(n, rng)
            assert t.n == n

    def test_random_tree_respects_root(self, rng):
        for _ in range(5):
            t = random_tree(6, rng, root=3)
            assert t.root == 3

    def test_random_tree_spreads_over_shapes(self):
        # With 200 draws at n=5 we must see more than one distinct tree.
        gen = np.random.default_rng(0)
        seen = {random_tree(5, gen).parents for _ in range(200)}
        assert len(seen) > 50
