"""Tests for the k-leaf / k-inner restricted adversaries (Figure 1 rows)."""

from __future__ import annotations

import pytest

from repro.adversaries.restricted import (
    KInnerAdversary,
    KLeafAdversary,
    broom_from_order,
    spider_from_order,
)
from repro.core.bounds import k_inner_upper_bound, k_leaves_upper_bound
from repro.core.broadcast import run_adversary
from repro.errors import AdversaryError


class TestBuilders:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_spider_from_order_leaf_count(self, k):
        tree = spider_from_order(list(range(7)), k)
        assert tree.leaf_count() == min(k, 6)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_broom_from_order_inner_count(self, k):
        tree = broom_from_order(list(range(7)), k)
        assert tree.inner_count() == k

    def test_spider_respects_order(self):
        tree = spider_from_order([3, 0, 1, 2], 2)
        assert tree.root == 3


class TestKLeafAdversary:
    @pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (8, 3), (10, 2)])
    def test_every_round_has_k_leaves(self, n, k):
        adv = KLeafAdversary(n, k)
        result = run_adversary(adv, n, keep_trees=True)
        assert result.t_star is not None
        for tree in result.trees:
            assert tree.leaf_count() == k

    @pytest.mark.parametrize("k", [2, 3])
    def test_time_within_kn_bound(self, k):
        # The O(kn) claim with our constant 2: t* <= 2kn.
        for n in (6, 10, 14):
            t = run_adversary(KLeafAdversary(n, k), n).t_star
            assert t <= k_leaves_upper_bound(n, k)

    def test_k1_plays_paths_and_respects_bound(self):
        # One leaf == a path.  The adaptive re-sorting can finish faster
        # than a static path (re-rooting helps broadcast); the contract is
        # legality plus the O(kn) bound.
        result = run_adversary(KLeafAdversary(8, 1), 8, keep_trees=True)
        assert all(t.is_path() for t in result.trees)
        assert result.t_star <= k_leaves_upper_bound(8, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(AdversaryError):
            KLeafAdversary(6, 0)
        with pytest.raises(AdversaryError):
            KLeafAdversary(6, 6)


class TestKInnerAdversary:
    @pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (8, 3), (10, 2)])
    def test_every_round_has_k_inner(self, n, k):
        adv = KInnerAdversary(n, k)
        result = run_adversary(adv, n, keep_trees=True)
        assert result.t_star is not None
        for tree in result.trees:
            assert tree.inner_count() == k

    @pytest.mark.parametrize("k", [2, 3])
    def test_time_within_kn_bound(self, k):
        for n in (6, 10, 14):
            t = run_adversary(KInnerAdversary(n, k), n).t_star
            assert t <= k_inner_upper_bound(n, k)

    def test_k1_is_star_like_fast(self):
        # One inner node == a star: broadcast cannot be delayed long.
        t = run_adversary(KInnerAdversary(8, 1), 8).t_star
        assert t <= 16

    def test_rejects_bad_k(self):
        with pytest.raises(AdversaryError):
            KInnerAdversary(6, 0)
