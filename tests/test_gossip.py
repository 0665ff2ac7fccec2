"""Tests for the gossip extension and the nonsplit reduction (E6/E7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.base import SequenceAdversary
from repro.adversaries.oblivious import RandomTreeAdversary, StaticTreeAdversary
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.gossip.consensus import blocks_are_nonsplit, simulate_nonsplit_rounds
from repro.gossip.gossip import gossip_time_adversary
from repro.core.product import is_nonsplit
from repro.errors import DimensionMismatchError
from repro.trees.generators import path, random_tree, star


class TestGossipSequence:
    def test_star_never_gossips(self):
        # The center reaches everyone, but leaves never reach each other.
        res = gossip_time_adversary(StaticTreeAdversary(star(4)), 4, max_rounds=20)
        assert res.broadcast_time == 1
        assert res.gossip_time is None
        assert not res.completed

    def test_gossip_requires_all_rows(self):
        # Alternate stars at different centers: eventually all-to-all.
        trees = [star(3, center=c) for c in (0, 1, 2)] * 3
        res = gossip_time_adversary(SequenceAdversary(trees, after="error"), 3)
        assert res.completed
        assert res.gossip_time >= res.broadcast_time


class TestGossipAdversary:
    def test_adversarial_trees_prevent_gossip_forever(self):
        # Structural fact: a static path never lets the last node spread.
        res = gossip_time_adversary(StaticTreeAdversary(path(6)), 6)
        assert res.broadcast_time == 5
        assert res.gossip_time is None

    def test_cyclic_adversary_also_prevents_gossip(self):
        res = gossip_time_adversary(CyclicFamilyAdversary(6), 6)
        assert res.gossip_time is None

    def test_random_trees_gossip_quickly(self):
        res = gossip_time_adversary(RandomTreeAdversary(10, seed=2), 10)
        assert res.completed
        assert res.gossip_time <= 40

    def test_explicit_cap(self):
        res = gossip_time_adversary(RandomTreeAdversary(8, seed=0), 8, max_rounds=1)
        assert res.gossip_time is None


class TestNonsplitReduction:
    """Lemma N: composing n-1 rooted trees yields a nonsplit graph [1]."""

    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_of_random_trees_are_nonsplit(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 9))
        trees = [random_tree(n, gen) for _ in range(3 * (n - 1))]
        assert blocks_are_nonsplit(trees, n)

    def test_static_path_blocks_nonsplit(self):
        # Even the most stubborn adversary sequence composes nonsplit.
        n = 7
        assert blocks_are_nonsplit([path(n)] * (n - 1), n)

    def test_adversarial_blocks_nonsplit(self):
        n = 6
        from helpers import run_with

        result = run_with(CyclicFamilyAdversary(n), n, keep_trees=True)
        trees = result.trees
        # Pad with paths so at least one full block exists.
        trees = trees + [path(n)] * (n - 1)
        assert blocks_are_nonsplit(trees, n)

    def test_fewer_than_block_rounds_can_be_split(self):
        # A single tree round is split in general; the reduction really
        # needs n - 1 rounds.
        n = 5
        blocks = simulate_nonsplit_rounds([path(n)] * (n - 1), n)
        assert len(blocks) == 1
        assert is_nonsplit(blocks[0])
        assert not is_nonsplit(path(n).to_adjacency())

    def test_requires_n_ge_2(self):
        with pytest.raises(DimensionMismatchError):
            simulate_nonsplit_rounds([], 1)
