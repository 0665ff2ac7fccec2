"""Unit tests for adversary base classes and oblivious adversaries."""

from __future__ import annotations

import pytest

from repro.adversaries.base import Adversary, SequenceAdversary
from repro.adversaries.oblivious import RandomTreeAdversary, StaticTreeAdversary
from repro.core.broadcast import run_adversary
from repro.core.state import BroadcastState
from repro.errors import AdversaryError
from repro.trees.generators import path, path_from_order, star


class TestBase:
    def test_abstract_next_tree(self):
        with pytest.raises(NotImplementedError):
            Adversary().next_tree(BroadcastState.initial(3), 1)

    def test_default_name_is_class_name(self):
        class MyAdv(Adversary):
            def next_tree(self, state, round_index):
                return star(3)

        assert MyAdv().name == "MyAdv"
        assert "MyAdv" in repr(MyAdv())


class TestSequenceAdversary:
    def test_plays_in_order(self):
        seq = SequenceAdversary([path(3), path_from_order([2, 1, 0])], after="hold")
        s = BroadcastState.initial(3)
        assert seq.next_tree(s, 1) == path(3)
        assert seq.next_tree(s, 2) == path_from_order([2, 1, 0])
        assert seq.next_tree(s, 3) == path_from_order([2, 1, 0])  # hold

    def test_repeat_mode(self):
        seq = SequenceAdversary([path(3), star(3)], after="repeat")
        s = BroadcastState.initial(3)
        assert seq.next_tree(s, 3) == path(3)
        assert seq.next_tree(s, 4) == star(3)

    def test_error_mode(self):
        seq = SequenceAdversary([path(3)], after="error")
        with pytest.raises(AdversaryError, match="exhausted"):
            seq.next_tree(BroadcastState.initial(3), 2)

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(AdversaryError):
            SequenceAdversary([])
        with pytest.raises(AdversaryError):
            SequenceAdversary([path(3), path(4)])
        with pytest.raises(AdversaryError):
            SequenceAdversary([path(3)], after="bogus")

    def test_len(self):
        assert len(SequenceAdversary([path(3)] * 4)) == 4


class TestStaticTree:
    def test_path_n_minus_1(self):
        for n in (3, 6, 9):
            assert run_adversary(StaticTreeAdversary(path(n)), n).t_star == n - 1

    def test_star_one_round(self):
        assert run_adversary(StaticTreeAdversary(star(7)), 7).t_star == 1

    def test_tree_property(self):
        adv = StaticTreeAdversary(path(4))
        assert adv.tree == path(4)


class TestRandomTree:
    def test_reproducible_across_resets(self):
        adv = RandomTreeAdversary(6, seed=3)
        r1 = run_adversary(adv, 6, keep_trees=True)
        r2 = run_adversary(adv, 6, keep_trees=True)
        assert [t.parents for t in r1.trees] == [t.parents for t in r2.trees]
        assert r1.t_star == r2.t_star

    def test_different_seeds_differ(self):
        a = run_adversary(RandomTreeAdversary(8, seed=0), 8, keep_trees=True)
        b = run_adversary(RandomTreeAdversary(8, seed=1), 8, keep_trees=True)
        assert [t.parents for t in a.trees] != [t.parents for t in b.trees]

    def test_wrong_n_rejected(self):
        adv = RandomTreeAdversary(6)
        with pytest.raises(AdversaryError):
            adv.next_tree(BroadcastState.initial(5), 1)

    def test_random_finishes_fast(self):
        # Random trees mix quickly; broadcast should beat the static path.
        t = run_adversary(RandomTreeAdversary(16, seed=5), 16).t_star
        assert t < 15
