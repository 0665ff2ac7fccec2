"""Unit tests for path-based adversaries."""

from __future__ import annotations

import pytest

from repro.adversaries.paths import (
    AlternatingPathAdversary,
    RotatingPathAdversary,
    SortedPathAdversary,
    StaticPathAdversary,
    TwoPhaseFlipAdversary,
)
from repro.core.broadcast import run_adversary
from repro.core.state import BroadcastState
from repro.core.bounds import upper_bound
from repro.errors import AdversaryError


class TestStaticPath:
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_achieves_n_minus_1(self, n):
        assert run_adversary(StaticPathAdversary(n), n).t_star == n - 1


class TestAlternating:
    def test_flips_every_period(self):
        adv = AlternatingPathAdversary(5, period=2)
        s = BroadcastState.initial(5)
        t1 = adv.next_tree(s, 1)
        t2 = adv.next_tree(s, 2)
        t3 = adv.next_tree(s, 3)
        assert t1 == t2
        assert t1 != t3

    def test_rejects_bad_period(self):
        with pytest.raises(AdversaryError):
            AlternatingPathAdversary(5, period=0)

    def test_completes_within_upper_bound(self):
        for n in (4, 8, 12):
            t = run_adversary(AlternatingPathAdversary(n), n).t_star
            assert t <= upper_bound(n)


class TestRotating:
    def test_rotation_roots(self):
        adv = RotatingPathAdversary(5, shift=1)
        s = BroadcastState.initial(5)
        assert adv.next_tree(s, 1).root == 0
        assert adv.next_tree(s, 2).root == 1
        assert adv.next_tree(s, 3).root == 2

    def test_all_trees_are_paths(self):
        adv = RotatingPathAdversary(6, shift=2)
        s = BroadcastState.initial(6)
        for t in range(1, 7):
            assert adv.next_tree(s, t).is_path()


class TestSortedPath:
    def test_ascending_roots_least_informed(self):
        s = BroadcastState.initial(4).apply_tree(StaticPathAdversary(4).next_tree(None, 1))
        adv = SortedPathAdversary(4, ascending=True)
        tree = adv.next_tree(s, 2)
        rows = s.reach_sizes()
        assert rows[tree.root] == rows.min()

    def test_descending_roots_most_informed(self):
        s = BroadcastState.initial(4).apply_tree(StaticPathAdversary(4).next_tree(None, 1))
        adv = SortedPathAdversary(4, ascending=False)
        tree = adv.next_tree(s, 2)
        rows = s.reach_sizes()
        assert rows[tree.root] == rows.max()

    def test_tie_break_validation(self):
        with pytest.raises(AdversaryError):
            SortedPathAdversary(4, tie_break="bogus")

    def test_column_tie_break_runs(self):
        adv = SortedPathAdversary(5, tie_break="column")
        assert run_adversary(adv, 5).t_star is not None


class TestTwoPhase:
    def test_alpha_zero_is_sorted(self):
        adv = TwoPhaseFlipAdversary(6, alpha=0.0)
        s = BroadcastState.initial(6)
        sorted_adv = SortedPathAdversary(6)
        assert adv.next_tree(s, 1) == sorted_adv.next_tree(s, 1)

    def test_phase1_plays_identity_path(self):
        adv = TwoPhaseFlipAdversary(8, alpha=0.5)
        s = BroadcastState.initial(8)
        tree = adv.next_tree(s, 1)
        assert tree.root == 0 and tree.is_path()

    def test_negative_alpha_rejected(self):
        with pytest.raises(AdversaryError):
            TwoPhaseFlipAdversary(6, alpha=-0.1)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_respects_upper_bound(self, alpha):
        n = 10
        t = run_adversary(TwoPhaseFlipAdversary(n, alpha=alpha), n).t_star
        assert t <= upper_bound(n)

