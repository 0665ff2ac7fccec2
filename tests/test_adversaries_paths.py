"""Unit tests for path-based adversaries."""

from __future__ import annotations

import pytest

from repro.adversaries.paths import RotatingPathAdversary, StaticPathAdversary
from repro.core.broadcast import run_adversary
from repro.core.state import BroadcastState


class TestStaticPath:
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_achieves_n_minus_1(self, n):
        assert run_adversary(StaticPathAdversary(n), n).t_star == n - 1


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
