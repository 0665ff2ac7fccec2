"""Unit tests for broadcast-time computation (Definitions 2.2 / 2.3)."""

from __future__ import annotations

import pytest

from repro.adversaries.base import Adversary
from repro.adversaries.oblivious import StaticTreeAdversary
from repro.core.broadcast import (
    broadcast_time_adversary,
    run_adversary,
    run_sequence,
    verify_certificate,
)
from repro.errors import AdversaryError, SimulationError
from repro.trees.generators import path, star

from helpers import run_with


class TestRunSequence:
    def test_static_path_takes_n_minus_1(self):
        # The paper's Section 2 example.
        for n in (2, 4, 7, 11):
            assert run_sequence([path(n)] * (n * n), n).t_star == n - 1

    def test_star_takes_one_round(self):
        assert run_sequence([star(6)], 6).t_star == 1

    def test_unfinished_returns_none(self):
        assert run_sequence([path(5)] * 2, 5).t_star is None

    def test_stop_at_broadcast_controls_rounds(self):
        trees = [star(4)] + [path(4)] * 3
        early = run_sequence(trees, stop_at_broadcast=True)
        full = run_sequence(trees, stop_at_broadcast=False)
        assert early.t_star == full.t_star == 1
        assert early.final_state.round_index == 1
        assert full.final_state.round_index == 4

    def test_history_records_every_round(self):
        result = run_sequence([path(4)] * 10, keep_history=True)
        assert result.t_star == 3
        assert [h.round_index for h in result.history] == [1, 2, 3]
        assert all(h.new_edges >= 1 for h in result.history)

    def test_empty_needs_n(self):
        with pytest.raises(SimulationError):
            run_sequence([])

    def test_first_broadcaster_is_path_root(self):
        assert run_sequence([path(5)] * 10, 5).broadcasters[0] == 0
        assert run_sequence([path(5)], 5).broadcasters == ()


class TestRunAdversary:
    def test_static_adversary_matches_sequence(self):
        n = 6
        t = broadcast_time_adversary(StaticTreeAdversary(path(n)), n)
        assert t == n - 1

    def test_explicit_cap_truncates_quietly(self):
        n = 6
        result = run_with(StaticTreeAdversary(path(n)), n, max_rounds=2)
        assert result.t_star is None
        assert result.final_state.round_index == 2

    def test_illegal_adversary_raises(self):
        class WrongSize(Adversary):
            def next_tree(self, state, round_index):
                return path(3)

        with pytest.raises(AdversaryError, match="over 3 nodes"):
            run_adversary(WrongSize(), 5)

    def test_non_tree_return_raises(self):
        class NotATree(Adversary):
            def next_tree(self, state, round_index):
                return "oops"

        with pytest.raises(AdversaryError, match="RootedTree"):
            run_adversary(NotATree(), 4)

    def test_keep_trees_records_played_trees(self):
        result = run_with(StaticTreeAdversary(path(4)), 4, keep_trees=True)
        assert len(result.trees) == result.t_star
        assert all(t == path(4) for t in result.trees)

    def test_reset_called_between_runs(self):
        calls = []

        class Tracking(Adversary):
            def next_tree(self, state, round_index):
                return star(4)

            def reset(self):
                calls.append("reset")

        adv = Tracking()
        run_adversary(adv, 4)
        run_adversary(adv, 4)
        assert calls == ["reset", "reset"]


class TestCertificates:
    def test_verify_certificate_exact(self):
        trees = [path(4)] * 3
        assert verify_certificate(trees, 3)
        assert not verify_certificate(trees, 2)
        assert not verify_certificate([path(4)] * 5, 5)  # finishes at 3
