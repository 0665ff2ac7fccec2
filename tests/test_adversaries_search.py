"""Tests for pool, greedy and beam adversaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.beam import BeamSearchAdversary
from repro.adversaries.greedy import GreedyDelayAdversary, score_tree
from repro.adversaries.pool import (
    CandidatePool,
    PoolConfig,
    heaviest,
    stall_tree,
)
from repro.core.bounds import upper_bound
from repro.core.broadcast import run_adversary
from repro.core.state import BroadcastState
from repro.errors import AdversaryError
from repro.trees.rooted_tree import RootedTree
from repro.trees.subtree import stalled_nodes

from helpers import make_unfinished_state


class TestPool:
    def test_candidates_are_valid_and_unique(self):
        pool = CandidatePool(7)
        state = make_unfinished_state(7, seed=0)
        cands = pool.candidates(state)
        assert len(cands) > 5
        seen = set()
        for t in cands:
            assert isinstance(t, RootedTree)
            assert t.n == 7
            assert t.parents not in seen
            seen.add(t.parents)

    def test_reset_reproduces_pool(self):
        pool = CandidatePool(6, PoolConfig(seed=5))
        state = make_unfinished_state(6, seed=1)
        first = [t.parents for t in pool.candidates(state)]
        pool.reset()
        second = [t.parents for t in pool.candidates(state)]
        assert first == second

    def test_config_toggles_families(self):
        state = make_unfinished_state(6, seed=2)
        small = CandidatePool(
            6,
            PoolConfig(
                rotations=0,
                random_paths=0,
                random_trees=0,
                stall_targets=0,
                include_sorted_paths=False,
                include_runner_paths=False,
            ),
        )
        assert len(small.candidates(state)) == 2  # identity + reversed path


class TestStallTree:
    def test_protected_nodes_are_stalled_when_possible(self):
        state = make_unfinished_state(7, seed=3)
        reach = state.reach_matrix_view()
        rows = reach.sum(axis=1)
        target = heaviest(rows, 1)
        tree = stall_tree(reach, target, rows)
        st = stalled_nodes(tree, reach)
        # A single unfinished heavy node can always be stalled (its reach
        # is a proper subset, hence stallable).
        assert target[0] in st

    def test_heaviest_excludes_finished(self):
        rows = np.array([5, 3, 5, 2, 1])
        assert heaviest(rows, 2) == [1, 3]  # rows == n are excluded

    def test_heaviest_falls_back_when_all_finished(self):
        rows = np.array([3, 3, 3])
        assert heaviest(rows, 2) == [0, 1]


class TestGreedy:
    def test_never_finishes_when_avoidable(self):
        n = 6
        adv = GreedyDelayAdversary(n)
        result = run_adversary(adv, n)
        # Greedy must at least equal the static path.
        assert result.t_star >= n - 1
        assert result.t_star <= upper_bound(n)

    def test_score_tuple_ordering(self):
        from repro.trees.generators import path, star

        state = BroadcastState.initial(5)
        assert score_tree(state, path(5)) < score_tree(state, star(5))

    def test_pool_and_config_conflict(self):
        with pytest.raises(AdversaryError):
            GreedyDelayAdversary(5, pool=CandidatePool(5), config=PoolConfig())


class TestBeam:
    def test_depth_one_close_to_greedy(self):
        n = 6
        greedy_t = run_adversary(GreedyDelayAdversary(n, seed=0), n).t_star
        beam_t = run_adversary(
            BeamSearchAdversary(n, depth=1, width=1, seed=0), n
        ).t_star
        assert beam_t == greedy_t

    def test_deeper_beam_not_worse_than_path(self):
        n = 7
        t = run_adversary(BeamSearchAdversary(n, depth=3, width=4), n).t_star
        assert t >= n - 1
        assert t <= upper_bound(n)

    def test_parameter_validation(self):
        with pytest.raises(AdversaryError):
            BeamSearchAdversary(5, depth=0)
        with pytest.raises(AdversaryError):
            BeamSearchAdversary(5, width=0)
        with pytest.raises(AdversaryError):
            BeamSearchAdversary(5, pool=CandidatePool(5), config=PoolConfig())

    def test_cornered_endgame_returns_a_move(self):
        # Drive a 2-node game: every move finishes; the beam must still act.
        adv = BeamSearchAdversary(2, depth=2, width=2)
        tree = adv.next_tree(BroadcastState.initial(2), 1)
        assert tree.n == 2

