"""Unit tests for BroadcastState."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import BroadcastState
from repro.errors import DimensionMismatchError, SimulationError
from repro.trees.generators import path, random_tree, star

from helpers import make_random_state


class TestConstruction:
    def test_initial_state(self):
        s = BroadcastState.initial(4)
        assert s.n == 4
        assert s.round_index == 0
        assert s.edge_count() == 4
        assert not s.is_broadcast_complete() or s.n == 1

    def test_single_node_is_complete(self):
        assert BroadcastState.initial(1).is_broadcast_complete()

    def test_rejects_non_reflexive(self):
        from repro.errors import InvalidGraphError

        with pytest.raises(InvalidGraphError):
            BroadcastState(3, np.zeros((3, 3), dtype=bool))

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatchError):
            BroadcastState(3, np.eye(4, dtype=bool))

    def test_rejects_negative_round(self):
        with pytest.raises(SimulationError):
            BroadcastState(3, round_index=-1)


class TestQueries:
    def test_reach_and_heard_duality(self):
        s = make_random_state(6, rounds=3, seed=7)
        for x in range(6):
            for y in range(6):
                assert (y in s.reach_set(x)) == (x in s.heard_of_set(y))

    def test_sizes_match_sets(self):
        s = make_random_state(5, rounds=2, seed=3)
        rows = s.reach_sizes()
        cols = s.heard_of_sizes()
        for x in range(5):
            assert rows[x] == len(s.reach_set(x))
            assert cols[x] == len(s.heard_of_set(x))

    def test_missing_complements_reach(self):
        s = make_random_state(5, rounds=1, seed=0)
        for x in range(5):
            assert s.missing(x) | s.reach_set(x) == set(range(5))

    def test_broadcasters_after_star(self):
        s = BroadcastState.initial(4).apply_tree(star(4))
        assert s.broadcasters() == (0,)
        assert s.is_broadcast_complete()


class TestEvolution:
    def test_apply_tree_is_pure(self):
        s = BroadcastState.initial(4)
        s2 = s.apply_tree(path(4))
        assert s.round_index == 0
        assert s2.round_index == 1
        assert s.edge_count() == 4
        assert s2.edge_count() == 7

    def test_apply_inplace_mutates(self):
        s = BroadcastState.initial(4)
        out = s.apply_tree_inplace(path(4))
        assert out is s
        assert s.round_index == 1

    def test_apply_graph_generic(self):
        s = BroadcastState.initial(3)
        g = np.array([[1, 1, 1], [0, 1, 0], [0, 0, 1]], dtype=bool)
        s2 = s.apply_graph(g)
        assert s2.reach_set(0) == {0, 1, 2}

    def test_monotonicity_over_random_run(self, rng):
        s = BroadcastState.initial(6)
        prev = s.reach_matrix
        for _ in range(8):
            s.apply_tree_inplace(random_tree(6, rng))
            cur = s.reach_matrix
            assert (prev <= cur).all()
            prev = cur

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BroadcastState.initial(4).apply_tree(path(5))


class TestBookkeeping:
    def test_copy_independent(self):
        s = BroadcastState.initial(4)
        c = s.copy()
        c.apply_tree_inplace(path(4))
        assert s.round_index == 0
        assert c.round_index == 1

    def test_key_identifies_matrix_not_round(self):
        a = BroadcastState.initial(4)
        b = BroadcastState(4, a.reach_matrix, round_index=5)
        assert a.key() == b.key()
        assert a != b  # equality does include the round

    def test_view_is_read_only(self):
        view = BroadcastState.initial(3).reach_matrix_view()
        with pytest.raises((ValueError, RuntimeError)):
            view[0, 1] = True

    def test_repr_and_summary(self):
        s = BroadcastState.initial(4)
        assert "BroadcastState" in repr(s)
        assert "t=0" in s.summary()
