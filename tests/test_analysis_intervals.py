"""Tests for the cyclic-interval machinery."""

from __future__ import annotations

import pytest

from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.analysis.intervals import CyclicInterval, as_cyclic_interval
from repro.core.state import BroadcastState
from repro.trees.generators import path

from helpers import run_with


def _arcs(state):
    """Every reach set of ``state`` as an arc (None where it is not one)."""
    return [as_cyclic_interval(state.reach_set(x), state.n) for x in range(state.n)]


def _structured(state) -> bool:
    return all(arc is not None for arc in _arcs(state))


class TestCyclicInterval:
    def test_members_and_end(self):
        arc = CyclicInterval(6, 4, 3)  # {4, 5, 0}
        assert arc.members() == {4, 5, 0}
        assert arc.end == 0

    def test_extend_right_wraps(self):
        arc = CyclicInterval(5, 3, 2)  # {3, 4}
        grown = arc.extend_right()
        assert grown.members() == {3, 4, 0}

    def test_extend_left_wraps(self):
        arc = CyclicInterval(5, 0, 2)  # {0, 1}
        grown = arc.extend_left()
        assert grown.members() == {4, 0, 1}

    def test_saturation_at_full(self):
        arc = CyclicInterval(4, 1, 3).extend_right()
        assert arc.is_full()
        assert arc.start == 0  # normalized
        assert arc.extend_right() == arc
        assert arc.extend_left() == arc

    def test_validation(self):
        with pytest.raises(ValueError):
            CyclicInterval(4, 0, 0)
        with pytest.raises(ValueError):
            CyclicInterval(4, 4, 1)
        with pytest.raises(ValueError):
            CyclicInterval(4, 1, 4)  # full arcs normalize to start 0

    def test_str(self):
        assert "len=3" in str(CyclicInterval(6, 4, 3))


class TestRecognition:
    def test_recognizes_wrapping_arc(self):
        arc = as_cyclic_interval({5, 0, 1}, 6)
        assert arc is not None
        assert arc.start == 5 and arc.length == 3

    def test_recognizes_plain_interval(self):
        arc = as_cyclic_interval({2, 3, 4}, 6)
        assert arc == CyclicInterval(6, 2, 3)

    def test_rejects_gaps(self):
        assert as_cyclic_interval({0, 2}, 4) is None
        assert as_cyclic_interval({0, 1, 3}, 5) is None

    def test_full_and_empty(self):
        assert as_cyclic_interval(set(range(5)), 5) == CyclicInterval(5, 0, 5)
        assert as_cyclic_interval(set(), 5) is None

    def test_singleton(self):
        assert as_cyclic_interval({3}, 5) == CyclicInterval(5, 3, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            as_cyclic_interval({7}, 5)


class TestStateStructure:
    def test_initial_state_is_structured(self):
        state = BroadcastState.initial(6)
        assert _structured(state)
        assert all(a.length == 1 for a in _arcs(state))

    def test_path_runs_stay_structured(self):
        state = BroadcastState.initial(6)
        for _ in range(4):
            state.apply_tree_inplace(path(6))
            assert _structured(state)

    @pytest.mark.parametrize("n", [5, 6, 8, 10])
    def test_cyclic_family_preserves_intervals(self, n):
        """The design claim behind the lower-bound witness."""
        played = run_with(CyclicFamilyAdversary(n), n, keep_trees=True).trees
        state = BroadcastState.initial(n)
        for t, tree in enumerate(played, start=1):
            state.apply_tree_inplace(tree)
            assert _structured(state), f"round {t} leaves the interval structure"

    def test_structure_break_detected(self):
        # A broom from identity creates a non-interval reach set
        # (root reaches two non-adjacent nodes).
        from repro.trees.rooted_tree import RootedTree

        state = BroadcastState.initial(5)
        scattered = RootedTree([0, 0, 1, 0, 3])  # 0 -> {1, 3}: {0,1,3} not an arc
        state.apply_tree_inplace(scattered)
        assert not _structured(state)
