"""Tests for the compiled parent-schedule cache (:mod:`repro.trees.compile`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.trees.compile import parent_row, sequence_schedule, static_schedule
from repro.trees.generators import path, star
from repro.trees.rooted_tree import RootedTree


class TestParentRow:
    def test_matches_parent_array(self):
        tree = path(6)
        assert (parent_row(tree) == tree.parent_array_numpy()).all()

    def test_memoized_across_instances(self):
        # Two structurally identical trees share one cached array.
        a = RootedTree([0, 0, 1, 2])
        b = RootedTree([0, 0, 1, 2])
        assert parent_row(a) is parent_row(b)

    def test_rows_are_read_only(self):
        row = parent_row(star(5))
        with pytest.raises(ValueError):
            row[0] = 3


class TestStaticSchedule:
    def test_shape_and_content(self):
        tree = path(4)
        schedule = static_schedule(tree, 7)
        assert schedule.shape == (7, 4)
        assert (schedule == np.asarray(tree.parents)).all()

    def test_is_constant_memory_view(self):
        # Broadcast views share one row regardless of the round count.
        schedule = static_schedule(path(4), 10_000)
        assert schedule.strides[0] == 0
        assert not schedule.flags.writeable

    def test_negative_rounds_rejected(self):
        with pytest.raises(SimulationError, match="rounds"):
            static_schedule(path(4), -1)


class TestSequenceSchedule:
    def test_hold_clamps_to_last_tree(self):
        trees = [path(4), star(4)]
        schedule = sequence_schedule(trees, 5, after="hold")
        assert (schedule[0] == parent_row(trees[0])).all()
        for t in range(1, 5):
            assert (schedule[t] == parent_row(trees[1])).all()

    def test_repeat_cycles(self):
        trees = [path(4), star(4)]
        schedule = sequence_schedule(trees, 6, after="repeat")
        for t in range(6):
            assert (schedule[t] == parent_row(trees[t % 2])).all()

    def test_error_mode_refuses_past_the_end(self):
        trees = [path(4), star(4)]
        assert sequence_schedule(trees, 2, after="error") is not None
        assert sequence_schedule(trees, 3, after="error") is None

    def test_bad_mode_rejected(self):
        with pytest.raises(SimulationError, match="after"):
            sequence_schedule([path(4)], 2, after="loop")

    def test_empty_sequence_rejected(self):
        with pytest.raises(SimulationError, match="empty"):
            sequence_schedule([], 2)

    def test_memoization_hits(self):
        trees = [path(5), star(5)]
        first = sequence_schedule(trees, 8, after="repeat")
        second = sequence_schedule(trees, 8, after="repeat")
        assert second is first

    def test_distinct_horizons_are_distinct_entries(self):
        trees = [path(5), star(5)]
        a = sequence_schedule(trees, 8, after="repeat")
        b = sequence_schedule(trees, 16, after="repeat")
        assert a.shape == (8, 5) and b.shape == (16, 5)
        assert (b[:8] == a).all()

    def test_schedules_are_read_only(self):
        schedule = sequence_schedule([path(4), star(4)], 4, after="repeat")
        with pytest.raises(ValueError):
            schedule[0, 0] = 1


class TestCachedSchedule:
    def test_builder_runs_once_per_key(self):
        from repro.trees.compile import cached_schedule

        calls = []

        def build():
            calls.append(1)
            return np.zeros((3, 4), dtype=np.int64)

        first = cached_schedule(("test", 4, 3), build)
        second = cached_schedule(("test", 4, 3), build)
        assert second is first
        assert len(calls) == 1
        assert not first.flags.writeable

    def test_rotating_schedules_are_memoized(self):
        from repro.adversaries.paths import RotatingPathAdversary

        for shift in (1, 3):
            first = RotatingPathAdversary(8, shift=shift).compile_schedule(8, 12)
            second = RotatingPathAdversary(8, shift=shift).compile_schedule(8, 12)
            assert second is first
