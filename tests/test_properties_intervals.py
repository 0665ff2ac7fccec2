"""Property tests for the cyclic-interval layer and the arc game."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.interval_game import (
    ArcState,
    all_moves,
    move_tree,
    step,
)
from repro.analysis.intervals import CyclicInterval, as_cyclic_interval
from repro.core.state import BroadcastState


@st.composite
def arcs(draw, min_n: int = 2, max_n: int = 10):
    n = draw(st.integers(min_n, max_n))
    length = draw(st.integers(1, n))
    start = 0 if length == n else draw(st.integers(0, n - 1))
    return CyclicInterval(n, start, length)


@given(arcs())
@settings(max_examples=100, deadline=None)
def test_recognition_roundtrip(arc):
    """as_cyclic_interval(members) recovers the normalized arc."""
    recognized = as_cyclic_interval(arc.members(), arc.n)
    assert recognized == arc


@given(arcs())
@settings(max_examples=100, deadline=None)
def test_extensions_grow_by_one(arc):
    right = arc.extend_right()
    left = arc.extend_left()
    expected = min(arc.length + 1, arc.n)
    assert right.length == expected
    assert left.length == expected
    assert arc.members() <= right.members()
    assert arc.members() <= left.members()


@st.composite
def move_sequences(draw, min_n: int = 2, max_n: int = 7, max_len: int = 10):
    n = draw(st.integers(min_n, max_n))
    length = draw(st.integers(1, max_len))
    moves = [
        (draw(st.booleans()), draw(st.integers(0, n - 1)))
        for _ in range(length)
    ]
    return n, moves


@given(move_sequences())
@settings(max_examples=60, deadline=None)
def test_arc_game_abstraction_sound(seq):
    """The arc game predicts the real model exactly, on arbitrary moves."""
    n, moves = seq
    arc_state = ArcState.initial(n)
    real = BroadcastState.initial(n)
    for move in moves:
        arc_state = step(arc_state, move)
        real = real.apply_tree(move_tree(n, move))
        for x in range(n):
            assert arc_state.arcs[x].members() == real.reach_set(x)


@given(move_sequences(max_len=6))
@settings(max_examples=40, deadline=None)
def test_arc_game_finish_agrees_with_model(seq):
    n, moves = seq
    arc_state = ArcState.initial(n)
    real = BroadcastState.initial(n)
    for move in moves:
        arc_state = step(arc_state, move)
        real = real.apply_tree(move_tree(n, move))
        assert arc_state.is_finished() == real.is_broadcast_complete()


@given(st.integers(2, 8))
@settings(max_examples=20, deadline=None)
def test_move_set_complete_and_distinct(n):
    moves = all_moves(n)
    trees = {move_tree(n, m).parents for m in moves}
    assert len(moves) == 2 * n
    # Forward and backward rotations coincide only at n = 2.
    assert len(trees) == (2 if n == 2 else 2 * n)
