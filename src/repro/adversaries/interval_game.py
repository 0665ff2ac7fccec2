"""The arc game: a clean combinatorial abstraction of cyclic-interval play.

When every reach set is a cyclic interval (see
:mod:`repro.analysis.intervals`) and the adversary plays rotated cyclic
paths, the broadcast game collapses to a token game on the cycle:

* each node ``x`` carries an arc ``A_x`` (initially the singleton ``{x}``);
* a **forward move at s** (the rotated path ``s, s+1, ..., s-1``) extends
  every arc by one at its right end, *except* arcs whose right end is
  ``s − 1`` (the path's last node has no out-edge);
* a **backward move at s** symmetrically extends left ends, freezing arcs
  whose left end is ``s + 1``;
* the game ends when some arc covers the whole cycle.

This module implements the abstraction (:class:`ArcState`, :func:`step`),
the exact value of the *restricted* game (:func:`arc_game_value`, paths
only), and the bridge back to the real model
(:func:`move_tree`, :func:`validate_abstraction`): applying the actual
rotated path through the matrix engine must produce exactly the predicted
arcs.

The restricted game's value is a *lower bound* on ``t*(T_n)`` but a
strictly weaker one than the chain-fan family achieves -- pure rotated
paths top out near ``n``, which is precisely why
:class:`~repro.adversaries.zeiner.CyclicFamilyAdversary` needs the fan
moves.  The solver here quantifies that gap (benchmark E8b's narrative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.intervals import CyclicInterval
from repro.core.state import BroadcastState
from repro.errors import SearchBudgetExceeded
from repro.trees.generators import rotated_path
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node_count

#: A move: (backward?, start node s).
Move = Tuple[bool, int]

#: Compact arc-game state: per node, (start, length) of its arc.
ArcTuple = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class ArcState:
    """Immutable arc-game state."""

    n: int
    arcs: Tuple[CyclicInterval, ...]

    @classmethod
    def initial(cls, n: int) -> "ArcState":
        """Every node's arc is its own singleton."""
        validate_node_count(n)
        return cls(n, tuple(CyclicInterval(n, x, 1) for x in range(n)))

    def is_finished(self) -> bool:
        """Some arc covers the cycle (a broadcaster exists)."""
        return any(a.is_full() for a in self.arcs)

    def key(self) -> ArcTuple:
        """Hashable representation."""
        return tuple((a.start, a.length) for a in self.arcs)

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.arcs)


def step(state: ArcState, move: Move) -> ArcState:
    """Apply one arc-game move.

    Forward move at ``s``: every arc whose right end differs from
    ``s − 1 (mod n)`` extends right.  Backward move at ``s``: every arc
    whose left end differs from ``s + 1 (mod n)`` extends left.
    """
    backward, s = move
    n = state.n
    new_arcs: List[CyclicInterval] = []
    if backward:
        frozen_left = (s + 1) % n
        for a in state.arcs:
            if a.is_full() or a.start == frozen_left:
                new_arcs.append(a)
            else:
                new_arcs.append(a.extend_left())
    else:
        frozen_right = (s - 1) % n
        for a in state.arcs:
            if a.is_full() or a.end == frozen_right:
                new_arcs.append(a)
            else:
                new_arcs.append(a.extend_right())
    return ArcState(n, tuple(new_arcs))


def move_tree(n: int, move: Move) -> RootedTree:
    """The actual rooted tree realizing an arc-game move."""
    backward, s = move
    return rotated_path(n, s, backward=backward)


def all_moves(n: int) -> List[Move]:
    """The arc game's move set: 2n rotated paths."""
    return [(backward, s) for backward in (False, True) for s in range(n)]


def arc_game_value(n: int, max_states: int = 500_000) -> int:
    """Exact value of the restricted (rotated-paths-only) game.

    Memoized maximization over the 2n moves per state.  States are arcs
    per node, so the space is far smaller than the full game's; still,
    the ``max_states`` budget guards against surprises.
    """
    validate_node_count(n)
    if n == 1:
        return 0
    memo: Dict[ArcTuple, int] = {}
    moves = all_moves(n)

    def value(state: ArcState) -> int:
        if state.is_finished():
            return 0
        key = state.key()
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(memo) >= max_states:
            raise SearchBudgetExceeded(
                f"arc game exceeded max_states={max_states}", len(memo)
            )
        best = 0
        for move in moves:
            nxt = step(state, move)
            if nxt.key() == key:
                continue  # no-progress move would loop forever
            best = max(best, 1 + value(nxt))
        memo[key] = best
        return best

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10_000))
    try:
        return value(ArcState.initial(n))
    finally:
        sys.setrecursionlimit(old_limit)


def arc_game_optimal_sequence(n: int, max_states: int = 500_000) -> List[Move]:
    """An optimal move line of the restricted game (greedy on the memo)."""
    validate_node_count(n)
    total = arc_game_value(n, max_states=max_states)
    # Re-solve with a local memo shared via closure for replay.
    memo: Dict[ArcTuple, int] = {}
    moves = all_moves(n)

    def value(state: ArcState) -> int:
        if state.is_finished():
            return 0
        key = state.key()
        if key in memo:
            return memo[key]
        best = 0
        for move in moves:
            nxt = step(state, move)
            if nxt.key() == key:
                continue
            best = max(best, 1 + value(nxt))
        memo[key] = best
        return best

    seq: List[Move] = []
    state = ArcState.initial(n)
    remaining = value(state)
    assert remaining == total
    while remaining > 0:
        for move in moves:
            nxt = step(state, move)
            if nxt.key() == state.key():
                continue
            v = 0 if nxt.is_finished() else value(nxt)
            if 1 + v == remaining:
                seq.append(move)
                state = nxt
                remaining -= 1
                break
        else:  # pragma: no cover - would indicate a solver bug
            raise RuntimeError("no move achieves the memoized arc-game value")
    return seq


def validate_abstraction(n: int, moves: List[Move]) -> bool:
    """Check the abstraction against the real model, move by move.

    Plays the rotated paths through the matrix engine and verifies the
    reach sets equal the arcs the abstraction predicts.  Returns True on
    success; raises AssertionError with context on the first mismatch.
    """
    validate_node_count(n)
    arc_state = ArcState.initial(n)
    real_state = BroadcastState.initial(n)
    for i, move in enumerate(moves, start=1):
        arc_state = step(arc_state, move)
        real_state = real_state.apply_tree(move_tree(n, move))
        for x in range(n):
            predicted = arc_state.arcs[x].members()
            actual = real_state.reach_set(x)
            assert predicted == actual, (
                f"abstraction mismatch at move {i} ({move}), node {x}: "
                f"predicted {sorted(predicted)}, actual {sorted(actual)}"
            )
    return True
