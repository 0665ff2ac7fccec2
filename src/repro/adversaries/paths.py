"""Path-based adversary strategies.

Paths are the adversary's natural delaying tool: a static path realizes the
``n - 1`` broadcast time quoted in Section 2, and the known lower-bound
constructions are path-flavoured.  This module collects the path family:

* :class:`StaticPathAdversary` -- the paper's example;
* :class:`AlternatingPathAdversary` -- forward/backward path flips;
* :class:`RotatingPathAdversary` -- cyclic shifts of the path order;
* :class:`SortedPathAdversary` -- adaptive: order the path by current
  reach-set sizes;
* :class:`TwoPhaseFlipAdversary` -- run a path for ``round(alpha * n)``
  rounds, then hand over to a sorted path (the shape the lower-bound
  analysis suggests: build up staggered knowledge, then keep re-rooting so
  the most knowledgeable nodes stall).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.core.state import BroadcastState
from repro.errors import AdversaryError
from repro.trees.generators import path, path_from_order
from repro.trees.rooted_tree import RootedTree


class StaticPathAdversary(Adversary):
    """Repeat the identity path ``0 -> 1 -> ... -> n-1`` forever.

    Achieves ``t* = n - 1`` exactly (the root needs one round per hop).
    """

    def __init__(self, n: int) -> None:
        self._tree = path(n)
        self.name = f"StaticPath[n={n}]"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        return self._tree

    def compile_schedule(self, n: int, rounds: int) -> Optional[np.ndarray]:
        from repro.trees.compile import static_schedule

        if self._tree.n != n:
            return None
        return static_schedule(self._tree, rounds)

    def compile_static_row(self, n: int) -> Optional[np.ndarray]:
        from repro.trees.compile import parent_row

        if self._tree.n != n:
            return None
        return parent_row(self._tree)


class AlternatingPathAdversary(Adversary):
    """Alternate between the forward and the reversed identity path.

    ``period`` controls how many rounds each direction is held.  A period
    of 1 flips every round.
    """

    def __init__(self, n: int, period: int = 1) -> None:
        if period < 1:
            raise AdversaryError(f"period must be >= 1, got {period}")
        self._fwd = path(n)
        self._bwd = path_from_order(list(range(n - 1, -1, -1)))
        self._period = period
        self.name = f"AlternatingPath[period={period}]"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        block = (round_index - 1) // self._period
        return self._fwd if block % 2 == 0 else self._bwd

    def compile_schedule(self, n: int, rounds: int) -> Optional[np.ndarray]:
        from repro.trees.compile import cached_schedule, parent_row

        if self._fwd.n != n:
            return None

        def build() -> np.ndarray:
            rows = np.stack([parent_row(self._fwd), parent_row(self._bwd)])
            block = (np.arange(rounds, dtype=np.int64) // self._period) % 2
            return rows[block]

        return cached_schedule(
            ("alternating-path", n, self._period, rounds), build
        )


class RotatingPathAdversary(Adversary):
    """Play the path starting at ``(shift * t) mod n`` in round ``t``.

    The order in round ``t`` is the cyclic rotation
    ``s, s+1, ..., n-1, 0, ..., s-1`` with ``s = shift * (t-1) mod n``.
    Rotation keeps re-rooting the path, which forces a different node to be
    the (always-gaining) root each round.
    """

    def __init__(self, n: int, shift: int = 1) -> None:
        self._n = n
        self._shift = shift % max(n, 1)
        self.name = f"RotatingPath[shift={shift}]"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        s = (self._shift * (round_index - 1)) % self._n
        order = [(s + i) % self._n for i in range(self._n)]
        return path_from_order(order)

    def compile_schedule(self, n: int, rounds: int) -> Optional[np.ndarray]:
        """Build the rotation rows directly in numpy, then cycle.

        The rotated path starting at ``s`` has ``parents[v] = (v-1) mod n``
        for every ``v != s`` and ``parents[s] = s``, so the whole period
        (``n / gcd(shift, n)`` distinct rotations) compiles without
        constructing a single tree -- this is what makes compiled rotating
        runs ~10x faster than the per-round ``RootedTree`` loop.
        """
        from math import gcd

        from repro.trees.compile import cached_schedule

        if self._n != n:
            return None

        def build() -> np.ndarray:
            period = self._n // gcd(self._shift, self._n) if self._shift else 1
            base = (np.arange(n, dtype=np.int64) - 1) % n
            distinct = np.tile(base, (period, 1))
            starts = (self._shift * np.arange(period, dtype=np.int64)) % n
            distinct[np.arange(period), starts] = starts
            return distinct[np.arange(rounds, dtype=np.int64) % period]

        return cached_schedule(("rotating-path", n, self._shift, rounds), build)

    def compile_static_row(self, n: int) -> Optional[np.ndarray]:
        """``shift % n == 0`` plays the same rotation every round."""
        from repro.trees.compile import parent_row

        if self._n != n or self._shift != 0:
            return None
        return parent_row(self.next_tree(None, 1))


class SortedPathAdversary(Adversary):
    """Adaptive path ordered by current reach-set sizes.

    With ``ascending=True`` the least-knowledgeable node roots the path and
    the most-knowledgeable node sits at the leaf end.  The intuition: a
    node stalls iff its reach set is a union of complete subtrees (Lemma S),
    and in a path the complete subtrees are the suffixes -- so placing a
    heavy node where its reach set forms a suffix freezes it.  Sorting by
    reach size is a cheap proxy for that alignment.

    Ties are broken by node index (deterministic) or by heard-of size when
    ``tie_break='column'``.
    """

    def __init__(
        self,
        n: int,
        ascending: bool = True,
        tie_break: str = "index",
    ) -> None:
        if tie_break not in ("index", "column"):
            raise AdversaryError(
                f"tie_break must be 'index' or 'column', got {tie_break!r}"
            )
        self._n = n
        self._ascending = ascending
        self._tie_break = tie_break
        direction = "asc" if ascending else "desc"
        self.name = f"SortedPath[{direction},{tie_break}]"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        rows = state.reach_sizes()
        if self._tie_break == "column":
            cols = state.heard_of_sizes()
            keys = list(zip(rows.tolist(), cols.tolist(), range(self._n)))
        else:
            keys = list(zip(rows.tolist(), range(self._n), range(self._n)))
        keys.sort(reverse=not self._ascending)
        order = [k[-1] for k in keys]
        return path_from_order(order)


class TwoPhaseFlipAdversary(Adversary):
    """Phase 1: static path for ``round(alpha * n)`` rounds; phase 2: sorted path.

    ``alpha`` near 0.5 builds the staggered interval structure
    (``R_i = [i, i+t]``) the lower-bound constructions rely on before
    switching to adaptive stalling.  ``alpha = 0`` degenerates to
    :class:`SortedPathAdversary`, large ``alpha`` to
    :class:`StaticPathAdversary`.
    """

    def __init__(self, n: int, alpha: float = 0.5, ascending: bool = True) -> None:
        if alpha < 0:
            raise AdversaryError(f"alpha must be >= 0, got {alpha}")
        self._n = n
        self._phase1_rounds = int(round(alpha * n))
        self._alpha = alpha
        self._static = StaticPathAdversary(n)
        self._sorted = SortedPathAdversary(n, ascending=ascending)
        self.name = f"TwoPhaseFlip[alpha={alpha:g}]"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        if round_index <= self._phase1_rounds:
            return self._static.next_tree(state, round_index)
        return self._sorted.next_tree(state, round_index)
