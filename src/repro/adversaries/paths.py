"""Path-based adversary strategies.

* :class:`StaticPathAdversary` -- the paper's example: a static path
  realizes the ``n - 1`` broadcast time quoted in Section 2;
* :class:`RotatingPathAdversary` -- cyclic shifts of the path order, the
  periodic case of the compiled parent-schedule fast path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.core.state import BroadcastState
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
