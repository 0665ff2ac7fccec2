"""Oblivious adversaries: strategies that never look at the state.

These are the baselines of Section 2 (a static tree -- in particular a
static path, giving ``t* = n - 1``) plus stochastic and cyclic mixes used
to exercise the engines and to populate the Theorem 3.1 verification
portfolio (every adversary, however it plays, must respect the upper
bound).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.core.state import BroadcastState
from repro.errors import AdversaryError
from repro.trees.generators import random_tree
from repro.trees.rooted_tree import RootedTree


class StaticTreeAdversary(Adversary):
    """Repeat one fixed tree forever.

    With a path this reproduces the paper's ``n - 1`` example; with a star
    broadcast finishes in one round -- the two extremes of static play.
    """

    def __init__(self, tree: RootedTree, name: Optional[str] = None) -> None:
        self._tree = tree
        self.name = name or f"Static[{tree.describe()}]"
        super().__init__()

    @property
    def tree(self) -> RootedTree:
        """The repeated round graph."""
        return self._tree

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


class RandomTreeAdversary(Adversary):
    """Play an independent uniform random rooted tree each round.

    Deterministic given ``seed``: :meth:`reset` restores the initial RNG
    state so repeated runs reproduce exactly.
    """

    def __init__(self, n: int, seed: int = 0, name: Optional[str] = None) -> None:
        self._n = n
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.name = name or f"RandomTree[seed={seed}]"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        if state.n != self._n:
            raise AdversaryError(
                f"adversary built for n={self._n}, driven with n={state.n}"
            )
        return random_tree(self._n, rng=self._rng)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
