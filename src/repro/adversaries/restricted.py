"""Restricted adversaries: k leaves / k inner nodes (Figure 1's O(kn) rows).

Zeiner, Schwarz, Schmid [14] prove broadcast time is linear when the
adversary may only play trees with a constant number of leaves, or a
constant number of inner nodes, in every round.  These adversaries realize
the restricted settings:

* :class:`KLeafAdversary` -- every round graph is a spider with exactly
  ``k`` legs (hence ``k`` leaves), adaptively ordered;
* :class:`KInnerAdversary` -- every round graph is a broom whose handle has
  exactly ``k`` nodes (hence ``k`` inner nodes), adaptively chosen.

The benchmark (E5) sweeps ``n`` for fixed ``k`` and checks the measured
broadcast times grow linearly, the claim behind Figure 1's ``O(kn)`` rows.
"""

from __future__ import annotations

from typing import List

from repro.adversaries.base import Adversary
from repro.core.state import BroadcastState
from repro.errors import AdversaryError
from repro.trees.rooted_tree import RootedTree


def spider_from_order(order: List[int], k: int) -> RootedTree:
    """Spider with ``k`` legs: ``order[0]`` is the center, the rest are dealt
    round-robin onto the legs in sequence."""
    n = len(order)
    center = order[0]
    parents = [0] * n
    parents[center] = center
    chains: List[int] = [center] * k  # last node of each leg so far
    for i, v in enumerate(order[1:]):
        leg = i % k
        parents[v] = chains[leg]
        chains[leg] = v
    return RootedTree(parents)


def broom_from_order(order: List[int], k: int) -> RootedTree:
    """Broom whose handle is ``order[:k]``; the rest hang off ``order[k-1]``."""
    n = len(order)
    parents = [0] * n
    parents[order[0]] = order[0]
    for a, b in zip(order[:k], order[1:k]):
        parents[b] = a
    for v in order[k:]:
        parents[v] = order[k - 1]
    return RootedTree(parents)


class KLeafAdversary(Adversary):
    """Adaptive adversary restricted to trees with exactly ``k`` leaves.

    Strategy: play the spider whose center is the least-heard-of node and
    whose legs receive nodes sorted by reach size ascending.  For ``k = 1``
    this is the path rooted at the least-heard-of node.
    """

    def __init__(self, n: int, k: int) -> None:
        if n >= 2 and not 1 <= k <= n - 1:
            raise AdversaryError(f"k must be in [1, n-1]; got k={k}, n={n}")
        self._n = n
        self._k = k
        self.name = f"KLeaf[k={k}]"
        super().__init__()

    @property
    def k(self) -> int:
        """The per-round leaf budget."""
        return self._k

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        rows = state.reach_sizes()
        cols = state.heard_of_sizes()
        center = min(range(self._n), key=lambda v: (cols[v], rows[v], v))
        rest = [v for v in range(self._n) if v != center]
        rest.sort(key=lambda v: (rows[v], v))
        tree = spider_from_order([center] + rest, self._k)
        if self._n >= 2 and tree.leaf_count() != self._k:
            raise AdversaryError(
                f"restricted adversary built a {tree.leaf_count()}-leaf tree, "
                f"budget is {self._k}"
            )
        return tree


class KInnerAdversary(Adversary):
    """Adaptive adversary restricted to trees with exactly ``k`` inner nodes.

    Strategy: broom whose handle is the ``k`` least-heard-of nodes (sorted
    so the least-known roots the tree) and whose bristles are everyone
    else.  Inner nodes are exactly the handle.
    """

    def __init__(self, n: int, k: int) -> None:
        if n >= 2 and not 1 <= k <= n - 1:
            raise AdversaryError(f"k must be in [1, n-1]; got k={k}, n={n}")
        self._n = n
        self._k = k
        self.name = f"KInner[k={k}]"
        super().__init__()

    @property
    def k(self) -> int:
        """The per-round inner-node budget."""
        return self._k

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        rows = state.reach_sizes()
        cols = state.heard_of_sizes()
        order = sorted(range(self._n), key=lambda v: (cols[v], rows[v], v))
        tree = broom_from_order(order, self._k)
        if self._n >= 2 and tree.inner_count() != self._k:
            raise AdversaryError(
                f"restricted adversary built a {tree.inner_count()}-inner tree, "
                f"budget is {self._k}"
            )
        return tree
