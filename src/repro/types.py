"""Shared type aliases and protocols used across the ``repro`` package.

The aliases intentionally stay close to the paper's notation (Section 2):

* a *node* is an integer in ``[n] = {0, ..., n-1}`` (the paper is 1-based,
  the code is 0-based);
* a *round graph* is a rooted labeled tree plus a self-loop on every node;
* the *product graph* ``G(t) = G_1 ∘ ... ∘ G_t`` is a reflexive boolean
  adjacency matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Tuple, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.state import BroadcastState
    from repro.trees.rooted_tree import RootedTree

#: A node identifier in ``range(n)``.
Node = int

#: A directed edge ``(parent, child)``.
Edge = Tuple[int, int]

#: Immutable parent-pointer representation of a rooted tree.  ``parents[v]``
#: is the parent of ``v``; the root points to itself.
ParentArray = Tuple[int, ...]

#: A boolean adjacency matrix (``numpy`` array of dtype ``bool_``).
BoolMatrixArray = np.ndarray


@runtime_checkable
class AdversaryProtocol(Protocol):
    """The interface every adversary implements.

    An adversary observes the current :class:`~repro.core.state.BroadcastState`
    (the full product graph so far -- adaptive adversaries are at least as
    strong as oblivious ones, and Definition 2.3's max over sequences makes
    the two equivalent for this deterministic system) and returns the rooted
    tree for the next round.
    """

    def next_tree(self, state: "BroadcastState", round_index: int) -> "RootedTree":
        """Return the rooted tree the adversary plays in ``round_index``.

        ``round_index`` is 1-based, matching the paper's ``t = 1, 2, ...``.
        """
        ...  # pragma: no cover - protocol body

    def reset(self) -> None:
        """Forget any per-run state so the adversary can be reused."""
        ...  # pragma: no cover - protocol body


def validate_node_count(n: int) -> int:
    """Validate and return a node count.

    Raises
    ------
    ValueError
        If ``n`` is not an integer >= 1.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"node count must be an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return int(n)


def validate_node(v: int, n: int) -> int:
    """Validate that ``v`` is a node identifier in ``range(n)``."""
    if not isinstance(v, (int, np.integer)):
        raise ValueError(f"node must be an integer, got {type(v).__name__}")
    if not 0 <= v < n:
        raise ValueError(f"node {v} out of range for n={n}")
    return int(v)
