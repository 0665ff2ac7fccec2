"""Generators for named rooted-tree families.

These are the shapes the broadcast literature keeps reaching for:

* **paths** -- the adversary's basic delaying tool (a static path yields the
  ``n - 1`` broadcast time quoted in Section 2 of the paper);
* **stars** -- the fastest tree (the root finishes in one round);
* **brooms / caterpillars / spiders** -- interpolations between the two,
  used by restricted-adversary constructions in Zeiner et al. [14];
* **k-leaf and k-inner-node trees** -- the families of Figure 1's
  ``O(kn)`` rows;
* **random trees** -- uniform over labeled trees via Prüfer sequences.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import InvalidTreeError
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node_count


def path_from_order(order: Sequence[int]) -> RootedTree:
    """Directed path ``order[0] -> order[1] -> ... -> order[-1]``.

    ``order`` must be a permutation of ``range(n)``; ``order[0]`` is the root.
    """
    n = len(order)
    if sorted(order) != list(range(n)):
        raise InvalidTreeError("path order must be a permutation of range(n)")
    parents = [0] * n
    parents[order[0]] = order[0]
    for a, b in zip(order, order[1:]):
        parents[b] = a
    return RootedTree(parents)


def path(n: int) -> RootedTree:
    """The identity path ``0 -> 1 -> ... -> n-1`` (root 0)."""
    validate_node_count(n)
    return path_from_order(list(range(n)))


def star(n: int, center: int = 0) -> RootedTree:
    """A star: every node other than ``center`` is a child of ``center``.

    The root broadcasts in a single round, so stars are the adversary's
    worst choice -- useful as a fast baseline and in tests.
    """
    validate_node_count(n)
    parents = [center] * n
    parents[center] = center
    return RootedTree(parents)


def broom(n: int, handle_length: int, root: int = 0) -> RootedTree:
    """A broom: a path of ``handle_length`` nodes ending in a star.

    Nodes ``root = h_0 -> h_1 -> ... -> h_{handle_length-1}`` form the
    handle (using the smallest available labels in order) and every
    remaining node hangs off the last handle node.

    ``handle_length = n`` degenerates to a path, ``handle_length = 1`` to a
    star.
    """
    validate_node_count(n)
    if not 1 <= handle_length <= n:
        raise InvalidTreeError(
            f"handle_length must be in [1, n]; got {handle_length} for n={n}"
        )
    labels = [root] + [v for v in range(n) if v != root]
    handle = labels[:handle_length]
    bristles = labels[handle_length:]
    parents = [0] * n
    parents[root] = root
    for a, b in zip(handle, handle[1:]):
        parents[b] = a
    for v in bristles:
        parents[v] = handle[-1]
    return RootedTree(parents)


def caterpillar(n: int, spine: Sequence[int]) -> RootedTree:
    """A caterpillar: a directed spine path with all other nodes as legs.

    Legs are distributed round-robin along the spine, so every spine node
    gets roughly the same number of legs.
    """
    validate_node_count(n)
    spine = list(spine)
    if len(set(spine)) != len(spine) or not spine:
        raise InvalidTreeError("spine must be a non-empty sequence of distinct nodes")
    for v in spine:
        if not 0 <= v < n:
            raise InvalidTreeError(f"spine node {v} out of range for n={n}")
    legs = [v for v in range(n) if v not in set(spine)]
    parents = [0] * n
    parents[spine[0]] = spine[0]
    for a, b in zip(spine, spine[1:]):
        parents[b] = a
    for i, v in enumerate(legs):
        parents[v] = spine[i % len(spine)]
    return RootedTree(parents)


def spider(n: int, legs: int, center: int = 0) -> RootedTree:
    """A spider: ``legs`` directed paths of near-equal length from ``center``."""
    validate_node_count(n)
    if legs < 1:
        raise InvalidTreeError(f"a spider needs at least one leg, got {legs}")
    others = [v for v in range(n) if v != center]
    legs = min(legs, max(1, len(others)))
    parents = [0] * n
    parents[center] = center
    chains: List[List[int]] = [[] for _ in range(legs)]
    for i, v in enumerate(others):
        chains[i % legs].append(v)
    for chain in chains:
        prev = center
        for v in chain:
            parents[v] = prev
            prev = v
    return RootedTree(parents)


def binary_tree(n: int) -> RootedTree:
    """The complete binary tree in heap order (node ``v`` has parent
    ``(v-1)//2``)."""
    validate_node_count(n)
    parents = [max(0, (v - 1) // 2) for v in range(n)]
    parents[0] = 0
    return RootedTree(parents)


def rotated_path(n: int, start: int, backward: bool = False) -> RootedTree:
    """The cyclic path ``start, start±1, ..., (mod n)`` as a rooted tree."""
    validate_node_count(n)
    step = -1 if backward else 1
    return path_from_order([(start + step * i) % n for i in range(n)])


def random_tree(
    n: int,
    rng: Optional[np.random.Generator] = None,
    root: Optional[int] = None,
) -> RootedTree:
    """A uniformly random rooted labeled tree.

    Uniformity over all ``n^(n-1)`` rooted labeled trees follows from
    pairing a uniform Prüfer sequence (uniform over the ``n^(n-2)``
    unrooted labeled trees) with an independent uniform root choice.
    """
    validate_node_count(n)
    rng = rng if rng is not None else np.random.default_rng()
    if n == 1:
        return RootedTree([0])
    if root is None:
        root = int(rng.integers(n))
    if n == 2:
        parents = [root, root]
        return RootedTree(parents)
    from repro.trees.prufer import from_prufer

    seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
    return from_prufer(seq, n=n, root=root)
