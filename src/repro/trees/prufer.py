"""Prüfer-sequence decoding of labeled trees.

A Prüfer sequence of length ``n - 2`` over alphabet ``[n]`` is in bijection
with the ``n^(n-2)`` *unrooted* labeled trees on ``n`` nodes (Cayley's
formula).  Pairing a sequence with a root choice gives all ``n^(n-1)``
rooted labeled trees, which is exactly the adversary's per-round choice set
``T_n`` -- the uniform sampler (:func:`repro.trees.generators.random_tree`)
is built on this decoder.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

from repro.errors import InvalidTreeError
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node, validate_node_count


def from_prufer(sequence: Sequence[int], n: int, root: int = 0) -> RootedTree:
    """Decode a Prüfer ``sequence`` into a rooted tree on ``n`` nodes.

    The standard decoding produces an undirected tree; the result is then
    oriented away from ``root``.

    Parameters
    ----------
    sequence:
        ``n - 2`` integers in ``range(n)`` (empty for ``n <= 2``).
    n:
        Number of nodes; must satisfy ``len(sequence) == max(n - 2, 0)``.
    root:
        The node to orient the tree from.
    """
    validate_node_count(n)
    validate_node(root, n)
    if len(sequence) != max(n - 2, 0):
        raise InvalidTreeError(
            f"Prüfer sequence for n={n} must have length {max(n - 2, 0)}, "
            f"got {len(sequence)}"
        )
    if n == 1:
        return RootedTree([0])
    if n == 2:
        parents = [root, root]
        return RootedTree(parents)
    for x in sequence:
        validate_node(x, n)

    degree = [1] * n
    for x in sequence:
        degree[x] += 1

    undirected: List[List[int]] = [[] for _ in range(n)]
    leaf_heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaf_heap)
    for x in sequence:
        leaf = heapq.heappop(leaf_heap)
        undirected[leaf].append(x)
        undirected[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaf_heap, x)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    undirected[u].append(v)
    undirected[v].append(u)

    parents = [-1] * n
    parents[root] = root
    stack = [root]
    seen = [False] * n
    seen[root] = True
    while stack:
        a = stack.pop()
        for b in undirected[a]:
            if not seen[b]:
                seen[b] = True
                parents[b] = a
                stack.append(b)
    return RootedTree(parents)
