"""Prüfer-sequence decoding of labeled trees.

A Prüfer sequence of length ``n - 2`` over alphabet ``[n]`` is in bijection
with the ``n^(n-2)`` *unrooted* labeled trees on ``n`` nodes (Cayley's
formula).  Pairing a sequence with a root choice gives all ``n^(n-1)``
rooted labeled trees, which is exactly the adversary's per-round choice set
``T_n`` -- the uniform sampler (:func:`repro.trees.generators.random_tree`)
is built on this decoder.

Decoding is the linear-time pointer decoder: a pointer sweeps upward for the
smallest leaf, and a node that just became a leaf below the pointer is
detached next.  Each detached leaf's parent is the sequence entry it was
joined to, and the last leaf joins ``n - 1``, so the tree comes out rooted
at ``n - 1``.  Reversing the parent pointers along the path from ``root`` to
``n - 1`` then re-roots it at ``root``.
"""

from __future__ import annotations

from typing import Sequence

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
    for x in sequence:
        validate_node(x, n)

    degree = [1] * n
    for x in sequence:
        degree[x] += 1

    parents = list(range(n))
    pointer = degree.index(1)
    leaf = pointer
    for x in sequence:
        parents[leaf] = x
        degree[x] -= 1
        if degree[x] == 1 and x < pointer:
            leaf = x
        else:
            pointer = degree.index(1, pointer + 1)
            leaf = pointer
    parents[leaf] = n - 1

    # Re-root at ``root``: reverse the pointers on the path to ``n - 1``.
    child, v = root, root
    while True:
        up = parents[v]
        parents[v] = child
        if up == v:
            break
        child, v = v, up
    return RootedTree(parents)
