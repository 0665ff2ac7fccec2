"""Coarse shape families of rooted trees, for reporting.

The exact game solver canonicalizes *states* (boolean matrices); trees are
only labelled here by family -- e.g. "which tree *shapes* does an adversary
play?" (the run metrics' shape histogram).
"""

from __future__ import annotations

from repro.trees.rooted_tree import RootedTree


def classify_shape(tree: RootedTree) -> str:
    """Label the tree with the coarse family name used in reports.

    One of ``"singleton"``, ``"path"``, ``"star"``, ``"broom"``,
    ``"caterpillar"``, ``"spider"``, or ``"other"``.  The classification is
    heuristic but deterministic; it exists for adversary-behaviour reports,
    not for correctness-critical logic.
    """
    n = tree.n
    if n == 1:
        return "singleton"
    if tree.is_path():
        return "path"
    if tree.is_star():
        return "star"
    kids = tree.children_lists
    branching = [v for v in range(n) if len(kids[v]) >= 2]
    if len(branching) == 1:
        b = branching[0]
        if all(not kids[c] for c in kids[b]):
            # The single branch point fans into leaves only: broom if the
            # branch point ends a path from the root.
            return "broom"
        if all(_is_chain(tree, c) for c in kids[b]):
            return "spider"
        return "other"
    # Caterpillar: removing all leaves leaves a path.
    inner = [v for v in range(n) if kids[v]]
    if inner and all(
        sum(1 for c in kids[v] if kids[c]) <= 1 for v in inner
    ):
        return "caterpillar"
    return "other"


def _is_chain(tree: RootedTree, v: int) -> bool:
    """True if the subtree under ``v`` is a directed path."""
    while True:
        kids = tree.children(v)
        if not kids:
            return True
        if len(kids) > 1:
            return False
        v = kids[0]
