"""Complete-subtree closure machinery: the stalling characterization.

The paper's matrix-evolution analysis hinges on when a node's reach set can
avoid growing.  With round graph = rooted tree + self-loops and reach set
``R_x`` (row ``x`` of the product graph), composing with tree ``T`` gives

    R'_x = R_x ∪ { child c of T : parent_T(c) ∈ R_x }.

So ``x`` *stalls* (gains nothing) iff ``R_x`` is closed under T's
parent->child edges, i.e. iff ``R_x`` is a **union of complete subtrees** of
``T`` (Lemma S).  Two corollaries follow (the property tests check both):

* the chosen **root always gains** while unfinished (Lemma R): a
  child-closed set containing the root is all of ``[n]``;
* at least one new product-graph edge appears per round (Section 2's
  ``t* <= n^2`` remark) -- the root's row grows.

The functions here are deliberately implemented two independent ways
(closure-based and subtree-decomposition-based) and cross-checked by
property tests.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Set

import numpy as np

from repro.trees.rooted_tree import RootedTree


def is_union_of_subtrees(tree: RootedTree, nodes: AbstractSet[int]) -> bool:
    """True iff ``nodes`` is a union of complete subtrees of ``tree``.

    Implementation: a set is a union of complete subtrees iff it is closed
    under children (if ``v`` is in the set, so is every child of ``v``).
    """
    node_set = set(nodes)
    return all(c in node_set for v in node_set for c in tree.children(v))


def is_union_of_subtrees_by_decomposition(
    tree: RootedTree, nodes: AbstractSet[int]
) -> bool:
    """Independent re-implementation of :func:`is_union_of_subtrees`.

    Greedily peels maximal subtrees: every member whose parent is outside
    the set must root a complete subtree contained in the set.  Kept as a
    separate code path purely for cross-validation in property tests.
    """
    node_set = set(nodes)
    tops = [
        v
        for v in node_set
        if v == tree.root or tree.parent(v) not in node_set
    ]
    covered: Set[int] = set()
    for top in tops:
        sub = tree.subtree_nodes(top)
        if not sub <= node_set:
            return False
        covered |= sub
    return covered == node_set


def stalled_nodes(tree: RootedTree, reach: np.ndarray) -> FrozenSet[int]:
    """Nodes whose reach row would not grow when composing with ``tree``.

    Parameters
    ----------
    tree:
        The round's rooted tree.
    reach:
        Boolean matrix; ``reach[x, y]`` true iff ``x`` has reached ``y``.

    Returns
    -------
    frozenset of nodes ``x`` with ``R'_x == R_x``.  Note a node that has
    already finished (full row) is trivially stalled.
    """
    n = tree.n
    if reach.shape != (n, n):
        raise ValueError(
            f"reach matrix shape {reach.shape} does not match tree over n={n}"
        )
    parent = tree.parent_array_numpy()
    # gain[x, c] is true iff c is a fresh gain for x through edge parent->c.
    gains = reach[:, parent] & ~reach
    # The root's column in reach[:, parent] is reach[:, root] which equals
    # reach[:, root]; gains[x, root] = reach[x, root] & ~reach[x, root] = 0,
    # so the root-parent self-pointer contributes nothing (correct: the only
    # in-edge of the root is its self-loop).
    stalled_mask = ~gains.any(axis=1)
    return frozenset(int(v) for v in np.nonzero(stalled_mask)[0])
