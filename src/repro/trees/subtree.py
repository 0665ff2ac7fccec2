"""Complete-subtree closure machinery: the stalling characterization.

The paper's matrix-evolution analysis hinges on when a node's reach set can
avoid growing.  With round graph = rooted tree + self-loops and reach set
``R_x`` (row ``x`` of the product graph), composing with tree ``T`` gives

    R'_x = R_x ∪ { child c of T : parent_T(c) ∈ R_x }.

So ``x`` *stalls* (gains nothing) iff ``R_x`` is closed under T's
parent->child edges, i.e. iff ``R_x`` is a **union of complete subtrees** of
``T`` (Lemma S).  Two corollaries this module also exposes:

* the chosen **root always gains** while unfinished (Lemma R): a
  child-closed set containing the root is all of ``[n]``;
* at least one new product-graph edge appears per round (Section 2's
  ``t* <= n^2`` remark) -- the root's row grows.

The functions here are deliberately implemented two independent ways
(closure-based and subtree-decomposition-based) and cross-checked by
property tests.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, List, Set

import numpy as np

from repro.trees.rooted_tree import RootedTree


def closure_under_children(tree: RootedTree, nodes: Iterable[int]) -> FrozenSet[int]:
    """Smallest superset of ``nodes`` closed under T's parent->child edges.

    Equivalently: the union of the complete subtrees rooted at ``nodes``.
    """
    stack: List[int] = list(nodes)
    seen: Set[int] = set(stack)
    while stack:
        v = stack.pop()
        for c in tree.children(v):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return frozenset(seen)


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


def growing_nodes(tree: RootedTree, reach: np.ndarray) -> FrozenSet[int]:
    """Complement of :func:`stalled_nodes` over ``range(n)``."""
    st = stalled_nodes(tree, reach)
    return frozenset(range(tree.n)) - st


def root_always_gains(tree: RootedTree, reach: np.ndarray) -> bool:
    """Check Lemma R on one configuration.

    Returns True iff the tree's root either already has a full reach row or
    strictly gains when composing with ``tree``.  This must hold for every
    reflexive reach matrix; property tests assert it.
    """
    r = tree.root
    row = reach[r]
    if row.all():
        return True
    return r not in stalled_nodes(tree, reach)


def maximal_stallable_family(tree: RootedTree) -> List[FrozenSet[int]]:
    """All complete subtrees of ``tree``, as the building blocks of
    stallable sets.

    A set is stallable under ``tree`` iff it is a union of members of this
    family; returned in root-first order.
    """
    return [tree.subtree_nodes(v) for v in tree.topological_order()]


def stalling_tree_exists(n: int, reach_row: AbstractSet[int]) -> bool:
    """Can *some* rooted tree stall a node with this reach row?

    A proper subset ``R`` of ``[n]`` containing the node is stallable by any
    tree rooted outside ``R`` whose members' children stay inside ``R`` --
    always constructible unless ``R = [n]``: root the tree at any node
    outside ``R``, hang ``R``'s nodes as a chain below some member of
    ``R``... in fact hanging all of ``R`` as a subtree below the root works.
    Hence the answer is simply ``len(R) < n`` (or trivially True when the
    node has finished and no growth is possible anyway).
    """
    if len(reach_row) >= n:
        return True  # finished row: nothing left to gain, stalled under any tree
    return True  # any proper subset is stallable; kept explicit for readability
