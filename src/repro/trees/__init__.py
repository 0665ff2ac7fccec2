"""Rooted-tree substrate.

The adversary of the paper picks, in every round, a rooted labeled tree over
``[n]`` with edges directed parent -> child (a self-loop at every node is
added implicitly by the broadcast model, not stored here).

This subpackage provides:

* :class:`~repro.trees.rooted_tree.RootedTree` -- immutable parent-array
  representation with validation and structural queries;
* :mod:`~repro.trees.generators` -- named tree families (paths, stars,
  brooms, caterpillars, spiders, binary trees, random trees);
* :mod:`~repro.trees.prufer` -- Prüfer decoding of labeled trees;
* :mod:`~repro.trees.enumerate` -- exhaustive enumeration of all ``n^(n-1)``
  rooted labeled trees for small ``n`` (used by the exact game solver);
* :mod:`~repro.trees.canonical` -- coarse shape families for reports;
* :mod:`~repro.trees.compile` -- memoized packed parent schedules for the
  executors' compiled fast path;
* :mod:`~repro.trees.subtree` -- union-of-subtrees tests used by
  the stalling characterization (Lemma S, derived in that module's
  docstring).
"""

from repro.trees.rooted_tree import RootedTree
from repro.trees.generators import (
    binary_tree,
    broom,
    caterpillar,
    path,
    path_from_order,
    random_tree,
    rotated_path,
    spider,
    star,
)
from repro.trees.prufer import from_prufer
from repro.trees.enumerate import (
    count_rooted_trees,
)
from repro.trees.compile import (
    parent_row,
    sequence_schedule,
    static_schedule,
)
from repro.trees.subtree import (
    is_union_of_subtrees,
    stalled_nodes,
)

__all__ = [
    "RootedTree",
    "path",
    "path_from_order",
    "rotated_path",
    "star",
    "broom",
    "caterpillar",
    "spider",
    "binary_tree",
    "random_tree",
    "from_prufer",
    "count_rooted_trees",
    "parent_row",
    "static_schedule",
    "sequence_schedule",
    "is_union_of_subtrees",
    "stalled_nodes",
]
