"""Rooted-tree substrate.

The adversary of the paper picks, in every round, a rooted labeled tree over
``[n]`` with edges directed parent -> child (a self-loop at every node is
added implicitly by the broadcast model, not stored here).

This subpackage provides:

* :class:`~repro.trees.rooted_tree.RootedTree` -- immutable parent-array
  representation with validation and structural queries;
* :mod:`~repro.trees.generators` -- named tree families (paths, stars,
  brooms, caterpillars, spiders, binary trees, random trees, k-leaf and
  k-inner-node families);
* :mod:`~repro.trees.prufer` -- Prüfer encoding/decoding of labeled trees;
* :mod:`~repro.trees.enumerate` -- exhaustive enumeration of all ``n^(n-1)``
  rooted labeled trees for small ``n`` (used by the exact game solver);
* :mod:`~repro.trees.canonical` -- AHU canonical forms and isomorphism tests;
* :mod:`~repro.trees.compile` -- memoized packed parent schedules for the
  executors' compiled fast path;
* :mod:`~repro.trees.subtree` -- complete-subtree closure machinery used by
  the stalling characterization (Lemma S, derived in that module's
  docstring).
"""

from repro.trees.rooted_tree import RootedTree
from repro.trees.generators import (
    binary_tree,
    broom,
    caterpillar,
    chain_fan,
    k_inner_tree,
    k_leaf_tree,
    path,
    path_from_order,
    random_tree,
    reversed_path,
    rotated_path,
    spider,
    star,
)
from repro.trees.prufer import from_prufer, to_prufer
from repro.trees.enumerate import (
    all_rooted_trees,
    count_rooted_trees,
    random_tree_uniform,
)
from repro.trees.canonical import ahu_signature, are_isomorphic
from repro.trees.compile import (
    clear_compile_cache,
    compile_cache_info,
    cycle_schedule,
    parent_row,
    sequence_schedule,
    static_schedule,
)
from repro.trees.subtree import (
    closure_under_children,
    is_union_of_subtrees,
    stalled_nodes,
)

__all__ = [
    "RootedTree",
    "path",
    "path_from_order",
    "reversed_path",
    "rotated_path",
    "star",
    "broom",
    "caterpillar",
    "chain_fan",
    "spider",
    "binary_tree",
    "random_tree",
    "k_leaf_tree",
    "k_inner_tree",
    "to_prufer",
    "from_prufer",
    "all_rooted_trees",
    "count_rooted_trees",
    "random_tree_uniform",
    "ahu_signature",
    "are_isomorphic",
    "parent_row",
    "static_schedule",
    "cycle_schedule",
    "sequence_schedule",
    "compile_cache_info",
    "clear_compile_cache",
    "closure_under_children",
    "is_union_of_subtrees",
    "stalled_nodes",
]
