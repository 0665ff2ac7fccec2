"""Stalling analysis: who fails to grow, and why.

Executable forms of the two structural lemmas (derived in
:mod:`repro.trees.subtree`):

* **Lemma R** -- the chosen root always gains while unfinished;
* **Lemma S** -- node ``x`` stalls iff its reach set is a union of
  complete subtrees of the round's tree.

:func:`verify_lemmas_on_round` checks both on a concrete (state, tree)
pair using *independent* implementations (set-based closure vs the
matrix-based gain computation); the property-test suite drives it with
random states and trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.core.state import BroadcastState
from repro.trees.rooted_tree import RootedTree
from repro.trees.subtree import (
    is_union_of_subtrees,
    is_union_of_subtrees_by_decomposition,
    stalled_nodes,
)


@dataclass(frozen=True)
class StallReport:
    """Stalling structure of one prospective round.

    Attributes
    ----------
    round_index: the round the tree would be played in.
    root: the tree's root (always in ``growing`` unless finished).
    stalled: nodes whose reach sets would not grow.
    growing: complement of ``stalled``.
    stall_fraction: ``|stalled| / n`` (the adversary wants this high).
    """

    round_index: int
    root: int
    stalled: FrozenSet[int]
    growing: FrozenSet[int]
    stall_fraction: float


def stall_report(state: BroadcastState, tree: RootedTree) -> StallReport:
    """Compute the stalling structure of playing ``tree`` from ``state``."""
    st = stalled_nodes(tree, state.reach_matrix_view())
    growing = frozenset(range(state.n)) - st
    return StallReport(
        round_index=state.round_index + 1,
        root=tree.root,
        stalled=st,
        growing=growing,
        stall_fraction=len(st) / state.n,
    )


def verify_lemmas_on_round(
    state: BroadcastState, tree: RootedTree
) -> Tuple[bool, bool, bool]:
    """Check Lemmas R and S (both implementations) on one configuration.

    Returns
    -------
    (lemma_r, lemma_s_closure, lemma_s_decomposition):
        * ``lemma_r`` -- the root gains or has already finished;
        * ``lemma_s_closure`` -- for every node, the matrix-based stall
          decision equals the closure-based union-of-subtrees test;
        * ``lemma_s_decomposition`` -- same against the independent
          peel-maximal-subtrees implementation.
    """
    reach = state.reach_matrix_view()
    st = stalled_nodes(tree, reach)
    root_row_full = bool(reach[tree.root].all())
    lemma_r = root_row_full or (tree.root not in st)

    lemma_s_closure = True
    lemma_s_decomposition = True
    for x in range(state.n):
        r_x = state.reach_set(x)
        stalled_matrix = x in st
        stalled_closure = is_union_of_subtrees(tree, r_x)
        stalled_decomp = is_union_of_subtrees_by_decomposition(tree, r_x)
        if stalled_matrix != stalled_closure:
            lemma_s_closure = False
        if stalled_matrix != stalled_decomp:
            lemma_s_decomposition = False
    return lemma_r, lemma_s_closure, lemma_s_decomposition
