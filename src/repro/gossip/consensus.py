"""Heard-of-model reductions: rooted trees vs nonsplit graphs.

Charron-Bost, Függer, Nowak [1] prove that ``n - 1`` rounds of rooted
trees can simulate one round of a nonsplit graph; composing any ``n - 1``
tree round graphs therefore yields a nonsplit graph (Lemma N).  Combined
with the ``O(log log n)`` nonsplit radius of Függer, Nowak, Winkler [9],
this gave the pre-paper ``O(n log log n)`` upper bound.

This module makes the reduction executable: block a tree sequence into
``n - 1``-round windows, compose each window, and check nonsplitness.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.product import is_nonsplit, product_of_trees
from repro.errors import DimensionMismatchError
from repro.trees.rooted_tree import RootedTree


def simulate_nonsplit_rounds(
    trees: Sequence[RootedTree], n: int
) -> List[np.ndarray]:
    """Compose consecutive ``n - 1``-round blocks of a tree sequence.

    Returns one adjacency matrix per complete block (a trailing partial
    block is ignored).  By [1], every returned matrix is nonsplit --
    verified by property tests via :func:`blocks_are_nonsplit`.
    """
    if n < 2:
        raise DimensionMismatchError("nonsplit simulation needs n >= 2")
    block_len = n - 1
    blocks: List[np.ndarray] = []
    for start in range(0, len(trees) - block_len + 1, block_len):
        window = list(trees[start : start + block_len])
        blocks.append(product_of_trees(window))
    return blocks


def blocks_are_nonsplit(trees: Sequence[RootedTree], n: int) -> bool:
    """True iff every complete ``n - 1``-round block composes nonsplit."""
    return all(is_nonsplit(b) for b in simulate_nonsplit_rounds(trees, n))
