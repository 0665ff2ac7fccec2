"""Product graphs of tree sequences (Definition 2.1 applied repeatedly).

Convenience functions for composing an explicit finite sequence of round
graphs, used by tests, the trace replayer, and the nonsplit reduction
(compose ``n - 1`` trees, check the result is nonsplit).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import matrix as M
from repro.core.backend import BackendLike, get_backend
from repro.errors import DimensionMismatchError
from repro.trees.rooted_tree import RootedTree


def product_of_trees(
    trees: Sequence[RootedTree], backend: BackendLike = None
) -> np.ndarray:
    """Compose a sequence of round graphs (trees + self-loops).

    Uses the selected backend's O(n²)-per-round (or word-parallel) fast
    path; the result is always returned as a dense boolean matrix.
    ``product_of_trees([T1, ..., Tk])`` equals ``G(k)`` when the adversary
    plays exactly those trees.
    """
    if not trees:
        raise DimensionMismatchError("cannot take the product of zero trees")
    bk = get_backend(backend)
    n = trees[0].n
    mat = bk.identity(n)
    for t in trees:
        if t.n != n:
            raise DimensionMismatchError(
                f"tree over {t.n} nodes in a sequence over {n} nodes"
            )
        bk.compose_with_tree_inplace(mat, t.parent_array_numpy())
    return bk.to_dense(mat)


def is_nonsplit(a: np.ndarray) -> bool:
    """True iff every pair of nodes has a common in-neighbor.

    Nonsplit graphs are the pool of the related problem studied by
    Függer, Nowak, Winkler [9]; Charron-Bost, Függer, Nowak [1] show one
    nonsplit round can be simulated by ``n - 1`` rooted-tree rounds, which
    is the bridge to the previous ``O(n log log n)`` bound.  Columns of the
    matrix are heard-of sets: nonsplit ⟺ every two columns intersect.
    """
    a = M.validate_adjacency(a)
    n = a.shape[0]
    cols = a.T.astype(np.bool_)
    # Pairwise column intersection via boolean matmul: (cols @ cols.T)[i, j]
    # is true iff columns i and j share an in-neighbor.
    inter = (cols.astype(np.int32) @ cols.astype(np.int32).T) > 0
    return bool(inter.all())


def split_pairs(a: np.ndarray) -> list:
    """All node pairs *without* a common in-neighbor (empty iff nonsplit)."""
    a = M.validate_adjacency(a)
    n = a.shape[0]
    cols = a.T
    inter = (cols.astype(np.int32) @ cols.astype(np.int32).T) > 0
    return [
        (int(i), int(j))
        for i in range(n)
        for j in range(i + 1, n)
        if not inter[i, j]
    ]
