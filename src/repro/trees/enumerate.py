"""Exhaustive enumeration of rooted labeled trees for small ``n``.

The adversary's per-round choice set is ``T_n``, the set of all rooted
labeled trees over ``[n]`` -- there are ``n^(n-1)`` of them (Cayley).  The
exact game solver (``repro.adversaries.exact``) iterates over this set at
every state, so enumeration is only practical for small ``n``:

====  ==========
 n    |T_n|
====  ==========
 2    2
 3    9
 4    64
 5    625
 6    7776
 7    117649
====  ==========

Enumeration builds all ``n^n`` parent arrays at once (each node picks a
parent or is the root) as one ``np.indices`` table in
``itertools.product`` order, keeps the rows with exactly one fixed point
(the root), and then pointer-doubles: after ``ceil(log2 n)`` squarings of
the parent map every node of a tree has landed on the root, while a node on
a cycle never lands on a fixed point.  The rows where every node lands on a
fixed point are the trees, in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SearchBudgetExceeded
from repro.types import validate_node_count

#: Enumerating beyond this size is (deliberately) refused: n^(n-1) explodes.
MAX_ENUMERABLE_N = 8


def count_rooted_trees(n: int) -> int:
    """Number of rooted labeled trees on ``n`` nodes: ``n^(n-1)``."""
    validate_node_count(n)
    return n ** (n - 1)


def all_parent_arrays(n: int) -> np.ndarray:
    """The ``(n^(n-1), n)`` ``uint8`` parent table of all rooted trees on ``n`` nodes.

    Row ``t`` is the ``t``-th tree in ``itertools.product(range(n),
    repeat=n)`` order (a root is its own parent).  A raw table rather than
    :class:`RootedTree` objects, for the exact solver's tree tables.
    """
    validate_node_count(n)
    if n > MAX_ENUMERABLE_N:
        raise SearchBudgetExceeded(
            f"refusing to enumerate {count_rooted_trees(n)} parent arrays "
            f"(n={n} > {MAX_ENUMERABLE_N})"
        )
    table = np.indices((n,) * n, dtype=np.uint8).reshape(n, -1).T
    table = table[(table == np.arange(n, dtype=np.uint8)).sum(axis=1) == 1]
    ancestors = table
    for _ in range((n - 1).bit_length()):  # 2^k >= n - 1 >= every depth
        ancestors = np.take_along_axis(ancestors, ancestors, axis=1)
    landed = np.take_along_axis(table, ancestors, axis=1) == ancestors
    return table[landed.all(axis=1)]
