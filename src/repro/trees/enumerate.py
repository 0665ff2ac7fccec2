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

Enumeration goes through all parent arrays directly (each node picks a
parent or is the root), with a union-find acyclicity filter; this is simpler
and faster than decoding all Prüfer/root pairs for the sizes we care about.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterator, List

from repro.errors import SearchBudgetExceeded
from repro.types import validate_node_count

#: Enumerating beyond this size is (deliberately) refused: n^(n-1) explodes.
MAX_ENUMERABLE_N = 8


def count_rooted_trees(n: int) -> int:
    """Number of rooted labeled trees on ``n`` nodes: ``n^(n-1)``."""
    validate_node_count(n)
    return n ** (n - 1)


def _is_tree_parent_array(parents: tuple, n: int) -> bool:
    """Fast check that a parent tuple encodes a rooted tree.

    Exactly one fixed point (the root) and no cycles elsewhere.
    """
    root = -1
    for v in range(n):
        if parents[v] == v:
            if root != -1:
                return False
            root = v
    if root == -1:
        return False
    # Follow parent pointers; every node must reach the root.
    state = [0] * n  # 0 unvisited, 1 on path, 2 ok
    state[root] = 2
    for start in range(n):
        if state[start]:
            continue
        path: List[int] = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = parents[v]
        if state[v] == 1:
            return False
        for u in path:
            state[u] = 2
    return True


def all_parent_arrays(n: int) -> Iterator[tuple]:
    """Yield the raw parent tuples of all rooted trees on ``n`` nodes.

    Raw tuples rather than :class:`RootedTree` objects, for hot loops such
    as the exact solver's successor generation.
    """
    validate_node_count(n)
    if n > MAX_ENUMERABLE_N:
        raise SearchBudgetExceeded(
            f"refusing to enumerate {count_rooted_trees(n)} parent arrays "
            f"(n={n} > {MAX_ENUMERABLE_N})"
        )
    for parents in iter_product(range(n), repeat=n):
        if _is_tree_parent_array(parents, n):
            yield parents
