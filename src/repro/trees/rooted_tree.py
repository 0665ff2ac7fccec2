"""Immutable rooted labeled trees with parent-pointer representation.

A :class:`RootedTree` over ``n`` nodes stores ``parents``, a tuple where
``parents[v]`` is the parent of node ``v`` and the root points to itself.
Edges are directed **parent -> child**: this is the orientation under which a
static rooted tree broadcasts from the root in ``depth`` rounds, matching the
paper's footnote ("the rooted tree ensures broadcast in a finite number of
rounds") and its static-path example with broadcast time ``n - 1``.

Self-loops required by the model (Section 2) are *not* stored here; the
broadcast state composition adds them implicitly (information is never
forgotten).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import InvalidTreeError
from repro.types import Edge, ParentArray, validate_node_count


class RootedTree:
    """A rooted labeled tree over nodes ``0 .. n-1``.

    Parameters
    ----------
    parents:
        Sequence of length ``n`` where ``parents[v]`` is the parent of node
        ``v``.  The root must satisfy ``parents[root] == root``.  ``-1`` is
        accepted as an alias for "self" to ease construction from external
        formats.

    Raises
    ------
    InvalidTreeError
        If the array does not describe a single tree spanning all nodes
        (multiple roots, cycles, out-of-range entries, ...).
    """

    __slots__ = ("_parents", "_root", "_n", "__dict__")

    def __init__(self, parents: Sequence[int]) -> None:
        n = validate_node_count(len(parents))
        normalized: List[int] = []
        roots: List[int] = []
        for v, p in enumerate(parents):
            p = int(p)
            if p == -1:
                p = v
            if not 0 <= p < n:
                raise InvalidTreeError(
                    f"parent of node {v} is {p}, outside range(0, {n})"
                )
            if p == v:
                roots.append(v)
            normalized.append(p)
        if len(roots) != 1:
            raise InvalidTreeError(
                f"a rooted tree needs exactly one root, found {len(roots)}: {roots}"
            )
        self._parents: ParentArray = tuple(normalized)
        self._root: int = roots[0]
        self._n: int = n
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Verify every node reaches the root by following parent pointers."""
        n = self._n
        state = [0] * n  # 0 = unvisited, 1 = on current path, 2 = done
        state[self._root] = 2
        for start in range(n):
            if state[start]:
                continue
            path: List[int] = []
            v = start
            while state[v] == 0:
                state[v] = 1
                path.append(v)
                v = self._parents[v]
            if state[v] == 1:
                raise InvalidTreeError(
                    f"cycle detected through node {v}; not a rooted tree"
                )
            for u in path:
                state[u] = 2

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def root(self) -> int:
        """The unique root node."""
        return self._root

    @property
    def parents(self) -> ParentArray:
        """Parent array; ``parents[root] == root``."""
        return self._parents

    def parent(self, v: int) -> int:
        """Parent of ``v`` (the root is its own parent)."""
        return self._parents[v]

    @cached_property
    def children_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """``children_lists[v]`` = sorted tuple of children of ``v``."""
        buckets: List[List[int]] = [[] for _ in range(self._n)]
        for v, p in enumerate(self._parents):
            if v != p:
                buckets[p].append(v)
        return tuple(tuple(sorted(b)) for b in buckets)

    def children(self, v: int) -> Tuple[int, ...]:
        """Children of node ``v``."""
        return self.children_lists[v]

    def edges(self) -> Tuple[Edge, ...]:
        """All ``(parent, child)`` edges, excluding self-loops."""
        return tuple(
            (p, v) for v, p in enumerate(self._parents) if v != p
        )

    @cached_property
    def leaves(self) -> Tuple[int, ...]:
        """Nodes without children.

        Note that by this definition a single-node tree's root is a leaf.
        """
        kids = self.children_lists
        return tuple(v for v in range(self._n) if not kids[v])

    @cached_property
    def depths(self) -> Tuple[int, ...]:
        """``depths[v]`` = distance from the root to ``v``."""
        depth = [-1] * self._n
        depth[self._root] = 0
        order = self.topological_order()
        for v in order:
            if v == self._root:
                continue
            depth[v] = depth[self._parents[v]] + 1
        return tuple(depth)

    @cached_property
    def height(self) -> int:
        """Maximum depth over all nodes (0 for a single node)."""
        return max(self.depths)

    def degree(self, v: int) -> int:
        """Number of children of ``v`` (out-degree, loops excluded)."""
        return len(self.children_lists[v])

    # ------------------------------------------------------------------
    # Traversals and structural queries
    # ------------------------------------------------------------------

    def topological_order(self) -> Tuple[int, ...]:
        """Nodes ordered root-first (every parent precedes its children)."""
        order: List[int] = [self._root]
        kids = self.children_lists
        i = 0
        while i < len(order):
            order.extend(kids[order[i]])
            i += 1
        return tuple(order)

    def subtree_nodes(self, v: int) -> frozenset:
        """The set of nodes in the complete subtree rooted at ``v``."""
        stack = [v]
        seen = set()
        kids = self.children_lists
        while stack:
            u = stack.pop()
            seen.add(u)
            stack.extend(kids[u])
        return frozenset(seen)

    def is_path(self) -> bool:
        """True if the tree is a directed path (every node <= 1 child)."""
        return all(len(c) <= 1 for c in self.children_lists)

    def is_star(self) -> bool:
        """True if every non-root node is a child of the root."""
        return all(
            p == self._root for v, p in enumerate(self._parents) if v != self._root
        )

    def leaf_count(self) -> int:
        """Number of leaves (see :attr:`leaves`)."""
        return len(self.leaves)

    def inner_count(self) -> int:
        """Number of inner (non-leaf) nodes."""
        return self._n - self.leaf_count()

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def to_adjacency(self, include_self_loops: bool = True) -> np.ndarray:
        """Boolean adjacency matrix ``A[x, y] = (x -> y is an edge)``.

        With ``include_self_loops=True`` (default) the matrix is the round
        graph of the model: tree edges plus the diagonal.
        """
        a = np.zeros((self._n, self._n), dtype=np.bool_)
        for p, c in self.edges():
            a[p, c] = True
        if include_self_loops:
            np.fill_diagonal(a, True)
        return a

    @cached_property
    def _parent_np(self) -> np.ndarray:
        arr = np.asarray(self._parents, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def parent_array_numpy(self) -> np.ndarray:
        """Parent array as an ``int64`` numpy vector (root points to itself).

        The array is cached and read-only (the tree is immutable); copy it
        if you need to mutate.
        """
        return self._parent_np

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self._parents == other._parents

    def __hash__(self) -> int:
        return hash(self._parents)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __repr__(self) -> str:
        return f"RootedTree(parents={list(self._parents)}, root={self._root})"

    def describe(self) -> str:
        """A short human-readable structural summary."""
        return (
            f"RootedTree(n={self._n}, root={self._root}, "
            f"height={self.height}, leaves={self.leaf_count()})"
        )
