"""Candidate-tree pools for search-based adversaries.

Searching all ``n^(n-1)`` trees per round is only possible for tiny ``n``
(the exact solver does exactly that).  For larger ``n`` the greedy and beam
adversaries evaluate a *pool* of structured candidates built from the
current state:

* identity / reversed / rotated paths;
* paths sorted by reach size, heard-of size, and missing count (both
  directions);
* runner paths (least-heard-of node at the root);
* **constructive stall trees**: trees built to satisfy Lemma S for the
  heaviest nodes -- each heavy node's reach set is kept closed under the
  tree's parent->child edges wherever the constraints can be met;
* random paths and random trees for diversity.

The pool is deliberately tree-*family* diverse: Lemma S says stalling power
is about aligning complete subtrees with reach sets, and different families
realize different alignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.state import BroadcastState
from repro.trees.generators import random_tree
from repro.trees.generators import path_from_order
from repro.trees.rooted_tree import RootedTree


@dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs for :class:`CandidatePool`.

    Attributes
    ----------
    rotations: number of rotated identity paths to include.
    random_paths: number of random-permutation paths per round.
    random_trees: number of uniform random trees per round.
    stall_targets: how many "heaviest nodes" target-set sizes to try for
        the constructive stall trees (targets of size 1, 2, 4, ... up to
        this many doublings).
    include_sorted_paths: include the reach/heard-of/missing sorted paths.
    include_runner_paths: include least-heard-of-rooted paths.
    seed: RNG seed (the pool re-seeds on ``reset`` for reproducibility).
    """

    rotations: int = 4
    random_paths: int = 6
    random_trees: int = 4
    stall_targets: int = 3
    include_sorted_paths: bool = True
    include_runner_paths: bool = True
    seed: int = 0


class CandidatePool:
    """Build a per-round list of candidate trees from the current state."""

    def __init__(self, n: int, config: Optional[PoolConfig] = None) -> None:
        self._n = n
        self._config = config or PoolConfig()
        self._rng = np.random.default_rng(self._config.seed)

    @property
    def config(self) -> PoolConfig:
        """The pool's configuration (frozen)."""
        return self._config

    def reset(self) -> None:
        """Restore the RNG so repeated runs see identical pools."""
        self._rng = np.random.default_rng(self._config.seed)

    def candidates(self, state: BroadcastState) -> List[RootedTree]:
        """The candidate trees for the next round, deduplicated."""
        n = self._n
        cfg = self._config
        out: List[RootedTree] = []

        identity_order = list(range(n))
        out.append(path_from_order(identity_order))
        out.append(path_from_order(identity_order[::-1]))
        for r in range(1, min(cfg.rotations, max(n - 1, 0)) + 1):
            order = [(r + i) % n for i in range(n)]
            out.append(path_from_order(order))

        rows = state.reach_sizes()
        cols = state.heard_of_sizes()
        if cfg.include_sorted_paths and n > 1:
            for key in (rows, cols, rows + cols):
                asc = sorted(range(n), key=lambda v: (key[v], v))
                out.append(path_from_order(asc))
                out.append(path_from_order(asc[::-1]))

        if cfg.include_runner_paths and n > 1:
            runner = min(range(n), key=lambda v: (cols[v], rows[v], v))
            rest = [v for v in range(n) if v != runner]
            rest.sort(key=lambda v: (rows[v], v))
            out.append(path_from_order([runner] + rest))
            out.append(path_from_order([runner] + rest[::-1]))

        reach = state.reach_matrix_view()
        target = 1
        for _ in range(cfg.stall_targets):
            out.append(stall_tree(reach, heaviest(rows, target), rows))
            target *= 2
            if target > n:
                break

        for _ in range(cfg.random_paths):
            order = [int(v) for v in self._rng.permutation(n)]
            out.append(path_from_order(order))
        for _ in range(cfg.random_trees):
            out.append(random_tree(n, rng=self._rng))

        return _dedupe(out)


def heaviest(rows: np.ndarray, count: int) -> List[int]:
    """The ``count`` nodes with the largest reach sets (unfinished first).

    Finished nodes (full rows) cannot be slowed down and are excluded
    unless nothing else remains.
    """
    n = len(rows)
    unfinished = [v for v in range(n) if rows[v] < n]
    pool = unfinished if unfinished else list(range(n))
    pool.sort(key=lambda v: (-rows[v], v))
    return pool[:count]


def stall_tree(
    reach: np.ndarray,
    protected: Sequence[int],
    rows: Optional[np.ndarray] = None,
) -> RootedTree:
    """Construct a tree that stalls as many ``protected`` nodes as possible.

    A protected node ``x`` stalls iff its reach set is closed under the
    tree's parent->child edges (Lemma S).  Every edge ``(z, c)`` must
    therefore satisfy: for each protected ``x`` with ``z ∈ R_x``, also
    ``c ∈ R_x``.  The builder grows an arborescence greedily, always
    choosing a legal attachment when one exists and otherwise the
    attachment violating the fewest protected constraints.

    The root is chosen *outside* the protected reach sets whenever
    possible: a root inside some ``R_x`` forces its children into ``R_x``,
    which can make the non-members unattachable without violations.  A
    node in no protected reach set can parent anyone, so rooting there
    (smallest reach as tie-break: the forced Lemma R gain lands on the
    least advanced node) keeps the construction unconstrained at the top.
    """
    n = reach.shape[0]
    if rows is None:
        rows = reach.sum(axis=1)
    protected = [int(x) for x in protected]
    # allowed[z] = bitwise AND of R_x over protected x containing z
    # (all-ones when no protected row contains z).
    allowed = np.ones((n, n), dtype=np.bool_)
    for x in protected:
        rx = reach[x]
        members = np.nonzero(rx)[0]
        allowed[members] &= rx

    constraint_count = [
        sum(1 for x in protected if reach[x, v]) for v in range(n)
    ]
    root = min(range(n), key=lambda v: (constraint_count[v], rows[v], v))
    parents = [-1] * n
    parents[root] = root
    attached = [root]
    attached_set = {root}
    remaining = [v for v in range(n) if v != root]
    # Attach easy (fully legal) nodes first; fall back to least-violating.
    while remaining:
        best_pair = None
        best_cost = None
        for c in remaining:
            for z in attached:
                if allowed[z, c]:
                    cost = (0, rows[z], z, c)
                else:
                    violations = sum(
                        1 for x in protected if reach[x, z] and not reach[x, c]
                    )
                    cost = (violations, rows[z], z, c)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_pair = (z, c)
                if cost[0] == 0:
                    break
            else:
                continue
            break
        assert best_pair is not None
        z, c = best_pair
        parents[c] = z
        attached.append(c)
        attached_set.add(c)
        remaining.remove(c)
    return RootedTree(parents)


def _dedupe(trees: List[RootedTree]) -> List[RootedTree]:
    """Stable deduplication by parent array."""
    seen = set()
    out: List[RootedTree] = []
    for t in trees:
        if t.parents not in seen:
            seen.add(t.parents)
            out.append(t)
    return out
