"""Exact broadcast game values by exhaustive level-synchronous search.

Definition 2.3's ``t*(T_n)`` is the value of a single-player maximization
game: from the identity product graph, the adversary repeatedly picks any
rooted tree; the game ends when some row fills.  Because round graphs carry
self-loops, states grow monotonically and every tree strictly grows the
root's row (Lemma R), so the state space is a finite DAG.

The search expands it one *level* (round) at a time.  Level 0 is the start
state; level ``k + 1`` is the ⊆-minimal antichain of the unfinished
successors of level ``k``, up to relabeling.  This is sound because the
game value is antitone in the state: composing with a tree is monotone, and
a state contained in an unfinished state is unfinished, so every unfinished
state reachable in ``k`` rounds contains a relabeling of some level-``k``
state.  The value is therefore the number of non-empty levels.

Representation and optimizations
--------------------------------
* A state is a tuple of ``n`` row bitmasks (``rows[x]`` bit ``y`` set iff
  ``x`` reached ``y``).  Inside the search it is *packed* into one
  ``uint64``, one byte per row (``n <= 8``), row 0 most significant, so
  integer order of packed states equals tuple order and ``a ⊆ b`` is
  ``a & ~b == 0``.  Packing is a byte copy and a view, and "some row is
  full" is a zero-byte test on the packed word.
* Composition with a tree is a per-row table lookup: ``tables[t, row]``
  (``uint8``, all trees × all ``2^n`` rows, built by broadcasting over the
  parent arrays) is ``row | {c : parent_t(c) ∈ row}``, which depends on the
  row only.  One round from a block of frontier states is the gather
  ``tables[:, block]``; finished rows are dropped and the rest packed.
* Each block, and then the whole level, is reduced to its ⊆-minimal
  antichain.  Candidates are sorted by popcount; every survivor of the
  lowest remaining popcount level is minimal, and the later candidates are
  tested against that kept block in bounded chunks, so no ``m × m``
  temporary is ever built.  The level sets do not depend on the block size.
* The level's survivors are canonicalized under simultaneous node
  relabeling (the game is label-invariant) and reduced again.  A table of
  every relabeled row, already shifted to its packed position, turns a
  block of canonical keys into one gather over all ``n!`` relabelings and
  a minimum.

Feasibility: |T_n| = n^(n-1) trees per state.  Measured on a 2-vCPU
x86-64 VM (numpy 2.4, CPython 3.11): n = 5 solves in ~0.013 s (353
expanded states; the memoized DFS this replaced memoized 817 states in
~0.18 s); n = 6 solves in ~12 s with a 47 MB peak RSS (t* = 7, 19,001
expanded states in levels of 1, 19, 1359, 7828, 7010, 2769 and 15; the
DFS took ~100 s and 119 MB).  ``benchmarks/BENCH_exact.json`` records
both.  n = 7 (117,649 trees per state) is untried.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations as iter_permutations
from typing import Dict, List, Tuple

import numpy as np

from repro.core.bitset import _popcount
from repro.errors import SearchBudgetExceeded
from repro.obs import trace
from repro.trees.enumerate import MAX_ENUMERABLE_N, all_parent_arrays
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node_count

State = Tuple[int, ...]

#: Largest element count of one block temporary: gathered successor rows,
#: relabeled rows, or one kept-block × candidates domination test.
_BLOCK = 1 << 16

#: The low and the high bit of every byte, for the zero-byte test.
_LOW_BITS = np.uint64(0x0101010101010101)
_HIGH_BITS = np.uint64(0x8080808080808080)


@dataclass
class ExactResult:
    """Outcome of an exact solve.

    Attributes
    ----------
    n: number of processes.
    t_star: the exact game value ``t*(T_n)``.
    states_explored: number of states the level search expanded (the sum
        of ``level_sizes``).
    tree_count: ``|T_n| = n^(n-1)``.
    elapsed_seconds: wall-clock solve time.
    level_sizes: canonical antichain size of each non-empty level; there
        are ``t_star`` of them.
    optimal_trees: an optimal adversary sequence witnessing ``t_star``
        (filled by :meth:`ExactGameSolver.optimal_sequence`).
    """

    n: int
    t_star: int
    states_explored: int
    tree_count: int
    elapsed_seconds: float
    level_sizes: List[int] = field(default_factory=list)
    optimal_trees: List[RootedTree] = field(default_factory=list)


class ExactGameSolver:
    """Exhaustive solver for the dynamic-rooted-tree broadcast game.

    Parameters
    ----------
    n:
        Number of processes (2 .. :data:`MAX_ENUMERABLE_N`; practical
        budgets stop around 6).
    canonicalize:
        Collapse states under node relabeling.  Shrinks the levels by up
        to ``n!`` at the cost of computing canonical keys; worthwhile for
        ``n >= 4``.
    max_states:
        Budget on states expanded by one search; the search stops after
        expanding exactly that many and raises
        :class:`SearchBudgetExceeded`.
    """

    def __init__(
        self,
        n: int,
        canonicalize: bool = True,
        max_states: int = 5_000_000,
    ) -> None:
        validate_node_count(n)
        if n < 2:
            raise ValueError("the game needs at least two processes")
        if n > MAX_ENUMERABLE_N:
            raise SearchBudgetExceeded(
                f"n={n} needs {n}^{n-1} trees per state; max supported is "
                f"{MAX_ENUMERABLE_N}"
            )
        self._n = n
        self._full = (1 << n) - 1
        self._canonicalize = canonicalize
        self._max_states = max_states
        self._parent_arrays = all_parent_arrays(n)
        # Bit offset of each row's byte in a packed state: row 0 most
        # significant.
        self._shifts = np.arange(n - 1, -1, -1, dtype=np.uint64) * np.uint64(8)
        # XOR with this zeroes exactly the full row bytes (unused bytes -> 0xFF).
        self._full_bytes = np.uint64(
            int.from_bytes(bytes([0xFF] * (8 - n) + [self._full] * n), "big")
        )
        self._tree_tables = _build_tree_tables(self._parent_arrays, n)
        if canonicalize:
            self._perm_tables = _build_perm_tables(n, self._shifts)
            # Row of the perm tables for row x holding value r.
            self._perm_offsets = np.arange(n) << n
        # Game value by the start state's canonical packed key.
        self._values: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------

    def initial_state(self) -> State:
        """The identity state: each process knows only itself."""
        return tuple(1 << x for x in range(self._n))

    def is_finished(self, state: State) -> bool:
        """True iff some row is full (broadcast complete)."""
        full = self._full
        return any(row == full for row in state)

    def apply_tree_index(self, state: State, tree_index: int) -> State:
        """Compose ``state`` with the ``tree_index``-th enumerated tree."""
        return tuple(self._tree_tables[tree_index, list(state)].tolist())

    def successors(self, state: State) -> List[State]:
        """Deduplicated, ⊆-minimal successor states of one round."""
        return self._unpack(self._antichain(self._pack(self._tree_tables[:, state])))

    def canonical(self, state: State) -> State:
        """Lexicographically minimal relabeling of ``state``."""
        (key,) = self._unpack(self._keys(self._pack(np.array([state]))))
        return key

    # ------------------------------------------------------------------
    # Batched steps on packed states
    # ------------------------------------------------------------------

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        """``(..., n)`` row bitmasks -> packed ``uint64`` states."""
        buf = np.zeros(rows.shape[:-1] + (8,), dtype=np.uint8)
        buf[..., :self._n] = rows[..., ::-1]
        return buf.view("<u8")[..., 0]

    def _rows(self, packed: np.ndarray) -> np.ndarray:
        """Packed states -> ``(m, n)`` row bitmasks (``intp``)."""
        return ((packed[:, None] >> self._shifts) & np.uint64(self._full)).astype(np.intp)

    def _unpack(self, packed: np.ndarray) -> List[State]:
        return list(map(tuple, self._rows(packed).tolist()))

    def _finished(self, packed: np.ndarray) -> np.ndarray:
        """Whether each packed state has a full row, i.e. a zero byte after XOR."""
        x = packed ^ self._full_bytes
        return ((x - _LOW_BITS) & ~x & _HIGH_BITS) != 0

    def _antichain(self, packed: np.ndarray) -> np.ndarray:
        """The distinct ⊆-minimal packed states, by popcount then value."""
        packed = np.sort(packed)
        packed = np.concatenate((packed[:1], packed[1:][packed[1:] != packed[:-1]]))
        pops = _popcount(packed)
        order = np.argsort(pops, kind="stable")
        return packed[order[_minimal_sorted(packed[order], pops[order])]]

    def _keys(self, packed: np.ndarray) -> np.ndarray:
        """Canonical packed key of each packed state (identity if disabled)."""
        if not self._canonicalize:
            return packed
        out = np.empty(len(packed), dtype=np.uint64)
        step = max(1, _BLOCK // (self._perm_tables.shape[1] * self._n))
        for lo in range(0, len(packed), step):
            columns = self._perm_offsets + self._rows(packed[lo:lo + step])
            relabeled = np.bitwise_or.reduce(self._perm_tables[columns], axis=1)
            out[lo:lo + step] = relabeled.min(axis=1)
        return out

    def _expand(self, block: np.ndarray) -> np.ndarray:
        """Packed ⊆-minimal antichain of the unfinished successors of a block."""
        packed = self._pack(self._tree_tables[:, self._rows(block)]).ravel()
        return self._antichain(packed[~self._finished(packed)])

    def _next_level(self, frontier: np.ndarray) -> np.ndarray:
        """The canonical ⊆-minimal antichain of a level's successors."""
        step = max(1, _BLOCK // (len(self._tree_tables) * self._n))
        blocks = [
            self._expand(frontier[lo:lo + step])
            for lo in range(0, len(frontier), step)
        ]
        survivors = self._antichain(np.concatenate(blocks))
        return self._antichain(self._keys(survivors))

    def _search(self, state: State) -> List[int]:
        """Sizes of the non-empty levels from an unfinished ``state``."""
        frontier = self._keys(self._pack(np.array([state])))
        sizes: List[int] = []
        trees = len(self._tree_tables)
        while len(frontier):
            budget = self._max_states - sum(sizes)
            if len(frontier) > budget:
                if budget:  # expand exactly max_states states, then stop
                    self._next_level(frontier[:budget])
                raise SearchBudgetExceeded(
                    f"exact solver exceeded max_states={self._max_states}",
                    self._max_states,
                )
            sizes.append(len(frontier))
            with trace.span(
                "exact.level", frontier=len(frontier), generated=len(frontier) * trees
            ) as sp:
                frontier = self._next_level(frontier)
                sp.set_attrs(kept=len(frontier))
        return sizes

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def value(self, state: State) -> int:
        """Exact number of further rounds the adversary can force.

        0 when ``state`` already contains a broadcaster.
        """
        if self.is_finished(state):
            return 0
        key = int(self._keys(self._pack(np.array([state])))[0])
        if key not in self._values:
            self._values[key] = len(self._search(state))
        return self._values[key]

    def solve(self) -> ExactResult:
        """Compute ``t*(T_n)`` from the identity state."""
        start = time.perf_counter()
        sizes = self._search(self.initial_state())
        elapsed = time.perf_counter() - start
        return ExactResult(
            n=self._n,
            t_star=len(sizes),
            states_explored=sum(sizes),
            tree_count=len(self._parent_arrays),
            elapsed_seconds=elapsed,
            level_sizes=sizes,
        )

    def optimal_sequence(self) -> List[RootedTree]:
        """Replay an optimal adversary line from the identity state.

        At each state the lowest-index tree achieving the state's value is
        chosen, so the sequence is deterministic.
        """
        state = self.initial_state()
        remaining = self.value(state)
        seq: List[RootedTree] = []
        while remaining > 0:
            chosen = None
            for i in range(len(self._tree_tables)):
                nxt = self.apply_tree_index(state, i)
                if 1 + self.value(nxt) == remaining:
                    chosen = (i, nxt)
                    break
            if chosen is None:  # pragma: no cover - would indicate a bug
                raise RuntimeError("no tree achieves the game value")
            i, state = chosen
            seq.append(RootedTree(self._parent_arrays[i].tolist()))
            remaining -= 1
        assert self.is_finished(state)
        return seq


def _build_tree_tables(parents: np.ndarray, n: int) -> np.ndarray:
    """``tables[t, row] = row | {c : parents[t, c] ∈ row}`` over all rows.

    ``parents`` is the ``(trees, n)`` parent-array matrix (a root is its own
    parent); the result is ``(trees, 2^n)`` ``uint8``.
    """
    rows = np.arange(1 << n, dtype=np.uint8)  # n <= MAX_ENUMERABLE_N = 8
    bits = (rows[:, None] >> np.arange(n, dtype=rows.dtype)) & 1  # (2^n, n)
    tables = np.repeat(rows[None, :], len(parents), axis=0)
    for c in range(n):
        joins = bits[:, parents[:, c]].T  # (trees, 2^n): parent_t(c) ∈ row
        joins[parents[:, c] == c] = 0
        tables |= joins << c
    return tables


def _build_perm_tables(n: int, shifts: np.ndarray) -> np.ndarray:
    """Packed contribution of row ``x`` holding ``r`` under each relabeling.

    Relabeling a state by π sets ``new_rows[π[x]] = bitperm_π(rows[x])``,
    where ``bitperm_π`` moves bit ``y`` to bit ``π[y]``.  The result is the
    ``(n · 2^n, n!)`` ``uint64`` matrix whose row ``x · 2^n + r`` holds
    ``bitperm_π(r) << shifts[π[x]]``, so OR-ing the ``n`` rows a state
    selects packs each relabeled state.
    """
    perms = np.array(list(iter_permutations(range(n))), dtype=np.intp)
    rows = np.arange(1 << n, dtype=np.uint64)
    bits = (rows[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    moved = (bits[None, :, :] << perms[:, None, :].astype(np.uint64)).sum(axis=2)
    placed = moved[:, None, :] << shifts[perms][:, :, None]  # (n!, n, 2^n)
    return np.ascontiguousarray(placed.reshape(len(perms), n << n).T)


def _minimal_sorted(packed: np.ndarray, pops: np.ndarray) -> np.ndarray:
    """Positions of the ⊆-minimal entries among distinct packed states.

    ``packed`` must be sorted by popcount ``pops`` (ascending).  A state can
    only be contained in one with more bits, so every survivor of the lowest
    remaining popcount level is minimal; it then filters the later levels.
    """
    index = np.arange(len(packed))
    kept = [index[:0]]
    while len(packed):
        cut = int(np.searchsorted(pops, pops[0], side="right"))
        kept.append(index[:cut])
        level = packed[:cut]
        packed, pops, index = packed[cut:], pops[cut:], index[cut:]
        if len(packed):
            free = ~_dominated(level, packed)
            packed, pops, index = packed[free], pops[free], index[free]
    return np.concatenate(kept)


def _dominated(kept: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``out[j]`` iff some packed ``kept`` state is contained in candidate j.

    Tested in chunks of at most ``_BLOCK`` pairs (or one candidate against
    every kept state), never one ``len(kept) × len(candidates)`` block.
    """
    out = np.empty(len(candidates), dtype=bool)
    step = max(1, _BLOCK // len(kept))
    for lo in range(0, len(candidates), step):
        chunk = ~candidates[lo:lo + step]
        out[lo:lo + step] = ((kept[:, None] & chunk) == 0).any(axis=0)
    return out
