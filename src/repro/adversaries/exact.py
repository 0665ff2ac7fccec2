"""Exact broadcast game values by exhaustive minimax.

Definition 2.3's ``t*(T_n)`` is the value of a single-player maximization
game: from the identity product graph, the adversary repeatedly picks any
rooted tree; the game ends when some row fills.  Because round graphs carry
self-loops, states grow monotonically and every tree strictly grows the
root's row (Lemma R), so the state space is a finite DAG and plain memoized
DFS computes the exact value.

Representation and optimizations
--------------------------------
* A state is a tuple of ``n`` row bitmasks (``rows[x]`` bit ``y`` set iff
  ``x`` reached ``y``).  Inside a step it is *packed* into one ``uint64``
  of ``n² <= 64`` bits, row 0 most significant, so integer order of packed
  states equals tuple order and ``a ⊆ b`` is ``a & ~b == 0``.
* Composition with a tree is a per-row table lookup: ``tables[t, row]``
  (``uint8``, all trees × all ``2^n`` rows, built by broadcasting over the
  parent arrays) is ``row | {c : parent_t(c) ∈ row}``, which depends on the
  row only.  One round from a state is the gather ``tables[:, state]``,
  packed, then deduplicated with ``np.unique``.
* Successors are reduced to their ⊆-minimal antichain: the game value is
  antitone in the state (more edges can only finish sooner), so dominated
  successors are pruned.  Candidates are sorted by popcount; every
  survivor of the lowest remaining popcount level is minimal, and the
  later candidates are tested against that kept block in bounded chunks,
  so no ``m × m`` temporary is ever built.
* Memoization keys are canonicalized under simultaneous node relabeling
  (the game is label-invariant).  A table of every relabeled row, already
  shifted to its packed position, turns the canonical key into one gather
  over all ``n!`` relabelings and a minimum.

Feasibility: |T_n| = n^(n-1) trees per state.  Measured on a 2-vCPU
x86-64 VM (numpy 2.4, CPython 3.11): n = 2..5 solve in ~0.17 s together
(817 canonical states at n = 5; the tuple-based solver took ~2 s); n = 6
solves in ~100 s (t* = 7, 112,620 canonical states, ~1,100 states/s,
118 MB peak RSS; 1620 s before).  From the identity state at n = 6 all
7776 successors are incomparable and one expansion keeps them all in
~4 ms.  n = 7 (117,649 trees per state) is untried.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations as iter_permutations
from typing import Dict, List, Tuple

import numpy as np

from repro.core.bitset import _popcount
from repro.errors import SearchBudgetExceeded
from repro.trees.enumerate import MAX_ENUMERABLE_N, all_parent_arrays
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node_count

State = Tuple[int, ...]

#: Largest element count of one kept-block × candidates domination test.
_BLOCK = 1 << 16


@dataclass
class ExactResult:
    """Outcome of an exact solve.

    Attributes
    ----------
    n: number of processes.
    t_star: the exact game value ``t*(T_n)``.
    states_explored: number of distinct (canonical) states memoized.
    tree_count: ``|T_n| = n^(n-1)``.
    elapsed_seconds: wall-clock solve time.
    optimal_trees: an optimal adversary sequence witnessing ``t_star``
        (filled by :meth:`ExactGameSolver.optimal_sequence`).
    """

    n: int
    t_star: int
    states_explored: int
    tree_count: int
    elapsed_seconds: float
    optimal_trees: List[RootedTree] = field(default_factory=list)


class ExactGameSolver:
    """Exhaustive solver for the dynamic-rooted-tree broadcast game.

    Parameters
    ----------
    n:
        Number of processes (2 .. :data:`MAX_ENUMERABLE_N`; practical
        budgets stop around 5).
    canonicalize:
        Collapse states under node relabeling.  Shrinks the memo table by
        up to ``n!`` at the cost of computing canonical keys; worthwhile
        for ``n >= 4``.
    max_states:
        Budget on distinct memoized states; exceeded ->
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
        self._parent_arrays: List[Tuple[int, ...]] = list(all_parent_arrays(n))
        # Bit offset of each row in a packed state: row 0 most significant.
        self._shifts = np.arange(n - 1, -1, -1, dtype=np.uint64) * np.uint64(n)
        self._tree_tables = _build_tree_tables(np.array(self._parent_arrays), n)
        if canonicalize:
            self._perm_tables = _build_perm_tables(n, self._shifts)
            # Column of row x holding value r in the flattened perm tables.
            self._perm_offsets = np.arange(n) << n
        self._memo: Dict[State, int] = {}
        self._canon_cache: Dict[State, State] = {}

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
        rows = self._tree_tables[:, state]
        packed = (rows.astype(np.uint64) << self._shifts).sum(axis=1)
        packed, first = np.unique(packed, return_index=True)
        pops = _popcount(packed)
        order = np.argsort(pops, kind="stable")
        kept = order[_minimal_sorted(packed[order], pops[order])]
        return list(map(tuple, rows[first[kept]].tolist()))

    def canonical(self, state: State) -> State:
        """Lexicographically minimal relabeling of ``state``."""
        if not self._canonicalize:
            return state
        cached = self._canon_cache.get(state)
        if cached is not None:
            return cached
        columns = self._perm_offsets + state
        best = int(self._perm_tables[:, columns].sum(axis=1).min())
        full = self._full
        key = tuple((best >> shift) & full for shift in self._shifts.tolist())
        self._canon_cache[state] = key
        return key

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def value(self, state: State) -> int:
        """Exact number of further rounds the adversary can force.

        0 when ``state`` already contains a broadcaster.
        """
        if self.is_finished(state):
            return 0
        key = self.canonical(state)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Iterative DFS with an explicit stack (depth can reach ~n²).
        # Frames are [state, canonical_key, pending_successors, best_so_far];
        # a successor is only *peeked* until its value is memoized, so its
        # contribution is folded into ``best`` when the frame resumes.
        stack: List[List] = [[state, key, self.successors(state), 0]]
        while stack:
            frame = stack[-1]
            _cur, cur_key, succs, best = frame
            descended = False
            while succs:
                nxt = succs[-1]
                if self.is_finished(nxt):
                    best = max(best, 1)
                    succs.pop()
                    continue
                nxt_key = self.canonical(nxt)
                nxt_val = self._memo.get(nxt_key)
                if nxt_val is None:
                    frame[3] = best
                    stack.append([nxt, nxt_key, self.successors(nxt), 0])
                    descended = True
                    break
                best = max(best, 1 + nxt_val)
                succs.pop()
            if descended:
                continue
            if len(self._memo) >= self._max_states:
                raise SearchBudgetExceeded(
                    f"exact solver exceeded max_states={self._max_states}",
                    len(self._memo),
                )
            self._memo[cur_key] = best
            stack.pop()
        return self._memo[key]

    def solve(self) -> ExactResult:
        """Compute ``t*(T_n)`` from the identity state."""
        start = time.perf_counter()
        t_star = self.value(self.initial_state())
        elapsed = time.perf_counter() - start
        return ExactResult(
            n=self._n,
            t_star=t_star,
            states_explored=len(self._memo),
            tree_count=len(self._parent_arrays),
            elapsed_seconds=elapsed,
        )

    def optimal_sequence(self) -> List[RootedTree]:
        """Replay an optimal adversary line from the identity state.

        Requires/triggers a full solve.  At each state the lowest-index
        tree achieving the memoized value is chosen, so the sequence is
        deterministic.
        """
        total = self.value(self.initial_state())
        seq: List[RootedTree] = []
        state = self.initial_state()
        remaining = total
        while remaining > 0:
            chosen = None
            for i in range(len(self._tree_tables)):
                nxt = self.apply_tree_index(state, i)
                nxt_val = 0 if self.is_finished(nxt) else self.value(nxt)
                if 1 + nxt_val == remaining:
                    chosen = (i, nxt)
                    break
            if chosen is None:  # pragma: no cover - would indicate a bug
                raise RuntimeError("no tree achieves the memoized game value")
            i, state = chosen
            seq.append(RootedTree(self._parent_arrays[i]))
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
    ``(n!, n · 2^n)`` ``uint64`` matrix whose column ``x · 2^n + r`` holds
    ``bitperm_π(r) << shifts[π[x]]``, so summing the ``n`` columns a state
    selects packs each relabeled state.
    """
    perms = np.array(list(iter_permutations(range(n))), dtype=np.intp)
    rows = np.arange(1 << n, dtype=np.uint64)
    bits = (rows[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    moved = (bits[None, :, :] << perms[:, None, :].astype(np.uint64)).sum(axis=2)
    placed = moved[:, None, :] << shifts[perms][:, :, None]  # (n!, n, 2^n)
    return placed.reshape(len(perms), n << n)


def _minimal_sorted(packed: np.ndarray, pops: np.ndarray) -> np.ndarray:
    """Positions of the ⊆-minimal entries among distinct packed states.

    ``packed`` must be sorted by popcount ``pops`` (ascending).  A state can
    only be contained in one with more bits, so every survivor of the lowest
    remaining popcount level is minimal; it then filters the later levels.
    """
    index = np.arange(len(packed))
    kept = []
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


def _minimal_antichain(states: List[State]) -> List[State]:
    """Keep only ⊆-minimal states (value is antitone in the state).

    The tuple-level reference for :meth:`ExactGameSolver.successors`.
    """
    # Sort by total popcount: a state can only be dominated by one with
    # fewer or equal total bits.
    keyed = sorted(states, key=_total_bits)
    kept: List[State] = []
    for s in keyed:
        if not any(_subseteq(k, s) for k in kept):
            kept.append(s)
    return kept


def _total_bits(state: State) -> int:
    return sum(bin(row).count("1") for row in state)


def _subseteq(a: State, b: State) -> bool:
    """True iff state ``a``'s edge set is contained in ``b``'s."""
    return all((ra | rb) == rb for ra, rb in zip(a, b))


def exact_broadcast_time(n: int, max_states: int = 5_000_000) -> int:
    """Convenience wrapper: the exact ``t*(T_n)`` for small ``n``."""
    if n == 1:
        return 0
    solver = ExactGameSolver(n, max_states=max_states)
    return solver.solve().t_star
