"""One-step greedy delaying adversary.

Each round, evaluate every candidate tree in the pool and play the one
whose successor state looks hardest to finish from.  The score is a
lexicographic tuple; lower is better for the adversary:

1. number of *new* broadcasters the move creates (0 unless forced),
2. the largest reach-set size afterwards (keep the leader small),
3. the number of nodes within one step of finishing (``|R| = n - 1``),
4. total new product-graph edges (the paper's per-round progress measure),
5. number of nodes that gained anything.

The tuple encodes the standard delaying heuristics: never finish if
avoidable, then suppress the leader, then suppress near-finishers, then
minimize aggregate progress.

All candidates of a round are scored in ONE batched composition
(:func:`repro.engine.batch.score_candidates`), so the search rides the
selected matrix backend's vectorized kernels; :func:`score_tree` remains
as the single-candidate reference implementation.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.adversaries.base import Adversary
from repro.adversaries.pool import CandidatePool, PoolConfig
from repro.core.state import BroadcastState
from repro.engine.batch import score_candidates
from repro.errors import AdversaryError
from repro.trees.rooted_tree import RootedTree

#: Score tuple type: see module docstring for the component meaning.
Score = Tuple[int, int, int, int, int]


def score_tree(state: BroadcastState, tree: RootedTree) -> Score:
    """Score a candidate move; lexicographically lower is better."""
    reach = state.reach_matrix_view()
    n = state.n
    parent = tree.parent_array_numpy()
    new_reach = reach | reach[:, parent]
    new_rows = new_reach.sum(axis=1)
    old_rows = reach.sum(axis=1)
    finished_now = int((new_rows == n).sum() - (old_rows == n).sum())
    return (
        finished_now,
        int(new_rows.max()),
        int((new_rows == n - 1).sum()),
        int(new_rows.sum() - old_rows.sum()),
        int((new_rows > old_rows).sum()),
    )


class GreedyDelayAdversary(Adversary):
    """Play the pool candidate minimizing :func:`score_tree` each round."""

    def __init__(
        self,
        n: int,
        pool: Optional[CandidatePool] = None,
        config: Optional[PoolConfig] = None,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if pool is not None and config is not None:
            raise AdversaryError("pass either a pool or a config, not both")
        if pool is None:
            pool = CandidatePool(n, config or PoolConfig(seed=seed))
        self._pool = pool
        self._n = n
        self.name = name or "GreedyDelay"
        super().__init__()

    @property
    def pool(self) -> CandidatePool:
        """The candidate pool searched each round."""
        return self._pool

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        candidates = self._pool.candidates(state)
        if not candidates:
            raise AdversaryError("candidate pool produced no trees")
        scores = score_candidates(state, candidates)
        best_i = min(range(len(candidates)), key=scores.__getitem__)
        return candidates[best_i]

    def reset(self) -> None:
        self._pool.reset()
