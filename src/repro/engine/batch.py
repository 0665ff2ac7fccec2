"""Batched broadcast engine: advance B independent runs in one step.

Multi-run sweeps -- many seeds / many tree sequences over the same ``n``
(sweeps, experiment grids) -- are embarrassingly batchable.
:class:`BatchRunner` stacks the runs' matrices along a leading axis
(``(B, n, n)`` dense, ``(B, n, words)`` bitset) and performs one
vectorized compose + completion check per round for all runs at once,
through the backend batch kernels
(:meth:`~repro.core.backend.MatrixBackend.batch_compose_inplace` and
friends), so it speeds up further under ``REPRO_BACKEND=bitset``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels as _kernels
from repro.core.backend import BackendLike, get_backend
from repro.core.state import BroadcastState
from repro.errors import DimensionMismatchError, SimulationError
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node_count

class BatchRunner:
    """``B`` independent broadcast runs advanced by vectorized steps.

    Every run starts at the identity ``G(0)``.  :meth:`step` applies one
    round graph per run in a single batched composition; completion
    rounds are tracked per run (``t*`` semantics match
    :func:`repro.core.broadcast.run_sequence`: the first round index at
    which the run has a broadcaster, 0 if ``n == 1`` and the run is
    complete before any round).

    Runs that are already complete may keep receiving trees (composition
    is monotone, the recorded ``t*`` never changes) or be padded with
    ``None`` -- a self-loops-only no-op round.
    """

    def __init__(self, n: int, batch_size: int, backend: BackendLike = None) -> None:
        validate_node_count(n)
        if batch_size < 1:
            raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
        self._n = n
        self._batch = batch_size
        self._backend = get_backend(backend)
        self._bmat = self._backend.identity_batch(batch_size, n)
        self._round = 0
        self._completed_at = np.full(batch_size, -1, dtype=np.int64)
        self._noop = np.arange(n, dtype=np.int64)
        self._mark_completions()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes per run."""
        return self._n

    @property
    def batch_size(self) -> int:
        """Number of stacked runs."""
        return self._batch

    @property
    def round_index(self) -> int:
        """Rounds applied so far (every run advances in lockstep)."""
        return self._round

    @property
    def backend(self):
        """The matrix backend the stacked tensor lives in."""
        return self._backend

    def completed(self) -> np.ndarray:
        """Boolean ``(B,)`` mask of runs that have a broadcaster."""
        return self._completed_at >= 0

    @property
    def all_complete(self) -> bool:
        """True iff every run has completed broadcast."""
        return bool((self._completed_at >= 0).all())

    def t_star(self, b: int) -> Optional[int]:
        """Broadcast time of run ``b`` (``None`` if not complete yet)."""
        v = int(self._completed_at[b])
        return v if v >= 0 else None

    def t_stars(self) -> List[Optional[int]]:
        """Broadcast time of every run, in run order."""
        return [self.t_star(b) for b in range(self._batch)]

    def reach_sizes(self) -> np.ndarray:
        """``(B, n)`` reach-set sizes for every run."""
        return self._backend.batch_reach_sizes(self._bmat)

    def broadcasters(self, b: int) -> Tuple[int, ...]:
        """Full-row nodes of run ``b``."""
        return self._backend.broadcasters(self._backend.slice_run(self._bmat, b))

    def state(self, b: int, round_index: Optional[int] = None) -> BroadcastState:
        """Independent :class:`BroadcastState` copy of run ``b``.

        ``round_index`` overrides the recorded round counter -- used when a
        run finished earlier than the batch (its matrix is frozen by no-op
        padding, but the lockstep counter kept advancing).
        """
        mat = self._backend.copy(self._backend.slice_run(self._bmat, b))
        rounds = self._round if round_index is None else round_index
        return BroadcastState._wrap(mat, self._n, rounds, self._backend)

    def state_view(self, b: int) -> BroadcastState:
        """Zero-copy state over run ``b``'s live storage.

        Valid until the next :meth:`step`; adversaries may read it to pick
        their next move but must not hold or mutate it.
        """
        return BroadcastState._wrap(
            self._backend.slice_run(self._bmat, b),
            self._n,
            self._round,
            self._backend,
        )

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def _mark_completions(self) -> None:
        newly = (self._completed_at < 0) & self._backend.batch_has_broadcaster(
            self._bmat
        )
        self._completed_at[newly] = self._round

    def _parents_matrix(
        self, trees: Sequence[Optional[RootedTree]]
    ) -> np.ndarray:
        parents = np.empty((self._batch, self._n), dtype=np.int64)
        for b, tree in enumerate(trees):
            if tree is None:
                parents[b] = self._noop
                continue
            if tree.n != self._n:
                raise DimensionMismatchError(
                    f"tree over {tree.n} nodes in a batch over {self._n}"
                )
            parents[b] = tree.parent_array_numpy()
        return parents

    def step(self, trees: Sequence[Optional[RootedTree]]) -> "BatchRunner":
        """Advance every run by one round in a single vectorized kernel.

        ``trees[b]`` is run ``b``'s round graph; ``None`` plays the
        self-loops-only no-op (used to pad ragged batches).
        """
        if len(trees) != self._batch:
            raise DimensionMismatchError(
                f"step needs {self._batch} trees, got {len(trees)}"
            )
        self.step_parents(self._parents_matrix(trees))
        return self

    def step_parents(self, parents: np.ndarray) -> "BatchRunner":
        """Advance with a prebuilt ``(B, n)`` int64 parent matrix."""
        parents = np.asarray(parents, dtype=np.int64)
        if parents.shape != (self._batch, self._n):
            raise DimensionMismatchError(
                f"parent matrix must be {(self._batch, self._n)}, got {parents.shape}"
            )
        # Observability seam: one "batch-compose" span covers the whole
        # batch's round (observer is None unless tracing).
        observer = _kernels._compose_observer
        if observer is None:
            self._backend.batch_compose_inplace(self._bmat, parents)
        else:
            observer(
                self._backend.name,
                "batch-compose",
                self._n,
                lambda: self._backend.batch_compose_inplace(self._bmat, parents),
            )
        self._round += 1
        self._mark_completions()
        return self


def run_sequences_batch(
    sequences: Sequence[Sequence[RootedTree]],
    n: Optional[int] = None,
    backend: BackendLike = None,
) -> List[Optional[int]]:
    """``t*`` of many explicit tree sequences, computed batched.

    Element-wise equivalent to
    ``[run_sequence(seq, n=n).t_star for seq in sequences]`` but the
    per-round composition runs once over the whole stack.  Ragged
    sequences are padded with no-op rounds (which cannot change ``t*``).
    """
    if not sequences:
        return []
    if n is None:
        for seq in sequences:
            if seq:
                n = seq[0].n
                break
        else:
            raise SimulationError("cannot infer n from empty sequences")
    runner = BatchRunner(n, len(sequences), backend=backend)
    rounds = max(len(seq) for seq in sequences)
    for i in range(rounds):
        if runner.all_complete:
            break
        runner.step([seq[i] if i < len(seq) else None for seq in sequences])
    # No-op padding never creates a broadcaster, so a recorded t* >= 1 is
    # always within the run's own sequence.  t* == 0 only happens for
    # n == 1 (identity already complete); run_sequence reports that as
    # round 1 when at least one tree is applied, None otherwise.
    out: List[Optional[int]] = []
    for b, seq in enumerate(sequences):
        t = runner.t_star(b)
        if t == 0:
            t = 1 if len(seq) >= 1 else None
        out.append(t)
    return out


__all__ = [
    "BatchRunner",
    "run_sequences_batch",
]
