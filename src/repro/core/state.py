"""The evolving product graph ``G(t)`` as a first-class object.

:class:`BroadcastState` is the object every adversary observes and every
engine advances: the reflexive boolean matrix ``G(t) = G_1 ∘ ... ∘ G_t``
together with the round counter and convenience queries (reach sets,
broadcasters, stalled nodes for a hypothetical next tree).

The matrix itself lives behind a :class:`~repro.core.backend.MatrixBackend`
(``dense`` or ``bitset``, see :mod:`repro.core.backend`); all mutation and
queries route through that interface, so the packed representation never
leaks.  ``reach_matrix`` / ``reach_matrix_view`` still hand out plain
boolean matrices for analysis code.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.core import kernels as _kernels
from repro.core import matrix as M
from repro.core.backend import BackendLike, MatrixBackend, get_backend
from repro.errors import DimensionMismatchError, SimulationError
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node_count


class BroadcastState:
    """The product graph after some number of rounds.

    Parameters
    ----------
    n:
        Number of processes.
    reach:
        Optional initial matrix as a dense boolean array (defaults to the
        identity = round 0).  The matrix must be reflexive: processes never
        forget their own value.
    round_index:
        How many rounds produced ``reach`` (0 for the identity).
    backend:
        Matrix backend name or instance; defaults to the process-wide
        default (see :func:`repro.core.backend.get_backend`).
    """

    __slots__ = ("_mat", "_round", "_n", "_backend", "_dense_cache")

    def __init__(
        self,
        n: int,
        reach: Optional[np.ndarray] = None,
        round_index: int = 0,
        backend: BackendLike = None,
    ) -> None:
        self._n = validate_node_count(n)
        self._backend = get_backend(backend)
        if reach is None:
            self._mat = self._backend.identity(self._n)
        else:
            arr = M.validate_adjacency(reach, require_reflexive=True)
            if arr.shape[0] != self._n:
                raise DimensionMismatchError(
                    f"reach matrix over {arr.shape[0]} nodes but n={self._n}"
                )
            self._mat = self._backend.from_dense(arr)
        if round_index < 0:
            raise SimulationError(f"round_index must be >= 0, got {round_index}")
        self._round = int(round_index)
        self._dense_cache: Optional[np.ndarray] = None

    @classmethod
    def _wrap(
        cls,
        mat: np.ndarray,
        n: int,
        round_index: int,
        backend: MatrixBackend,
    ) -> "BroadcastState":
        """Internal constructor around an existing backend handle (no copy)."""
        state = cls.__new__(cls)
        state._n = n
        state._backend = backend
        state._mat = mat
        state._round = round_index
        state._dense_cache = None
        return state

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @property
    def round_index(self) -> int:
        """Number of rounds applied so far (``t`` in ``G(t)``)."""
        return self._round

    @property
    def backend(self) -> MatrixBackend:
        """The matrix backend this state's storage lives in."""
        return self._backend

    @property
    def reach_matrix(self) -> np.ndarray:
        """A *copy* of the boolean product-graph matrix."""
        return self._backend.to_dense(self._mat)

    def reach_matrix_view(self) -> np.ndarray:
        """Read-only dense matrix without a per-call copy.

        For the dense backend this is a view of live storage; for packed
        backends it is a cached conversion that is refreshed after each
        mutating call.  Mutating the returned array is undefined
        behaviour; use it for hot read paths like adversary scoring.
        """
        if self._dense_cache is None:
            view = self._backend.dense_view(self._mat)
            view.setflags(write=False)
            self._dense_cache = view
        return self._dense_cache

    def reach_set(self, x: int) -> FrozenSet[int]:
        """All nodes process ``x`` has reached (row ``x``), including itself."""
        return frozenset(
            int(v) for v in np.nonzero(self._backend.row(self._mat, x))[0]
        )

    def heard_of_set(self, y: int) -> FrozenSet[int]:
        """All nodes that have reached ``y`` (column ``y``), including itself."""
        return frozenset(
            int(v) for v in np.nonzero(self._backend.col(self._mat, y))[0]
        )

    def reach_sizes(self) -> np.ndarray:
        """Vector of row sums: how many nodes each process reached."""
        return self._backend.reach_sizes(self._mat)

    def heard_of_sizes(self) -> np.ndarray:
        """Vector of column sums: how many processes reached each node."""
        return self._backend.heard_of_sizes(self._mat)

    def broadcasters(self) -> Tuple[int, ...]:
        """Nodes that have reached everyone (full rows)."""
        return self._backend.broadcasters(self._mat)

    def is_broadcast_complete(self) -> bool:
        """Definition 2.2's stopping event: some node reached everyone."""
        return self._backend.has_broadcaster(self._mat)

    def edge_count(self) -> int:
        """Number of product-graph edges (self-loops included)."""
        return self._backend.edge_count(self._mat)

    def missing(self, x: int) -> FrozenSet[int]:
        """Nodes process ``x`` has not reached yet."""
        return frozenset(
            int(v) for v in np.nonzero(~self._backend.row(self._mat, x))[0]
        )

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def apply_tree(self, tree: RootedTree) -> "BroadcastState":
        """Return the state after one more round along ``tree``.

        Pure: the receiver is unchanged.  The round counter increments.
        """
        if tree.n != self._n:
            raise DimensionMismatchError(
                f"tree over {tree.n} nodes applied to state over {self._n}"
            )
        new_mat = self._backend.compose_with_tree(
            self._mat, tree.parent_array_numpy()
        )
        return BroadcastState._wrap(new_mat, self._n, self._round + 1, self._backend)

    def apply_tree_inplace(self, tree: RootedTree) -> "BroadcastState":
        """Advance this state by one round along ``tree`` (mutating)."""
        if tree.n != self._n:
            raise DimensionMismatchError(
                f"tree over {tree.n} nodes applied to state over {self._n}"
            )
        self._compose_tree_inplace(tree.parent_array_numpy())
        self._round += 1
        self._dense_cache = None
        return self

    def _compose_tree_inplace(self, parents: np.ndarray) -> None:
        """One tree compose through the observability seam.

        The observer defaults to ``None`` (one attribute load + branch --
        the entire disabled cost of instrumenting the engine's hottest
        call); :func:`repro.obs.trace.enable` installs it, so every
        compose becomes a ``tree-compose`` kernel span while tracing.
        """
        observer = _kernels._compose_observer
        if observer is None:
            self._backend.compose_with_tree_inplace(self._mat, parents)
            return
        observer(
            self._backend.name,
            "tree-compose",
            self._n,
            lambda: self._backend.compose_with_tree_inplace(self._mat, parents),
        )

    def apply_parents_inplace(self, parents: np.ndarray) -> "BroadcastState":
        """Advance one round along a packed parent row (mutating).

        The compiled-schedule fast path
        (:mod:`repro.trees.compile` / :mod:`repro.engine.executor`): same
        composition as :meth:`apply_tree_inplace` but without a
        :class:`RootedTree` in the loop.  ``parents`` must be a valid
        ``(n,)`` parent array (root pointing to itself); rows obtained
        from :meth:`RootedTree.parent_array_numpy` or
        :func:`repro.trees.compile.parent_row` always are.
        """
        parents = np.asarray(parents, dtype=np.int64)
        if parents.shape != (self._n,):
            raise DimensionMismatchError(
                f"parent row must have shape ({self._n},), got {parents.shape}"
            )
        self._compose_tree_inplace(parents)
        self._round += 1
        self._dense_cache = None
        return self

    def apply_graph(self, adjacency: np.ndarray) -> "BroadcastState":
        """Compose with an arbitrary reflexive round graph.

        Used by the nonsplit-adversary experiments where the round graph is
        not a tree.  The graph must be reflexive, preserving monotonicity.
        """
        g = M.validate_adjacency(adjacency, require_reflexive=True)
        new_mat = self._backend.compose_with_graph(self._mat, g)
        return BroadcastState._wrap(new_mat, self._n, self._round + 1, self._backend)

    # ------------------------------------------------------------------
    # Identity / bookkeeping
    # ------------------------------------------------------------------

    def copy(self) -> "BroadcastState":
        """Deep copy."""
        return BroadcastState._wrap(
            self._backend.copy(self._mat), self._n, self._round, self._backend
        )

    def key(self) -> bytes:
        """Hashable packed-bit key of the matrix (round index excluded).

        Identical across backends for the same matrix.
        """
        return self._backend.matrix_key(self._mat)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BroadcastState):
            return NotImplemented
        if self._n != other._n or self._round != other._round:
            return False
        if self._backend is other._backend:
            return self._backend.equal(self._mat, other._mat)
        return bool((self.reach_matrix == other.reach_matrix).all())

    def __repr__(self) -> str:
        return (
            f"BroadcastState(n={self._n}, round={self._round}, "
            f"edges={self.edge_count()}, "
            f"broadcasters={len(self.broadcasters())})"
        )

    def summary(self) -> str:
        """One-line human summary used by traces and the CLI."""
        sizes = self.reach_sizes()
        return (
            f"t={self._round} edges={self.edge_count()} "
            f"min|R|={int(sizes.min())} max|R|={int(sizes.max())} "
            f"done={self.is_broadcast_complete()}"
        )

    @classmethod
    def initial(cls, n: int, backend: BackendLike = None) -> "BroadcastState":
        """The canonical starting state ``G(0) = identity``."""
        return cls(n, backend=backend)
