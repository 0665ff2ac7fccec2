"""Broadcast time ``t*`` (Definitions 2.2 and 2.3) and run drivers.

Two entry points mirror the paper's two definitions:

* :func:`run_sequence` -- ``t*(G_1, G_2, ...)`` for an explicit sequence
  of trees (Definition 2.2);
* :func:`broadcast_time_adversary` -- drive an adversary until broadcast
  completes, returning the achieved ``t*`` (a *witness* for Definition
  2.3's max; the exact solver in ``repro.adversaries.exact`` computes the
  max itself for small ``n``).

Both return a :class:`BroadcastResult` carrying the final state, the first
broadcaster(s), and optional per-round history for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.backend import BackendLike
from repro.core.state import BroadcastState
from repro.errors import SimulationError
from repro.trees.rooted_tree import RootedTree
from repro.types import AdversaryProtocol, validate_node_count


@dataclass(frozen=True)
class RoundSnapshot:
    """What happened in one round (kept only when history is requested)."""

    round_index: int
    tree: RootedTree
    new_edges: int
    max_reach: int
    min_reach: int
    broadcaster_count: int


@dataclass
class BroadcastResult:
    """Outcome of running a tree sequence / adversary to completion.

    Attributes
    ----------
    t_star:
        The broadcast time: first round at which some node has reached all.
        ``None`` if the run was truncated before completion.
    n:
        Number of processes.
    broadcasters:
        The nodes with full reach rows at time ``t_star``.
    final_state:
        The product-graph state at the end of the run.
    history:
        Optional per-round snapshots (empty unless requested).
    trees:
        The sequence of trees actually played (empty unless requested).
    """

    t_star: Optional[int]
    n: int
    broadcasters: Tuple[int, ...]
    final_state: BroadcastState
    history: List[RoundSnapshot] = field(default_factory=list)
    trees: List[RootedTree] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """True iff broadcast finished within the allotted rounds."""
        return self.t_star is not None


def run_sequence(
    trees: Sequence[RootedTree],
    n: Optional[int] = None,
    keep_history: bool = False,
    stop_at_broadcast: bool = True,
    backend: BackendLike = None,
) -> BroadcastResult:
    """Run an explicit sequence of trees from the identity state.

    Parameters
    ----------
    trees:
        Round graphs for rounds ``1 .. len(trees)``.
    n:
        Node count; inferred from the first tree when omitted.
    keep_history:
        Record per-round snapshots (costs one matrix scan per round).
    stop_at_broadcast:
        Stop at the first broadcaster (Definition 2.2).  When False the
        whole sequence is applied; ``t_star`` still reports the first
        completion round if one occurred.
    backend:
        Matrix backend name or instance (default: process-wide default,
        see :mod:`repro.core.backend`).

    Returns
    -------
    BroadcastResult
        With ``t_star=None`` if the sequence ended before broadcast.
    """
    if n is None:
        if not trees:
            raise SimulationError("cannot infer n from an empty sequence")
        n = trees[0].n
    validate_node_count(n)
    state = BroadcastState.initial(n, backend=backend)
    result_t: Optional[int] = None
    history: List[RoundSnapshot] = []
    played: List[RootedTree] = []
    for i, tree in enumerate(trees, start=1):
        before_edges = state.edge_count() if keep_history else 0
        state.apply_tree_inplace(tree)
        played.append(tree)
        if keep_history:
            sizes = state.reach_sizes()
            history.append(
                RoundSnapshot(
                    round_index=i,
                    tree=tree,
                    new_edges=state.edge_count() - before_edges,
                    max_reach=int(sizes.max()),
                    min_reach=int(sizes.min()),
                    broadcaster_count=len(state.broadcasters()),
                )
            )
        if result_t is None and state.is_broadcast_complete():
            result_t = i
            if stop_at_broadcast:
                break
    return BroadcastResult(
        t_star=result_t,
        n=n,
        broadcasters=state.broadcasters(),
        final_state=state,
        history=history,
        trees=played,
    )


def run_adversary(
    adversary: AdversaryProtocol,
    n: int,
    backend: BackendLike = None,
) -> BroadcastResult:
    """Drive an adversary until broadcast completes.

    A facade over the unified execution layer: builds a
    :class:`~repro.engine.executor.RunSpec` and runs it through a
    :class:`~repro.engine.executor.SequentialExecutor` (oblivious
    adversaries take the compiled parent-schedule fast path).  A run that
    needs a round cap, the played trees or per-round history builds its
    own ``RunSpec`` (``max_rounds``, ``keep_trees``,
    ``instrumentation="history"``).

    The round cap is the shared default
    (:func:`repro.core.bounds.resolve_round_cap`): the paper's trivial
    ``n²`` bound -- any legal adversary must finish by then, so hitting it
    indicates a bug (an illegal adversary) and raises
    :class:`AdversaryError`.
    """
    from repro.engine.executor import RunSpec, SequentialExecutor

    report = SequentialExecutor().run(
        RunSpec(adversary=adversary, n=n, backend=backend)
    )
    return report.to_broadcast_result()


def broadcast_time_adversary(adversary: AdversaryProtocol, n: int) -> Optional[int]:
    """``t*`` achieved by an adversary on ``n`` processes."""
    return run_adversary(adversary, n).t_star


def verify_certificate(trees: Sequence[RootedTree], claimed_t_star: int) -> bool:
    """Check that ``claimed_t_star`` is exactly the ``t*`` of the sequence.

    Used to validate results produced by search adversaries and the exact
    solver: a claimed value must be achieved at round ``claimed_t_star``
    and *not* any earlier.
    """
    result = run_sequence(trees, stop_at_broadcast=True)
    return result.t_star == claimed_t_star
