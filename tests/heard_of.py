"""Heard-of-style process-level simulator: a test oracle for the matrix engine.

The library computes broadcast through the adjacency-matrix view of
:mod:`repro.core`.  This module implements the *same model a second,
independent way* -- as message-passing processes in the heard-of style
(Charron-Bost & Schiper): each process holds the set of process ids it
has heard of; in each round every process sends its set along its outgoing
tree edges (to its children) and keeps its own (self-loop).  No adjacency
matrix is involved.  Its per-process "heard of" sets must equal the
*columns* of the matrix engine's product graph (and the "reached" sets,
tracked on the sender side, the rows); :func:`compare_engines` checks
exactly that, and the property tests drive it on random sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.broadcast import run_sequence
from repro.errors import DimensionMismatchError, SimulationError
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node_count


@dataclass
class Process:
    """One process in the heard-of simulation.

    Attributes
    ----------
    pid: the process id (``0 .. n-1``).
    heard: ids this process has heard of (always contains ``pid``).
    messages_received: total messages delivered to this process.
    """

    pid: int
    heard: Set[int] = field(default_factory=set)
    messages_received: int = 0

    def __post_init__(self) -> None:
        self.heard.add(self.pid)

    def deliver(self, payload: Set[int]) -> None:
        """Receive a heard-of set from an in-neighbor."""
        self.heard |= payload
        self.messages_received += 1


class HeardOfSimulator:
    """Synchronous round simulator over explicit processes.

    Each round (:meth:`step`): every process composes its current heard-of
    set as a message; messages travel along the round tree's parent->child
    edges and are delivered simultaneously (the snapshot semantics of
    synchronous rounds -- a process forwards what it knew at the *start*
    of the round).  Self-loops are implicit: processes keep their state.

    Broadcast completes when some process id is in everyone's heard-of set
    (that process has reached all -- the transpose view of the matrix
    engine's full row).
    """

    def __init__(self, n: int) -> None:
        self._n = validate_node_count(n)
        self._processes: List[Process] = [Process(pid) for pid in range(n)]
        self._round = 0
        self._messages_total = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @property
    def round_index(self) -> int:
        """Rounds executed so far."""
        return self._round

    @property
    def messages_total(self) -> int:
        """Messages delivered across all rounds (excluding self-loops)."""
        return self._messages_total

    def process(self, pid: int) -> Process:
        """The process object with id ``pid``."""
        return self._processes[pid]

    def heard_of(self, pid: int) -> FrozenSet[int]:
        """Who ``pid`` has heard of."""
        return frozenset(self._processes[pid].heard)

    def reach_of(self, pid: int) -> FrozenSet[int]:
        """Everyone that has heard of ``pid`` (the row view)."""
        return frozenset(
            q.pid for q in self._processes if pid in q.heard
        )

    def broadcasters(self) -> Tuple[int, ...]:
        """Ids that everyone has heard of."""
        common = set(range(self._n))
        for p in self._processes:
            common &= p.heard
            if not common:
                break
        return tuple(sorted(common))

    def is_broadcast_complete(self) -> bool:
        """True iff some id reached everyone (Definition 2.2)."""
        return bool(self.broadcasters())

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def step(self, tree: RootedTree) -> None:
        """Execute one synchronous round along ``tree``."""
        if tree.n != self._n:
            raise DimensionMismatchError(
                f"tree over {tree.n} nodes in a simulation over {self._n}"
            )
        # Snapshot: messages carry the start-of-round heard-of sets.
        snapshots: Dict[int, Set[int]] = {
            p.pid: set(p.heard) for p in self._processes
        }
        for parent, child in tree.edges():
            self._processes[child].deliver(snapshots[parent])
            self._messages_total += 1
        self._round += 1

    def run(
        self,
        trees: Sequence[RootedTree],
        stop_at_broadcast: bool = True,
    ) -> Optional[int]:
        """Run a sequence of rounds; return ``t*`` if broadcast completed."""
        t_star: Optional[int] = None
        for tree in trees:
            self.step(tree)
            if t_star is None and self.is_broadcast_complete():
                t_star = self._round
                if stop_at_broadcast:
                    break
        return t_star

    def state_summary(self) -> str:
        """One-line progress summary."""
        sizes = sorted(len(p.heard) for p in self._processes)
        return (
            f"round={self._round} heard sizes min={sizes[0]} "
            f"median={sizes[len(sizes) // 2]} max={sizes[-1]} "
            f"messages={self._messages_total}"
        )

    def reset(self) -> None:
        """Return to the initial state (everyone knows only itself)."""
        self._processes = [Process(pid) for pid in range(self._n)]
        self._round = 0
        self._messages_total = 0


def compare_engines(
    trees: Sequence[RootedTree], n: Optional[int] = None
) -> Tuple[Optional[int], Optional[int]]:
    """Run a sequence through both engines; raise on any disagreement.

    Returns the (identical) broadcast times as a pair.  Checks, after the
    full sequence:

    * identical broadcast times,
    * the matrix engine's rows equal the simulator's reach sets,
    * the matrix engine's columns equal the simulator's heard-of sets.
    """
    if n is None:
        if not trees:
            raise SimulationError("cannot infer n from an empty sequence")
        n = trees[0].n
    matrix_result = run_sequence(trees, n=n, stop_at_broadcast=False)
    sim = HeardOfSimulator(n)
    sim_t = sim.run(trees, stop_at_broadcast=False)
    if matrix_result.t_star != sim_t:
        raise SimulationError(
            f"engines disagree on t*: matrix={matrix_result.t_star}, "
            f"simulator={sim_t}"
        )
    final = matrix_result.final_state
    for x in range(n):
        if final.reach_set(x) != sim.reach_of(x):
            raise SimulationError(
                f"engines disagree on reach set of node {x}: "
                f"matrix={sorted(final.reach_set(x))}, "
                f"simulator={sorted(sim.reach_of(x))}"
            )
        if final.heard_of_set(x) != sim.heard_of(x):
            raise SimulationError(
                f"engines disagree on heard-of set of node {x}: "
                f"matrix={sorted(final.heard_of_set(x))}, "
                f"simulator={sorted(sim.heard_of(x))}"
            )
    return matrix_result.t_star, sim_t
