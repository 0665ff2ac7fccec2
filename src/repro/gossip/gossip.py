"""Gossip (all-to-all dissemination) over dynamic rooted trees.

The paper suggests (Section 5) extending the matrix perspective to
gossiping.  Gossip time is the first round at which *every* pair has
communicated: the product graph is all-ones -- every row full, not just
one.  Trivially ``t*_broadcast <= t*_gossip``.

A structural fact this harness demonstrates (E7): unlike broadcast,
**gossip time is unbounded** under adversarial rooted trees.  Rooted
trees force progress only for the root's row (Lemma R); a static path
leaves its last node with no out-edges forever, so that node never
reaches anyone else and gossip never completes.  Gossip is therefore
measured against *benign* (random / rotating) adversaries, and the run
driver reports truncation as a legitimate outcome rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.bounds import trivial_upper_bound
from repro.core.state import BroadcastState
from repro.types import AdversaryProtocol, validate_node_count


@dataclass(frozen=True)
class GossipResult:
    """Outcome of a gossip run.

    Attributes
    ----------
    n: number of processes.
    broadcast_time: first round some process reached everyone.
    gossip_time: first round every process reached everyone.
    """

    n: int
    broadcast_time: Optional[int]
    gossip_time: Optional[int]

    @property
    def completed(self) -> bool:
        """True iff gossip finished within the run."""
        return self.gossip_time is not None


def _is_gossip_complete(state: BroadcastState) -> bool:
    return bool(state.reach_matrix_view().all())


def gossip_time_adversary(
    adversary: AdversaryProtocol,
    n: int,
    max_rounds: Optional[int] = None,
) -> GossipResult:
    """Drive an adversary until gossip completes or the cap is reached.

    The cap defaults to ``2 n²``.  Unlike broadcast, hitting the cap is a
    *legitimate* outcome -- an adversary can prevent gossip forever (see
    the module docstring) -- so a truncated :class:`GossipResult` with
    ``gossip_time=None`` is returned instead of raising.
    """
    validate_node_count(n)
    cap = max_rounds if max_rounds is not None else 2 * trivial_upper_bound(n)
    adversary.reset()
    state = BroadcastState.initial(n)
    broadcast_t: Optional[int] = None
    t = 0
    while not _is_gossip_complete(state):
        if t >= cap:
            return GossipResult(
                n=n, broadcast_time=broadcast_t, gossip_time=None
            )
        t += 1
        tree = adversary.next_tree(state, t)
        state.apply_tree_inplace(tree)
        if broadcast_t is None and state.is_broadcast_complete():
            broadcast_t = t
    return GossipResult(n=n, broadcast_time=broadcast_t, gossip_time=t)
