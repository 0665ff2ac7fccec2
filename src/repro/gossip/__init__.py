"""Extensions beyond broadcast (the paper's Section 5 future work).

* :mod:`~repro.gossip.gossip` -- all-to-all dissemination (gossip) time
  under the same dynamic-rooted-tree adversaries;
* :mod:`~repro.gossip.consensus` -- heard-of-model helpers: the nonsplit
  reduction of Charron-Bost, Függer, Nowak [1] (``n - 1`` tree rounds
  simulate one nonsplit round) as executable checks.
"""

from repro.gossip.gossip import (
    GossipResult,
    gossip_time_adversary,
)
from repro.gossip.consensus import (
    blocks_are_nonsplit,
    simulate_nonsplit_rounds,
)

__all__ = [
    "GossipResult",
    "gossip_time_adversary",
    "blocks_are_nonsplit",
    "simulate_nonsplit_rounds",
]
