"""Event records produced by instrumented runs.

Traces are sequences of :class:`RoundRecord`; each captures the tree
played and progress statistics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class RoundRecord:
    """One round of an instrumented run.

    Attributes
    ----------
    round_index: 1-based round number.
    parents: the played tree's parent array (root points to itself).
    new_edges: product-graph edges added this round (>= 1 while running).
    max_reach / min_reach: extremes of the reach-set sizes after the round.
    broadcaster_count: number of full rows after the round.
    """

    round_index: int
    parents: Tuple[int, ...]
    new_edges: int
    max_reach: int
    min_reach: int
    broadcaster_count: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dictionary."""
        d = asdict(self)
        d["parents"] = list(self.parents)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RoundRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            round_index=int(d["round_index"]),
            parents=tuple(int(p) for p in d["parents"]),
            new_edges=int(d["new_edges"]),
            max_reach=int(d["max_reach"]),
            min_reach=int(d["min_reach"]),
            broadcaster_count=int(d["broadcaster_count"]),
        )
