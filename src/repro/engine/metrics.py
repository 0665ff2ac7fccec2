"""Per-run metrics aggregation.

:class:`MetricsCollector` folds :class:`~repro.engine.events.RoundRecord`
streams into :class:`RunMetrics`: the aggregate numbers sweeps and
benchmark tables report (broadcast time, edge-growth profile, tree-shape
usage histogram).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.events import RoundRecord
from repro.trees.canonical import classify_shape
from repro.trees.rooted_tree import RootedTree


@dataclass
class RunMetrics:
    """Aggregates over one run.

    Attributes
    ----------
    n: number of processes.
    t_star: broadcast time (None if truncated).
    rounds: rounds executed.
    total_new_edges: product-graph edges added over the run.
    min_new_edges_per_round: smallest per-round edge gain (the paper's
        Section 2 invariant says this is >= 1).
    max_reach_trajectory: per-round leader size (how fast a leader grew).
    shape_histogram: tree-family usage counts (path/star/broom/...).
    """

    n: int
    t_star: Optional[int] = None
    rounds: int = 0
    total_new_edges: int = 0
    min_new_edges_per_round: Optional[int] = None
    max_reach_trajectory: List[int] = field(default_factory=list)
    shape_histogram: Dict[str, int] = field(default_factory=dict)


class MetricsCollector:
    """Streaming builder for :class:`RunMetrics`."""

    def __init__(self, n: int) -> None:
        self._metrics = RunMetrics(n=n)

    def observe_round(self, record: RoundRecord, tree: RootedTree) -> None:
        """Fold one round into the aggregates."""
        m = self._metrics
        m.rounds += 1
        m.total_new_edges += record.new_edges
        if (
            m.min_new_edges_per_round is None
            or record.new_edges < m.min_new_edges_per_round
        ):
            m.min_new_edges_per_round = record.new_edges
        m.max_reach_trajectory.append(record.max_reach)
        shape = classify_shape(tree)
        m.shape_histogram[shape] = m.shape_histogram.get(shape, 0) + 1

    def finish(self, t_star: Optional[int]) -> RunMetrics:
        """Seal and return the metrics."""
        self._metrics.t_star = t_star
        return self._metrics
