"""Unit tests for ``repro.engine.metrics`` (the per-run aggregates).

:class:`MetricsCollector` folds :class:`RoundRecord` streams into
:class:`RunMetrics`; these tests pin the aggregation rules (edge totals,
min-per-round, reach trajectory, shape histogram).
"""

from __future__ import annotations

from repro.engine.events import RoundRecord
from repro.engine.metrics import MetricsCollector
from repro.trees.canonical import classify_shape
from repro.trees.rooted_tree import RootedTree

from helpers import run_traced


def _record(round_index: int, parents, new_edges: int, max_reach: int) -> RoundRecord:
    return RoundRecord(
        round_index=round_index,
        parents=tuple(parents),
        new_edges=new_edges,
        max_reach=max_reach,
        min_reach=1,
        broadcaster_count=0,
    )


def _path(n: int) -> RootedTree:
    return RootedTree([0] + list(range(n - 1)))


def _star(n: int) -> RootedTree:
    return RootedTree([0] * n)


def test_collector_accumulates_rounds():
    n = 5
    collector = MetricsCollector(n)
    path, star = _path(n), _star(n)
    collector.observe_round(_record(1, path.parents, 4, 2), path)
    collector.observe_round(_record(2, star.parents, 1, 3), star)
    collector.observe_round(_record(3, path.parents, 2, 5), path)
    metrics = collector.finish(t_star=3)

    assert metrics.n == n
    assert metrics.t_star == 3
    assert metrics.rounds == 3
    assert metrics.total_new_edges == 7
    assert metrics.min_new_edges_per_round == 1
    assert metrics.max_reach_trajectory == [2, 3, 5]


def test_collector_shape_histogram_uses_canonical_families():
    n = 6
    collector = MetricsCollector(n)
    path, star = _path(n), _star(n)
    for i in range(3):
        collector.observe_round(_record(i + 1, path.parents, 1, 1), path)
    collector.observe_round(_record(4, star.parents, 1, 1), star)
    metrics = collector.finish(t_star=None)

    path_label = classify_shape(path)
    star_label = classify_shape(star)
    assert metrics.shape_histogram[path_label] == 3
    assert metrics.shape_histogram[star_label] == 1
    assert sum(metrics.shape_histogram.values()) == 4


def test_collector_finish_without_rounds():
    metrics = MetricsCollector(4).finish(t_star=None)
    assert metrics.rounds == 0
    assert metrics.total_new_edges == 0
    assert metrics.min_new_edges_per_round is None
    assert metrics.max_reach_trajectory == []
    assert metrics.shape_histogram == {}


def test_collector_min_new_edges_tracks_minimum_not_last():
    n = 4
    collector = MetricsCollector(n)
    tree = _path(n)
    for i, edges in enumerate((5, 2, 9), start=1):
        collector.observe_round(_record(i, tree.parents, edges, 1), tree)
    assert collector.finish(t_star=3).min_new_edges_per_round == 2


def test_collector_matches_instrumented_run():
    """The collector agrees with a real instrumented engine run."""
    from repro.adversaries import CyclicFamilyAdversary

    n = 8
    run = run_traced(CyclicFamilyAdversary(n), n)
    metrics = run.metrics
    assert metrics.t_star == run.t_star
    assert metrics.rounds == len(run.trace.rounds)
    # Section 2 invariant: every round adds at least one product edge.
    assert metrics.min_new_edges_per_round >= 1
