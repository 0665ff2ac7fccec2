"""E1..E8 through the task API: golden stability, caching, sharding, HTTP.

The acceptance criteria pinned here:

* every experiment run through the task-graph path renders byte-identically
  to the committed golden fixtures
  (``tests/fixtures/golden_experiments.json``, identical on both backends),
  through the library, the ``run_all`` facade and the CLI (one experiment
  and ``experiment all``);
* a warm-cache rerun executes **zero** simulation runs (and zero compute
  tasks at all) and reproduces the table byte-identically;
* an experiment's run grid demonstrably shards across worker processes
  (E5's 20 run cells through a 2-worker :class:`ShardedExecutor`) with an
  unchanged table;
* experiments are reachable over HTTP as task graphs with per-node
  statuses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence

import pytest

import repro.service.specs as specs

from repro.engine.executor import (
    BatchExecutor,
    RunReport,
    RunSpec,
    SequentialExecutor,
    ShardedExecutor,
)
from repro.experiments import (
    experiment_graph,
    get_experiment,
    known_experiment_ids,
    run_all,
    run_experiment,
    table_from_doc,
    table_to_doc,
)
from repro.service.cache import ResultCache

from helpers import count_calls

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_experiments.json"

#: Grid cells declared per experiment (= expected batched run tasks).
EXPECTED_RUN_UNITS = {
    "E1": 0, "E2": 5, "E3": 0, "E4": 8, "E5": 20, "E6": 0, "E7": 0, "E8": 2,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenStability:
    @pytest.mark.parametrize("eid", [f"E{i}" for i in range(1, 9)])
    def test_task_path_matches_golden(self, eid, golden):
        """The headline acceptance: task path == fixture."""
        table, run = run_experiment(eid)
        assert table.render() == golden[eid], f"{eid} drifted from the golden fixture"
        assert run.ok
        assert run.stats["runs_computed"] == EXPECTED_RUN_UNITS[eid]

    def test_run_all_facade_routes_through_tasks(self, golden):
        tables = run_all()
        assert [t.experiment_id for t in tables] == list(known_experiment_ids())
        for table in tables:
            assert table.render() == golden[table.experiment_id]

    def test_table_doc_round_trip_renders_identically(self):
        table = get_experiment("E1").run()
        rebuilt = table_from_doc(json.loads(json.dumps(table_to_doc(table))))
        assert rebuilt.render() == table.render()


class TestWarmCache:
    def test_warm_rerun_executes_zero_runs_byte_identical(self, golden):
        """Acceptance: warm E2 computes nothing and reproduces the bytes."""
        cache = ResultCache()
        cold_table, cold = run_experiment("E2", cache=cache)
        assert cold.stats["runs_computed"] == EXPECTED_RUN_UNITS["E2"]
        warm_table, warm = run_experiment("E2", cache=cache)
        assert warm.stats["runs_computed"] == 0
        assert warm.stats["computed"] == 0
        assert warm.stats["cached"] == warm.stats["tasks"]
        assert warm_table.render() == cold_table.render() == golden["E2"]

    def test_warm_rerun_survives_persistence(self, tmp_path, golden):
        path = tmp_path / "experiments.jsonl"
        _, cold = run_experiment("E4", cache=ResultCache(path=path))
        assert cold.stats["computed"] == cold.stats["tasks"]
        table, warm = run_experiment("E4", cache=ResultCache(path=path))
        assert warm.stats["computed"] == 0 and warm.stats["runs_computed"] == 0
        assert table.render() == golden["E4"]

    def test_shared_cells_warm_across_experiments(self):
        """E8 reuses E4's static-path run at n=8: one address space."""
        cache = ResultCache()
        _, e4 = run_experiment("E4", cache=cache)
        _, e8 = run_experiment("E8", cache=cache)
        # E8's static-path@n=8 run cell was already computed by E4.
        assert e8.stats["runs_computed"] == EXPECTED_RUN_UNITS["E8"] - 1
        assert e8.stats["cached"] == 1


class TestEncodeOnce:
    """A warm rerun validates and encodes each task and cache line once."""

    def test_graph_assembly_canonicalizes_each_run_task_once(self, monkeypatch):
        calls = count_calls(monkeypatch, specs, "canonical_run_spec")
        for eid in known_experiment_ids():
            experiment_graph(eid)
        assert len(calls) == sum(EXPECTED_RUN_UNITS.values()) == 35

    def test_cold_pass_canonicalizes_each_run_task_once(self, monkeypatch):
        """Executing a run task reuses its canonical payload: a cold E1-E8
        pass validates each of its 35 run specs once, at graph assembly."""
        calls = count_calls(monkeypatch, specs, "canonical_run_spec")
        for eid in known_experiment_ids():
            _, run = run_experiment(eid)
            assert run.ok
        assert len(calls) == sum(EXPECTED_RUN_UNITS.values()) == 35

    def test_reopening_canonical_lines_encodes_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "experiments.jsonl"
        cache = ResultCache(path=path)
        for eid in known_experiment_ids():
            run_experiment(eid, cache=cache)
        dumps = count_calls(monkeypatch, json, "dumps")
        reopened = ResultCache(path=path)
        assert len(dumps) == 0
        assert reopened.stats()["loaded_from_disk"] == len(path.read_text().splitlines())
        assert reopened.stats()["bytes"] == cache.stats()["bytes"]


class RecordingExecutor(SequentialExecutor):
    """Records the batch sizes run_many_settled receives."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: List[int] = []

    def run_many_settled(self, specs: Sequence[RunSpec]):
        self.batches.append(len(specs))
        return super().run_many_settled(specs)


class TestExecutors:
    def test_run_grid_dispatches_as_one_batch(self):
        """All of E5's 20 run cells ride a single executor dispatch."""
        executor = RecordingExecutor()
        _, run = run_experiment("E5", executor=executor)
        assert run.ok
        assert executor.batches == [EXPECTED_RUN_UNITS["E5"]]

    def test_batch_executor_equivalent(self, golden):
        table, _ = run_experiment("E2", executor=BatchExecutor())
        assert table.render() == golden["E2"]

    def test_experiment_shards_across_workers(self, golden):
        """Acceptance: E5's grid through a real 2-worker spawn pool."""
        executor = ShardedExecutor(workers=2)
        table, run = run_experiment("E5", executor=executor)
        assert executor.workers == 2
        assert run.stats["runs_computed"] == EXPECTED_RUN_UNITS["E5"]
        assert table.render() == golden["E5"]


class TestGraphShape:
    @pytest.mark.parametrize("eid", [f"E{i}" for i in range(1, 9)])
    def test_units_plus_aggregation(self, eid):
        graph, output = experiment_graph(eid)
        spec = get_experiment(eid)
        # Deduped grid cells: graph size can be < units + 1, never more.
        assert len(graph) <= len(spec.units()) + 1
        assert graph.sinks() == (output,)
        task = graph[output]
        assert task.kind == "experiment"
        assert task.payload == {"experiment": eid}
        run_kinds = {graph[d].kind for d in graph.order} - {"experiment"}
        assert run_kinds, f"{eid} declares no unit tasks"

    def test_graphs_are_content_stable(self):
        a_graph, a_out = experiment_graph("E2")
        b_graph, b_out = experiment_graph("E2")
        assert a_graph.order == b_graph.order and a_out == b_out


class TestHttpExperiment:
    def test_experiment_over_the_wire_with_node_statuses(self, golden):
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer

        graph, output = experiment_graph("E2")
        doc = graph.to_doc()
        with ServiceServer() as server:
            client = ServiceClient.from_url(server.url)
            envelope = client.submit_tasks(doc["tasks"], outputs=[output])
            assert envelope["kind"] == "graph"
            assert set(envelope["tasks"]) == set(graph.order)
            done = client.wait(envelope["job_id"], timeout=120)
            assert done["status"] == "done"
            assert all(n["status"] == "done" for n in done["tasks"].values())
            table = table_from_doc(done["result"]["outputs"][output])
            assert table.render() == golden["E2"]
            # Resubmission of the identical graph is a cache answer.
            warm = client.submit_tasks(doc["tasks"], outputs=[output])
            assert warm["status"] == "done" and warm["cached"] is True
            assert warm["digest"] == done["digest"]

    def test_failed_output_fails_job_with_statuses(self):
        from repro.service.scheduler import JobScheduler
        from repro.service.specs import register_adversary

        from helpers import unregister_adversary

        class Exploding:
            name = "Exploding"

            def __init__(self, n):
                self.n = n

            def reset(self):
                pass

            def next_tree(self, state, round_index):
                raise RuntimeError("mid-run explosion")

        register_adversary("test-exploding", Exploding)
        try:
            with JobScheduler() as scheduler:
                job = scheduler.submit_tasks(
                    {
                        "tasks": [
                            {
                                "kind": "run",
                                "payload": {"adversary": "test-exploding", "n": 6},
                            },
                            {
                                "kind": "run",
                                "payload": {"adversary": "static-path", "n": 6},
                            },
                            {
                                "kind": "sweep-agg",
                                "payload": {"cells": [{"label": "X", "n": 6}]},
                                "inputs": [0],
                            },
                        ],
                        "outputs": [2],
                    }
                )
                job = scheduler.wait(job.job_id, timeout=60)
            assert job.status == "failed"
            assert "did not complete" in job.error
            states = {n["status"] for n in job.nodes.values()}
            # The static-path run feeds nothing in the requested output's
            # cone, so it is pruned rather than computed.
            assert states == {"failed", "pruned", "poisoned"}
            # The partial result still reports every node.
            assert len(job.result["tasks"]) == 3
        finally:
            unregister_adversary("test-exploding")


class TestCliExperimentTaskPath:
    def test_cli_cache_rerun_is_all_hits(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cli-cache.jsonl")
        assert main(["experiment", "E2", "--cache", cache]) == 0
        first = capsys.readouterr()
        assert main(["experiment", "E2", "--cache", cache]) == 0
        second = capsys.readouterr()
        assert first.out == second.out, "warm rerun must be byte-identical"
        assert "runs computed: 5" in first.err
        assert "runs computed: 0" in second.err
        assert "0 computed" not in first.err and "6 cached, 0 computed" in second.err

    def test_cli_all_prints_every_golden(self, capsys, golden):
        """``experiment all``: every table in id order, exit 0 iff all pass."""
        from repro.cli import main

        ids = known_experiment_ids()
        all_pass = all(golden[eid].endswith("checks: PASSED") for eid in ids)
        assert main(["experiment", "all"]) == (0 if all_pass else 1)
        assert capsys.readouterr().out == "".join(golden[eid] + "\n\n" for eid in ids)

    def test_cli_batch_engine(self, capsys, golden):
        from repro.cli import main

        assert main(["experiment", "E1", "--engine", "batch"]) == 0
        assert capsys.readouterr().out.strip() == golden["E1"]


def test_run_report_type_stays_exact():
    """Guard: experiment run cells decode to real RunReports via the codec."""
    from repro.service.tasks import get_codec

    graph, _ = experiment_graph("E2")
    run_digest = next(d for d in graph.order if graph[d].kind == "run")
    from repro.service.tasks import run_graph

    run = run_graph(graph)
    report = get_codec("run-report").decode(run.result(run_digest))
    assert isinstance(report, RunReport)
    assert report.t_star == run.result(run_digest)["t_star"]
