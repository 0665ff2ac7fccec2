"""Job scheduler: lifecycle, dedup, batching, and failure isolation.

The failure-path satellite lives here: a spec whose adversary raises
mid-run must mark *only its own job* ``failed`` (with the error message
recorded) while the other jobs in the same batch dispatch still complete.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.adversaries.base import Adversary
from repro.errors import ServiceError, SpecError
from repro.service.cache import ResultCache
from repro.service import scheduler as service_scheduler
from repro.service.scheduler import JobScheduler
from repro.service.specs import (
    ParamSpec,
    register_adversary,
    spec_digest,
)
from repro.trees.generators import path

from helpers import unregister_adversary


class FailingAdversary(Adversary):
    """Plays the identity path until ``fail_at``, then raises."""

    def __init__(self, n: int, fail_at: int = 3) -> None:
        self._tree = path(n)
        self._fail_at = fail_at
        self.name = "FailingTest"
        super().__init__()

    def next_tree(self, state, round_index):
        if round_index >= self._fail_at:
            raise RuntimeError(f"synthetic failure at round {round_index}")
        return self._tree


class SlowPathAdversary(Adversary):
    """Identity path with an artificial per-round stall (dedup tests)."""

    def __init__(self, n: int, delay_ms: int = 20) -> None:
        self._tree = path(n)
        self._delay = delay_ms / 1000.0
        self.name = "SlowTest"
        super().__init__()

    def next_tree(self, state, round_index):
        time.sleep(self._delay)
        return self._tree


@pytest.fixture
def test_adversaries():
    register_adversary(
        "failing-test",
        FailingAdversary,
        params={"fail_at": ParamSpec("int", 3)},
        description="test-only: raises mid-run",
    )
    register_adversary(
        "slow-test",
        SlowPathAdversary,
        params={"delay_ms": ParamSpec("int", 20)},
        description="test-only: stalls each round",
    )
    yield
    unregister_adversary("failing-test")
    unregister_adversary("slow-test")


def test_submit_run_completes_with_correct_result():
    with JobScheduler() as scheduler:
        job = scheduler.submit_run({"adversary": "static-path", "n": 12})
        job = scheduler.wait(job.job_id, timeout=30)
        assert job.status == "done"
        assert job.result["t_star"] == 11
        assert job.cached is False
        assert job.digest == spec_digest({"adversary": "static-path", "n": 12})


def test_second_submit_hits_the_cache():
    with JobScheduler() as scheduler:
        first = scheduler.submit_run({"adversary": "k-leaf", "n": 10})
        first = scheduler.wait(first.job_id, timeout=30)
        second = scheduler.submit_run({"adversary": "k-leaf", "n": 10, "seed": 0})
        assert second.status == "done"
        assert second.cached is True
        assert second.job_id != first.job_id
        assert second.result == first.result
        assert scheduler.metrics()["computations"] == 1


def test_inflight_dedup_returns_the_same_job(test_adversaries):
    with JobScheduler() as scheduler:
        spec = {"adversary": "slow-test", "n": 8}
        first = scheduler.submit_run(spec)
        second = scheduler.submit_run(dict(spec))  # identical digest, new dict
        assert second.job_id == first.job_id
        metrics = scheduler.metrics()
        assert metrics["dedup_inflight"] == 1
        done = scheduler.wait(first.job_id, timeout=30)
        assert done.status == "done"
        assert scheduler.metrics()["computations"] == 1


def test_compatible_queued_runs_batch_into_one_dispatch():
    scheduler = JobScheduler()  # not started: submissions pile up queued
    jobs = [
        scheduler.submit_run({"adversary": "rotating-path", "n": 10, "params": {"shift": s}})
        for s in (1, 2, 3, 4)
    ]
    assert all(job.status == "queued" for job in jobs)
    with scheduler:
        for job in jobs:
            assert scheduler.wait(job.job_id, timeout=30).status == "done"
    metrics = scheduler.metrics()
    assert metrics["dispatches"] == 1  # one BatchExecutor.run_many for all 4
    assert metrics["computations"] == 4


def test_failed_spec_fails_alone_batch_neighbours_complete(test_adversaries):
    """The satellite: mid-run failure isolates to its own job."""
    scheduler = JobScheduler()
    good_a = scheduler.submit_run({"adversary": "static-path", "n": 9})
    bad = scheduler.submit_run(
        {"adversary": "failing-test", "n": 9, "params": {"fail_at": 4}}
    )
    good_b = scheduler.submit_run({"adversary": "rotating-path", "n": 9})
    # all three share (n, backend, cap): they form one batch dispatch
    with scheduler:
        good_a = scheduler.wait(good_a.job_id, timeout=30)
        bad = scheduler.wait(bad.job_id, timeout=30)
        good_b = scheduler.wait(good_b.job_id, timeout=30)
    assert good_a.status == "done" and good_a.result["t_star"] == 8
    assert good_b.status == "done" and good_b.result["t_star"] == 8
    assert bad.status == "failed"
    assert bad.result is None
    assert "synthetic failure at round 4" in bad.error
    metrics = scheduler.metrics()
    assert metrics["jobs"]["failed"] == 1
    assert metrics["jobs"]["done"] == 2
    assert metrics["failures"] == 1
    # a failure is not cached: resubmitting re-attempts (and fails again)
    retry = scheduler.submit_run(
        {"adversary": "failing-test", "n": 9, "params": {"fail_at": 4}}
    )
    assert retry.status in ("queued", "running", "failed")


def test_sweep_job_and_cell_cache_warmup():
    cache = ResultCache()
    with JobScheduler(cache=cache) as scheduler:
        sweep = {"adversaries": ["static-path", "rotating-path"], "ns": [6, 8]}
        job = scheduler.wait(scheduler.submit_sweep(sweep).job_id, timeout=30)
        assert job.status == "done"
        assert len(job.result["points"]) == 4
        # the sweep runs as its task graph, so the cache holds the 4 grid
        # cells as run entries, the graph's sweep-agg node, and the sweep
        # job's own entry
        assert cache.stats()["entries"] == 6
        # an identical sweep is answered from the job's entry
        again = scheduler.submit_sweep(
            {"ns": [8, 6], "adversaries": ["rotating-path", "static-path"]}
        )
        assert again.status == "done" and again.cached is True
        assert again.result == job.result


def test_overlapping_sweep_only_computes_new_cells():
    cache = ResultCache()
    with JobScheduler(cache=cache) as scheduler:
        first = scheduler.wait(
            scheduler.submit_sweep(
                {"adversaries": ["static-path"], "ns": [6, 8]}
            ).job_id,
            timeout=30,
        )
        assert first.status == "done"
        hits_before = cache.stats()["hits"]
        bigger = scheduler.wait(
            scheduler.submit_sweep(
                {"adversaries": ["static-path"], "ns": [6, 8, 10]}
            ).job_id,
            timeout=30,
        )
        assert bigger.status == "done"
        assert cache.stats()["hits"] >= hits_before + 2  # 6 and 8 were warm
        assert [p["t_star"] for p in bigger.result["points"]] == [5, 7, 9]


def test_concurrent_submitters_compute_each_digest_once(test_adversaries):
    """Scheduler-level version of the concurrency acceptance check."""
    specs = [
        {"adversary": "slow-test", "n": 7, "params": {"delay_ms": 10}},
        {"adversary": "slow-test", "n": 8, "params": {"delay_ms": 10}},
        {"adversary": "static-path", "n": 13},
        {"adversary": "rotating-path", "n": 13, "params": {"shift": 2}},
    ]
    with JobScheduler(workers=2) as scheduler:
        job_ids = []
        lock = threading.Lock()

        def submitter(offset: int) -> None:
            for spec in specs[offset:] + specs[:offset]:
                job = scheduler.submit_run(dict(spec))
                with lock:
                    job_ids.append(job.job_id)

        threads = [
            threading.Thread(target=submitter, args=(i % len(specs),))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for job_id in set(job_ids):
            assert scheduler.wait(job_id, timeout=60).status == "done"
        metrics = scheduler.metrics()
    assert metrics["submitted"] == 8 * len(specs)
    assert metrics["computations"] == len(specs)  # exactly one per digest


@pytest.mark.parametrize("graph_first", [False, True], ids=["run-first", "graph-first"])
def test_run_job_and_graph_run_task_compute_once(graph_first, monkeypatch):
    """A run job and a graph's run task with one digest execute it once.

    Two workers pick the two jobs up concurrently; whichever claims the
    digest first computes it, and the other finishes from the cache.
    """
    spec = {"adversary": "cyclic", "n": 24}
    graph = {"tasks": [{"kind": "run", "payload": dict(spec)}]}
    executed = []
    with JobScheduler(workers=2) as scheduler:
        run_many_settled = scheduler._executor.run_many_settled

        def slow_run_many_settled(specs):
            executed.extend(specs)
            time.sleep(0.3)
            return run_many_settled(specs)

        monkeypatch.setattr(scheduler._executor, "run_many_settled", slow_run_many_settled)
        if graph_first:
            first = scheduler.submit_tasks(graph)
            time.sleep(0.05)
            second = scheduler.submit_run(dict(spec))
        else:
            first = scheduler.submit_run(dict(spec))
            time.sleep(0.05)
            second = scheduler.submit_tasks(graph)
        first = scheduler.wait(first.job_id, timeout=30)
        second = scheduler.wait(second.job_id, timeout=30)
        metrics = scheduler.metrics()
    assert first.status == second.status == "done"
    assert len(executed) == 1
    run_job = second if graph_first else first
    graph_job = first if graph_first else second
    (output,) = graph_job.result["outputs"].values()
    assert run_job.result == output
    # The graph counts as one computation; a run job finished from the
    # graph's cached task counts none.
    assert metrics["computations"] == (1 if graph_first else 2)
    assert run_job.cached is graph_first


def test_finished_job_retention_is_bounded(monkeypatch):
    """A long-lived scheduler must not leak terminal job records."""
    monkeypatch.setattr(service_scheduler, "MAX_FINISHED_JOBS", 3)
    with JobScheduler() as scheduler:
        jobs = [
            scheduler.wait(
                scheduler.submit_run({"adversary": "static-path", "n": n}).job_id,
                timeout=30,
            )
            for n in (5, 6, 7, 8, 9)
        ]
        with pytest.raises(ServiceError, match="unknown job id"):
            scheduler.job(jobs[0].job_id)  # oldest evicted past the bound
        assert scheduler.job(jobs[-1].job_id).status == "done"
        # evicted jobs' results stay reachable through the cache
        again = scheduler.submit_run({"adversary": "static-path", "n": 5})
        assert again.cached is True and again.result == jobs[0].result


def test_errors_and_introspection():
    scheduler = JobScheduler()
    with pytest.raises(ServiceError, match="unknown job id"):
        scheduler.job("job-zzz")
    with pytest.raises(SpecError):
        scheduler.submit_run({"adversary": "static-path"})  # missing n
    with pytest.raises(ServiceError, match="workers"):
        JobScheduler(workers=0)
    job = scheduler.submit_run({"adversary": "static-path", "n": 6})
    with pytest.raises(ServiceError, match="still"):
        scheduler.wait(job.job_id, timeout=0.05)  # never started
