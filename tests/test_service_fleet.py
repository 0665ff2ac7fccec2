"""Distributed worker fleet: lease semantics, byte-identity, recovery.

The acceptance criteria pinned here:

* **lease lifecycle** (virtual clock, no sleeps): heartbeat renewal
  extends the deadline; an expired lease's items are reclaimed and a
  late ``work:complete`` from the dead lease is dropped and counted,
  never double-landed -- landing is exactly-once per digest;
* **byte-identity by construction**: a graph/sweep executed through
  :class:`FleetExecutor` produces result documents identical to plain
  local execution on both backends, with zero workers (local-fallback
  path), with live workers, and when a worker is SIGKILL'd mid-batch;
* **restart accounting**: lease transitions are journaled, folded by
  ``replay_leases``, dropped by ``compact``, and counted by
  ``WorkQueue.recover``;
* **client hardening**: ``retry_connect`` retries idempotent GETs only.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine.executor import get_executor
from repro.errors import LeaseExpiredError, ServiceConnectionError, ServiceError
from repro.obs import trace as obs_trace
from repro.service.cache import ResultCache, report_to_doc
from repro.service.client import ServiceClient
from repro.service.fleet import FleetExecutor, WorkQueue
from repro.service.journal import JobJournal
from repro.service.server import ServiceServer
from repro.service import client as service_client
from repro.service import fleet as service_fleet
from repro.service import specs as service_specs
from repro.service.specs import SpecHandle, spec_digest, to_run_spec
from repro.service.tasks import TaskGraph, run_graph, sweep_graph
from repro.service.tenancy import TenantRegistry
from repro.service.worker import FleetWorker

from helpers import count_calls

SRC = str(Path(__file__).resolve().parents[1] / "src")


class Clock:
    """Injectable monotonic clock for deterministic lease expiry."""

    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _payload(n: int = 8, adversary: str = "static-path") -> dict:
    return SpecHandle(adversary).cell_spec(n, None, "dense")


def _good_result(payload: dict) -> dict:
    report = get_executor("batch").run(to_run_spec(payload))
    return {"digest": spec_digest(payload), "ok": True, "doc": report_to_doc(report)}


def _offer(queue: WorkQueue, payloads) -> list:
    digests = [spec_digest(p) for p in payloads]
    queue.offer(
        [{"digest": d, "payload": p, "traceparent": None}
         for d, p in zip(digests, payloads)],
        engine="batch",
    )
    return digests


# ----------------------------------------------------------------------
# WorkQueue lease semantics (virtual clock)
# ----------------------------------------------------------------------


class TestLeaseSemantics:
    def test_claim_empty_queue_mints_no_lease(self):
        queue = WorkQueue(ResultCache(), clock=Clock())
        claim = queue.claim("w", limit=4)
        assert claim == {"lease_id": None, "ttl": queue.lease_ttl, "items": []}
        assert queue.metrics()["counters"]["claims"] == 0

    def test_heartbeat_renews_the_deadline(self):
        clock = Clock()
        queue = WorkQueue(ResultCache(), lease_ttl=10.0, clock=clock)
        _offer(queue, [_payload(6)])
        claim = queue.claim("w1")
        assert len(claim["items"]) == 1 and claim["ttl"] == 10.0
        # Renew just before expiry, twice: the lease outlives 2x its TTL.
        for _ in range(2):
            clock.advance(9.0)
            assert queue.heartbeat("w1", claim["lease_id"])["ttl"] == 10.0
        assert queue.metrics()["leases"] == 1
        # Stop heartbeating: the lease expires and the item is reclaimed.
        clock.advance(10.5)
        with pytest.raises(LeaseExpiredError):
            queue.heartbeat("w1", claim["lease_id"])
        m = queue.metrics()
        assert m["counters"]["lease_expiries"] == 1
        assert m["ready"] == 1 and m["leases"] == 0

    def test_expiry_reclaim_then_exactly_once_landing(self):
        clock = Clock()
        cache = ResultCache()
        queue = WorkQueue(cache, lease_ttl=5.0, clock=clock)
        payload = _payload(7)
        (digest,) = _offer(queue, [payload])
        dead = queue.claim("slow-worker")
        clock.advance(6.0)  # slow-worker's lease expires
        live = queue.claim("live-worker")
        assert [i["digest"] for i in live["items"]] == [digest]
        assert queue.metrics()["counters"]["reclaimed"] == 1

        result = _good_result(payload)
        landed = queue.complete("live-worker", live["lease_id"], [result])
        assert landed == {"accepted": 1, "dropped": 0, "late": False}
        assert cache.lookup(digest, "run") is not None
        entries_after_land = cache.stats()["entries"]

        # The dead lease's duplicate is dropped, counted, and does not
        # touch the cache again -- no double-charge, no double-land.
        late = queue.complete("slow-worker", dead["lease_id"], [result])
        assert late == {"accepted": 0, "dropped": 1, "late": True}
        m = queue.metrics()
        assert m["counters"]["late_completions"] == 1
        assert m["counters"]["completions_ok"] == 1
        assert cache.stats()["entries"] == entries_after_land
        assert m["workers"]["slow-worker"]["lease_expiries"] == 1
        assert m["workers"]["live-worker"]["completed"] == 1

    def test_unreported_items_requeue_and_foreign_digests_drop(self):
        clock = Clock()
        queue = WorkQueue(ResultCache(), clock=clock)
        payloads = [_payload(6), _payload(9)]
        d6, d9 = _offer(queue, payloads)
        claim = queue.claim("w", limit=2)
        assert len(claim["items"]) == 2
        out = queue.complete(
            "w",
            claim["lease_id"],
            [_good_result(payloads[0]), {"digest": "bogus", "ok": True, "doc": {}}],
        )
        assert out["accepted"] == 1 and out["dropped"] == 1
        m = queue.metrics()
        assert m["counters"]["invalid_results"] == 1
        assert m["ready"] == 1  # d9 went back to ready
        assert queue.claim("w")["items"][0]["digest"] == d9

    def test_undecodable_doc_is_requeued_not_trusted(self):
        clock = Clock()
        queue = WorkQueue(ResultCache(), clock=clock)
        payload = _payload(6)
        (digest,) = _offer(queue, [payload])
        claim = queue.claim("w")
        out = queue.complete(
            "w",
            claim["lease_id"],
            [{"digest": digest, "ok": True, "doc": {"garbage": True}}],
        )
        assert out["accepted"] == 0 and out["dropped"] == 1
        assert queue.metrics()["ready"] == 1
        assert queue.cache.lookup(digest, "run") is None

    def test_stranded_after_max_requeues_withdraws_immediately(self, monkeypatch):
        monkeypatch.setattr(service_fleet, "MAX_REQUEUES", 1)
        clock = Clock()
        queue = WorkQueue(ResultCache(), lease_ttl=1.0, clock=clock)
        (digest,) = _offer(queue, [_payload(6)])
        for _ in range(2):  # two expiry-driven requeues > MAX_REQUEUES=1
            queue.claim("crashy")
            clock.advance(2.0)
            queue.collect([digest], timeout=0)  # sweeps
        assert queue.metrics()["counters"]["stranded"] == 1
        # Stranded items qualify for local withdrawal regardless of age.
        assert queue.withdraw_for_local([digest], max_age=999.0) == [digest]

    def test_offer_dedup_refcount_and_forget_gc(self):
        clock = Clock()
        queue = WorkQueue(ResultCache(), clock=clock)
        payload = _payload(6)
        (digest,) = _offer(queue, [payload])
        _offer(queue, [payload])  # second waiter, same digest
        assert queue.metrics()["counters"]["offered"] == 1
        withdrawn = queue.withdraw_for_local([digest], max_age=0.0)
        assert withdrawn == [digest]
        queue.resolve_local(digest, ("error", "boom"))
        assert queue.collect([digest], timeout=0) == {digest: ("error", "boom")}
        queue.forget([digest])
        assert queue.metrics()["items"] == 1  # one waiter still holds it
        queue.forget([digest])
        assert queue.metrics()["items"] == 0

    def test_worker_error_result_settles_item(self):
        clock = Clock()
        queue = WorkQueue(ResultCache(), clock=clock)
        (digest,) = _offer(queue, [_payload(6)])
        claim = queue.claim("w")
        queue.complete(
            "w", claim["lease_id"], [{"digest": digest, "ok": False, "error": "boom"}]
        )
        assert queue.collect([digest], timeout=0) == {digest: ("error", "boom")}
        assert queue.metrics()["counters"]["completions_err"] == 1


# ----------------------------------------------------------------------
# FleetExecutor byte-identity
# ----------------------------------------------------------------------


def _docs(reports) -> list:
    return [report_to_doc(r) for r in reports]


class TestFleetExecutorIdentity:
    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    def test_zero_workers_falls_back_byte_identical(self, backend):
        specs = [
            to_run_spec({"adversary": "static-path", "n": n, "backend": backend})
            for n in (6, 8, 10)
        ]
        queue = WorkQueue(ResultCache())
        fleet = FleetExecutor(queue, fallback="batch", claim_deadline=30.0)
        t0 = time.monotonic()
        got = fleet.run_many(specs)
        assert time.monotonic() - t0 < 10.0  # never waited for a claim
        want = get_executor("batch").run_many(specs)
        assert _docs(got) == _docs(want)
        counters = queue.metrics()["counters"]
        assert counters["offered"] == 3 and counters["local_fallbacks"] == 3
        assert queue.metrics()["items"] == 0  # everything forgotten

    def test_local_fallback_validates_each_payload_once(self, monkeypatch):
        """The task graph canonicalizes each run once; the fleet offers
        and the fallback runs that payload without validating it again."""
        graph, output = sweep_graph({"adversaries": ["static-path", "static-star"], "ns": [4, 6]})
        calls = count_calls(monkeypatch, service_specs, "canonical_run_spec")
        fleet = FleetExecutor(WorkQueue(ResultCache()), fallback="batch")
        run = run_graph(graph, outputs=[output], executor=fleet)
        assert run.ok
        assert len(run.result(output)["points"]) == 4
        assert len(calls) == 0

    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    def test_in_process_worker_byte_identical(self, backend):
        queue = WorkQueue(ResultCache(), lease_ttl=30.0)
        stop = threading.Event()

        def worker_loop():
            executor = get_executor("batch")
            while not stop.is_set():
                claim = queue.claim("thread-worker", limit=4, wait=0.1)
                if not claim["items"]:
                    continue
                results = []
                for item in claim["items"]:
                    report = executor.run(to_run_spec(item["payload"]))
                    results.append(
                        {"digest": item["digest"], "ok": True,
                         "doc": report_to_doc(report)}
                    )
                queue.complete("thread-worker", claim["lease_id"], results)

        thread = threading.Thread(target=worker_loop, daemon=True)
        thread.start()
        try:
            # Register the worker before dispatch so the executor waits
            # for a claim instead of falling back instantly.
            deadline = time.monotonic() + 5.0
            while not queue.has_active_workers() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert queue.has_active_workers()
            specs = [
                to_run_spec(
                    {"adversary": a, "n": n, "backend": backend}
                )
                for a in ("static-path", "rotating-path")
                for n in (6, 9)
            ]
            fleet = FleetExecutor(queue, fallback="batch", claim_deadline=20.0)
            got = fleet.run_many(specs)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert _docs(got) == _docs(get_executor("batch").run_many(specs))
        m = queue.metrics()
        assert m["counters"]["completions_ok"] == 4
        assert m["counters"]["local_fallbacks"] == 0
        assert m["workers"]["thread-worker"]["completed"] == 4

    def test_non_addressable_specs_run_on_fallback_only(self):
        import dataclasses

        handle = SpecHandle("static-path")
        spec = to_run_spec({"adversary": "static-path", "n": 8})
        opaque = dataclasses.replace(spec, adversary=lambda n: handle(n))
        queue = WorkQueue(ResultCache())
        fleet = FleetExecutor(queue, fallback="batch", claim_deadline=30.0)
        (got,) = fleet.run_many([opaque])
        assert report_to_doc(got) == report_to_doc(get_executor("batch").run(spec))
        assert queue.metrics()["counters"]["offered"] == 0

    def test_duplicate_specs_share_one_execution(self):
        spec = to_run_spec({"adversary": "static-path", "n": 8})
        queue = WorkQueue(ResultCache())
        fleet = FleetExecutor(queue, fallback="batch", claim_deadline=0.0)
        got = fleet.run_many([spec, spec, spec])
        assert len({id(r) for r in got}) == 3  # distinct report objects
        assert len({json.dumps(d, sort_keys=True) for d in _docs(got)}) == 1
        assert queue.metrics()["counters"]["offered"] == 1


# ----------------------------------------------------------------------
# Journal + recovery accounting
# ----------------------------------------------------------------------


class TestLeaseJournal:
    def test_lease_lines_fold_and_do_not_disturb_replay(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record_lease("L1", "w1", "granted", digests=["d1", "d2"])
        journal.record_lease("L2", "w2", "granted", digests=["d3"])
        journal.record_lease("L1", "w1", "completed")
        assert journal.replay() == {}  # lease lines are not job entries
        leases = journal.replay_leases()
        assert list(leases) == ["L1", "L2"]
        assert leases["L1"]["status"] == "completed"
        assert leases["L2"] == {
            "worker": "w2", "status": "granted", "digests": ["d3"],
        }

    def test_recover_counts_in_flight_leases(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record_lease("L1", "w1", "granted", digests=["d1"])
        journal.record_lease("L1", "w1", "expired")
        journal.record_lease("L2", "w2", "granted", digests=["d2"])
        queue = WorkQueue(ResultCache())
        assert queue.recover(journal) == 1  # only L2 was still in flight
        m = queue.metrics()
        assert m["counters"]["recovered_lost_leases"] == 1
        assert m["workers"]["w2"]["lease_expiries"] == 1

    def test_compact_drops_lease_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", "run", "digest-1", {"n": 8})
        journal.record_lease("L1", "w1", "granted", digests=["d1"])
        journal.compact()
        reopened = JobJournal(path)
        assert reopened.replay_leases() == {}
        assert list(reopened.replay()) == ["job-1"]

    def test_queue_journals_grant_complete_expire(self, tmp_path):
        clock = Clock()
        journal = JobJournal(tmp_path / "j.jsonl")
        queue = WorkQueue(
            ResultCache(), lease_ttl=5.0, journal=journal, clock=clock
        )
        payload = _payload(6)
        (digest,) = _offer(queue, [payload])
        first = queue.claim("w1")
        clock.advance(6.0)
        second = queue.claim("w1")  # sweeps the expired lease, reclaims
        queue.complete("w1", second["lease_id"], [_good_result(payload)])
        leases = journal.replay_leases()
        assert leases[first["lease_id"]]["status"] == "expired"
        assert leases[first["lease_id"]]["digests"] == [digest]
        assert leases[second["lease_id"]]["status"] == "completed"


# ----------------------------------------------------------------------
# Tenancy + trace plumbing
# ----------------------------------------------------------------------


def test_worker_claims_are_accounted_per_tenant():
    registry = TenantRegistry()
    registry.on_worker_claim("team-a")
    registry.on_worker_claim("team-a")
    assert registry.metrics()["team-a"]["worker_claims"] == 2


def test_parented_span_joins_the_submitting_trace(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    try:
        with obs_trace.span("request"):
            header = obs_trace.current_context().to_header()
        with obs_trace.parented(header):
            with obs_trace.span("worker", worker="w1"):
                pass
    finally:
        obs_trace.disable()
    spans = obs_trace.read_spans(str(sink))
    by_name = {s["name"]: s for s in spans}
    assert by_name["worker"]["trace_id"] == by_name["request"]["trace_id"]


# ----------------------------------------------------------------------
# Output-cone pruning (TaskGraphRunner)
# ----------------------------------------------------------------------


class TestOutputConePruning:
    def _two_island_graph(self):
        graph = TaskGraph()
        a = graph.add_run({"adversary": "static-path", "n": 8})
        b = graph.add_run({"adversary": "rotating-path", "n": 8})
        return graph, a, b

    def test_requested_outputs_prune_everything_outside_the_cone(self):
        graph, a, b = self._two_island_graph()
        run = run_graph(graph, outputs=[a], executor="sequential")
        assert run.ok
        assert run.stats["pruned"] == 1
        assert run.statuses[b]["status"] == "pruned"
        assert a in run.results and b not in run.results
        assert run.stats["runs_computed"] == 1

    def test_cone_is_transitively_closed_through_inputs(self):
        graph = TaskGraph()
        cells = []
        for n in (6, 8):
            cells.append(graph.add_run({"adversary": "static-path", "n": n}))
        stray = graph.add_run({"adversary": "rotating-path", "n": 8})
        agg = graph.add(
            {
                "kind": "sweep-agg",
                "payload": {"cells": [{"label": "p", "n": 6}, {"label": "p", "n": 8}]},
                "inputs": cells,
            }
        )
        run = run_graph(graph, outputs=[agg], executor="sequential")
        assert run.ok
        assert run.statuses[stray]["status"] == "pruned"
        assert all(run.statuses[d]["status"] == "done" for d in (*cells, agg))

    def test_default_sinks_prune_nothing(self):
        graph, a, b = self._two_island_graph()
        run = run_graph(graph, executor="sequential")
        assert run.ok and run.stats["pruned"] == 0
        assert a in run.results and b in run.results


# ----------------------------------------------------------------------
# ServiceClient retry-on-connect (idempotent GETs only)
# ----------------------------------------------------------------------


class TestClientConnectRetry:
    def _flaky_client(self, failures: int, retry_connect: int):
        client = ServiceClient("127.0.0.1", 1, retry_connect=retry_connect)
        calls = {"n": 0}
        real_request = client._request

        def flaky(method, path, body=None, timeout=None):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise ServiceConnectionError("connection refused")
            return 200, {"status": "ok"}

        client._request = flaky  # type: ignore[method-assign]
        assert real_request is not flaky
        return client, calls

    def test_get_retries_up_to_budget_then_succeeds(self, monkeypatch):
        monkeypatch.setattr(service_client, "MAX_RETRY_WAIT", 0.01)
        client, calls = self._flaky_client(failures=2, retry_connect=3)
        assert client.healthz() == {"status": "ok"}
        assert calls["n"] == 3

    def test_get_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(service_client, "MAX_RETRY_WAIT", 0.01)
        client, calls = self._flaky_client(failures=5, retry_connect=2)
        with pytest.raises(ServiceConnectionError):
            client.healthz()
        assert calls["n"] == 3  # 1 try + 2 retries

    def test_post_is_never_connection_retried(self):
        client, calls = self._flaky_client(failures=1, retry_connect=5)
        with pytest.raises(ServiceConnectionError):
            client.submit_run({"adversary": "static-path", "n": 8})
        assert calls["n"] == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ServiceError):
            ServiceClient("127.0.0.1", 1, retry_connect=-1)


# ----------------------------------------------------------------------
# HTTP end-to-end: fleet server + workers
# ----------------------------------------------------------------------


def _start_worker_thread(url: str, name: str, **kwargs):
    worker = FleetWorker(
        ServiceClient.from_url(url), name=name, poll=0.2, **kwargs
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def _wait_for_workers(client: ServiceClient, count: int, timeout: float = 10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = client.metrics()["fleet"]["workers"]
        if len(workers) >= count:
            return workers
        time.sleep(0.05)
    raise AssertionError(f"{count} workers never registered")


class TestHttpFleet:
    def test_fleet_sweep_byte_identical_to_plain_server(self):
        sweep = {
            "adversaries": ["static-path", "rotating-path"],
            "ns": [6, 8, 10],
        }
        with ServiceServer() as plain:
            plain_client = ServiceClient.from_url(plain.url)
            want = plain_client.wait(
                plain_client.submit_sweep(sweep)["job_id"], timeout=60
            )["result"]

        with ServiceServer(fleet=True, claim_deadline=10.0) as server:
            client = ServiceClient.from_url(server.url)
            workers = [
                _start_worker_thread(server.url, f"w{i}", batch=2)
                for i in range(2)
            ]
            try:
                _wait_for_workers(client, 2)
                doc = client.wait(
                    client.submit_sweep(sweep)["job_id"], timeout=60
                )
                assert doc["status"] == "done"
                got = doc["result"]
                metrics = client.metrics()["fleet"]
            finally:
                for worker, _ in workers:
                    worker.stop()
                for _, thread in workers:
                    thread.join(timeout=10)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        counters = metrics["counters"]
        assert counters["completions_ok"] == 6
        assert counters["local_fallbacks"] == 0
        assert sum(w["completed"] for w in metrics["workers"].values()) == 6

    def test_e5_experiment_graph_matches_local_run(self):
        from repro.experiments import experiment_graph

        graph, output = experiment_graph("E5")
        local = run_graph(graph, outputs=[output], executor="batch")
        want = local.result(output)

        doc = graph.to_doc()
        with ServiceServer(fleet=True, claim_deadline=15.0) as server:
            client = ServiceClient.from_url(server.url)
            workers = [
                _start_worker_thread(server.url, f"e5-w{i}", batch=4)
                for i in range(2)
            ]
            try:
                _wait_for_workers(client, 2)
                envelope = client.submit_tasks(doc["tasks"], outputs=[output])
                done = client.wait(envelope["job_id"], timeout=120)
                assert done["status"] == "done"
                got = done["result"]["outputs"][output]
                fleet = client.metrics()["fleet"]
            finally:
                for worker, _ in workers:
                    worker.stop()
                for _, thread in workers:
                    thread.join(timeout=10)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert fleet["counters"]["completions_ok"] >= 1

    def test_worker_process_sigkilled_mid_batch_recovers_identically(self):
        sweep = {"adversaries": ["static-path"], "ns": [6, 8, 10, 12]}
        with ServiceServer() as plain:
            plain_client = ServiceClient.from_url(plain.url)
            want = plain_client.wait(
                plain_client.submit_sweep(sweep)["job_id"], timeout=60
            )["result"]

        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
        with ServiceServer(fleet=True, lease_ttl=1.0, claim_deadline=2.0) as server:
            client = ServiceClient.from_url(server.url)
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "worker",
                    "--url", server.url, "--name", "doomed",
                    "--batch", "4", "--poll", "0.2", "--delay", "5",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                _wait_for_workers(client, 1)
                job = client.submit_sweep(sweep)
                # Wait until the worker has a batch in hand, then SIGKILL
                # it mid-delay: its lease must expire and the server's
                # local fallback must recompute the items byte-identically.
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    if client.metrics()["fleet"]["counters"]["claimed_items"] >= 1:
                        break
                    time.sleep(0.05)
                else:
                    raise AssertionError("worker never claimed a batch")
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)
                doc = client.wait(job["job_id"], timeout=120)
                assert doc["status"] == "done"
                got = doc["result"]
                fleet = client.metrics()["fleet"]
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        assert fleet["counters"]["lease_expiries"] >= 1
        assert fleet["workers"]["doomed"]["lease_expiries"] >= 1
        assert fleet["counters"]["local_fallbacks"] >= 1
