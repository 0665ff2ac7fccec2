"""Durability acceptance: job journal, restart recovery, hang/leak fixes.

The headline test kills a serving process with ``SIGKILL`` mid-way
through the E5 experiment graph, restarts it on the same journal +
cache, and asserts the job completes with **only the never-finished
frontier recomputed** and a byte-identical result -- on both matrix
backends.  Around it: journal round-trip/torn-write/compaction unit
tests, scheduler recovery semantics (done jobs re-resolve from the
cache, failed jobs keep their error, the frontier re-enqueues under its
original ids), the shutdown-race fix, the request-body cap (413), the
client socket timeout against a stalled server, and the long-poll
``watch`` push-update path.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.adversaries.paths import StaticPathAdversary
from repro.errors import (
    JournalError,
    PayloadTooLargeError,
    ServiceConnectionError,
)
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.journal import JOURNAL_FORMAT_VERSION, JobJournal
from repro.service.scheduler import JobScheduler
from repro.service import server as service_server
from repro.service.server import ServiceServer
from repro.service.specs import canonical_run_spec, register_adversary, spec_digest
from repro.service.tasks import TaskGraph, TaskGraphRunner, graph_digest

from helpers import unregister_adversary

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Journal mechanics
# ----------------------------------------------------------------------


class TestJournalMechanics:
    def test_round_trip_latest_state_wins(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record_submit("job-000001", "run", "d1", {"n": 6})
        journal.record_submit("job-000002", "run", "d2", {"n": 8})
        journal.record_state("job-000001", "running")
        journal.record_state("job-000001", "done")
        journal.record_state("job-000002", "failed", error="boom")
        entries = journal.replay()
        assert list(entries) == ["job-000001", "job-000002"]
        assert entries["job-000001"].status == "done"
        assert entries["job-000001"].terminal
        assert entries["job-000002"].status == "failed"
        assert entries["job-000002"].error == "boom"
        assert entries["job-000002"].spec == {"n": 8}
        journal.close()

    def test_torn_final_line_is_repaired_on_open(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-000001", "run", "d1", {"n": 6})
        journal.close()
        # Simulate SIGKILL mid-write: a torn, unterminated final record.
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "state", "job_id": "job-00')
        reopened = JobJournal(path)
        entries = reopened.replay()
        assert list(entries) == ["job-000001"]
        assert entries["job-000001"].status == "queued"
        # New appends land on clean framing, not on the torn fragment.
        reopened.record_state("job-000001", "done")
        assert reopened.replay()["job-000001"].status == "done"
        reopened.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-000001", "run", "d1", {})
        journal.close()
        lines = path.read_text().splitlines()
        path.write_text("not json\n" + "\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="not valid JSON"):
            JobJournal(path).replay()

    def test_format_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        doc = {
            "format_version": JOURNAL_FORMAT_VERSION + 1,
            "event": "submit",
            "job_id": "job-000001",
            "kind": "run",
            "digest": "d",
            "spec": {},
        }
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(JournalError, match="unsupported journal format"):
            JobJournal(path).replay()

    def test_state_for_unknown_job_is_ignored(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record_state("job-999999", "done")
        journal.record_submit("job-000001", "run", "d1", {})
        assert list(journal.replay()) == ["job-000001"]
        journal.close()

    def test_compact_drops_terminal_keeps_frontier(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record_submit("job-000001", "run", "d1", {"n": 6})
        journal.record_state("job-000001", "done")
        journal.record_submit("job-000002", "run", "d2", {"n": 8})
        journal.record_state("job-000002", "running")
        journal.record_submit("job-000003", "run", "d3", {"n": 10})
        report = journal.compact()
        assert report["dropped_jobs"] == 1 and report["kept_jobs"] == 2
        assert report["after_bytes"] < report["before_bytes"]
        entries = journal.replay()
        assert list(entries) == ["job-000002", "job-000003"]
        assert entries["job-000002"].status == "running"
        assert entries["job-000003"].status == "queued"
        # The reopened append handle still works after the os.replace.
        journal.record_state("job-000003", "done")
        assert journal.replay()["job-000003"].status == "done"
        journal.close()


# ----------------------------------------------------------------------
# Scheduler durability + recovery
# ----------------------------------------------------------------------


RUN_SPEC = {"adversary": "rotating-path", "n": 8, "params": {"shift": 1}}


class TestSchedulerRecovery:
    def test_lifecycle_is_journaled(self, tmp_path):
        journal_path = tmp_path / "jobs.jsonl"
        with JobScheduler(journal=journal_path) as sched:
            job = sched.submit_run(RUN_SPEC)
            sched.wait(job.job_id, timeout=30)
        entries = JobJournal(journal_path).replay()
        assert entries[job.job_id].status == "done"
        assert entries[job.job_id].spec == canonical_run_spec(RUN_SPEC)
        assert entries[job.job_id].digest == job.digest

    def test_recover_reenqueues_unfinished_frontier(self, tmp_path):
        journal_path = tmp_path / "jobs.jsonl"
        spec = canonical_run_spec(RUN_SPEC)
        journal = JobJournal(journal_path)
        journal.record_submit("job-000007", "run", spec_digest(spec), spec)
        journal.record_state("job-000007", "running")  # killed mid-run
        journal.close()
        sched = JobScheduler(journal=journal_path)
        assert sched.recover() == 1
        assert sched.recover() == 0  # idempotent
        job = sched.job("job-000007")  # original id survives the restart
        assert job.status == "queued"
        with sched:
            done = sched.wait("job-000007", timeout=30)
            assert done.status == "done" and done.result is not None
            # The id counter advanced past every replayed id.
            assert sched.submit_sweep(
                {"adversaries": ["static-path"], "ns": [6]}
            ).job_id == "job-000008"
        assert sched.metrics()["recovered_jobs"] == 1

    def test_recover_done_job_resolves_from_cache(self, tmp_path):
        journal_path = tmp_path / "jobs.jsonl"
        cache_path = tmp_path / "cache.jsonl"
        with JobScheduler(
            cache=ResultCache(path=cache_path), journal=journal_path
        ) as sched:
            job_id = sched.submit_run(RUN_SPEC).job_id
            result = sched.wait(job_id, timeout=30).result
        restarted = JobScheduler(
            cache=ResultCache(path=cache_path), journal=journal_path
        )
        assert restarted.recover() == 0  # nothing to recompute
        job = restarted.job(job_id)
        assert job.status == "done" and job.cached is True
        assert job.result == result  # byte-identical via the JSON cache

    def test_recover_done_job_with_lost_cache_recomputes(self, tmp_path):
        journal_path = tmp_path / "jobs.jsonl"
        with JobScheduler(journal=journal_path) as sched:  # memory-only cache
            job_id = sched.submit_run(RUN_SPEC).job_id
            result = sched.wait(job_id, timeout=30).result
        restarted = JobScheduler(journal=journal_path)
        assert restarted.recover() == 1  # result lost with the process
        with restarted:
            job = restarted.wait(job_id, timeout=30)
        assert job.status == "done" and job.result == result

    def test_recover_failed_job_keeps_error(self, tmp_path):
        journal_path = tmp_path / "jobs.jsonl"
        journal = JobJournal(journal_path)
        journal.record_submit("job-000001", "run", "dead", {"n": 6})
        journal.record_state("job-000001", "failed", error="AdversaryError: bad")
        journal.close()
        sched = JobScheduler(journal=journal_path)
        assert sched.recover() == 0
        job = sched.job("job-000001")
        assert job.status == "failed" and job.error == "AdversaryError: bad"

    @pytest.mark.parametrize("executor", ["batch", "sequential"])
    def test_recovered_unknown_adversary_fails_alone(self, tmp_path, executor):
        """A journaled run whose adversary is no longer registered fails
        its own job; the run batched next to it still finishes."""
        journal_path = tmp_path / "jobs.jsonl"
        register_adversary("doomed", StaticPathAdversary)
        try:
            sched = JobScheduler(executor=executor, journal=journal_path)
            kept = sched.submit_run({"adversary": "static-path", "n": 6}).job_id
            doomed = sched.submit_run({"adversary": "doomed", "n": 6}).job_id
            sweep = sched.submit_sweep({"adversaries": ["doomed"], "ns": [6]}).job_id
            sched.stop()
        finally:
            unregister_adversary("doomed")
        restarted = JobScheduler(executor=executor, journal=journal_path)
        assert restarted.recover() == 1
        with restarted:
            assert restarted.wait(kept, timeout=30).status == "done"
        job = restarted.job(doomed)
        assert job.status == "failed"
        assert "unrecoverable run spec" in job.error
        assert "unknown adversary 'doomed'" in job.error
        assert "unrecoverable sweep spec" in restarted.job(sweep).error
        replayed = JobJournal(journal_path).replay()
        assert replayed[doomed].status == replayed[sweep].status == "failed"

    def test_recovered_graph_recomputes_only_missing_nodes(self, tmp_path):
        """The warm-frontier property, deterministically (no kill).

        A graph job journaled as ``running`` is recovered against a
        cache holding a strict subset of its node results: the resumed
        run must recompute exactly the missing nodes, and the final
        result must be byte-identical to an undisturbed run.
        """
        graph = TaskGraph()
        runs = [
            graph.add(
                {
                    "kind": "run",
                    "payload": {
                        "adversary": "rotating-path",
                        "n": n,
                        "params": {"shift": 1},
                    },
                }
            )
            for n in (6, 8, 10, 12)
        ]
        outputs = list(graph.sinks())
        spec = graph.to_doc()
        spec["outputs"] = outputs
        digest = graph_digest(graph, outputs)

        # Reference run (fresh cache) = the undisturbed result, on the
        # same executor the scheduler dispatches with.
        reference = TaskGraphRunner(executor="batch", cache=ResultCache()).run(
            graph, outputs
        )
        assert reference.ok

        # Pre-warm a new cache with half the nodes -- "what finished
        # before the crash" -- via the persistent JSONL tier.
        cache_path = tmp_path / "cache.jsonl"
        warm = ResultCache(path=cache_path)
        for done_digest in runs[:2]:
            warm.store(done_digest, "run", reference.results[done_digest])

        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.record_submit("job-000003", "graph", digest, spec)
        journal.record_state("job-000003", "running")
        journal.close()

        sched = JobScheduler(
            cache=ResultCache(path=cache_path), journal=tmp_path / "jobs.jsonl"
        )
        assert sched.recover() == 1
        with sched:
            job = sched.wait("job-000003", timeout=60)
        assert job.status == "done"
        # Only the two never-finished nodes recomputed.
        assert job.result["stats"]["runs_computed"] == 2
        cached_nodes = [
            d for d, node in job.result["tasks"].items() if node["cached"]
        ]
        assert set(cached_nodes) == set(runs[:2])
        # Byte-identical to the undisturbed run.
        for d in runs:
            assert job.result["tasks"][d]["status"] == "done"
            assert sched.cache.lookup(d, kind="run") == reference.results[d]

    def test_metrics_report_journal_bytes(self, tmp_path):
        sched = JobScheduler(journal=tmp_path / "jobs.jsonl")
        assert sched.metrics()["journal_bytes"] == 0
        with sched:
            sched.wait(sched.submit_run(RUN_SPEC).job_id, timeout=30)
        assert sched.metrics()["journal_bytes"] > 0
        assert JobScheduler().metrics()["journal_bytes"] == 0  # journal-less


# ----------------------------------------------------------------------
# Shutdown race + concurrent stop
# ----------------------------------------------------------------------


class TestShutdownRace:
    def test_concurrent_stop_is_idempotent(self):
        server = ServiceServer().start()
        client = ServiceClient.from_url(server.url)
        assert client.healthz()["status"] == "ok"
        errors = []

        def stopper():
            try:
                server.stop()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=stopper) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert server._stopped.is_set()
        server.stop()  # and once more, after the fact

    def test_api_shutdown_racing_direct_stop(self):
        server = ServiceServer().start()
        client = ServiceClient.from_url(server.url)
        client.shutdown()  # async stop from a handler thread
        server.stop()  # racing direct stop (the SIGTERM path)
        assert server._stopped.wait(timeout=10)

    def test_scheduler_stop_twice(self, tmp_path):
        sched = JobScheduler(journal=tmp_path / "jobs.jsonl").start()
        sched.stop()
        sched.stop()


# ----------------------------------------------------------------------
# Request-body cap (413) + client socket timeout
# ----------------------------------------------------------------------


class TestBodyCap:
    def test_oversized_body_rejected_with_413(self, monkeypatch):
        monkeypatch.setattr(service_server, "MAX_BODY_BYTES", 1024)
        with ServiceServer() as server:
            client = ServiceClient.from_url(server.url)
            big = dict(RUN_SPEC, params={"shift": 1, "pad": "x" * 4096})
            with pytest.raises(PayloadTooLargeError) as info:
                client.submit_run(big)
            assert info.value.status == 413
            assert "1024" in str(info.value)
            # The server survives and keeps answering.
            assert client.healthz()["status"] == "ok"
            small = client.submit_run(RUN_SPEC)
            assert client.wait(small["job_id"], timeout=30)["status"] == "done"


class TestClientTimeout:
    def test_stalled_server_times_out_not_hangs(self):
        """A handler that never answers must fail the client within its
        timeout -- the hang this PR fixes -- not block forever."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            client = ServiceClient(host, port, timeout=0.5)
            started = time.monotonic()
            with pytest.raises(ServiceConnectionError, match="timed out after 0.5s"):
                client.healthz()
            assert time.monotonic() - started < 5.0
        finally:
            listener.close()

    def test_per_request_timeout_override(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            client = ServiceClient(host, port, timeout=300.0)
            started = time.monotonic()
            with pytest.raises(ServiceConnectionError, match="timed out"):
                client._checked("GET", "/healthz", timeout=0.3)
            assert time.monotonic() - started < 5.0
        finally:
            listener.close()


# ----------------------------------------------------------------------
# Long-poll watch
# ----------------------------------------------------------------------


class TestWatch:
    def test_watch_streams_updates_until_terminal(self):
        with ServiceServer() as server:
            client = ServiceClient.from_url(server.url)
            graph = TaskGraph()
            for n in (6, 8, 10):
                graph.add(
                    {
                        "kind": "run",
                        "payload": {
                            "adversary": "rotating-path",
                            "n": n,
                            "params": {"shift": 2},
                        },
                    }
                )
            envelope = client.submit_tasks(graph.to_doc()["tasks"])
            docs = list(client.watch(envelope["job_id"], timeout=60))
            assert docs, "watch must yield at least the current state"
            versions = [doc["version"] for doc in docs]
            assert versions == sorted(set(versions)), "versions move forward"
            assert docs[-1]["status"] == "done"
            assert all(
                node["status"] == "done" for node in docs[-1]["tasks"].values()
            )

    def test_watch_bad_version_is_rejected(self):
        from repro.errors import SpecRejectedError

        with ServiceServer() as server:
            client = ServiceClient.from_url(server.url)
            job = client.submit_run(RUN_SPEC)
            with pytest.raises(SpecRejectedError, match="watch version"):
                client._checked(
                    "GET", f"/v1/tasks/{job['job_id']}?watch=banana"
                )


# ----------------------------------------------------------------------
# The acceptance test: SIGKILL mid-graph, restart, resume
# ----------------------------------------------------------------------


def _wait_for_url(proc: subprocess.Popen, deadline: float = 30.0) -> str:
    """Read the serve banner until the bound URL appears."""
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"serve exited early (rc={proc.poll()}) without printing a URL"
            )
        if "listening on " in line:
            return line.rsplit("listening on ", 1)[1].strip()
    raise AssertionError("serve did not print its URL in time")


def _serve_subprocess(tmp_path: Path, backend: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_BACKEND"] = backend
    return subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--cache",
            str(tmp_path / "cache.jsonl"),
            "--journal",
            str(tmp_path / "jobs.jsonl"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


@pytest.mark.parametrize("backend", ["dense", "bitset"])
def test_sigkill_midgraph_restart_resumes_frontier(tmp_path, backend):
    """Kill -9 a serving process mid-E5, restart on the same journal +
    cache: the job resumes under its original id, recomputes only the
    never-finished frontier, and the output is byte-identical."""
    from repro.experiments.registry import experiment_graph

    graph, output = experiment_graph("E5")
    doc = graph.to_doc()
    total_runs = sum(1 for d in graph.order if graph[d].kind == "run")

    # Reference result: the undisturbed graph on a throwaway cache.
    reference = TaskGraphRunner(executor="batch", cache=ResultCache()).run(
        graph, [output]
    )
    assert reference.ok

    proc = _serve_subprocess(tmp_path, backend)
    try:
        client = ServiceClient.from_url(_wait_for_url(proc))
        envelope = client.submit_tasks(doc["tasks"], outputs=[output])
        job_id = envelope["job_id"]
        # Let real progress land in the persistent cache, then kill -9.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            snapshot = client.task_job(job_id)
            done_nodes = sum(
                1
                for node in snapshot["tasks"].values()
                if node["status"] == "done"
            )
            if done_nodes >= 1 or snapshot["status"] == "done":
                break
            time.sleep(0.01)
        else:  # pragma: no cover - diagnostics only
            raise AssertionError("no node finished before the kill window")
    finally:
        proc.kill() if sys.platform == "win32" else os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()

    # Ground truth after the kill: what the journal and cache actually
    # recorded (>= what we observed over HTTP before the signal landed).
    finished_before_kill = (
        JobJournal(tmp_path / "jobs.jsonl").replay()[job_id].status == "done"
    )
    survived = ResultCache(path=tmp_path / "cache.jsonl")
    warm_runs = sum(
        1 for d in graph.order if graph[d].kind == "run" and d in survived
    )

    proc = _serve_subprocess(tmp_path, backend)
    try:
        client = ServiceClient.from_url(_wait_for_url(proc))
        # The original job id answers across the restart.
        recovered = client.task_job(job_id)
        assert recovered["status"] in ("queued", "running", "done")
        final = client.wait(job_id, timeout=300)
        assert final["status"] == "done"
        assert warm_runs >= 1  # the kill window guaranteed progress
        if finished_before_kill:
            # Degenerate timing: the graph completed before the kill
            # landed, so the restart restores it straight from the cache.
            assert final["cached"] is True
        else:
            # Only the never-finished frontier recomputed: every run
            # node that survived in the cache came back as a hit.
            stats = final["result"]["stats"]
            assert stats["runs_computed"] == total_runs - warm_runs
            assert stats["cached"] >= warm_runs
            assert client.metrics()["recovered_jobs"] >= 1
        # Byte-identical output (JSON documents compare exactly).
        assert final["result"]["outputs"][output] == reference.results[output]
        client.shutdown()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=15)
        proc.stdout.close()
