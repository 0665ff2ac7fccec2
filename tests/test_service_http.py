"""HTTP/JSON API end-to-end: the CI service smoke + concurrency acceptance.

``test_service_smoke`` is the scripted CI satellite: ephemeral port, one
run + one sweep submitted through the client, polled to completion,
``/metrics`` verified, graceful shutdown.  ``test_concurrent_clients_*``
is the acceptance criterion: >= 8 client threads submitting overlapping
specs produce exactly one computation per unique digest (checked through
``/metrics``) with every response correct.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.executor import SequentialExecutor
from repro.errors import (
    ServiceConnectionError,
    ServiceError,
    SpecError,
    SpecRejectedError,
    UnknownResourceError,
)
from repro.service.cache import report_from_doc
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.service.specs import spec_digest, to_run_spec


@pytest.fixture
def service():
    """A running server on an ephemeral port + a client bound to it."""
    with ServiceServer() as server:
        yield server, ServiceClient.from_url(server.url)


def test_service_smoke(service):
    """The CI smoke: health, run, sweep, metrics, graceful shutdown."""
    server, client = service
    assert client.healthz()["status"] == "ok"
    assert "rotating-path" in client.specs()["adversaries"]

    run_doc = client.submit_run(
        {"adversary": "rotating-path", "n": 16, "params": {"shift": 2}}
    )
    assert run_doc["status"] in ("queued", "running", "done")
    run_doc = client.wait(run_doc["job_id"], timeout=30)
    assert run_doc["status"] == "done"
    assert run_doc["result"]["t_star"] == 15
    report = report_from_doc(run_doc["result"])
    assert report.t_star == 15 and report.n == 16

    sweep_doc = client.submit_sweep(
        {"adversaries": ["static-path", "rotating-path"], "ns": [6, 8]}
    )
    sweep_doc = client.wait(sweep_doc["job_id"], timeout=30)
    assert sweep_doc["status"] == "done"
    assert [p["t_star"] for p in sweep_doc["result"]["points"]] == [5, 5, 7, 7]

    metrics = client.metrics()
    assert metrics["submitted"] == 2
    assert metrics["jobs"]["done"] == 2
    assert metrics["jobs"]["failed"] == 0
    assert metrics["cache"]["entries"] >= 2

    # graceful shutdown via the API: the port stops answering
    client.shutdown()
    server._stopped.wait(timeout=10)
    with pytest.raises(ServiceError, match="failed"):
        client.healthz()


def test_resubmission_is_served_from_cache(service):
    _, client = service
    spec = {"adversary": "k-leaf", "n": 14, "params": {"k": 2}}
    cold = client.wait(client.submit_run(spec)["job_id"], timeout=30)
    warm = client.submit_run({k: spec[k] for k in reversed(list(spec))})
    assert warm["status"] == "done" and warm["cached"] is True
    assert warm["result"] == cold["result"]
    metrics = client.metrics()
    assert metrics["computations"] == 1
    assert metrics["cache"]["hits"] >= 1


#: Adversary names the registry no longer holds.
DELETED_ADVERSARIES = [
    "greedy",
    "beam",
    "runner",
    "two-phase-flip",
    "zeiner-style",
    "sorted-path",
    "alternating-path",
]


@pytest.mark.parametrize("name", DELETED_ADVERSARIES)
def test_deleted_adversaries_are_rejected(service, name):
    _, client = service
    with pytest.raises(SpecError, match=f"unknown adversary '{name}'"):
        to_run_spec({"adversary": name, "n": 8})
    status, doc = client._request("POST", "/v1/runs", {"adversary": name, "n": 8})
    assert status == 400 and f"unknown adversary '{name}'" in doc["error"]
    sweep = {"adversaries": ["static-path", name], "ns": [6]}
    status, doc = client._request("POST", "/v1/sweeps", sweep)
    assert status == 400 and f"unknown adversary '{name}'" in doc["error"]


def test_error_envelopes(service):
    _, client = service
    with pytest.raises(ServiceError, match="unknown adversary"):
        client.submit_run({"adversary": "no-such", "n": 8})
    with pytest.raises(ServiceError, match="missing 'n'"):
        client.submit_run({"adversary": "k-leaf"})
    with pytest.raises(ServiceError, match="unknown job id"):
        client.job("job-999999")
    status, doc = client._request("GET", "/v1/nope")
    assert status == 404 and "error" in doc
    status, _ = client._request("POST", "/v1/runs")  # empty body
    assert status == 400


class TestTypedClientErrors:
    """Satellite: ServiceError subclasses carry HTTP status + payload."""

    def test_malformed_spec_raises_spec_rejected(self, service):
        _, client = service
        with pytest.raises(SpecRejectedError, match="unknown adversary") as info:
            client.submit_run({"adversary": "no-such", "n": 8})
        assert info.value.status == 400
        assert "unknown adversary" in info.value.payload["error"]
        assert isinstance(info.value, ServiceError)  # old handlers still work

    def test_malformed_graph_raises_spec_rejected(self, service):
        _, client = service
        with pytest.raises(SpecRejectedError, match="unknown task kind"):
            client.submit_tasks([{"kind": "no-such", "payload": {}}])

    def test_unknown_id_raises_unknown_resource(self, service):
        _, client = service
        with pytest.raises(UnknownResourceError, match="unknown job id") as info:
            client.job("job-424242")
        assert info.value.status == 404
        with pytest.raises(UnknownResourceError):
            client.task_job("job-424242")
        with pytest.raises(UnknownResourceError, match="unknown path"):
            client._checked("GET", "/v1/nope")

    def test_connection_refused_raises_connection_error(self):
        # Bind an ephemeral port, close it, then talk to the dead socket.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient("127.0.0.1", port, timeout=2.0)
        with pytest.raises(ServiceConnectionError, match="failed"):
            client.healthz()


class TestBatchSubmission:
    """Satellite: POST /v1/runs:batch, per-item envelopes in order."""

    def test_batch_returns_per_item_jobs_in_order(self, service):
        _, client = service
        specs = [
            {"adversary": "static-path", "n": 9},
            {"adversary": "rotating-path", "n": 9, "params": {"shift": 2}},
            {"adversary": "k-leaf", "n": 9},
        ]
        jobs = client.submit_runs(specs)
        assert len(jobs) == 3
        assert [j["spec"]["adversary"] for j in jobs] == [
            "static-path", "rotating-path", "k-leaf",
        ]
        assert [j["digest"] for j in jobs] == [spec_digest(s) for s in specs]
        expected = {
            j["digest"]: SequentialExecutor().run(to_run_spec(s)).t_star
            for j, s in zip(jobs, specs)
        }
        for job in jobs:
            done = client.wait(job["job_id"], timeout=60)
            assert done["status"] == "done"
            assert done["result"]["t_star"] == expected[job["digest"]]

    def test_invalid_items_error_in_place_without_failing_batch(self, service):
        _, client = service
        jobs = client.submit_runs(
            [
                {"adversary": "static-path", "n": 7},
                {"adversary": "no-such", "n": 7},
                {"adversary": "k-leaf"},  # missing n
                {"adversary": "k-leaf", "n": 7},
            ]
        )
        assert "job_id" in jobs[0] and "job_id" in jobs[3]
        assert "unknown adversary" in jobs[1]["error"] and "job_id" not in jobs[1]
        assert "missing 'n'" in jobs[2]["error"]
        assert client.wait(jobs[3]["job_id"], timeout=60)["status"] == "done"

    def test_batch_dedups_against_single_submissions(self, service):
        _, client = service
        spec = {"adversary": "static-path", "n": 11}
        single = client.wait(client.submit_run(spec)["job_id"], timeout=60)
        [job] = client.submit_runs([dict(spec)])
        assert job["digest"] == single["digest"]
        done = client.wait(job["job_id"], timeout=60)
        assert done["cached"] is True
        assert client.metrics()["computations"] == 1

    def test_empty_batch_rejected(self, service):
        _, client = service
        with pytest.raises(SpecRejectedError, match="non-empty"):
            client.submit_runs([])


def test_specs_endpoint_lists_task_kinds(service):
    _, client = service
    doc = client.specs()
    assert "run" in doc["task_kinds"]
    assert "experiment" in doc["task_kinds"]
    assert doc["task_kinds"]["run"]["codec"] == "run-report"


def test_metrics_report_cache_bytes(service):
    _, client = service
    client.wait(client.submit_run({"adversary": "k-leaf", "n": 8})["job_id"], timeout=60)
    cache_stats = client.metrics()["cache"]
    assert cache_stats["bytes"] > 0
    assert "max_bytes" in cache_stats


def test_sweeps_alias_and_job_envelope(service):
    _, client = service
    doc = client.submit_sweep({"adversaries": ["k-leaf"], "ns": [6]})
    done = client.wait(doc["job_id"], timeout=30)
    status, alias = client._request("GET", f"/v1/sweeps/{doc['job_id']}")
    assert status == 200
    assert alias["digest"] == done["digest"]
    assert alias["kind"] == "sweep"
    assert alias["spec"]["ns"] == [6]


def test_sweep_cells_answer_run_submits_from_cache(service):
    """A sweep's grid cells are run entries at the /v1/runs address."""
    _, client = service
    sweep = client.submit_sweep(
        {"adversaries": ["static-path", "rotating-path"], "ns": [6, 8]}
    )
    assert client.wait(sweep["job_id"], timeout=30)["status"] == "done"
    run = client.submit_run({"adversary": "rotating-path", "n": 8})
    assert run["status"] == "done" and run["cached"] is True
    assert run["result"]["t_star"] == 7
    assert client.metrics()["computations"] == 1  # the sweep job alone


def test_cli_submit_reports_truncated_runs_cleanly(service, capsys):
    """A run capped by max_rounds has t_star=None; submit must not crash."""
    from repro.cli import main

    server, _ = service
    rc = main(
        [
            "submit",
            "--url",
            server.url,
            "-n",
            "16",
            "--adversary",
            "static-path",
            "--max-rounds",
            "3",
            "--wait",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "truncated by max_rounds" in out


def test_concurrent_clients_compute_each_digest_once(service):
    """Acceptance: 8 threads, overlapping specs, one computation each."""
    _, client = service
    specs = [
        {"adversary": "static-path", "n": 12},
        {"adversary": "rotating-path", "n": 12, "params": {"shift": 2}},
        {"adversary": "k-inner", "n": 12, "params": {"k": 2}},
        {"adversary": "cyclic", "n": 12},
        {"adversary": "k-leaf", "n": 12},
        {"adversary": "static-star", "n": 12},
    ]
    digests = {spec_digest(s) for s in specs}
    assert len(digests) == len(specs)
    expected = {
        spec_digest(s): SequentialExecutor().run(to_run_spec(s)).t_star
        for s in specs
    }
    results = []
    errors = []
    lock = threading.Lock()

    def hammer(offset: int) -> None:
        try:
            local = ServiceClient.from_url(f"http://{client.host}:{client.port}")
            for spec in specs[offset:] + specs[:offset]:
                doc = local.submit_run(dict(spec))
                doc = local.wait(doc["job_id"], timeout=60)
                with lock:
                    results.append((doc["digest"], doc))
        except Exception as exc:  # surfaced after join
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i % len(specs),)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 8 * len(specs)
    for digest, doc in results:
        assert doc["status"] == "done"
        assert doc["result"]["t_star"] == expected[digest]
    metrics = client.metrics()
    assert metrics["submitted"] == 8 * len(specs)
    # the acceptance counter: exactly one computation per unique digest
    assert metrics["computations"] == len(specs)
    assert metrics["dedup_inflight"] + metrics["cache"]["hits"] >= 8 * len(specs) - len(specs)
