"""Production hardening end-to-end: auth, throttling, quotas, hang/crash paths.

Everything here runs against real sockets on ephemeral ports.  The
acceptance criteria from the hardening PR live in this file:

* auth off is byte-for-byte the old open service; auth on means 401
  without a valid bearer token (``/healthz`` stays open for probes);
* clients past the rate limit see ``429`` + ``Retry-After`` and a
  bounded-retry client converges -- N threads past the limit all succeed;
* an over-quota tenant is rejected with ``QuotaExceededError`` while
  other tenants keep working (isolation);
* a slow-loris client that never sends its declared body gets 408 and
  its connection dropped instead of pinning a handler thread;
* a client that vanishes mid-long-poll is swallowed (counted, no
  traceback);
* a terminal job a client is still watching survives retention.
"""

from __future__ import annotations

import io
import json
import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    AuthenticationError,
    QuotaExceededError,
    RateLimitedError,
    ServiceError,
)
from repro.service.client import ServiceClient
from repro.service import scheduler as service_scheduler
from repro.service.scheduler import JobScheduler
from repro.service.server import ServiceServer
from repro.service.tenancy import TenantLimits, TenantRegistry


def _run_spec(n: int) -> dict:
    return {"adversary": "static-path", "n": n}


# ----------------------------------------------------------------------
# Auth
# ----------------------------------------------------------------------


def test_auth_off_behaves_like_the_open_service():
    with ServiceServer() as server:
        client = ServiceClient.from_url(server.url)
        doc = client.submit_run(_run_spec(8))
        assert doc["tenant"] == "public"
        metrics = client.metrics()
        assert "tenants" not in metrics  # no registry, no accounting block
        assert metrics["http"]["auth_failures"] == 0


def test_auth_rejects_missing_and_bad_tokens():
    with ServiceServer(auth={"tok-a": "alice"}, tenancy=TenantRegistry()) as server:
        anonymous = ServiceClient.from_url(server.url)
        # Probes stay open: a load balancer does not carry a token.
        assert anonymous.healthz()["status"] == "ok"
        with pytest.raises(AuthenticationError):
            anonymous.metrics()
        with pytest.raises(AuthenticationError):
            ServiceClient.from_url(server.url, token="wrong").submit_run(_run_spec(8))

        alice = ServiceClient.from_url(server.url, token="tok-a")
        doc = alice.wait(alice.submit_run(_run_spec(8))["job_id"], timeout=30)
        assert doc["status"] == "done" and doc["tenant"] == "alice"
        metrics = alice.metrics()
        assert metrics["http"]["auth_failures"] == 2
        assert metrics["tenants"]["alice"]["submitted"] == 1


# ----------------------------------------------------------------------
# Rate limiting + backpressure
# ----------------------------------------------------------------------


def test_rate_limit_answers_429_with_retry_after():
    with ServiceServer(tenancy=TenantRegistry(default_limits=TenantLimits(rate=0.5, burst=1))) as server:
        client = ServiceClient.from_url(server.url)
        client.submit_run(_run_spec(8))  # burst token
        with pytest.raises(RateLimitedError) as excinfo:
            client.submit_run(_run_spec(10))
        exc = excinfo.value
        assert exc.status == 429
        assert exc.payload["reason"] == "rate-limited"
        assert exc.retry_after is not None and exc.retry_after > 0
        assert server.http_metrics()["rate_limited"] == 1


def test_rate_limit_sends_retry_after_header():
    import http.client

    with ServiceServer(tenancy=TenantRegistry(default_limits=TenantLimits(rate=0.5, burst=1))) as server:
        host, port = server.address
        for expect_throttle in (False, True):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request(
                    "POST",
                    "/v1/runs",
                    body=json.dumps(_run_spec(8)),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                if expect_throttle:
                    assert response.status == 429
                    assert int(response.headers["Retry-After"]) >= 1
                else:
                    assert response.status == 202
            finally:
                conn.close()


def test_rate_limited_threads_all_succeed_with_bounded_retry():
    """N threads past the bucket: 429s happen, bounded retry converges."""
    n_threads = 8
    with ServiceServer(tenancy=TenantRegistry(default_limits=TenantLimits(rate=20.0, burst=1))) as server:
        barrier = threading.Barrier(n_threads)
        docs, errors = [], []
        lock = threading.Lock()

        def submit(i: int) -> None:
            client = ServiceClient.from_url(
                server.url, token=None, retry_rate_limited=50
            )
            barrier.wait()
            try:
                doc = client.submit_run(_run_spec(8 + 2 * i))
            except ServiceError as exc:  # pragma: no cover - the failure mode
                with lock:
                    errors.append(exc)
            else:
                with lock:
                    docs.append(doc)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(docs) == n_threads
        assert len({doc["job_id"] for doc in docs}) == n_threads
        # The barrier guarantees a burst-1 bucket turned most of them away
        # at least once before the retries got them through.
        assert server.http_metrics()["rate_limited"] >= 1


def test_global_backpressure_rejects_when_queue_is_full():
    with ServiceServer(max_queue_depth=2) as server:
        server.scheduler.stop()  # workers drained: submissions pile up queued
        client = ServiceClient.from_url(server.url)
        assert client.submit_run(_run_spec(8))["status"] == "queued"
        assert client.submit_run(_run_spec(10))["status"] == "queued"
        with pytest.raises(RateLimitedError) as excinfo:
            client.submit_run(_run_spec(12))
        assert excinfo.value.payload["reason"] == "rate-limited"
        assert "queue is full" in str(excinfo.value)

        server.scheduler.start()  # drain; the same submission now lands
        retrying = ServiceClient.from_url(server.url, retry_rate_limited=5)
        doc = retrying.submit_run(_run_spec(12))
        assert retrying.wait(doc["job_id"], timeout=30)["status"] == "done"


# ----------------------------------------------------------------------
# Quotas
# ----------------------------------------------------------------------


def test_quota_exhaustion_isolates_tenants():
    tenancy = TenantRegistry(per_tenant={"alice": TenantLimits(max_bytes=1)})
    auth = {"tok-a": "alice", "tok-b": "bob"}
    with ServiceServer(auth=auth, tenancy=tenancy) as server:
        alice = ServiceClient.from_url(server.url, token="tok-a", retry_rate_limited=3)
        bob = ServiceClient.from_url(server.url, token="tok-b")

        doc = alice.wait(alice.submit_run(_run_spec(8))["job_id"], timeout=30)
        assert doc["status"] == "done"
        assert tenancy.metrics()["alice"]["bytes_used"] >= 1  # result charged

        # Over budget now: rejected as a quota (not retried -- waiting
        # does not replenish a quota, so this raises immediately even
        # though the client is configured for bounded 429 retry).
        t0 = time.monotonic()
        with pytest.raises(QuotaExceededError) as excinfo:
            alice.submit_run(_run_spec(10))
        assert time.monotonic() - t0 < 2.0
        assert excinfo.value.payload["reason"] == "quota"

        # Isolation: bob still computes -- including alice's own digest.
        doc = bob.wait(bob.submit_run(_run_spec(10))["job_id"], timeout=30)
        assert doc["status"] == "done"
        doc = bob.submit_run(_run_spec(8))
        assert doc["status"] == "done" and doc["cached"] is True
        metrics = bob.metrics()
        assert metrics["tenants"]["alice"]["quota_rejections"] == 1
        assert metrics["tenants"]["bob"]["quota_rejections"] == 0


def test_batch_quota_errors_items_in_place():
    tenancy = TenantRegistry(per_tenant={"alice": TenantLimits(max_jobs=1)})
    with ServiceServer(auth={"tok-a": "alice"}, tenancy=tenancy) as server:
        server.scheduler.stop()  # keep jobs active so the quota binds
        alice = ServiceClient.from_url(server.url, token="tok-a")
        jobs = alice.submit_runs([_run_spec(8), _run_spec(10), _run_spec(12)])
        assert "job_id" in jobs[0]
        assert "quota" in jobs[1]["error"] and "quota" in jobs[2]["error"]
        server.scheduler.start()


# ----------------------------------------------------------------------
# Hang/crash bugfix sweep
# ----------------------------------------------------------------------


def _recv_all(sock: socket.socket, deadline: float = 10.0) -> bytes:
    sock.settimeout(deadline)
    chunks = []
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    except socket.timeout:  # pragma: no cover - server kept the socket open
        pass
    return b"".join(chunks)


def test_stalling_client_gets_408_and_is_dropped():
    """Slow loris: declare a body, never send it; the thread comes back."""
    with ServiceServer(request_timeout=0.5) as server:
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/runs HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n"  # ...and then nothing
            )
            raw = _recv_all(sock)
        assert b" 408 " in raw.split(b"\r\n", 1)[0]
        assert server.http_metrics()["request_timeouts"] == 1
        # The handler thread is free again: the server still answers.
        client = ServiceClient.from_url(server.url)
        assert client.healthz()["status"] == "ok"
        doc = client.submit_run(_run_spec(8))
        assert client.wait(doc["job_id"], timeout=30)["status"] == "done"


def test_client_disconnect_mid_longpoll_is_counted_not_raised(capfd):
    with ServiceServer() as server:
        server.scheduler.stop()  # the job stays queued: the watch must hold
        queued = ServiceClient.from_url(server.url).submit_run(_run_spec(8))
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(
            f"GET /v1/runs/{queued['job_id']}?watch={queued['version']}"
            f"&timeout=0.5 HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        # RST on close (SO_LINGER 0): the handler's eventual write fails
        # hard instead of buffering into a dead socket.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if server.http_metrics()["client_disconnects"] >= 1:
                break
            time.sleep(0.05)
        assert server.http_metrics()["client_disconnects"] >= 1
        server.scheduler.start()
    assert "Traceback" not in capfd.readouterr().err


def test_watched_terminal_job_survives_retirement(monkeypatch):
    """The long-poll 404 bug: retention must not evict a watched job."""
    monkeypatch.setattr(service_scheduler, "MAX_FINISHED_JOBS", 1)
    monkeypatch.setattr(service_scheduler, "WATCH_GRACE", 60.0)
    with JobScheduler() as scheduler:
        first = scheduler.submit_run(_run_spec(8))
        scheduler.wait(first.job_id, timeout=30)
        # A watcher saw the terminal doc; its next request must find it.
        scheduler.wait_for_update(first.job_id, version=-1, timeout=5)
        for n in (10, 12, 14):
            scheduler.wait(scheduler.submit_run(_run_spec(n)).job_id, timeout=30)
        assert scheduler.job(first.job_id).status == "done"  # pinned


def test_watch_grace_zero_restores_plain_retention(monkeypatch):
    monkeypatch.setattr(service_scheduler, "MAX_FINISHED_JOBS", 1)
    monkeypatch.setattr(service_scheduler, "WATCH_GRACE", 0.0)
    with JobScheduler() as scheduler:
        first = scheduler.submit_run(_run_spec(8))
        scheduler.wait(first.job_id, timeout=30)
        scheduler.wait_for_update(first.job_id, version=-1, timeout=5)
        for n in (10, 12, 14):
            scheduler.wait(scheduler.submit_run(_run_spec(n)).job_id, timeout=30)
        with pytest.raises(ServiceError):
            scheduler.job(first.job_id)


# ----------------------------------------------------------------------
# Structured request logs
# ----------------------------------------------------------------------


def test_access_log_emits_structured_json_lines():
    stream = io.StringIO()
    with ServiceServer(
        auth={"tok-a": "alice"}, access_log=True, log_stream=stream
    ) as server:
        client = ServiceClient.from_url(server.url, token="tok-a")
        client.submit_run(_run_spec(8))
        deadline = time.monotonic() + 5
        records = []
        while time.monotonic() < deadline:
            records = [
                json.loads(line)
                for line in stream.getvalue().splitlines()
                if line.strip()
            ]
            if any(r["path"] == "/v1/runs" for r in records):
                break
            time.sleep(0.02)
    post = next(r for r in records if r["path"] == "/v1/runs")
    assert post["method"] == "POST"
    assert post["tenant"] == "alice"
    assert post["status"] == 202
    assert post["duration_ms"] >= 0
    assert isinstance(post["queue_depth"], int)
    assert isinstance(post["ts"], float)
