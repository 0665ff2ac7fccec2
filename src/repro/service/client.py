"""Thin stdlib client for the simulation service HTTP API.

:class:`ServiceClient` wraps :mod:`http.client` (one connection per
request -- the server is HTTP/1.1 but a service client must survive
server restarts) and speaks the JSON envelopes of
:mod:`repro.service.server`.  Used by the test suite, the benchmark
harness, ``examples/service_demo.py``, and the CLI ``submit`` subcommand.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlparse

from repro.errors import (
    AuthenticationError,
    LeaseExpiredError,
    PayloadTooLargeError,
    QuotaExceededError,
    RateLimitedError,
    ServiceConnectionError,
    ServiceError,
    ServiceResponseError,
    SpecRejectedError,
    UnknownResourceError,
)

#: Cap (seconds) on each retry wait, whether a ``Retry-After`` hint or
#: the connect-retry backoff.
MAX_RETRY_WAIT = 5.0


class ServiceClient:
    """JSON client for one service endpoint.

    Construct from ``host``/``port`` or :meth:`from_url`.  All methods
    raise typed :class:`~repro.errors.ServiceError` subclasses:
    :class:`~repro.errors.ServiceConnectionError` when the server is
    unreachable mid-request *or stalls past the socket timeout*, and for
    non-2xx responses a :class:`~repro.errors.ServiceResponseError`
    carrying ``status`` and the server's JSON ``payload`` --
    :class:`~repro.errors.SpecRejectedError` for 400 (malformed
    specs/graphs), :class:`~repro.errors.AuthenticationError` for 401
    (missing/bad bearer token), :class:`~repro.errors.PayloadTooLargeError`
    for 413 (body over the server's cap),
    :class:`~repro.errors.UnknownResourceError` for 404 (unknown
    jobs/paths), :class:`~repro.errors.LeaseExpiredError` for 409 (a
    work lease was reclaimed), and for 429 either
    :class:`~repro.errors.QuotaExceededError` (the server said
    ``reason="quota"``) or :class:`~repro.errors.RateLimitedError`, both
    carrying ``retry_after``.  The server's ``error`` field becomes the
    exception message in every case.

    ``token`` (when given) is sent as ``Authorization: Bearer <token>``
    on every request.  ``retry_rate_limited`` enables bounded retry on
    429: up to that many extra attempts, sleeping the server's
    ``retry_after`` between them.  Quota rejections are never retried --
    waiting does not replenish a quota.

    ``timeout`` (default 30 s) bounds every socket operation -- connect,
    send, and each read -- so a hung server can never hang the client.

    ``retry_connect`` enables bounded automatic retry on
    :class:`~repro.errors.ServiceConnectionError` for **idempotent GETs
    only** -- up to that many extra attempts with jittered exponential
    backoff, so a watcher (``task status --watch``) rides out a server
    restart instead of dying on the first refused connection.  POSTs
    are never connection-retried here: a submit whose response was lost
    may have been accepted, and blind resubmission is the caller's
    decision (content-addressed dedup makes it safe, but not this
    layer's call).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout: float = 30.0,
        token: Optional[str] = None,
        retry_rate_limited: int = 0,
        retry_connect: int = 0,
    ) -> None:
        if retry_rate_limited < 0:
            raise ServiceError(
                f"retry_rate_limited must be >= 0, got {retry_rate_limited}"
            )
        if retry_connect < 0:
            raise ServiceError(f"retry_connect must be >= 0, got {retry_connect}")
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.token = token
        self.retry_rate_limited = int(retry_rate_limited)
        self.retry_connect = int(retry_connect)

    @classmethod
    def from_url(
        cls,
        url: str,
        timeout: float = 30.0,
        token: Optional[str] = None,
        retry_rate_limited: int = 0,
        retry_connect: int = 0,
    ) -> "ServiceClient":
        """Build a client from ``http://host:port`` (the CLI ``--url`` form)."""
        parsed = urlparse(url if "//" in url else f"//{url}", scheme="http")
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServiceError(f"service URL must look like http://host:port, got {url!r}")
        return cls(
            parsed.hostname,
            parsed.port or 80,
            timeout=timeout,
            token=token,
            retry_rate_limited=retry_rate_limited,
            retry_connect=retry_connect,
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        effective = self.timeout if timeout is None else timeout
        conn = http.client.HTTPConnection(self.host, self.port, timeout=effective)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            if self.token is not None:
                headers["Authorization"] = f"Bearer {self.token}"
            # Propagate the caller's active trace context (if any) so the
            # server's request span -- and the job it enqueues -- joins
            # this process's trace tree.
            from repro.obs import trace as _trace

            ctx = _trace.current_context()
            if ctx is not None:
                headers["traceparent"] = ctx.to_header()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except socket.timeout as exc:
                # A stalled (not merely unreachable) server: name the
                # deadline so callers can tell hang from refusal.
                raise ServiceConnectionError(
                    f"service request {method} {path} to "
                    f"{self.host}:{self.port} timed out after {effective}s"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceConnectionError(
                    f"service request {method} {path} to "
                    f"{self.host}:{self.port} failed: {exc}"
                ) from exc
            try:
                doc = json.loads(raw) if raw else {}
            except json.JSONDecodeError as exc:
                raise ServiceError(
                    f"service returned non-JSON body for {method} {path}: {exc}"
                ) from exc
            return response.status, doc
        finally:
            conn.close()

    def _checked(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One request with typed errors and bounded rate-limit retry.

        A 429 with ``reason != "quota"`` is retried up to
        ``retry_rate_limited`` times, sleeping the server's
        ``retry_after`` (capped at :data:`MAX_RETRY_WAIT`) between attempts;
        quota rejections and every other status raise immediately.

        A :class:`ServiceConnectionError` is retried (jittered
        exponential backoff) up to ``retry_connect`` times, but only
        for GETs -- see the class docstring for why POSTs never are.
        """
        attempts = 0
        connect_attempts = 0
        while True:
            try:
                status, doc = self._request(method, path, body, timeout=timeout)
            except ServiceConnectionError:
                if method != "GET" or connect_attempts >= self.retry_connect:
                    raise
                # Jittered exponential backoff: restarts take a beat, and
                # simultaneous watchers should not stampede the new server.
                wait = min(0.1 * (2 ** connect_attempts), MAX_RETRY_WAIT)
                time.sleep(wait * (0.5 + random.random()))
                connect_attempts += 1
                continue
            if status < 400:
                return doc
            message = doc.get("error", f"{method} {path} returned HTTP {status}")
            if status == 400:
                raise SpecRejectedError(message, status=status, payload=doc)
            if status == 401:
                raise AuthenticationError(message, status=status, payload=doc)
            if status == 404:
                raise UnknownResourceError(message, status=status, payload=doc)
            if status == 409:
                raise LeaseExpiredError(message, status=status, payload=doc)
            if status == 413:
                raise PayloadTooLargeError(message, status=status, payload=doc)
            if status == 429:
                retry_after = doc.get("retry_after")
                if doc.get("reason") == "quota":
                    raise QuotaExceededError(
                        message, status=status, payload=doc, retry_after=retry_after
                    )
                if attempts < self.retry_rate_limited:
                    attempts += 1
                    wait = 0.05 if retry_after is None else float(retry_after)
                    time.sleep(max(0.0, min(wait, MAX_RETRY_WAIT)))
                    continue
                raise RateLimitedError(
                    message, status=status, payload=doc, retry_after=retry_after
                )
            raise ServiceResponseError(message, status=status, payload=doc)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._checked("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics`` -- scheduler + cache counters."""
        return self._checked("GET", "/metrics")

    def specs(self) -> Dict[str, Any]:
        """``GET /v1/specs`` -- the adversary registry description."""
        return self._checked("GET", "/v1/specs")

    def submit_run(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/runs`` -- returns the job envelope."""
        return self._checked("POST", "/v1/runs", spec)

    def submit_sweep(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/sweeps`` -- returns the job envelope."""
        return self._checked("POST", "/v1/sweeps", spec)

    def submit_runs(self, specs: "list[Dict[str, Any]]") -> "list[Dict[str, Any]]":
        """``POST /v1/runs:batch`` -- per-item job envelopes, in order.

        Malformed items come back as ``{"error": ...}`` entries at their
        position; the valid items are submitted (and deduped) normally.
        """
        doc = self._checked("POST", "/v1/runs:batch", {"specs": list(specs)})
        return doc["jobs"]

    def submit_tasks(
        self,
        tasks: "list[Dict[str, Any]]",
        outputs: Optional["list[Any]"] = None,
    ) -> Dict[str, Any]:
        """``POST /v1/tasks`` -- submit a task graph.

        ``tasks`` entries are ``{"kind", "payload", "inputs"}`` documents
        (inputs by digest or earlier-task index); ``outputs`` defaults to
        the graph's sinks.  The returned envelope carries the graph
        digest and a per-node ``tasks`` status map.
        """
        body: Dict[str, Any] = {"tasks": list(tasks)}
        if outputs is not None:
            body["outputs"] = list(outputs)
        return self._checked("POST", "/v1/tasks", body)

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/runs/<id>``."""
        return self._checked("GET", f"/v1/runs/{job_id}")

    def task_job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/tasks/<id>`` -- job envelope with per-node statuses."""
        return self._checked("GET", f"/v1/tasks/{job_id}")

    def wait(
        self, job_id: str, timeout: float = 60.0, poll: float = 0.02
    ) -> Dict[str, Any]:
        """Poll until the job is ``done``/``failed``; returns the final doc.

        Raises :class:`ServiceError` when the deadline passes first; a
        ``failed`` job is *returned* (its ``error`` field says why), not
        raised, so callers can inspect partial batches.
        """
        deadline = time.monotonic() + timeout
        while True:
            doc = self.job(job_id)
            if doc["status"] in ("done", "failed"):
                return doc
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {doc['status']!r} after {timeout}s"
                )
            time.sleep(poll)

    def watch(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_timeout: float = 10.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield task-job documents as they change, until terminal.

        Long-polls ``GET /v1/tasks/<id>?watch=<version>`` -- the server
        holds each request until the job's update version moves (any
        status or per-node transition), so watchers see pushes rather
        than sampling.  The first yield is the current state; the last
        is the terminal (``done``/``failed``) document.

        ``poll_timeout`` bounds each server-side hold; ``timeout`` (when
        given) bounds the whole watch and raises
        :class:`~repro.errors.ServiceError` if the job is still
        unfinished when it passes.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        version = -1
        while True:
            hold = poll_timeout
            if deadline is not None:
                hold = max(0.0, min(hold, deadline - time.monotonic()))
            doc = self._checked(
                "GET",
                f"/v1/tasks/{job_id}?watch={version}&timeout={hold}",
                # The socket must outlive the server-side hold.
                timeout=hold + self.timeout,
            )
            if doc.get("version", 0) != version:
                version = doc.get("version", 0)
                yield doc
            if doc["status"] in ("done", "failed"):
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {doc['status']!r} after {timeout}s of watching"
                )

    # -- distributed fleet (see repro.service.fleet / .worker) ---------

    def claim_work(
        self, worker: str, limit: int = 1, wait: float = 0.0
    ) -> Dict[str, Any]:
        """``POST /v1/work:claim`` -- lease up to ``limit`` ready items.

        ``wait`` asks the server to hold the claim open (bounded
        long-poll) until work appears.  Returns ``{"lease_id", "ttl",
        "items": [{"digest", "kind", "payload", "traceparent",
        "engine"}, ...]}``; an empty claim has ``lease_id: None``.
        """
        return self._checked(
            "POST",
            "/v1/work:claim",
            {"worker": worker, "limit": int(limit), "wait": float(wait)},
            # The socket must outlive the server-side hold.
            timeout=float(wait) + self.timeout,
        )

    def heartbeat_work(self, worker: str, lease_id: str) -> Dict[str, Any]:
        """``POST /v1/work:heartbeat`` -- renew a lease.

        Raises :class:`~repro.errors.LeaseExpiredError` (409) when the
        lease was reclaimed; the worker must abandon the batch.
        """
        return self._checked(
            "POST", "/v1/work:heartbeat", {"worker": worker, "lease_id": lease_id}
        )

    def complete_work(
        self, worker: str, lease_id: str, results: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """``POST /v1/work:complete`` -- land a batch of results.

        Each result is ``{"digest", "ok", "doc"|"error"}``.  Returns
        ``{"accepted", "dropped", "late"}`` -- a late completion (lease
        already expired) is dropped server-side, not an error.
        """
        return self._checked(
            "POST",
            "/v1/work:complete",
            {"worker": worker, "lease_id": lease_id, "results": list(results)},
        )

    def shutdown(self) -> Dict[str, Any]:
        """``POST /v1/shutdown`` -- ask the server to stop gracefully."""
        return self._checked("POST", "/v1/shutdown")


__all__ = ["ServiceClient"]
