"""Stdlib HTTP/JSON front-end over the job scheduler.

:class:`ServiceServer` wraps a ``ThreadingHTTPServer`` (one handler
thread per connection, stdlib only -- no framework dependency) around a
:class:`~repro.service.scheduler.JobScheduler`.

Endpoints
---------
======================  ====================================================
``GET /healthz``         liveness: ``{"status": "ok", "version": ...}``
``GET /metrics``         scheduler + cache + per-tenant + HTTP counters
``GET /v1/specs``        adversary registry + task kinds (names, params)
``POST /v1/runs``        submit a run spec -> ``{"job_id", "status", ...}``
``POST /v1/runs:batch``  submit ``{"specs": [...]}`` -> ``{"jobs": [...]}``
                         (per-item job ids/digests in order; invalid items
                         get ``{"error": ...}`` without failing the batch)
``POST /v1/sweeps``      submit a sweep spec -> same job envelope
``POST /v1/tasks``       submit a task graph ``{"tasks": [...], "outputs":
                         [...]}`` -> job envelope with per-node statuses
``GET /v1/runs/<id>``    job state (+ serialized result when ``done``)
``GET /v1/sweeps/<id>``  alias of ``GET /v1/runs/<id>``
``GET /v1/tasks/<id>``   alias with live per-node task statuses; add
                         ``?watch=<version>[&timeout=<s>]`` to long-poll
                         until the job moves past that update version
``POST /v1/work:claim``  (``serve --fleet``) lease a batch of ready work
                         items for a remote worker -> ``{"lease_id",
                         "ttl", "items": [...]}``
``POST /v1/work:heartbeat``  renew a lease (409 once it expired)
``POST /v1/work:complete``   land a worker's encoded results by digest
``POST /v1/shutdown``    acknowledge, then stop the server gracefully
======================  ====================================================

Request bodies are bare spec documents (``{"adversary": ..., "n": ...}``);
invalid specs come back as ``400 {"error": ...}``, unknown jobs as 404.
Submissions are answered immediately (the job runs in the scheduler's
worker threads); clients poll ``GET /v1/runs/<id>`` -- see
:class:`repro.service.client.ServiceClient.wait`.

Hardening (all strictly opt-in -- a bare ``ServiceServer()`` behaves
exactly like the pre-hardening service):

* **auth** -- pass ``auth`` (a token->tenant dict or
  :class:`~repro.service.tenancy.TokenAuthenticator`) and every request
  except ``GET /healthz`` needs ``Authorization: Bearer <token>`` (401
  otherwise); the token's tenant id flows into job records, the journal,
  and per-tenant accounting;
* **rate limiting + backpressure** -- per-tenant token buckets and a
  global ``max_queue_depth`` turn excess submissions into
  ``429 {"error", "reason", "retry_after"}`` with a ``Retry-After``
  header; per-tenant byte/job quotas answer 429 with
  ``reason="quota"``;
* **request timeout** -- ``request_timeout`` bounds every socket read, so
  a slow-loris client that declares a ``Content-Length`` and never sends
  the bytes gets 408 and its connection dropped instead of pinning a
  handler thread;
* **client disconnects** -- a client that goes away mid-response (or
  mid-long-poll) is swallowed quietly and counted in the
  ``http.client_disconnects`` metric, never dumped as a traceback;
* **structured request logs** -- with ``access_log`` enabled each request
  emits one JSON line (method, path, tenant, status, duration, queue
  depth) on the configured stream, replacing the silenced stdlib
  ``log_message``.

Binding ``port=0`` picks an ephemeral port (tests and CI); the bound
address is available as :attr:`ServiceServer.url` after construction.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro._version import __version__
from repro.errors import (
    AuthenticationError,
    LeaseExpiredError,
    QuotaExceededError,
    RateLimitedError,
    ServiceError,
    SpecError,
)
from repro.obs import trace as _trace
from repro.obs.metrics import CounterMap, Registry, flatten_json_metrics
from repro.service.cache import ResultCache
from repro.service.fleet import DEFAULT_LEASE_TTL, FleetExecutor, WorkQueue
from repro.service.journal import JobJournal
from repro.service.scheduler import JobScheduler
from repro.service.specs import describe_registry
from repro.service.tasks import describe_task_kinds
from repro.service.tenancy import (
    DEFAULT_TENANT,
    TenantRegistry,
    TokenAuthenticator,
)

#: Request-body cap: far above any legitimate spec or task graph, far
#: below what would let one request exhaust server memory.  Larger bodies
#: are rejected with ``413`` before allocation.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Default per-connection socket timeout (``serve --request-timeout``):
#: long enough for the longest legitimate ``?watch=`` hold (60s) plus
#: slack, short enough that a stalled client frees its thread promptly.
DEFAULT_REQUEST_TIMEOUT = 30.0


class _PayloadTooLarge(Exception):
    """Internal: a request body exceeded the configured cap (-> 413)."""


class _ThreadingServer(ThreadingHTTPServer):
    """Thread-per-connection HTTP server tuned for many clients at once.

    The stdlib listen backlog of 5 resets connections when hundreds of
    clients connect in the same instant (the load harness does exactly
    that); a deeper backlog lets the accept loop absorb the burst.
    """

    daemon_threads = True
    request_queue_size = 128


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.scheduler``; JSON in, JSON out."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-service/{__version__}"
    # Headers and body go out as two writes; without TCP_NODELAY, Nagle
    # holds the second until the client's delayed ACK (~40 ms) arrives,
    # capping warm-cache throughput at ~25 req/s per connection.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    def setup(self) -> None:
        # A per-connection socket timeout: every blocking read -- the
        # request line, headers, and crucially the Content-Length body a
        # slow-loris client never sends -- raises TimeoutError past it,
        # so a stalled client cannot pin this handler thread forever.
        self.timeout = getattr(self.server, "request_timeout", None)
        super().setup()

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003 - stdlib hook
        if getattr(self.server, "verbose", False):  # pragma: no cover - debug aid
            super().log_message(fmt, *args)

    def _count(self, counter: str) -> None:
        self.server.owner._count_http(counter)  # type: ignore[attr-defined]

    def _send_body(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._status = code
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            # Echo the active trace context so a client can stitch its
            # own spans (and the job's trace_id) to this exchange.
            ctx = _trace.current_context()
            if ctx is not None:
                self.send_header("traceparent", ctx.to_header())
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-response (a timed-out long-poller
            # is the common case).  Nothing to answer and nobody to
            # answer it to: count it, close, no traceback.
            self._count("client_disconnects")
            self.close_connection = True

    def _send_json(
        self,
        code: int,
        doc: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_body(
            code, json.dumps(doc).encode("utf-8"), "application/json", headers
        )

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        self._send_body(code, text.encode("utf-8"), content_type)

    def _read_json(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise SpecError("Content-Length header is not an integer") from None
        if length > MAX_BODY_BYTES:
            # The body is validated *before* allocation: a hostile or
            # malformed Content-Length must not make the handler thread
            # buffer an unbounded request into memory.
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds the server cap "
                f"of {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length) if length > 0 else b""
        if not raw:
            raise SpecError("request body must be a JSON object")
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SpecError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SpecError("request body must be a JSON object")
        return doc

    @property
    def scheduler(self) -> JobScheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    # -- request envelope: auth, 429/408 mapping, structured logging ---

    def _authenticate(self, path: str) -> Optional[str]:
        """The requesting tenant id, or ``None`` after sending a 401.

        ``GET /healthz`` stays open (load balancers and liveness probes
        do not carry tokens); everything else needs a valid bearer token
        once an authenticator is configured.
        """
        auth: Optional[TokenAuthenticator] = getattr(self.server, "auth", None)
        if auth is None:
            return DEFAULT_TENANT
        if path == "/healthz":
            return "-"
        try:
            return auth.authenticate(self.headers.get("Authorization"))
        except AuthenticationError as exc:
            self._count("auth_failures")
            self.close_connection = True
            self._send_json(
                401, {"error": str(exc)}, headers={"WWW-Authenticate": "Bearer"}
            )
            return None

    def _send_throttled(self, exc: RateLimitedError) -> None:
        """429 with ``Retry-After``; quota rejections are labelled so the
        client can tell "wait and retry" from "you are out of budget"."""
        self._count("rate_limited")
        # The request body (if any) was never read -- close so a
        # keep-alive connection cannot misparse it as the next request.
        self.close_connection = True
        retry_after = 1.0 if exc.retry_after is None else max(0.0, exc.retry_after)
        self._send_json(
            429,
            {
                "error": str(exc),
                "reason": "quota" if isinstance(exc, QuotaExceededError) else "rate-limited",
                "retry_after": retry_after,
            },
            headers={"Retry-After": f"{max(1, int(retry_after + 0.999))}"},
        )

    def _dispatch(self, handler: Any) -> None:
        """Wrap one request: authenticate, route, map hangs/disconnects.

        Every outcome -- success, 4xx, a stalled read (408), a vanished
        client -- funnels through here so the structured request log
        sees all of them and no handler thread ever dies with a
        traceback for a client-side failure.
        """
        t0 = time.monotonic()
        self._status: Optional[int] = None
        self._tenant: Optional[str] = None
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        # An incoming W3C traceparent header becomes the parent context:
        # the request span (when tracing) and the job's recorded trace id
        # both join the caller's trace.  Context activation works even
        # with tracing off, so the id still flows into job + journal.
        ctx = _trace.TraceContext.from_header(self.headers.get("traceparent"))
        with _trace.context(ctx):
            with _trace.span("request", method=self.command, path=path) as sp:
                try:
                    self._count("requests")
                    tenant = self._authenticate(path)
                    if tenant is None:
                        return
                    self._tenant = tenant
                    handler(path, tenant)
                except RateLimitedError as exc:
                    self._send_throttled(exc)
                except TimeoutError:
                    # The socket timed out mid-read: the client declared
                    # bytes it never sent (slow loris) or stalled
                    # mid-body.  Best-effort 408, then drop the
                    # connection -- the thread must come back.
                    self._count("request_timeouts")
                    self.close_connection = True
                    self._send_json(
                        408, {"error": "request timed out waiting for the body"}
                    )
                except (BrokenPipeError, ConnectionResetError):
                    self._count("client_disconnects")
                    self.close_connection = True
                finally:
                    duration = time.monotonic() - t0
                    sp.set_attrs(status=self._status, tenant=self._tenant)
                    self.server.owner._observe_request(  # type: ignore[attr-defined]
                        duration
                    )
                    self._log_request(path, duration)

    def _log_request(self, path: str, duration: float) -> None:
        """One structured JSON line per request on the configured stream.

        The write happens under the server-wide access-log lock: handler
        threads share one stream, and Python only guarantees atomic
        appends for buffered writes below the buffer size -- concurrent
        bursts were observed interleaving records mid-line.  One line per
        request is short; the lock is never contended for long.
        """
        stream: Optional[TextIO] = getattr(self.server, "access_log_stream", None)
        if stream is None:
            return
        record = {
            "ts": round(time.time(), 3),
            "method": self.command,
            "path": path,
            "tenant": self._tenant,
            "status": self._status,
            "duration_ms": round(duration * 1000.0, 3),
            "queue_depth": self.scheduler.queue_depth(),
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        lock = self.server.owner._access_log_lock  # type: ignore[attr-defined]
        try:
            with lock:
                stream.write(line)
                stream.flush()
        except (OSError, ValueError):  # pragma: no cover - log stream closed
            pass

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._handle_post)

    def _handle_get(self, path: str, tenant: str) -> None:
        if path == "/healthz":
            self._send_json(200, {"status": "ok", "version": __version__})
            return
        if path == "/metrics":
            doc = self.scheduler.metrics()
            doc["http"] = self.server.owner.http_metrics()  # type: ignore[attr-defined]
            query = parse_qs(urlparse(self.path).query)
            if query.get("format", [""])[0] == "prometheus":
                # Typed instruments render natively; the legacy nested
                # JSON blocks ride along as flattened gauge samples so
                # one scrape sees the whole document.
                text = self.server.owner.registry.to_prometheus(  # type: ignore[attr-defined]
                    extra_lines=flatten_json_metrics(doc)
                )
                self._send_text(
                    200, text, "text/plain; version=0.0.4; charset=utf-8"
                )
                return
            self._send_json(200, doc)
            return
        if path == "/v1/specs":
            self._send_json(
                200,
                {
                    "adversaries": describe_registry(),
                    "task_kinds": describe_task_kinds(),
                },
            )
            return
        for prefix in ("/v1/runs/", "/v1/sweeps/", "/v1/tasks/"):
            if path.startswith(prefix):
                job_id = path[len(prefix):]
                try:
                    job = self._get_job(job_id)
                except SpecError as exc:
                    self._send_json(400, {"error": str(exc)})
                    return
                except ServiceError as exc:
                    self._send_json(404, {"error": str(exc)})
                    return
                self._send_json(200, job.to_doc())
                return
        self._send_json(404, {"error": f"unknown path {path!r}"})

    def _get_job(self, job_id: str) -> Any:
        """Resolve a job, honouring the ``?watch=<version>`` long-poll.

        ``watch`` holds the request until the job's update version moves
        past the one given (or the optional ``timeout``, capped so a
        handler thread can never be parked indefinitely, elapses).
        """
        query = parse_qs(urlparse(self.path).query)
        if "watch" not in query:
            return self.scheduler.job(job_id)
        try:
            version = int(query["watch"][0])
        except ValueError:
            raise SpecError(
                f"watch version must be an integer, got {query['watch'][0]!r}"
            ) from None
        try:
            timeout = float(query.get("timeout", ["30"])[0])
        except ValueError:
            raise SpecError(
                f"watch timeout must be a number, got {query['timeout'][0]!r}"
            ) from None
        timeout = max(0.0, min(timeout, 60.0))
        return self.scheduler.wait_for_update(job_id, version=version, timeout=timeout)

    def _check_backpressure(self) -> None:
        """Global queue-depth backpressure, before any spec is parsed.

        Per-tenant buckets cannot protect the server from many distinct
        tenants at once; the queue-depth cap is the service-wide wall.
        """
        limit = getattr(self.server, "max_queue_depth", None)
        if limit is None:
            return
        depth = self.scheduler.queue_depth()
        if depth >= limit:
            raise RateLimitedError(
                f"job queue is full ({depth} queued, limit {limit}); "
                "retry shortly",
                retry_after=1.0,
            )

    def _handle_post(self, path: str, tenant: str) -> None:
        if path == "/v1/shutdown":
            self._send_json(200, {"status": "shutting-down"})
            self.server.owner.stop_async()  # type: ignore[attr-defined]
            return
        if path in ("/v1/work:claim", "/v1/work:heartbeat", "/v1/work:complete"):
            # Fleet traffic authenticates like any tenant (handled in
            # _dispatch) but bypasses submission rate limits and queue
            # backpressure: claims *drain* the queue rather than fill
            # it, and a throttled heartbeat would expire a healthy
            # lease and trigger pointless recomputation.
            self._post_work(path, tenant)
            return
        if path not in ("/v1/runs", "/v1/sweeps", "/v1/tasks", "/v1/runs:batch"):
            self._send_json(404, {"error": f"unknown path {path!r}"})
            return
        # Admission control happens before the body is parsed: a
        # throttled client should be turned away as cheaply as possible.
        tenancy: Optional[TenantRegistry] = getattr(self.server, "tenancy", None)
        if tenancy is not None:
            tenancy.admit(tenant)
        self._check_backpressure()
        if path == "/v1/runs:batch":
            self._post_runs_batch(tenant)
            return
        try:
            spec = self._read_json()
            if path == "/v1/runs":
                job = self.scheduler.submit_run(spec, tenant=tenant)
            elif path == "/v1/sweeps":
                job = self.scheduler.submit_sweep(spec, tenant=tenant)
            else:
                job = self.scheduler.submit_tasks(spec, tenant=tenant)
        except _PayloadTooLarge as exc:
            self._send_too_large(exc)
            return
        except SpecError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._send_json(202, job.to_doc(include_result=job.finished))

    def _post_work(self, path: str, tenant: str) -> None:
        """``/v1/work:*`` -- the fleet's claim/heartbeat/complete calls.

        404 with a hint when the server was started without ``--fleet``;
        a reclaimed lease answers 409 (the client raises
        :class:`~repro.errors.LeaseExpiredError`).
        """
        queue: Optional[WorkQueue] = getattr(self.server, "fleet", None)
        if queue is None:
            self._send_json(
                404,
                {"error": f"{path!r} requires the worker fleet (start with serve --fleet)"},
            )
            return
        try:
            body = self._read_json()
        except _PayloadTooLarge as exc:
            self._send_too_large(exc)
            return
        except SpecError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        worker = str(body.get("worker") or tenant)
        try:
            if path == "/v1/work:claim":
                tenancy: Optional[TenantRegistry] = getattr(self.server, "tenancy", None)
                if tenancy is not None:
                    tenancy.on_worker_claim(tenant)
                doc = queue.claim(
                    worker,
                    limit=int(body.get("limit", 1)),
                    wait=float(body.get("wait", 0.0)),
                )
            elif path == "/v1/work:heartbeat":
                doc = queue.heartbeat(worker, str(body.get("lease_id")))
            else:
                results = body.get("results")
                if not isinstance(results, list):
                    self._send_json(400, {"error": "'results' must be a list"})
                    return
                doc = queue.complete(worker, str(body.get("lease_id")), results)
        except LeaseExpiredError as exc:
            self._send_json(409, {"error": str(exc)})
            return
        except (TypeError, ValueError) as exc:
            self._send_json(400, {"error": f"malformed work request: {exc}"})
            return
        self._send_json(200, doc)

    def _send_too_large(self, exc: _PayloadTooLarge) -> None:
        """413 without reading the body; close so framing stays clean."""
        # The oversized body was never read, so a keep-alive connection
        # would misparse it as the next request line: close instead.
        self.close_connection = True
        self._send_json(413, {"error": str(exc)})

    def _post_runs_batch(self, tenant: str) -> None:
        """``POST /v1/runs:batch``: per-item envelopes, in submission order.

        Each spec is submitted independently -- a malformed item becomes
        an ``{"error": ...}`` entry at its position while the valid items
        still enqueue (and dedup) exactly as single submissions would.
        A tenant running out of quota mid-batch errors the remaining
        items in place rather than failing the whole request.
        """
        try:
            body = self._read_json()
        except _PayloadTooLarge as exc:
            self._send_too_large(exc)
            return
        except SpecError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        specs = body.get("specs")
        if not isinstance(specs, list) or not specs:
            self._send_json(400, {"error": "'specs' must be a non-empty list"})
            return
        jobs = []
        for spec in specs:
            try:
                job = self.scheduler.submit_run(spec, tenant=tenant)
            except (SpecError, QuotaExceededError) as exc:
                jobs.append({"error": str(exc)})
            else:
                jobs.append(job.to_doc(include_result=False))
        self._send_json(202, {"jobs": jobs})


class ServiceServer:
    """The simulation service: scheduler + cache + threaded HTTP front-end.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port.
    executor:
        Executor name/instance the scheduler dispatches on (default
        ``"batch"``).
    cache_path:
        JSONL persistence path for the server's :class:`ResultCache`.
    cache_capacity:
        Entry capacity of the cache's memory tier.
    cache_max_bytes:
        Optional byte budget for the cache's memory tier; totals are
        visible in ``/metrics`` under ``cache.bytes``.
    scheduler_workers:
        Worker threads draining the job queue.
    journal:
        Optional :class:`~repro.service.journal.JobJournal` (or path).
        :meth:`start` replays it before serving: completed jobs
        re-resolve from the result cache, the unfinished frontier
        re-enqueues (``/metrics`` reports ``recovered_jobs`` and
        ``journal_bytes``).  Pair with ``cache_path`` so resumed task
        graphs recompute only never-finished nodes.
    auth:
        ``None`` (open, the default), a ``{token: tenant}`` dict, or a
        :class:`~repro.service.tenancy.TokenAuthenticator`.  When set,
        every request except ``GET /healthz`` must carry a valid
        ``Authorization: Bearer`` token (401 otherwise) and runs as the
        token's tenant.
    tenancy:
        Optional :class:`~repro.service.tenancy.TenantRegistry` holding
        the per-tenant limits (rate/burst/max_bytes/max_jobs).
    max_queue_depth:
        Global backpressure: submissions arriving while this many jobs
        are already queued answer ``429`` + ``Retry-After``.
    request_timeout:
        Per-connection socket timeout in seconds (default 30); a client
        that stalls mid-request gets 408 and is disconnected.  ``None``
        disables (not recommended outside tests).
    access_log:
        When true, emit one structured JSON line per request (method,
        path, tenant, status, duration, queue depth) to ``log_stream``
        (default ``sys.stderr``).
    fleet:
        Enable the distributed worker fleet: ``/v1/work:*`` endpoints
        go live and run work is offered to remote ``repro worker``
        processes before falling back to local execution (see
        :mod:`repro.service.fleet`).
    lease_ttl:
        Seconds a worker lease survives without a heartbeat (fleet
        only).
    claim_deadline:
        Seconds offered work waits for a remote claim before the local
        fallback takes it (fleet only; collapses to zero while no
        worker has been seen recently).

    Use as a context manager (``with ServiceServer() as srv:``) or call
    :meth:`start` / :meth:`stop` explicitly.  :meth:`serve_forever`
    blocks the calling thread until :meth:`stop` or ``Ctrl-C`` (the CLI
    ``serve`` path).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        executor: Any = "batch",
        cache_path: Optional[str] = None,
        cache_capacity: int = 4096,
        cache_max_bytes: Optional[int] = None,
        scheduler_workers: int = 1,
        journal: Optional[Union[JobJournal, str, Path]] = None,
        auth: Optional[Union[TokenAuthenticator, Dict[str, str]]] = None,
        tenancy: Optional[TenantRegistry] = None,
        max_queue_depth: Optional[int] = None,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        access_log: bool = False,
        log_stream: Optional[TextIO] = None,
        fleet: bool = False,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        claim_deadline: float = 2.0,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        if request_timeout is not None and request_timeout <= 0:
            raise ServiceError(
                f"request_timeout must be > 0 or None, got {request_timeout}"
            )
        cache = ResultCache(
            path=cache_path, capacity=cache_capacity, max_bytes=cache_max_bytes
        )
        if isinstance(auth, dict):
            auth = TokenAuthenticator(auth)
        self.auth = auth
        self.tenancy = tenancy
        #: The distributed work queue (``serve --fleet``), or ``None``.
        #: When enabled, the scheduler's executor is wrapped in a
        #: :class:`FleetExecutor`: addressable run work is offered to
        #: remote workers first and falls back to the local executor
        #: after ``claim_deadline`` (immediately while no worker has
        #: been seen), so a fleetless server behaves like a plain one.
        self.fleet: Optional[WorkQueue] = None
        if fleet:
            if journal is not None and not isinstance(journal, JobJournal):
                # The queue and the scheduler must share one journal
                # instance so lease lines and job lifecycle interleave
                # in a single ledger.
                journal = JobJournal(journal)
            self.fleet = WorkQueue(
                cache=cache, lease_ttl=lease_ttl, journal=journal
            )
            executor = FleetExecutor(
                self.fleet, fallback=executor, claim_deadline=claim_deadline
            )
        #: One typed-metrics registry for the whole service: the
        #: scheduler's lifecycle counters and the HTTP layer's
        #: counters/latency histogram all register here, so a single
        #: ``/metrics?format=prometheus`` scrape covers every layer.
        self.registry = Registry()
        self.scheduler = JobScheduler(
            executor=executor,
            cache=cache,
            workers=scheduler_workers,
            journal=journal,
            tenancy=tenancy,
            registry=self.registry,
            fleet=self.fleet,
        )
        self._httpd = _ThreadingServer((host, port), _Handler)
        self._httpd.scheduler = self.scheduler  # type: ignore[attr-defined]
        self._httpd.owner = self  # type: ignore[attr-defined]
        self._httpd.auth = auth  # type: ignore[attr-defined]
        self._httpd.tenancy = tenancy  # type: ignore[attr-defined]
        self._httpd.max_queue_depth = max_queue_depth  # type: ignore[attr-defined]
        self._httpd.fleet = self.fleet  # type: ignore[attr-defined]
        self._httpd.request_timeout = request_timeout  # type: ignore[attr-defined]
        self._httpd.access_log_stream = (  # type: ignore[attr-defined]
            (log_stream or sys.stderr) if access_log else None
        )
        self._http_counters = CounterMap(
            self.registry,
            "repro_http",
            (
                "requests",
                "auth_failures",
                "rate_limited",
                "request_timeouts",
                "client_disconnects",
            ),
            help="HTTP front-end counter",
        )
        self._latency = self.registry.histogram(
            "repro_http_request_seconds",
            "End-to-end HTTP request latency in seconds",
        )
        # Handler threads share one access-log stream; interleaved
        # partial writes under concurrency are satellite-visible log
        # corruption, so every record goes out under this lock.
        self._access_log_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._stop_lock = threading.Lock()
        self._closed = False

    def _count_http(self, counter: str) -> None:
        self._http_counters.inc(counter)

    def _observe_request(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def http_metrics(self) -> Dict[str, Any]:
        """HTTP-layer snapshot (the ``/metrics`` ``http`` block).

        The original counter keys keep their exact shape (plain ints);
        ``latency`` is additive -- the request-latency histogram's
        ``{"count", "sum_s", "p50_ms", "p95_ms", "p99_ms"}`` summary.
        """
        doc: Dict[str, Any] = self._http_counters.to_dict()
        doc["latency"] = self._latency.summary()
        return doc

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved for ``port=0``)."""
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        """Recover from the journal, then start workers + HTTP serving.

        Recovery runs before the workers spin up, so the re-enqueued
        frontier is dispatched exactly like fresh submissions, and
        before the socket answers, so an early ``GET /v1/tasks/<id>``
        already sees the recovered job.
        """
        self.scheduler.recover()
        self.scheduler.start()
        if self._thread is None:
            self._stopped.clear()
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-service-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: drain the scheduler, then close the socket.

        Idempotent under concurrent callers (``POST /v1/shutdown`` racing
        a SIGTERM delivers two calls): a lock serializes them and the
        second pass finds nothing left to do.  The scheduler drains
        *first* -- workers are joined and any still-running job is marked
        ``interrupted`` in the journal -- so no failure or progress
        record is lost while handler threads are being torn down.
        """
        with self._stop_lock:
            self.scheduler.stop()
            if self._thread is not None:
                self._httpd.shutdown()
                self._thread.join(timeout=10.0)
                self._thread = None
            if not self._closed:
                self._httpd.server_close()
                self._closed = True
            self._stopped.set()

    def stop_async(self) -> None:
        """Trigger :meth:`stop` from a handler thread (``POST /v1/shutdown``)."""
        threading.Thread(target=self.stop, name="repro-service-stop", daemon=True).start()

    def serve_forever(self) -> None:
        """Start and block until stopped (``Ctrl-C`` stops gracefully).

        The wait polls so signal handlers installed by the caller (the
        CLI ``serve`` maps ``SIGTERM`` to a graceful stop) run promptly.
        """
        self.start()
        try:
            while not self._stopped.wait(timeout=0.2):
                pass
        except KeyboardInterrupt:
            self.stop()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


__all__ = ["MAX_BODY_BYTES", "DEFAULT_REQUEST_TIMEOUT", "ServiceServer"]
