"""Fleet worker: pull work over HTTP, execute locally, push results.

:class:`FleetWorker` is the client half of the distributed fleet (the
server half is :mod:`repro.service.fleet`).  It loops:

1. ``POST /v1/work:claim`` -- lease a batch of ready run payloads
   (bounded long-poll, so an idle worker costs one held connection,
   not a poll storm).
2. Execute each payload through the normal local
   :class:`~repro.engine.executor.Executor` stack --
   ``to_run_spec(payload)`` exactly as the server's local fallback
   would, which is what makes fleet results byte-identical to
   single-host execution.  Spans are parented under the claim's
   ``traceparent`` (:func:`repro.obs.trace.parented`), so a worker's
   execution shows up in the submitting request's trace tree.
3. ``POST /v1/work:complete`` -- land encoded result docs by digest.

A background heartbeat renews the lease at ``ttl/3`` while a batch
executes; a :class:`~repro.errors.LeaseExpiredError` from any call
means the server reclaimed the batch (this worker looked dead) and the
results must be dropped, not pushed -- the queue would drop them anyway
and count the attempt as late.  Connection errors back off and retry:
a worker is a long-lived daemon that must survive server restarts.

Run one with ``repro worker --url http://host:8642 [--token T]
[--procs N] [--batch B]`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.engine.executor import Executor, get_executor
from repro.errors import (
    CacheError,
    LeaseExpiredError,
    ServiceConnectionError,
    ServiceResponseError,
)
from repro.obs import trace as _trace
from repro.service.cache import report_to_doc
from repro.service.client import ServiceClient
from repro.service.specs import to_run_spec

#: Seconds a worker first waits after a failed claim; each further
#: failure doubles the wait, up to :data:`MAX_BACKOFF`.
BACKOFF = 0.5
MAX_BACKOFF = 10.0

__all__ = ["FleetWorker"]


class FleetWorker:
    """One pull-execute-push worker process.

    Parameters
    ----------
    client:
        A :class:`ServiceClient` pointed at the serving host (workers
        authenticate exactly like tenants: pass ``token=``).
    name:
        Worker identity shown in the server's ``/metrics`` registry;
        defaults to ``worker-<hostname>-<pid>``.
    procs:
        Local parallelism.  ``procs > 1`` shards batches across
        processes via the sharded executor when the work's engine hint
        allows it (sharded execution reports through the batch engine,
        so the hint must be batch-compatible to preserve
        byte-identity; a sequential hint always runs sequential).
    batch:
        Max items claimed per lease.
    engine:
        Override the per-item engine hint (debugging / benchmarking;
        overriding can break byte-identity with the server's fallback).
    poll:
        Seconds each claim long-polls server-side before returning
        empty.
    delay:
        Artificial seconds of sleep per claimed item *before*
        executing -- a chaos/testing knob that widens the window in
        which a worker can be killed mid-batch.
    max_batches:
        Stop after completing this many non-empty claims (``None`` =
        run until :meth:`stop`).
    """

    def __init__(
        self,
        client: ServiceClient,
        name: Optional[str] = None,
        procs: int = 1,
        batch: int = 4,
        engine: Optional[str] = None,
        poll: float = 5.0,
        delay: float = 0.0,
        max_batches: Optional[int] = None,
    ) -> None:
        if name is None:
            import os
            import socket as _socket

            name = f"worker-{_socket.gethostname()}-{os.getpid()}"
        self.client = client
        self.name = str(name)
        self.procs = max(1, int(procs))
        self.batch = max(1, int(batch))
        self.engine = engine
        self.poll = float(poll)
        self.delay = float(delay)
        self.max_batches = max_batches
        self.stats: Dict[str, int] = {
            "claims": 0,
            "empty_claims": 0,
            "items_ok": 0,
            "items_failed": 0,
            "leases_lost": 0,
            "connect_errors": 0,
        }
        self._stop = threading.Event()
        self._executors: Dict[str, Executor] = {}

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Ask the claim loop to exit after the current batch."""
        self._stop.set()

    def _executor_for(self, hint: Optional[str]) -> Executor:
        """The local executor honouring the server's engine hint.

        The hint names the engine the server's local fallback would
        use, so honouring it keeps the ``executor`` field of result
        docs -- and therefore the bytes in the shared cache --
        identical to local execution.  ``procs > 1`` upgrades a
        batch-compatible hint to sharded execution (shard workers
        report through the batch engine, so the docs don't change).
        """
        name = self.engine or hint or "batch"
        key = f"{name}/{self.procs}"
        executor = self._executors.get(key)
        if executor is None:
            if self.procs > 1 and name in ("batch", "sharded"):
                executor = get_executor("sharded", workers=self.procs)
            else:
                executor = get_executor(name)
            self._executors[key] = executor
        return executor

    # ------------------------------------------------------------------

    def run(self) -> Dict[str, int]:
        """Claim/execute/complete until stopped; returns final stats."""
        wait = BACKOFF
        batches = 0
        while not self._stop.is_set():
            if self.max_batches is not None and batches >= self.max_batches:
                break
            try:
                claim = self.client.claim_work(
                    self.name, limit=self.batch, wait=self.poll
                )
            except ServiceConnectionError:
                self.stats["connect_errors"] += 1
                if self._stop.wait(wait):
                    break
                wait = min(wait * 2, MAX_BACKOFF)
                continue
            wait = BACKOFF
            items = claim.get("items") or []
            if not items:
                self.stats["empty_claims"] += 1
                continue
            self.stats["claims"] += 1
            batches += 1
            self._execute_batch(claim["lease_id"], float(claim["ttl"]), items)
        return dict(self.stats)

    def _execute_batch(
        self, lease_id: str, ttl: float, items: List[Dict[str, Any]]
    ) -> None:
        lost = threading.Event()
        done = threading.Event()

        def beat() -> None:
            interval = max(0.05, ttl / 3.0)
            while not done.wait(interval):
                try:
                    self.client.heartbeat_work(self.name, lease_id)
                except LeaseExpiredError:
                    lost.set()
                    return
                except (ServiceConnectionError, ServiceResponseError):
                    # Transient; the next beat (or lease expiry) decides.
                    pass

        beater = threading.Thread(target=beat, daemon=True)
        beater.start()
        try:
            results = self._execute_items(items)
        finally:
            done.set()
            beater.join(timeout=1.0)
        if lost.is_set():
            # The server reclaimed the batch; pushing would be a counted
            # late completion, so drop the results here.
            self.stats["leases_lost"] += 1
            return
        self._push(lease_id, results)

    def _execute_items(self, items: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        if self.delay > 0:
            time.sleep(self.delay * len(items))
        # Group by (traceparent, engine) so each group executes under
        # the trace of the request that created it.
        groups: Dict[Any, List[Dict[str, Any]]] = {}
        for item in items:
            groups.setdefault((item.get("traceparent"), item.get("engine")), []).append(
                item
            )
        results: List[Dict[str, Any]] = []
        for (traceparent, engine), group in groups.items():
            with _trace.parented(traceparent):
                with _trace.span(
                    "worker", worker=self.name, items=len(group), engine=engine or ""
                ):
                    results.extend(self._execute_group(group, engine))
        return results

    def _execute_group(
        self, group: List[Dict[str, Any]], engine: Optional[str]
    ) -> List[Dict[str, Any]]:
        specs = []
        prepared: List[Dict[str, Any]] = []
        results: List[Dict[str, Any]] = []
        for item in group:
            if item.get("kind") != "run":
                results.append(
                    {
                        "digest": item["digest"],
                        "ok": False,
                        "error": f"unsupported work kind {item.get('kind')!r}",
                    }
                )
                continue
            try:
                specs.append(to_run_spec(item["payload"]))
            except Exception as exc:
                results.append(
                    {
                        "digest": item["digest"],
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
                continue
            prepared.append(item)
        if specs:
            settled = self._executor_for(engine).run_many_settled(specs)
            for item, outcome in zip(prepared, settled):
                if isinstance(outcome, Exception):
                    results.append(
                        {
                            "digest": item["digest"],
                            "ok": False,
                            "error": f"{type(outcome).__name__}: {outcome}",
                        }
                    )
                    continue
                try:
                    doc = report_to_doc(outcome)
                except CacheError as exc:
                    results.append(
                        {
                            "digest": item["digest"],
                            "ok": False,
                            "error": f"CacheError: {exc}",
                        }
                    )
                    continue
                results.append({"digest": item["digest"], "ok": True, "doc": doc})
        for result in results:
            if result["ok"]:
                self.stats["items_ok"] += 1
            else:
                self.stats["items_failed"] += 1
        return results

    def _push(self, lease_id: str, results: List[Dict[str, Any]]) -> None:
        for attempt in range(3):
            try:
                self.client.complete_work(self.name, lease_id, results)
                return
            except LeaseExpiredError:
                self.stats["leases_lost"] += 1
                return
            except ServiceConnectionError:
                self.stats["connect_errors"] += 1
                if attempt == 2 or self._stop.wait(BACKOFF * (attempt + 1)):
                    # Give up: lease expiry will reclaim the batch; the
                    # recomputation is byte-identical, so nothing is lost
                    # but the cycles.
                    return

    def __repr__(self) -> str:
        return f"FleetWorker({self.name!r}, procs={self.procs}, batch={self.batch})"
