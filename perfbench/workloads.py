"""The benchmark's workloads: their units, passes and correctness checks.

Every workload splits its units into *writes*, which compute a result,
and *reads*, which serve or re-check a result that already exists:

* ``reproduce`` -- a full pass runs E1-E8 into a fresh JSONL result
  cache (writes); a warm pass reopens that file and reruns E1-E8 (reads).
* ``witness`` -- a full pass plays the cyclic chain-fan adversary at
  n = 32 and 48 on both matrix backends (writes); a warm pass replays each
  recorded tree sequence and re-derives its t* (reads).
* ``service-mix`` -- a full pass is a fixed mix of HTTP operations on a
  ``repro serve`` process (cache-hit reads next to cold writes); a warm
  pass replays the same list, so every operation is then a cache hit.

A workload touches the program only through its public entry points.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from tracing import Tracer, install


@dataclasses.dataclass
class Context:
    """Where a run happens and what it was asked to do."""

    root: Path
    work: Path
    seed: int
    env: Dict[str, str]


@dataclasses.dataclass
class Pass:
    """One timed pass: its wall time and per-unit latencies in ms."""

    seconds: float
    reads_ms: List[float] = dataclasses.field(default_factory=list)
    writes_ms: List[float] = dataclasses.field(default_factory=list)


class Workload:
    """Shared bookkeeping: unit counts, failures and optional tracing."""

    name = ""
    #: Units in one full pass (what ``ops_per_s`` counts).
    units_per_pass = 0
    #: Warm passes run after each full pass.
    warm_per_full = 1

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = random.Random(f"{self.name}:{ctx.seed}")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.tracer: Optional[Tracer] = None
        self.report: Dict[str, Any] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def span(self, name: str) -> Any:
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    # Lifecycle hooks; the defaults suit in-process workloads.
    def start(self) -> None:
        """Everything the first timed unit needs (imports, servers, data)."""

    def begin_trace(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._traced = install(tracer)

    def end_trace(self) -> Dict[str, Any]:
        """Stop tracing; returns the span snapshot plus any server figures."""
        self._traced.restore()
        snapshot = self.tracer.snapshot()
        self.tracer = None
        return snapshot

    def finish(self) -> None:
        """Checks that run after timing, then release resources."""

    def kill(self) -> None:
        """Stop anything the workload started, without checks."""

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def full_pass(self, i: int) -> Pass:
        raise NotImplementedError

    def warm_pass(self, i: int) -> Pass:
        raise NotImplementedError


def _load_json(ctx: Context, relpath: str) -> Any:
    with open(ctx.root / relpath, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------


class Reproduce(Workload):
    """E1-E8 cold into a fresh result cache, then warm from the reopened file."""

    name = "reproduce"
    warm_per_full = 25

    def start(self) -> None:
        from repro.experiments.registry import known_experiment_ids, run_experiment
        from repro.service.cache import ResultCache

        self._run, self._cache_cls = run_experiment, ResultCache
        self.order = list(known_experiment_ids())
        self.units_per_pass = len(self.order)
        self.golden = _load_json(self.ctx, "tests/fixtures/golden_experiments.json")
        self.report["checks_pinned"] = sum("checks: FAILED" in t for t in self.golden.values())
        self.cache_path: Optional[Path] = None

    def _pass(self, path: Path, warm: bool) -> Pass:
        out: Dict[str, Any] = {}
        lat: List[float] = []
        t0 = time.perf_counter()
        cache = self._cache_cls(path=str(path))
        for eid in self.order:
            t = time.perf_counter()
            try:
                with self.span(f"experiments.{eid}"):
                    out[eid] = self._run(eid, cache=cache)
            except Exception as exc:  # counted, the pass goes on
                out[eid] = exc
            lat.append((time.perf_counter() - t) * 1000.0)
        p = Pass(time.perf_counter() - t0)
        if warm:
            p.reads_ms = lat
        else:
            p.writes_ms = lat
        self._check(out, warm)
        return p

    def _check(self, out: Dict[str, Any], warm: bool) -> None:
        failing = 0
        for eid in self.order:
            self.attempted += 1
            result = out[eid]
            if isinstance(result, Exception):
                self.fail(f"{eid}: {type(result).__name__}: {result}")
                continue
            table, graph_run = result
            failing += not table.checks_passed
            if table.render() != self.golden.get(eid):
                self.fail(f"{eid}: table differs from the golden fixture")
            elif warm and graph_run.stats.get("computed", 0) != 0:
                self.fail(f"{eid}: warm rerun computed {graph_run.stats['computed']} tasks")
        if failing > self.report["checks_pinned"]:
            self.fail(f"{failing} experiment checks failed, {self.report['checks_pinned']} pinned")
        self.report["checks_failed"] = failing

    def full_pass(self, i: int) -> Pass:
        if self.cache_path is not None:
            self.cache_path.unlink()
        self.cache_path = self.ctx.work / f"cold-{i}.jsonl"
        return self._pass(self.cache_path, warm=False)

    def warm_pass(self, i: int) -> Pass:
        assert self.cache_path is not None
        return self._pass(self.cache_path, warm=True)


# ----------------------------------------------------------------------
# witness
# ----------------------------------------------------------------------


class Witness(Workload):
    """The Theorem 3.1 witness played, then its recorded trees replayed."""

    name = "witness"
    warm_per_full = 100
    SIZES = ((32, "dense"), (32, "bitset"), (48, "dense"), (48, "bitset"))

    def start(self) -> None:
        from repro.adversaries.base import SequenceAdversary
        from repro.core.bounds import lower_bound
        from repro.engine.executor import RunSpec, SequentialExecutor
        from repro.service.specs import to_run_spec

        self.units = list(self.SIZES)
        self.units_per_pass = len(self.units)
        self.executor = SequentialExecutor()
        # keep_trees records the played sequence for the replay check.
        self.specs = [
            dataclasses.replace(
                to_run_spec({"adversary": "cyclic", "n": n, "backend": b}), keep_trees=True
            )
            for n, b in self.units
        ]
        golden = _load_json(self.ctx, "tests/fixtures/golden_tstar.json")["cyclic_family"]
        self.expected = [lower_bound(n) for n, _ in self.units]
        for (n, _), t_star in zip(self.units, self.expected):
            if golden.get(str(n), t_star) != t_star:
                raise RuntimeError(f"golden t*({n}) disagrees with lower_bound({n})")
        self._sequence, self._run_spec = SequenceAdversary, RunSpec
        self.recorded: List[Any] = [None] * len(self.units)

    def _units_pass(self, label: str, call: Any) -> Tuple[float, List[float], List[Any]]:
        """Time ``call(k)`` for every unit, then check each run's t*."""
        results, lat = [], []
        t0 = time.perf_counter()
        for k in range(len(self.units)):
            t = time.perf_counter()
            try:
                results.append(call(k))
            except Exception as exc:  # counted, the pass goes on
                results.append(exc)
            lat.append((time.perf_counter() - t) * 1000.0)
        seconds = time.perf_counter() - t0
        for (n, b), t_star, result in zip(self.units, self.expected, results):
            self.attempted += 1
            if isinstance(result, Exception):
                self.fail(f"{label} n={n} {b}: {type(result).__name__}: {result}")
            elif result.t_star != t_star:
                self.fail(f"{label} n={n} {b}: t*={result.t_star}, expected {t_star}")
        return seconds, lat, results

    def full_pass(self, i: int) -> Pass:
        seconds, lat, reports = self._units_pass("cyclic", lambda k: self.executor.run(self.specs[k]))
        for k, report in enumerate(reports):
            if not isinstance(report, Exception):
                self.recorded[k] = report.trees
        return Pass(seconds, writes_ms=lat)

    def _replay(self, k: int) -> Any:
        n, backend = self.units[k]
        adversary = self._sequence(self.recorded[k], after="error")
        return self.executor.run(self._run_spec(adversary=adversary, n=n, backend=backend))

    def warm_pass(self, i: int) -> Pass:
        seconds, lat, _ = self._units_pass("replay", self._replay)
        return Pass(seconds, reads_ms=lat)


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------


class Conn:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._c: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, doc: Any = None) -> Tuple[int, Any]:
        if self._c is None:
            self._c = http.client.HTTPConnection(self.host, self.port, timeout=120)
            self._c.connect()
            self._c.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            self._c.request(method, path, body=body, headers=headers)
            resp = self._c.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return resp.status, json.loads(data)

    def close(self) -> None:
        if self._c is not None:
            self._c.close()
            self._c = None


class Server:
    """A ``repro serve`` process started through ``perfbench/serve.py``."""

    def __init__(self, ctx: Context, tag: str, traced: bool) -> None:
        self.report_path = ctx.work / f"server-{tag}.json"
        log_path = ctx.work / f"server-{tag}.log"
        cmd = [
            sys.executable, str(ctx.root / "perfbench" / "serve.py"),
            "--report", str(self.report_path), *(["--trace"] if traced else []),
            "--", "--port", "0", "--cache", str(ctx.work / f"server-{tag}.jsonl"),
            "--no-access-log",
        ]
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=ctx.env, cwd=ctx.root
            )
        try:
            self.host, self.port = self._await_banner(log_path)
            self._await_health()
        except BaseException:
            self.kill()
            raise

    def _await_banner(self, log_path: Path) -> Tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            m = re.search(r"listening on http://([\d.]+):(\d+)", log_path.read_text())
            if m:
                return m.group(1), int(m.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{log_path.read_text()}")
            time.sleep(0.005)
        raise RuntimeError("server did not start within 60 s")

    def _await_health(self) -> None:
        conn = Conn(self.host, self.port)
        deadline = time.monotonic() + 30
        try:
            while True:
                try:
                    if conn.call("GET", "/healthz")[0] == 200:
                        return
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.005)
        finally:
            conn.close()

    def reset_trace(self) -> None:
        """Clear the server's spans and wait until it confirms."""
        ack = Path(str(self.report_path) + ".reset")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10
        while not ack.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("server did not acknowledge the trace reset")
            time.sleep(0.005)

    def stop(self) -> Dict[str, Any]:
        """Graceful shutdown; returns the launcher's exit report."""
        conn = Conn(self.host, self.port)
        try:
            conn.call("POST", "/v1/shutdown", {})
        except OSError:
            pass
        finally:
            conn.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop within 30 s") from None
        with open(self.report_path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class ServiceMix(Workload):
    """Closed-loop HTTP load: 2 keep-alive clients, reads next to writes."""

    name = "service-mix"
    CLIENTS = 2
    OPS = 300
    WRITE_SHARE = 0.3
    BATCH_SHARE = 0.3
    BATCH = 3
    N = 64
    READ_RUNS = 24
    GRAPHS = ("E1", "E2", "E4", "E7", "E8")
    #: Share of cold writes re-run locally to check the served t*.
    CHECKED_WRITES = 0.1

    def start(self) -> None:
        from repro.experiments.registry import experiment_graph

        self.units_per_pass = self.OPS
        self.golden = _load_json(self.ctx, "tests/fixtures/golden_experiments.json")
        base = self.rng.randrange(1 << 20) * 1000
        self.read_specs = [
            {"adversary": "random-tree", "n": self.N, "seed": base + k} for k in range(self.READ_RUNS)
        ]
        self._next_seed = base + 10 * self.READ_RUNS
        self.graphs = {}
        for eid in self.GRAPHS:
            graph, output = experiment_graph(eid)
            doc = graph.to_doc()
            doc["outputs"] = [output]
            self.graphs[eid] = (doc, output)
        self.served: Dict[str, List[Any]] = {}  # canonical spec json -> t* values seen
        self.tables: Dict[str, set] = {}  # experiment id -> distinct table docs seen
        self._servers = 0
        self._launch(traced=False)

    def _launch(self, traced: bool) -> None:
        self._servers += 1
        self.server = Server(self.ctx, f"{self._servers}", traced)
        self.conns = [Conn(self.server.host, self.server.port) for _ in range(self.CLIENTS)]
        self.job_ids: List[str] = []
        for spec in self.read_specs:
            doc = self._await(self.conns[0], self._post(self.conns[0], "/v1/runs", spec))
            self.job_ids.append(doc["job_id"])
        for doc, _ in self.graphs.values():
            self._await(self.conns[0], self._post(self.conns[0], "/v1/tasks", doc))

    # -- HTTP operations ------------------------------------------------

    @staticmethod
    def _post(conn: Conn, path: str, doc: Any) -> Any:
        status, out = conn.call("POST", path, doc)
        if status != 202:
            raise RuntimeError(f"POST {path} answered {status}: {out}")
        return out

    @staticmethod
    def _await(conn: Conn, job: Dict[str, Any]) -> Dict[str, Any]:
        """Long-poll ``?watch=`` until the job is terminal (at most 60 s)."""
        deadline = time.monotonic() + 60
        # Batch envelopes carry no result, so a finished one is re-read.
        while job["status"] not in ("done", "failed") or "result" not in job:
            if time.monotonic() > deadline:
                raise RuntimeError(f"job {job['job_id']} still {job['status']} after 60 s")
            status, job = conn.call(
                "GET", f"/v1/runs/{job['job_id']}?watch={job['version']}&timeout=10"
            )
            if status != 200:
                raise RuntimeError(f"watch answered {status}: {job}")
        if job["status"] != "done":
            raise RuntimeError(f"job {job['job_id']} ended {job['status']}: {job.get('error')}")
        return job

    def _fresh_spec(self) -> Dict[str, Any]:
        self._next_seed += 1
        return {"adversary": "random-tree", "n": self.N, "seed": self._next_seed}

    def _ops(self) -> List[Tuple[str, Any]]:
        ops: List[Tuple[str, Any]] = []
        for _ in range(self.OPS):
            if self.rng.random() < self.WRITE_SHARE:
                if self.rng.random() < self.BATCH_SHARE:
                    ops.append(("write-batch", [self._fresh_spec() for _ in range(self.BATCH)]))
                else:
                    ops.append(("write-run", self._fresh_spec()))
                continue
            r = self.rng.random()
            if r < 0.4:
                ops.append(("read-run", self.rng.randrange(self.READ_RUNS)))
            elif r < 0.7:
                ops.append(("read-get", self.rng.randrange(self.READ_RUNS)))
            else:
                ops.append(("read-graph", self.rng.choice(self.GRAPHS)))
        return ops

    def _do(self, conn: Conn, kind: str, arg: Any, warm: bool) -> List[Tuple[Any, Any]]:
        """Run one operation; returns ``(spec or graph id, served value)`` pairs.

        In a warm replay a write must be answered from the cache.
        """
        if kind == "read-run":
            job = self._post(conn, "/v1/runs", self.read_specs[arg])
            if not job["cached"] or job["status"] != "done":
                raise RuntimeError(f"read of a primed run was not a cache hit: {job['status']}")
            self.job_ids[arg] = job["job_id"]
            return [(self.read_specs[arg], job["result"]["t_star"])]
        if kind == "read-get":
            status, job = conn.call("GET", f"/v1/runs/{self.job_ids[arg]}")
            if status != 200 or job["status"] != "done":
                raise RuntimeError(f"GET /v1/runs answered {status}: {job.get('status')}")
            return [(self.read_specs[arg], job["result"]["t_star"])]
        if kind == "read-graph":
            doc, output = self.graphs[arg]
            job = self._post(conn, "/v1/tasks", doc)
            if not job["cached"] or job["status"] != "done":
                raise RuntimeError(f"read of a primed graph was not a cache hit: {job['status']}")
            return [(arg, job["result"]["outputs"][output])]
        if kind == "write-run":
            job = self._post(conn, "/v1/runs", arg)
            if warm and not job["cached"]:
                raise RuntimeError("warm replay of a write was not a cache hit")
            return [(arg, self._await(conn, job)["result"]["t_star"])]
        out = self._post(conn, "/v1/runs:batch", {"specs": arg})
        if warm and not all(job.get("cached") for job in out["jobs"]):
            raise RuntimeError("warm replay of a batch write was not a cache hit")
        return [
            (spec, self._await(conn, job)["result"]["t_star"])
            for spec, job in zip(arg, out["jobs"])
        ]

    def _drive(self, ops: List[Tuple[str, Any]], warm: bool) -> Pass:
        """Closed loop: each client takes the next operation when its last one ends."""
        results: List[Any] = [None] * len(ops)
        cursor = iter(range(len(ops)))
        lock = threading.Lock()

        def client(conn: Conn) -> None:
            while True:
                with lock:
                    k = next(cursor, None)
                if k is None:
                    return
                kind, arg = ops[k]
                t = time.perf_counter()
                try:
                    served: Any = self._do(conn, kind, arg, warm)
                except Exception as exc:  # counted, the client goes on
                    served = exc
                results[k] = ((time.perf_counter() - t) * 1000.0, served)

        threads = [threading.Thread(target=client, args=(c,)) for c in self.conns]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        p = Pass(time.perf_counter() - t0)
        for (kind, arg), (ms, served) in zip(ops, results):
            self.attempted += 1
            # A warm replay repeats the full pass's operations: it is
            # timed as a whole (warm_wall_s), not per operation again.
            if not warm:
                (p.reads_ms if kind.startswith("read") else p.writes_ms).append(ms)
            if isinstance(served, Exception):
                self.fail(f"{kind}: {type(served).__name__}: {served}")
                continue
            for key, value in served:
                if isinstance(key, str):
                    self.tables.setdefault(key, set()).add(json.dumps(value, sort_keys=True))
                else:
                    self.served.setdefault(json.dumps(key, sort_keys=True), []).append(value)
        return p

    def full_pass(self, i: int) -> Pass:
        self.last_ops = self._ops()
        return self._drive(self.last_ops, warm=False)

    def warm_pass(self, i: int) -> Pass:
        return self._drive(self.last_ops, warm=True)

    # -- tracing: swap in a server that carries the wrappers -------------

    def begin_trace(self, tracer: Tracer) -> None:
        self._stop_server()
        self._launch(traced=True)
        self.server.reset_trace()
        self._metrics_before = self._metrics()

    def end_trace(self) -> Dict[str, Any]:
        after = self._metrics()
        report = self._stop_server()
        snapshot = report["trace"]
        before = self._metrics_before
        snapshot["server"] = {
            "computations": after["computations"] - before["computations"],
            "dispatches": after["dispatches"] - before["dispatches"],
            "dedup_inflight": after["dedup_inflight"] - before["dedup_inflight"],
            # The closing /metrics read counts itself; it is not load.
            "requests": after["http"]["requests"] - before["http"]["requests"] - 1,
            "errors": sum(
                after["http"][k] - before["http"][k]
                for k in ("auth_failures", "rate_limited", "request_timeouts", "client_disconnects")
            ) + after["failures"] - before["failures"],
            "latency_p50_ms": after["http"]["latency"]["p50_ms"],
            "latency_p99_ms": after["http"]["latency"]["p99_ms"],
            "queue_waits_s": report["queue_waits_s"],
        }
        return snapshot

    def _metrics(self) -> Dict[str, Any]:
        status, doc = self.conns[0].call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return doc

    def _stop_server(self) -> Dict[str, Any]:
        for conn in self.conns:
            conn.close()
        server, self.server = self.server, None
        report = server.stop()
        self.report["server_peak_rss_mb"] = report["peak_rss_mb"]
        return report

    def finish(self) -> None:
        """Stop the server, then check what it served against local runs."""
        from repro.engine.executor import SequentialExecutor
        from repro.experiments.registry import table_from_doc
        from repro.service.specs import to_run_spec

        if self.server is not None:
            self._stop_server()
        for key, values in self.served.items():
            if len(set(values)) > 1:
                self.fail(f"{key}: served differing t* {sorted(set(values))}")
        reads = sorted({json.dumps(s, sort_keys=True) for s in self.read_specs} & set(self.served))
        writes = sorted(set(self.served) - set(reads))
        sample = random.Random(f"check:{self.ctx.seed}").sample(
            writes, min(len(writes), max(1, int(len(writes) * self.CHECKED_WRITES)))
        )
        executor = SequentialExecutor()
        for key in reads + sample:
            expected = executor.run(to_run_spec(json.loads(key))).t_star
            if self.served[key][0] != expected:
                self.fail(f"{key}: served t*={self.served[key][0]}, local {expected}")
        for eid, docs in self.tables.items():
            if any(table_from_doc(json.loads(d)).render() != self.golden[eid] for d in docs):
                self.fail(f"{eid}: served table differs from the golden fixture")

    def kill(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            self.server = None
            server.kill()

    def peak_rss_mb(self) -> float:
        return self.report["server_peak_rss_mb"]


WORKLOADS = {w.name: w for w in (Reproduce, Witness, ServiceMix)}


@contextlib.contextmanager
def running(workload: Workload) -> Iterator[Workload]:
    """Make sure no server outlives the run, whatever happens."""
    try:
        yield workload
    finally:
        workload.kill()
