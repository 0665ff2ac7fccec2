"""Load harness: hundreds of concurrent clients against a warm cache.

Drives a running service (or a self-hosted one, auth + rate limiting
enabled, when ``--url`` is omitted) with N client threads hammering
``POST /v1/runs`` over persistent keep-alive connections.  Every spec is
warmed first, so the measured ceiling is the serving path itself -- HTTP
parsing, auth, admission, digesting, cache lookup, JSON response --
not simulation time.

Exit status is the acceptance check: nonzero when any 5xx was observed,
when throughput was zero, or when ``--min-rps`` was not met.  Results
are merged into ``benchmarks/BENCH_load.json``.

Usage::

    python benchmarks/bench_load.py --quick          # CI smoke: 16 clients, 2s
    python benchmarks/bench_load.py                  # full: 200 clients, 10s
    python benchmarks/bench_load.py --url http://host:8642 --token TOKEN
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional
from urllib.parse import urlparse

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
if str(REPO_SRC) not in sys.path:  # runnable without PYTHONPATH
    sys.path.insert(0, str(REPO_SRC))

from repro.analysis.tables import format_table  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

RESULTS_PATH = Path(__file__).with_name("BENCH_load.json")

#: Distinct warm digests the clients cycle through (static paths at a
#: few sizes: cheap to warm, four cache entries to spread lookups over).
WARM_NS = (16, 24, 32, 48)


class _Counters:
    """One thread's tallies, merged after the join (no shared locks)."""

    def __init__(self) -> None:
        self.statuses: Dict[int, int] = {}
        self.latencies: List[float] = []
        self.transport_errors = 0

    def record(self, status: int, latency: float) -> None:
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.latencies.append(latency)


def _client_loop(
    host: str,
    port: int,
    token: Optional[str],
    bodies: List[str],
    start: threading.Barrier,
    stop_at_holder: List[float],
    counters: _Counters,
) -> None:
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    conn = http.client.HTTPConnection(host, port, timeout=30)
    i = 0
    start.wait()
    while time.perf_counter() < stop_at_holder[0]:
        t0 = time.perf_counter()
        try:
            conn.request("POST", "/v1/runs", body=bodies[i % len(bodies)], headers=headers)
            response = conn.getresponse()
            response.read()
        except (OSError, http.client.HTTPException):
            # Reconnect and keep going: a dropped keep-alive connection
            # (server restart, 429 with Connection: close) is not fatal.
            counters.transport_errors += 1
            conn.close()
            conn = http.client.HTTPConnection(host, port, timeout=30)
            continue
        counters.record(response.status, time.perf_counter() - t0)
        i += 1
    conn.close()


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _persist(key: str, payload: dict, path: Path) -> None:
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing[key] = payload
    path.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run_load(
    url: str,
    token: Optional[str],
    clients: int,
    duration: float,
) -> dict:
    """Warm the cache, then hammer it; returns the measurement document."""
    parsed = urlparse(url)
    host, port = parsed.hostname or "127.0.0.1", parsed.port or 80
    specs = [{"adversary": "static-path", "n": n} for n in WARM_NS]

    warm = ServiceClient(host, port, token=token, retry_rate_limited=10)
    for spec in specs:
        doc = warm.submit_run(spec)
        if doc["status"] != "done":
            warm.wait(doc["job_id"], timeout=120)

    bodies = [json.dumps(spec) for spec in specs]
    per_thread = [_Counters() for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)
    stop_at = [float("inf")]
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(host, port, token, bodies, barrier, stop_at, counters),
            daemon=True,
        )
        for counters in per_thread
    ]
    for t in threads:
        t.start()
    barrier.wait()  # clients counted down: the clock starts now
    t0 = time.perf_counter()
    stop_at[0] = t0 + duration
    time.sleep(duration)
    for t in threads:
        t.join(timeout=60)
    elapsed = time.perf_counter() - t0

    statuses: Dict[int, int] = {}
    latencies: List[float] = []
    transport_errors = 0
    for counters in per_thread:
        for status, count in counters.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
        latencies.extend(counters.latencies)
        transport_errors += counters.transport_errors
    latencies.sort()
    total = sum(statuses.values())
    return {
        "clients": clients,
        "duration_s": round(elapsed, 3),
        "requests": total,
        "req_per_s": round(total / max(elapsed, 1e-9), 1),
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "n_5xx": sum(v for k, v in statuses.items() if k >= 500),
        "n_429": statuses.get(429, 0),
        "transport_errors": transport_errors,
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url",
        default=None,
        help="target a running service (default: self-host one with auth "
        "+ rate limiting enabled)",
    )
    parser.add_argument("--token", default=None, help="bearer token for --url")
    parser.add_argument("--clients", type=int, default=200)
    parser.add_argument("--duration", type=float, default=10.0, help="seconds")
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke: 16 clients for 2s"
    )
    parser.add_argument(
        "--min-rps",
        type=float,
        default=0.0,
        help="fail (exit 1) below this sustained req/s",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_PATH), help="JSON results file (merged)"
    )
    args = parser.parse_args(argv)
    clients = 16 if args.quick else args.clients
    duration = 2.0 if args.quick else args.duration

    server = None
    if args.url is None:
        from repro.service.server import ServiceServer
        from repro.service.tenancy import TenantLimits, TenantRegistry

        # Auth and rate limiting are *on* (the hardened code path is what
        # gets measured); the limit itself is far above the ceiling so
        # the bucket never rejects a well-behaved load run.
        server = ServiceServer(
            auth={"bench-token": "bench"},
            tenancy=TenantRegistry(
                default_limits=TenantLimits(rate=1_000_000.0, burst=1_000_000)
            ),
        ).start()
        url, token = server.url, "bench-token"
    else:
        url, token = args.url, args.token

    try:
        doc = run_load(url, token, clients=clients, duration=duration)
    finally:
        if server is not None:
            server.stop()

    key = "quick" if args.quick else f"clients{clients}"
    _persist(key, doc, Path(args.out))
    print(
        format_table(
            ["clients", "duration", "requests", "req/s", "p50", "p95", "p99", "5xx"],
            [
                (
                    doc["clients"],
                    f"{doc['duration_s']:.1f}s",
                    doc["requests"],
                    f"{doc['req_per_s']:.0f}",
                    f"{doc['p50_ms']:.1f}ms",
                    f"{doc['p95_ms']:.1f}ms",
                    f"{doc['p99_ms']:.1f}ms",
                    doc["n_5xx"],
                )
            ],
            title="Warm-cache load (auth + rate limiting enabled)",
        )
    )
    if doc["n_5xx"]:
        print(f"FAIL: {doc['n_5xx']} server errors (5xx)", file=sys.stderr)
        return 1
    if doc["requests"] == 0 or doc["req_per_s"] <= 0:
        print("FAIL: zero throughput", file=sys.stderr)
        return 1
    if doc["req_per_s"] < args.min_rps:
        print(
            f"FAIL: {doc['req_per_s']:.0f} req/s below the "
            f"--min-rps {args.min_rps:.0f} bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
