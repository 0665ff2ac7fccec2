"""Simulation-service throughput: HTTP requests/sec, cold vs warm cache.

End-to-end measurement through the real stack -- HTTP parsing, spec
canonicalization + digesting, scheduler dispatch, executor run, JSON
response -- for a batch of distinct specs submitted cold (every digest
computed) and then warm (every digest answered from the content-addressed
cache).

The asserted bar: at n = 256 under the bitset backend, a warm-cache
lookup must be >= 10x faster than recomputation.  The workload is the
adaptive k-inner family (no compiled-schedule shortcut: each round
re-sorts by heard-of and reach sizes and builds a fresh broom), so
"recompute" means real per-round work while "warm" is one digest lookup
per request.

Under pytest the bars are measured and asserted but nothing is written,
so a test run leaves the committed ``BENCH_service.json`` alone; the
script entry point measures every cell and rewrites it::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.tables import format_table
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer

#: Measurements are written here (merged key-by-key) by :func:`main`.
RESULTS_PATH = Path(__file__).with_name("BENCH_service.json")


def _persist(key: str, payload: dict) -> None:
    """Merge one measurement into ``BENCH_service.json``."""
    try:
        existing = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing[key] = payload
    RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

#: Four distinct digests per n: the k-inner budgets 2..5.
SPEC_PARAMS = [{"k": k} for k in (2, 3, 4, 5)]


def _specs(n: int):
    return [
        {"adversary": "k-inner", "n": n, "params": params, "backend": "bitset"}
        for params in SPEC_PARAMS
    ]


def _submit_all(client: ServiceClient, specs) -> float:
    """Submit every spec, wait for all, return elapsed wall seconds."""
    t0 = time.perf_counter()
    job_ids = [client.submit_run(spec)["job_id"] for spec in specs]
    for job_id in job_ids:
        doc = client.wait(job_id, timeout=600)
        assert doc["status"] == "done", doc["error"]
    return time.perf_counter() - t0


def measure_http_cold_vs_warm(n: int) -> dict:
    """Cold vs warm requests/sec through the API at ``n``."""
    with ServiceServer() as server:
        client = ServiceClient.from_url(server.url)
        specs = _specs(n)
        t_cold = _submit_all(client, specs)
        t_warm = min(_submit_all(client, specs) for _ in range(3))
        metrics = client.metrics()
    assert metrics["computations"] == len(specs)  # warm passes computed nothing
    return {
        "n": n,
        "requests": len(specs),
        "cold_req_per_s": len(specs) / t_cold,
        "warm_req_per_s": len(specs) / t_warm,
        "warm_speedup": t_cold / max(t_warm, 1e-9),
    }


def measure_experiments_cold_vs_warm() -> dict:
    """E1-E8 as task graphs, cold then warm: ``{eid: cell}``.

    Every warm rerun must compute zero tasks (zero simulation runs in
    particular) while rendering a byte-identical table.
    """
    from repro.experiments import run_experiment
    from repro.service.cache import ResultCache

    cache = ResultCache()
    cells = {}
    for eid in [f"E{i}" for i in range(1, 9)]:
        t0 = time.perf_counter()
        cold_table, cold = run_experiment(eid, cache=cache)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_table, warm = run_experiment(eid, cache=cache)
        t_warm = time.perf_counter() - t0
        assert warm.stats["computed"] == 0, f"{eid} warm rerun computed tasks"
        assert warm.stats["runs_computed"] == 0
        assert warm_table.render() == cold_table.render()
        cells[eid] = {
            "tasks": cold.stats["tasks"],
            "runs_computed": cold.stats["runs_computed"],
            "cold_s": t_cold,
            "warm_s": t_warm,
            "warm_speedup": t_cold / max(t_warm, 1e-9),
        }
    return cells


@pytest.mark.table
@pytest.mark.parametrize("n", [64, 256])
def test_http_requests_per_second_cold_vs_warm(n, capsys):
    """Cold vs warm requests/sec through the API; >= 10x bar at n = 256."""
    doc = measure_http_cold_vs_warm(n)
    speedup = doc["warm_speedup"]
    rows = [
        (
            n,
            doc["requests"],
            f"{doc['cold_req_per_s']:.1f}",
            f"{doc['warm_req_per_s']:.1f}",
            f"{speedup:.1f}x",
        )
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["n", "requests", "cold req/s", "warm req/s", "warm speedup"],
                rows,
                title=(
                    "Service throughput: cold (compute) vs warm "
                    "(content-addressed cache), bitset backend"
                ),
            )
        )
    if n >= 256:
        assert speedup >= 10.0, (
            f"warm-cache lookups only {speedup:.1f}x faster than recomputation "
            f"at n={n} (bitset); expected >= 10x"
        )


@pytest.mark.table
def test_experiment_task_graph_cold_vs_warm(capsys):
    """E1-E8 as task graphs: cold compute vs warm content-addressed rerun.

    The asserted bars: every warm rerun computes nothing and renders a
    byte-identical table, and the warm pass is >= 5x faster than the
    cold pass for the run-heavy experiments (E2's cyclic grid dominates
    its cold time).
    """
    cells = measure_experiments_cold_vs_warm()
    rows = [
        (
            eid,
            cell["tasks"],
            cell["runs_computed"],
            f"{cell['cold_s'] * 1e3:.1f}ms",
            f"{cell['warm_s'] * 1e3:.1f}ms",
            f"{cell['warm_speedup']:.1f}x",
        )
        for eid, cell in cells.items()
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["experiment", "tasks", "runs", "cold", "warm", "speedup"],
                rows,
                title="E1-E8 through the task API: cold vs warm cache",
            )
        )
    speedup = cells["E2"]["warm_speedup"]
    assert speedup >= 5.0, f"warm E2 rerun only {speedup:.1f}x faster; expected >= 5x"


@pytest.mark.parametrize("n", [64])
def test_warm_submit_latency(benchmark, n):
    """pytest-benchmark probe: one fully-warm submit+wait round trip."""
    with ServiceServer() as server:
        client = ServiceClient.from_url(server.url)
        spec = {"adversary": "static-path", "n": n, "backend": "bitset"}
        client.wait(client.submit_run(spec)["job_id"], timeout=60)

        def warm_round_trip():
            doc = client.submit_run(spec)
            assert doc["status"] == "done" and doc["cached"]
            return doc

        benchmark(warm_round_trip)


def main() -> int:
    """Measure every cell and merge it into ``BENCH_service.json``."""
    from repro.core.kernels import machine_info

    _persist("machine", machine_info())
    for n in (64, 256):
        _persist(f"http_cold_vs_warm_n{n}", measure_http_cold_vs_warm(n))
    for eid, cell in measure_experiments_cold_vs_warm().items():
        _persist(f"experiment_{eid}_cold_vs_warm", cell)
    print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
