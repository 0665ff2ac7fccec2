"""Drive the simulation service end to end, in one process.

Starts a :class:`~repro.service.server.ServiceServer` on an ephemeral
port, then uses the HTTP client exactly as a remote caller would: submit
declarative run specs (one by one and as a batch), watch the
content-addressed cache answer repeats instantly, submit a sweep, submit
a whole paper experiment as a **task graph** (``POST /v1/tasks``) and
watch its per-node statuses, and read the ``/metrics`` counters.

Run with::

    PYTHONPATH=src python examples/service_demo.py
"""

from __future__ import annotations

import time

from repro.analysis.tables import format_table
from repro.experiments import experiment_graph, table_from_doc
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer

RUN_SPECS = [
    {"adversary": "static-path", "n": 64, "backend": "bitset"},
    {"adversary": "rotating-path", "n": 64, "params": {"shift": 2}, "backend": "bitset"},
    {"adversary": "k-leaf", "n": 64, "params": {"k": 2}, "backend": "bitset"},
    {"adversary": "cyclic", "n": 64, "backend": "bitset"},
]


def main() -> None:
    with ServiceServer() as server:
        client = ServiceClient.from_url(server.url)
        print(f"service up at {server.url}: {client.healthz()}")
        print(f"registered adversaries: {sorted(client.specs()['adversaries'])}\n")

        rows = []
        for spec in RUN_SPECS:
            t0 = time.perf_counter()
            doc = client.wait(client.submit_run(spec)["job_id"], timeout=300)
            cold_ms = (time.perf_counter() - t0) * 1e3
            t0 = time.perf_counter()
            warm = client.submit_run(spec)  # identical digest: cache answers
            warm_ms = (time.perf_counter() - t0) * 1e3
            assert warm["cached"] and warm["result"] == doc["result"]
            result = doc["result"]
            rows.append(
                (
                    result["adversary_name"],
                    result["t_star"],
                    f"{result['t_star'] / result['n']:.3f}",
                    f"{cold_ms:.1f}ms",
                    f"{warm_ms:.1f}ms",
                )
            )
        print(
            format_table(
                ["adversary", "t*", "t*/n", "cold submit", "warm (cached)"],
                rows,
                title="Runs at n=64 through the HTTP API",
            )
        )

        # Batch submission: one request, per-item job envelopes in order.
        batch = client.submit_runs(
            [
                {"adversary": "k-leaf", "n": 48, "backend": "bitset"},
                {"adversary": "k-inner", "n": 48, "backend": "bitset"},
            ]
        )
        for envelope in batch:
            client.wait(envelope["job_id"], timeout=300)
        print(f"batch of {len(batch)} specs submitted via POST /v1/runs:batch")

        sweep = client.wait(
            client.submit_sweep(
                {
                    "adversaries": ["static-path", "rotating-path", "k-leaf"],
                    "ns": [16, 24, 32],
                    "backend": "bitset",
                }
            )["job_id"],
            timeout=300,
        )
        print(f"sweep produced {len(sweep['result']['points'])} grid points")

        # A paper experiment as a task graph: E2's run grid + aggregation.
        graph, output = experiment_graph("E2")
        doc = graph.to_doc()
        envelope = client.submit_tasks(doc["tasks"], outputs=[output])
        done = client.wait(envelope["job_id"], timeout=300)
        stats = done["result"]["stats"]
        print(
            f"\nexperiment E2 as a task graph ({stats['tasks']} tasks, "
            f"{stats['runs_computed']} runs computed):"
        )
        print(table_from_doc(done["result"]["outputs"][output]).render())
        warm = client.submit_tasks(doc["tasks"], outputs=[output])
        assert warm["cached"] and warm["status"] == "done"
        print("warm resubmission answered from the graph cache\n")

        metrics = client.metrics()
        print(
            f"metrics: {metrics['computations']} computations for "
            f"{metrics['submitted']} submissions; cache "
            f"{metrics['cache']['hits']} hits / {metrics['cache']['misses']} misses "
            f"({metrics['cache']['bytes']} bytes held)"
        )


if __name__ == "__main__":
    main()
