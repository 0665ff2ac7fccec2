"""Service-level observability: one request -> one span tree, Prometheus
exposition, journal trace continuity, and the access-log write lock.

These are the acceptance tests for the unified observability layer: an
HTTP-submitted task graph must yield a *single connected* span tree
(request -> job -> node -> executor -> kernel) whose trace id appears in
the HTTP response header, the job document, and the journal; the
``/metrics`` JSON shape stays pinned while ``?format=prometheus``
round-trips through a validating parser; and concurrent request bursts
never interleave access-log lines.
"""

from __future__ import annotations

import http.client
import io
import json
import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.metrics import parse_prometheus
from repro.obs.trace import TraceContext
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs_trace.disable()
    yield
    obs_trace.disable()


@pytest.fixture
def traced_service(tmp_path):
    """A traced server (journal on) and a bound client."""
    sink = tmp_path / "spans.jsonl"
    journal = tmp_path / "journal.jsonl"
    obs_trace.enable(str(sink))
    with ServiceServer(journal=str(journal)) as server:
        yield server, ServiceClient.from_url(server.url), sink, journal
    obs_trace.disable()


def _span_names(node, acc=None):
    acc = [] if acc is None else acc
    acc.append(node["name"])
    for child in node["children"]:
        _span_names(child, acc)
    return acc


def test_one_request_one_connected_span_tree(traced_service):
    """The ISSUE acceptance: request -> job -> node -> ... -> kernel."""
    server, client, sink, journal = traced_service
    doc = client.submit_tasks(
        [
            {
                "kind": "run",
                "payload": {"adversary": "cyclic", "n": 8},
                "inputs": [],
            }
        ]
    )
    doc = client.wait(doc["job_id"], timeout=60)
    assert doc["status"] == "done"
    trace_id = doc.get("trace_id")
    assert trace_id, "job document must carry the originating trace id"

    server.stop()
    obs_trace.disable()
    spans = obs_trace.read_spans(str(sink))
    trees = obs_trace.span_trees(spans)
    roots = trees[trace_id]
    # One connected tree: every span of this trace hangs off one root.
    assert len(roots) == 1
    root = roots[0]
    assert root["name"] == "request"
    names = _span_names(root)
    for required in ("request", "job", "node", "executor", "kernel"):
        assert required in names, f"missing {required!r} span in {names}"

    # The same trace id reached the journal's submit record.
    journal_ids = [
        json.loads(line).get("trace_id")
        for line in journal.read_text().splitlines()
        if line.strip() and json.loads(line).get("event") == "submit"
    ]
    assert trace_id in journal_ids


def test_traceparent_header_round_trip(traced_service):
    """A caller-supplied traceparent parents the request span, and the
    response echoes a traceparent from the same trace."""
    server, client, sink, journal = traced_service
    host, port = server.address
    ctx = TraceContext.new()
    conn = http.client.HTTPConnection(host, port)
    conn.request("GET", "/healthz", headers={"traceparent": ctx.to_header()})
    resp = conn.getresponse()
    resp.read()
    echoed = resp.getheader("traceparent")
    conn.close()
    assert echoed is not None
    parsed = TraceContext.from_header(echoed)
    assert parsed is not None and parsed.trace_id == ctx.trace_id

    server.stop()
    obs_trace.disable()
    spans = obs_trace.read_spans(str(sink))
    request_spans = [
        s
        for s in spans
        if s["name"] == "request" and s["trace_id"] == ctx.trace_id
    ]
    assert len(request_spans) == 1
    assert request_spans[0]["parent_id"] == ctx.span_id


def test_metrics_json_shape_and_prometheus_round_trip(traced_service):
    server, client, sink, journal = traced_service
    doc = client.submit_run({"adversary": "cyclic", "n": 8})
    client.wait(doc["job_id"], timeout=60)

    metrics = client.metrics()
    # The pinned JSON consumers' keys survive unchanged.
    assert metrics["submitted"] == 1
    assert metrics["jobs"]["done"] == 1
    assert "entries" in metrics["cache"] and "hits" in metrics["cache"]
    assert metrics["computations"] == 1
    assert metrics["dedup_inflight"] == 0
    assert metrics["http"]["requests"] >= 1
    assert metrics["http"]["latency"]["count"] >= 1

    host, port = server.address
    conn = http.client.HTTPConnection(host, port)
    conn.request("GET", "/metrics?format=prometheus")
    resp = conn.getresponse()
    body = resp.read().decode("utf-8")
    assert resp.status == 200
    assert resp.getheader("Content-Type", "").startswith("text/plain")
    conn.close()

    samples = parse_prometheus(body)
    assert samples["repro_scheduler_submitted_total"] == [({}, 1.0)]
    assert any(
        labels.get("tenant") == "public" and value == 1.0
        for labels, value in samples["repro_jobs_submitted_by_tenant_total"]
    )
    assert "repro_http_request_seconds_bucket" in samples
    # flatten_json_metrics mirrors the JSON document into the exposition.
    assert "repro_jobs_done" in samples


def test_untraced_service_has_no_trace_ids(tmp_path):
    """Tracing off: no trace ids anywhere, no span file, same API shape."""
    journal = tmp_path / "journal.jsonl"
    with ServiceServer(journal=str(journal)) as server:
        client = ServiceClient.from_url(server.url)
        doc = client.submit_run({"adversary": "cyclic", "n": 8})
        doc = client.wait(doc["job_id"], timeout=60)
        assert doc["status"] == "done"
        assert "trace_id" not in doc
    for line in journal.read_text().splitlines():
        if line.strip():
            assert "trace_id" not in json.loads(line)


def test_access_log_lines_never_interleave(tmp_path):
    """Satellite regression: concurrent bursts produce intact JSON lines."""
    stream = io.StringIO()
    with ServiceServer(access_log=True, log_stream=stream) as server:
        host, port = server.address

        def hammer():
            conn = http.client.HTTPConnection(host, port)
            for _ in range(25):
                conn.request("GET", "/healthz")
                conn.getresponse().read()
            conn.close()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    lines = [line for line in stream.getvalue().splitlines() if line]
    assert len(lines) == 8 * 25
    for line in lines:
        record = json.loads(line)  # raises if two writes interleaved
        assert record["path"] == "/healthz"
        assert record["status"] == 200
