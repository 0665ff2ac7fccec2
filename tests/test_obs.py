"""Unit tests for the observability layer (``repro.obs``).

Covers the tracer (context propagation, span trees, JSONL + Chrome
export, torn-line tolerance), the metrics registry (typed instruments,
Prometheus exposition round-trip), and the engine instrumentation that
tracing switches on (kernel spans, the decision/kernel phase split).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import kernels as core_kernels
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    CounterMap,
    Registry,
    flatten_json_metrics,
    parse_prometheus,
)
from repro.obs.trace import TraceContext


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with tracing off."""
    obs_trace.disable()
    yield
    obs_trace.disable()


# ----------------------------------------------------------------------
# TraceContext
# ----------------------------------------------------------------------


def test_trace_context_header_round_trip():
    ctx = TraceContext.new()
    header = ctx.to_header()
    parsed = TraceContext.from_header(header)
    assert parsed is not None
    assert parsed.trace_id == ctx.trace_id
    assert parsed.span_id == ctx.span_id


def test_trace_context_rejects_malformed_headers():
    for bad in (
        None,
        "",
        "garbage",
        "00-zznotsohex-0123456789abcdef-01",
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
    ):
        assert TraceContext.from_header(bad) is None


def test_trace_context_child_shares_trace_id():
    ctx = TraceContext.new()
    child = ctx.child()
    assert child.trace_id == ctx.trace_id
    assert child.span_id != ctx.span_id


def test_trace_context_doc_round_trip():
    ctx = TraceContext.new()
    assert TraceContext.from_doc(ctx.to_doc()) == ctx
    assert TraceContext.from_doc(None) is None
    assert TraceContext.from_doc({}) is None


# ----------------------------------------------------------------------
# Spans + export
# ----------------------------------------------------------------------


def test_spans_disabled_are_noops_but_context_still_flows():
    assert not obs_trace.enabled()
    with obs_trace.span("outer") as sp:
        sp.set_attrs(ignored=1)  # must not raise
    ctx = TraceContext.new()
    with obs_trace.context(ctx):
        assert obs_trace.current_context() == ctx
    assert obs_trace.current_context() is None


def test_span_nesting_builds_one_tree(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with obs_trace.span("root", label="r"):
        with obs_trace.span("child-a"):
            pass
        with obs_trace.span("child-b"):
            with obs_trace.span("leaf"):
                pass
    obs_trace.disable()

    spans = obs_trace.read_spans(str(sink))
    assert [s["name"] for s in spans] == ["child-a", "leaf", "child-b", "root"]
    assert len({s["trace_id"] for s in spans}) == 1

    trees = obs_trace.span_trees(spans)
    assert len(trees) == 1
    (roots,) = trees.values()
    assert len(roots) == 1
    root = roots[0]
    assert root["name"] == "root"
    assert sorted(c["name"] for c in root["children"]) == ["child-a", "child-b"]
    (child_b,) = [c for c in root["children"] if c["name"] == "child-b"]
    assert [c["name"] for c in child_b["children"]] == ["leaf"]


def test_span_records_error_attr_on_exception(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with pytest.raises(ValueError):
        with obs_trace.span("boom"):
            raise ValueError("x")
    obs_trace.disable()
    (span,) = obs_trace.read_spans(str(sink))
    assert span["attrs"]["error"] == "ValueError"


def test_spans_cross_threads_via_context(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with obs_trace.span("parent") as sp:
        ctx = sp.ctx

        def worker():
            with obs_trace.context(ctx):
                with obs_trace.span("in-thread"):
                    pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
    obs_trace.disable()
    spans = obs_trace.read_spans(str(sink))
    trees = obs_trace.span_trees(spans)
    (roots,) = trees.values()
    assert roots[0]["name"] == "parent"
    assert [c["name"] for c in roots[0]["children"]] == ["in-thread"]


def test_read_spans_tolerates_torn_final_line(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with obs_trace.span("ok"):
        pass
    obs_trace.disable()
    with open(sink, "a", encoding="utf-8") as fh:
        fh.write('{"trace_id": "deadbeef", "name": "torn')  # no newline
    spans = obs_trace.read_spans(str(sink))
    assert [s["name"] for s in spans] == ["ok"]


def test_chrome_trace_shape(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with obs_trace.span("outer"):
        with obs_trace.span("inner"):
            pass
    obs_trace.disable()
    doc = obs_trace.chrome_trace(obs_trace.read_spans(str(sink)))
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert len(events) == 2
    for ev in events:
        assert ev["ph"] == "X"
        assert ev["dur"] >= 0
    json.dumps(doc)  # must be JSON-serializable as-is


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


def test_counter_inc_and_labels():
    reg = Registry()
    c = reg.counter("repro_test_total", "help", labelnames=("tenant",))
    c.inc(tenant="a")
    c.inc(2, tenant="a")
    c.inc(tenant="b")
    assert c.value(tenant="a") == 3
    assert c.value(tenant="b") == 1
    assert c.value(tenant="missing") == 0


def test_registry_get_or_create_and_type_mismatch():
    reg = Registry()
    c1 = reg.counter("repro_x_total", "help")
    c2 = reg.counter("repro_x_total", "help")
    assert c1 is c2
    with pytest.raises(Exception):
        reg.histogram("repro_x_total", "help")


def test_histogram_percentiles_and_summary():
    reg = Registry()
    h = reg.histogram("repro_lat_seconds", "help")
    for ms in (1, 2, 3, 4, 5, 50, 100, 200, 500, 900):
        h.observe(ms / 1000.0)
    assert h.count == 10
    assert h.sum == pytest.approx(1.765, abs=1e-9)
    p50 = h.percentile(0.5)
    p99 = h.percentile(0.99)
    assert p50 is not None and p99 is not None
    assert p50 <= p99
    s = h.summary()
    assert s["count"] == 10
    assert set(s) == {"count", "sum_s", "p50_ms", "p95_ms", "p99_ms"}


def test_histogram_empty_percentile_is_none():
    reg = Registry()
    h = reg.histogram("repro_empty_seconds", "help")
    assert h.percentile(0.5) is None
    assert h.summary()["count"] == 0


def test_counter_map_matches_plain_dict_shape():
    reg = Registry()
    cm = CounterMap(reg, "repro_sched", ("submitted", "failures"), help="x")
    cm.inc("submitted")
    cm.inc("submitted", 3)
    assert cm["submitted"] == 4
    assert cm["failures"] == 0
    assert "submitted" in cm and "nope" not in cm
    assert cm.to_dict() == {"submitted": 4, "failures": 0}


def test_prometheus_exposition_round_trips_through_parser():
    reg = Registry()
    c = reg.counter("repro_jobs_total", "jobs", labelnames=("tenant",))
    c.inc(7, tenant="t-1")
    h = reg.histogram("repro_req_seconds", "latency")
    h.observe(0.002)
    h.observe(0.2)
    extra = flatten_json_metrics({"cache": {"hits": 5}, "jobs": {"done": 2}})
    text = reg.to_prometheus(extra_lines=extra)

    samples = parse_prometheus(text)
    assert samples["repro_jobs_total"] == [({"tenant": "t-1"}, 7.0)]
    assert any(
        labels.get("le") == "+Inf" and value == 2.0
        for labels, value in samples["repro_req_seconds_bucket"]
    )
    assert samples["repro_req_seconds_count"] == [({}, 2.0)]
    assert samples["repro_cache_hits"] == [({}, 5.0)]
    assert samples["repro_jobs_done"] == [({}, 2.0)]


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("this is { not prometheus\n")


def test_flatten_json_metrics_skips_non_numeric():
    lines = flatten_json_metrics(
        {"a": 1, "b": {"c": 2.5, "name": "text"}, "flag": True}
    )
    joined = "\n".join(lines)
    assert "repro_a 1" in joined
    assert "repro_b_c 2.5" in joined
    assert "text" not in joined


def test_label_values_are_escaped():
    reg = Registry()
    c = reg.counter("repro_esc_total", "help", labelnames=("who",))
    c.inc(who='a"b\\c\nd')
    text = reg.to_prometheus()
    samples = parse_prometheus(text)
    ((labels, value),) = samples["repro_esc_total"]
    assert value == 1.0
    assert labels["who"] == 'a"b\\c\nd'


# ----------------------------------------------------------------------
# Engine instrumentation (the kernel-seam observer, phase split)
# ----------------------------------------------------------------------


def test_traced_library_run_writes_kernel_spans_and_phase_split(tmp_path):
    """Tracing alone instruments a library run on every executor: kernel
    spans, and ``decision_s``/``kernel_s`` on each run/run_group span
    (the sharded executor's come from its spawned workers)."""
    from repro.adversaries import CyclicFamilyAdversary
    from repro.engine.executor import (
        BatchExecutor,
        RunSpec,
        SequentialExecutor,
        ShardedExecutor,
    )

    specs = [RunSpec(adversary=CyclicFamilyAdversary, n=n) for n in (9, 10)]
    for executor in (SequentialExecutor(), BatchExecutor(), ShardedExecutor(workers=2)):
        sink = tmp_path / f"{executor.name}.jsonl"
        obs_trace.enable(str(sink))
        try:
            executor.run_many(specs)
        finally:
            obs_trace.disable()
        spans = obs_trace.read_spans(str(sink))
        assert any(s["name"] == "kernel" for s in spans), executor.name
        phased = [s for s in spans if s["name"] in ("run", "run_group")]
        assert phased, executor.name
        for s in phased:
            assert s["attrs"]["decision_s"] >= 0.0 and s["attrs"]["kernel_s"] >= 0.0


def test_sync_observer_installs_and_removes_hook(tmp_path):
    """Enabling tracing installs the compose observer; disabling removes it."""
    assert core_kernels._compose_observer is None
    obs_trace.enable(str(tmp_path / "spans.jsonl"))
    assert core_kernels._compose_observer is not None
    obs_trace.disable()
    assert core_kernels._compose_observer is None


def test_disabled_run_skips_timings(tmp_path):
    """A run after tracing is switched off writes no span at all."""
    from repro.adversaries import CyclicFamilyAdversary
    from repro.engine.executor import RunSpec, SequentialExecutor

    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    obs_trace.disable()
    assert core_kernels._compose_observer is None
    SequentialExecutor().run(RunSpec(adversary=CyclicFamilyAdversary, n=10))
    assert obs_trace.read_spans(str(sink)) == []


def test_traced_engine_run_produces_kernel_spans(tmp_path):
    from repro.adversaries import CyclicFamilyAdversary
    from repro.engine.executor import RunSpec, SequentialExecutor

    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    SequentialExecutor().run(
        RunSpec(adversary=CyclicFamilyAdversary, n=10)
    )
    obs_trace.disable()
    spans = obs_trace.read_spans(str(sink))
    names = {s["name"] for s in spans}
    assert "run" in names and "kernel" in names
    kernel = next(s for s in spans if s["name"] == "kernel")
    assert kernel["attrs"]["backend"]
    assert kernel["attrs"]["kernel"]
