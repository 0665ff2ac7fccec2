"""Observability overhead: the disabled path must stay under 2%.

Two measurements, both written to ``benchmarks/BENCH_obs.json`` by the
script entry point (``python benchmarks/bench_obs.py``); under pytest
they are measured and asserted but never written, so a test run leaves
the committed file alone:

1. **Disabled budget** (the asserted contract).  With tracing off, the
   instrumentation reduces to cheap guards: a module-global ``is None``
   check per kernel composition, a ``trace.enabled()`` read per run (the
   phase-split switch), and a shared no-op span object per executor
   entry.  We micro-measure each guard, multiply by a generous per-run
   guard count, and assert the total stays below 2% of a real run's
   wall time.  The analytic form keeps the assertion robust on noisy CI
   boxes: the guards are nanoseconds against a run measured in
   milliseconds.

2. **Off-vs-on ratio** (informational).  The same workload with tracing
   enabled, spans appended to a temp file.  Enabled runs are allowed to
   cost; the number is recorded so regressions in the *enabled* path are
   visible in the JSON history too.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
if str(REPO_SRC) not in sys.path:  # runnable without PYTHONPATH
    sys.path.insert(0, str(REPO_SRC))

import pytest  # noqa: E402

from repro.adversaries import CyclicFamilyAdversary  # noqa: E402
from repro.core import kernels as core_kernels  # noqa: E402
from repro.engine.executor import RunSpec, SequentialExecutor  # noqa: E402
from repro.obs import trace as obs_trace  # noqa: E402

RESULTS_PATH = Path(__file__).with_name("BENCH_obs.json")

#: Workload: one sequential cyclic run (t* ~ 1.5n rounds of real kernel
#: work -- the engine path every guard sits on).
BENCH_N = 32

#: The disabled-path budget from the observability issue.
DISABLED_BUDGET = 0.02


@pytest.fixture(autouse=True)
def _obs_off():
    obs_trace.disable()
    yield
    obs_trace.disable()


def _persist(key: str, payload: dict) -> None:
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


def _run_once() -> float:
    spec = RunSpec(adversary=CyclicFamilyAdversary, n=BENCH_N)
    executor = SequentialExecutor()
    t0 = time.perf_counter()
    report = executor.run(spec)
    elapsed = time.perf_counter() - t0
    assert report.t_star is not None
    return elapsed


def _best_run_seconds(repeats: int = 2) -> float:
    return min(_run_once() for _ in range(repeats))


def _per_call_seconds(fn, iters: int = 200_000) -> float:
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters


def measure_disabled_budget() -> dict:
    """What the disabled guards cost, as a fraction of a real run."""
    run_s = _best_run_seconds()

    observer_check_s = _per_call_seconds(
        lambda: core_kernels._compose_observer is None
    )
    enabled_check_s = _per_call_seconds(obs_trace.enabled)

    def noop_span():
        with obs_trace.span("bench"):
            pass

    span_s = _per_call_seconds(noop_span, iters=50_000)

    # Generous per-run guard counts: the observer check fires once per
    # round (t* ~ 1.5n, doubled for slack), the enabled() read and the
    # no-op span a handful of times per run (x16 for slack).
    rounds = 2 * 2 * BENCH_N
    guard_s = rounds * (observer_check_s + enabled_check_s) + 16 * span_s
    return {
        "n": BENCH_N,
        "run_seconds": round(run_s, 6),
        "observer_check_ns": round(observer_check_s * 1e9, 2),
        "enabled_check_ns": round(enabled_check_s * 1e9, 2),
        "noop_span_ns": round(span_s * 1e9, 2),
        "guards_per_run": rounds,
        "guard_seconds": round(guard_s, 9),
        "overhead_fraction": round(guard_s / run_s, 6),
        "budget": DISABLED_BUDGET,
    }


def measure_off_vs_on(sink: Path) -> dict:
    """Run time with tracing off vs on (spans appended to ``sink``)."""
    off_s = _best_run_seconds()
    obs_trace.enable(str(sink))
    try:
        on_s = _best_run_seconds()
    finally:
        obs_trace.disable()

    spans = obs_trace.read_spans(str(sink))
    assert any(s["name"] == "run" for s in spans)
    return {
        "n": BENCH_N,
        "off_seconds": round(off_s, 6),
        "on_seconds": round(on_s, 6),
        "on_over_off": round(on_s / off_s if off_s > 0 else float("inf"), 4),
        "spans_per_traced_run": len(spans) // 3,
    }


def test_disabled_guard_budget():
    """Asserted contract: disabled instrumentation costs < 2% of a run."""
    overhead = measure_disabled_budget()["overhead_fraction"]
    assert overhead < DISABLED_BUDGET, (
        f"disabled observability guards cost {overhead:.2%} of a run "
        f"(budget {DISABLED_BUDGET:.0%})"
    )


def test_off_vs_on_overhead(tmp_path):
    """Informational: record what fully-enabled tracing actually costs."""
    doc = measure_off_vs_on(tmp_path / "spans.jsonl")
    # Enabled runs are allowed to cost; just sanity-bound the ratio so a
    # pathological regression (e.g. sync-on-every-span) still fails.
    assert doc["on_over_off"] < 25.0


def main() -> int:
    """Measure both and merge them into ``BENCH_obs.json``."""
    _persist("disabled_budget", measure_disabled_budget())
    with tempfile.TemporaryDirectory() as tmp:
        _persist("off_vs_on", measure_off_vs_on(Path(tmp) / "spans.jsonl"))
    print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
