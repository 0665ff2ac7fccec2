"""The repository benchmark: one command per workload, checked outputs.

    python3 perfbench/run.py --workload reproduce|witness|service-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs come from ``--seed``.  A run
first measures set-up (``SETUP_SAMPLES`` fresh interpreters, each brought
to the point where the workload's first timed unit could start), then
repeats *cycles* -- one full pass of the workload's units followed by its
warm passes -- for about ``--seconds`` seconds.  Every unit's output is
checked; failures count against ``attempted``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
some cycles untraced (the base), then wraps the layer boundaries listed
in ``tracing.LAYERS`` and reports per-layer figures per cycle: inclusive
and self seconds per layer, counters, the ``other_s`` remainder (so self
times plus ``other_s`` equal ``trace.measured_s``) and the wrapper
overhead ``trace.overhead_ratio`` = traced / untraced full-pass time.

The last line of standard output is the JSON result; the lines before it
print every metric with its unit and sample count, the error rate, and
the provenance (machine, kernel table, default backend, revision, seed),
which is also written with the full report to
``.bench_build/perfbench/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
MIN_PASSES = 3
#: Share of a traced run's seconds spent on the untraced base.
BASE_SHARE = 0.3

REQUIRED = (
    "src/repro/__init__.py",
    "tests/fixtures/golden_experiments.json",
    "tests/fixtures/golden_tstar.json",
)

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: Spans reported as ``<span>_s`` (inclusive) and ``<span>_self_s``.
SPANS = (
    "adversaries.next_tree",
    "engine.batch.score",
    "core.backend.batch_compose",
    "core.backend.reach_sizes",
    "core.state.apply",
    "core.kernels.graph_compose",
    "adversaries.exact.solve",
    "adversaries.exact.successors",
    "adversaries.exact.canonical",
    "engine.executor.run",
    "service.tasks.run",
    "service.cache.open",
    "service.cache.lookup",
    "service.cache.store",
)
SELF_NAMES = {"adversaries.next_tree": "adversaries.policy_self_s"}
EXPERIMENTS = tuple(f"E{k}" for k in range(1, 9))

PER_LAYER: List[Tuple[str, str]] = [
    *[(f"{span}_s", "s") for span in SPANS],
    *[(SELF_NAMES.get(span, f"{span}_self_s"), "s") for span in SPANS],
    *[(f"experiments.{eid}_s", "s") for eid in EXPERIMENTS],
    ("experiments.self_s", "s"),
    ("adversaries.rounds", "count"),
    ("engine.batch.candidates", "count"),
    ("engine.batch.candidates_per_round", "count"),
    ("core.kernels.graph_compose_calls", "count"),
    ("adversaries.exact.states", "count"),
    ("adversaries.exact.keep_ratio", "ratio"),
    ("service.tasks.nodes_computed", "count"),
    ("service.tasks.nodes_cached", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.scheduler.computations", "count"),
    ("service.scheduler.dispatches", "count"),
    ("service.scheduler.specs_per_dispatch", "count"),
    ("service.scheduler.dedup_inflight", "count"),
    ("service.scheduler.wait_ms", "ms"),
    ("service.server.latency_p50_ms", "ms"),
    ("service.server.latency_p99_ms", "ms"),
    ("service.server.requests", "count"),
    ("service.server.errors", "count"),
    ("other_s", "s"),
    ("trace.measured_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


#: Latency percentiles: (metric, read or write units, percentile).
PERCENTILES = (
    ("read_p50_ms", "reads_ms", 50),
    ("read_p99_ms", "reads_ms", 99),
    ("write_p50_ms", "writes_ms", 50),
    ("write_p90_ms", "writes_ms", 90),
)


@dataclasses.dataclass
class Measured:
    """Everything the cycles of one run produced.

    ``tails`` holds, per latency metric, one percentile per pass that had
    such units; the metric reported is their median over passes, which
    keeps a pass hit by a pause of the host from setting the figure.
    """

    cycles: int = 0
    full: List[float] = dataclasses.field(default_factory=list)
    warm: List[float] = dataclasses.field(default_factory=list)
    tails: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    units: Dict[str, List[int]] = dataclasses.field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.full) + sum(self.warm)

    def add(self, p: Any, walls: List[float]) -> None:
        walls.append(p.seconds)
        for metric, kind, q in PERCENTILES:
            values = getattr(p, kind)
            if values:
                self.tails.setdefault(metric, []).append(percentile(values, q))
                self.units.setdefault(metric, []).append(len(values))


def measure(workload: Any, seconds: float, min_cycles: int) -> Measured:
    """Repeat cycles until the next one would overrun ``seconds``."""
    m = Measured()
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        m.add(workload.full_pass(m.cycles), m.full)
        for _ in range(workload.warm_per_full):
            m.add(workload.warm_pass(m.cycles), m.warm)
        m.cycles += 1
        if m.cycles >= min_cycles and time.perf_counter() + (time.perf_counter() - t0) > deadline:
            return m


def percentile(values: List[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_note(m: Measured, metric: str, p: int) -> str:
    """How a latency percentile was taken."""
    units = m.units[metric]
    beyond = int(min(units) * (100 - p) / 100)
    return (f"median over {len(units)} passes of the pass's p{p}; "
            f"{min(units)}-{max(units)} units per pass, {beyond} beyond p{p}")


def measure_setup(ctx: Any, workload: str) -> List[float]:
    """Interpreter start to 'ready' in fresh processes (see ``--setup-probe``)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(ctx.seed), "--setup-probe"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=ctx.env, cwd=ctx.root)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def end_to_end(ctx: Any, workload: Any, seconds: float) -> Tuple[Dict[str, float], List[str]]:
    setup = measure_setup(ctx, workload.name)
    workload.start()
    m = measure(workload, seconds, MIN_PASSES)
    workload.finish()
    wall = statistics.median(m.full)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "warm_wall_s": statistics.median(m.warm),
        "ops_per_s": workload.units_per_pass / wall,
        **{metric: statistics.median(m.tails[metric]) for metric, _, _ in PERCENTILES},
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median of {len(m.full)} full passes",
        "warm_wall_s": f"median of {len(m.warm)} warm passes",
        "ops_per_s": f"{workload.units_per_pass} units per full pass",
        **{metric: tail_note(m, metric, q) for metric, _, q in PERCENTILES},
        "peak_rss_mb": "server process" if workload.name == "service-mix" else "benchmark process",
    }
    return values, [f"{k}: {notes[k]}" for k in values]


def per_layer(workload: Any, seconds: float) -> Tuple[Dict[str, float], List[str]]:
    from tracing import Tracer

    workload.start()
    base = measure(workload, seconds * BASE_SHARE, 1)
    workload.begin_trace(Tracer())
    try:
        traced = measure(workload, seconds * (1 - BASE_SHARE), 1)
    finally:
        snapshot = workload.end_trace()
    workload.report["trace"] = snapshot
    workload.finish()
    values = layer_values(snapshot, traced)
    values["trace.untraced_wall_s"] = statistics.median(base.full)
    values["trace.overhead_ratio"] = values["trace.traced_wall_s"] / values["trace.untraced_wall_s"]
    values = {name: values[name] for name, _ in PER_LAYER}
    notes = [
        f"per-layer figures are per cycle (1 full + {workload.warm_per_full} warm passes), "
        f"{traced.cycles} traced cycles",
        f"overhead base: {len(base.full)} untraced full passes, {len(traced.full)} traced",
    ]
    if snapshot["missing"]:
        notes.append(f"boundaries not found, their metrics read 0: {snapshot['missing']}")
    return values, notes


def layer_values(snapshot: Dict[str, Any], traced: Measured) -> Dict[str, float]:
    """Per-cycle layer figures from a span snapshot."""
    spans, counters = snapshot["spans"], snapshot["counters"]
    server = snapshot.get("server", {})
    cycles = traced.cycles

    def agg(span: str, field: int) -> float:
        return spans.get(span, [0, 0, 0.0, 0.0])[field] / cycles

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    v: Dict[str, float] = {}
    for span in SPANS:
        v[f"{span}_s"] = agg(span, 2)
        v[SELF_NAMES.get(span, f"{span}_self_s")] = agg(span, 3)
    for eid in EXPERIMENTS:
        v[f"experiments.{eid}_s"] = agg(f"experiments.{eid}", 2)
    v["experiments.self_s"] = sum(agg(f"experiments.{eid}", 3) for eid in EXPERIMENTS)
    c = {k: x / cycles for k, x in counters.items()}
    v["adversaries.rounds"] = agg("adversaries.next_tree", 1)
    v["engine.batch.candidates"] = c.get("engine.batch.candidates", 0.0)
    v["engine.batch.candidates_per_round"] = ratio(
        v["engine.batch.candidates"], c.get("engine.batch.score_calls", 0.0)
    )
    v["core.kernels.graph_compose_calls"] = agg("core.kernels.graph_compose", 0)
    v["adversaries.exact.states"] = c.get("adversaries.exact.states", 0.0)
    v["adversaries.exact.keep_ratio"] = ratio(
        c.get("adversaries.exact.survivors", 0.0), c.get("adversaries.exact.generated", 0.0)
    )
    v["service.tasks.nodes_computed"] = c.get("service.tasks.nodes_computed", 0.0)
    v["service.tasks.nodes_cached"] = c.get("service.tasks.nodes_cached", 0.0)
    v["service.cache.hit_ratio"] = ratio(
        c.get("service.cache.hits", 0.0), c.get("service.cache.lookups", 0.0)
    )
    for key in ("computations", "dispatches", "dedup_inflight"):
        v[f"service.scheduler.{key}"] = server.get(key, 0) / cycles
    v["service.scheduler.specs_per_dispatch"] = ratio(
        server.get("computations", 0), server.get("dispatches", 0)
    )
    waits = server.get("queue_waits_s") or [0.0]
    v["service.scheduler.wait_ms"] = statistics.median(waits) * 1000.0
    v["service.server.latency_p50_ms"] = server.get("latency_p50_ms") or 0.0
    v["service.server.latency_p99_ms"] = server.get("latency_p99_ms") or 0.0
    v["service.server.requests"] = server.get("requests", 0) / cycles
    v["service.server.errors"] = server.get("errors", 0) / cycles
    v["trace.measured_s"] = traced.total_s / cycles
    v["other_s"] = v["trace.measured_s"] - sum(s[3] for s in spans.values()) / cycles
    v["trace.traced_wall_s"] = statistics.median(traced.full)
    return v


def provenance(seed: int) -> Dict[str, Any]:
    from repro.core.backend import default_backend_name
    from repro.core.kernels import kernel_table, machine_info

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "machine": machine_info(),
        "kernel_table": kernel_table(),
        "default_backend": default_backend_name(),
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv: List[str]) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set the workload up, print 'ready' and exit (used to time set-up)",
    )
    args = parser.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: not a repro checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import Context, running

    # One CPU for the whole run, servers included (children inherit it):
    # where processes land would otherwise change the figures run to run.
    cpu = max(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONUNBUFFERED"] = "1"
    out_dir = ROOT / ".bench_build" / "perfbench"
    work = out_dir / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(ROOT, work, args.seed, env)
    workload = WORKLOADS[args.workload](ctx)
    try:
        with running(workload):
            if args.setup_probe:
                workload.start()
                print("ready", flush=True)
                return 0
            if args.trace:
                values, notes = per_layer(workload, args.seconds)
                units = dict(PER_LAYER)
            else:
                values, notes = end_to_end(ctx, workload, args.seconds)
                units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = dict(provenance(args.seed), cpu=cpu)
    failed = min(workload.failed, workload.attempted)
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {failed}/{workload.attempted} = "
          f"{failed / max(1, workload.attempted):.4g}")
    if "checks_failed" in workload.report:
        print(f"{args.workload} checks_failed = {workload.report['checks_failed']} "
              f"(pinned by the golden fixture: {workload.report['checks_pinned']})")
    for note in notes:
        print(f"{args.workload} note: {note}")
    for problem in workload.problems:
        print(f"{args.workload} FAILED: {problem}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(out_dir / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "notes": notes,
                   "problems": workload.problems, "report": workload.report}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, here and in every process started below,
        # so set and dict orders -- and the timings that follow them --
        # repeat from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, str(HERE))
    sys.exit(main(sys.argv[1:]))
