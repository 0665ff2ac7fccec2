"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, in one process
and checks that

* every unit's output is correct and every end-to-end value is positive;
* the emitted metric names and units match ``BENCHMARK.json`` exactly,
  and ``layers.json`` maps every per-layer metric;
* per-layer self times plus ``other_s`` add up to ``trace.measured_s``;
* no layer wrapper survives a traced run, so tracing never leaks from
  one workload into the next;
* outside a repro checkout the benchmark exits non-zero without a result.

Exits 0 and prints ``smoke: ok`` on success.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def shrink() -> None:
    """Tiny sizes: a few seconds per workload instead of a full run."""
    run.SETUP_SAMPLES = 1
    run.MIN_PASSES = 1
    workloads.Reproduce.warm_per_full = 2
    workloads.Witness.SIZES = ((8, "dense"), (8, "bitset"))
    workloads.Witness.warm_per_full = 2
    workloads.ServiceMix.OPS = 30
    workloads.ServiceMix.READ_RUNS = 4
    workloads.ServiceMix.GRAPHS = ("E1", "E4")


def leftover_wrappers() -> list:
    """Benchmark wrappers still reachable from any loaded ``repro`` module."""
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            members = [(key, value)]
            if isinstance(value, type):
                members += [(f"{key}.{attr}", v) for attr, v in vars(value).items()]
            found += [label for label, v in members if hasattr(v, "__perfbench_original__")]
    return sorted(set(found))


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {what}")


def run_workload(bench: dict, name: str, trace: int) -> None:
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=out))
    try:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        ctx = workloads.Context(ROOT, work, 7, env)
        workload = workloads.WORKLOADS[name](ctx)
        with workloads.running(workload):
            if trace:
                values, _ = run.per_layer(workload, 0.1)
            else:
                values, _ = run.end_to_end(ctx, workload, 0.1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    label = f"{name} --trace {trace}"
    check(workload.attempted > 0 and workload.failed == 0,
          f"{label}: {workload.failed}/{workload.attempted} units failed {workload.problems}")
    section = bench["per_layer" if trace else "end_to_end"]
    emitted = dict(run.PER_LAYER if trace else run.END_TO_END)
    check(list(values) == [m["name"] for m in section], f"{label}: metric names differ from BENCHMARK.json")
    check(all(emitted[m["name"]] == m["unit"] for m in section), f"{label}: units differ from BENCHMARK.json")
    leftover = leftover_wrappers()
    check(not leftover, f"{label}: wrappers left behind {leftover}")
    if trace:
        self_names = {run.SELF_NAMES.get(s, f"{s}_self_s") for s in run.SPANS} | {"experiments.self_s"}
        total = sum(values[k] for k in self_names) + values["other_s"]
        check(abs(total - values["trace.measured_s"]) < 1e-9 * max(1.0, total),
              f"{label}: self times + other_s = {total}, measured {values['trace.measured_s']}")
    else:
        check(all(v > 0 for v in values.values()), f"{label}: non-positive metric {values}")
    print(f"smoke: {label}: {len(values)} metrics, {workload.attempted} units ok")


def outside_checkout() -> None:
    """Only BENCHMARK.json and perfbench/: must fail fast, print no result."""
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "witness", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: bare directory fails without a result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = [m for layer in layers["layers"].values() for m in layer["metrics"]]
    check(sorted(mapped) == sorted(m["name"] for m in bench["per_layer"]),
          "layers.json does not map exactly the per-layer metrics")
    check(sorted(layers["workloads"]) == sorted(w["name"] for w in bench["workloads"]),
          "layers.json does not describe exactly the workloads")
    shrink()
    for workload in bench["workloads"]:
        for trace in (0, 1):
            run_workload(bench, workload["name"], trace)
    outside_checkout()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
