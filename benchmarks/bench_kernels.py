"""Kernel-tier benchmarks: the graph-compose products and the t* squaring search.

Two measurement families, both written into ``benchmarks/BENCH_kernels.json``
by the script entry point (same merge-by-key convention as
``BENCH_load.json``, plus a ``machine`` block from
:func:`repro.core.kernels.machine_info`):

* ``compose_*`` -- one graph-composition step through each backend's one
  product (bitset ``word-or``, dense ``blas``; see
  :func:`repro.core.kernels.kernel_table`) on a dense (density 0.3) and a
  sparse (mean degree ~8) random graph, with the int32 ``bool_product``
  reference timed up to n = 1024.  Timings only: the products are pinned
  byte-identical to the reference by the test suite.
* ``tstar_*`` -- completion search on the static path (t* = n - 1):
  repeated-squaring fast path vs the compiled round-by-round loop
  (``use_squaring=False``).  The acceptance number: >= 10x at n >= 1024
  (t* = 1023 >= 512), with identical t*.

Under pytest the cells are measured and asserted but never written, so
a test run leaves the committed file alone.  The n = 4096 cells are
additionally gated behind ``REPRO_BENCH_FULL=1`` so the default run stays
fast; CI's bench-smoke deselects every big-n id via ``-k`` and only
exercises the n = 64 smoke cells.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py                       # full grid, rewrites the JSON
    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q            # small cells
    REPRO_BENCH_FULL=1 PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q  # full grid
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.adversaries.paths import StaticPathAdversary
from repro.core import kernels as K
from repro.core import matrix as M
from repro.core.backend import get_backend
from repro.engine.executor import RunSpec, SequentialExecutor

RESULTS_PATH = Path(__file__).with_name("BENCH_kernels.json")

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: The int32 matmul reference is timed only up to this n (it is the seed
#: semantics, not a contender, and is minutes-slow at n = 4096).
DENSE_REFERENCE_MAX_N = 1024

COMPOSE_NS = [64, 256, 1024, 4096]
TSTAR_NS = [64, 1024, 4096]


def _require(n: int) -> None:
    if n >= 4096 and not FULL:
        pytest.skip("n=4096 cells run only under REPRO_BENCH_FULL=1")


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _persist(key: str, payload: dict) -> None:
    try:
        existing = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing[key] = payload
    existing["machine"] = K.machine_info()
    RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _graphs(n: int) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(n)
    dense_g = rng.random((n, n)) < 0.3
    sparse_g = rng.random((n, n)) < (8.0 / n)
    np.fill_diagonal(dense_g, True)
    np.fill_diagonal(sparse_g, True)
    return {"dense": dense_g, "sparse": sparse_g}


def measure_compose(n: int) -> dict:
    """Time each backend's graph-compose product on one step at ``n``."""
    rng = np.random.default_rng(n + 1)
    a = rng.random((n, n)) < 0.4
    np.fill_diagonal(a, True)
    repeats = 2 if n >= 4096 else 3

    doc: dict = {"n": n, "products": K.kernel_table(), "cells": {}}
    for flavor, g in _graphs(n).items():
        seconds: Dict[str, float] = {}
        for backend_name, product in K.kernel_table().items():
            backend = get_backend(backend_name)
            mat = backend.from_dense(a)
            # One untimed call first: the first BLAS product after an idle
            # stretch pays for waking the thread pool, not for the product.
            backend.compose_with_graph(mat, g)
            seconds[f"{backend_name}/{product}"] = _best_of(
                lambda: backend.compose_with_graph(mat, g), repeats
            )
        if n <= DENSE_REFERENCE_MAX_N:
            seconds["dense-reference"] = _best_of(lambda: M.bool_product(a, g), 1)
        doc["cells"][flavor] = {
            "graph": flavor,
            "degree": round(float(np.count_nonzero(g)) / n, 1),
            "seconds": {k: round(v, 6) for k, v in seconds.items()},
        }
    return doc


def measure_tstar(n: int) -> dict:
    """Squaring vs the compiled loop on the static path at ``n``."""
    repeats = 2 if n >= 4096 else 3

    def run(use_squaring: bool):
        spec = RunSpec(adversary=StaticPathAdversary(n), n=n, backend="bitset")
        return SequentialExecutor(use_squaring=use_squaring).run(spec)

    fast = run(True)
    slow = run(False)
    assert fast.t_star == slow.t_star == n - 1
    assert fast.final_state.key() == slow.final_state.key()

    t_fast = _best_of(lambda: run(True), repeats)
    t_slow = _best_of(lambda: run(False), repeats)
    doc = {
        "n": n,
        "t_star": fast.t_star,
        "seconds": {"squaring": round(t_fast, 6), "loop": round(t_slow, 6)},
        "speedup": round(t_slow / t_fast if t_fast > 0 else float("inf"), 2),
    }
    if n >= 1024:  # t* = n - 1 >= 512: the acceptance regime
        doc["acceptance_min_speedup"] = 10.0
    return doc


@pytest.mark.table
@pytest.mark.parametrize("n", COMPOSE_NS)
def test_compose_kernels(n, report_sink):
    """Time each backend's graph-compose product on one composition step."""
    _require(n)
    doc = measure_compose(n)
    for flavor, cell in doc["cells"].items():
        seconds = cell["seconds"]
        assert set(seconds) >= {"bitset/word-or", "dense/blas"}, seconds
        report_sink.append(
            f"[kernels] compose n={n} {flavor}: "
            + " ".join(f"{k}={v:.4f}s" for k, v in seconds.items())
        )


@pytest.mark.table
@pytest.mark.parametrize("n", TSTAR_NS)
def test_tstar_squaring_search(n, report_sink):
    """Squaring vs the compiled loop on the static path; assert the bar."""
    _require(n)
    doc = measure_tstar(n)
    report_sink.append(
        f"[kernels] tstar n={n}: squaring={doc['seconds']['squaring']:.4f}s "
        f"loop={doc['seconds']['loop']:.4f}s speedup={doc['speedup']:.1f}x"
    )
    if "acceptance_min_speedup" in doc:
        assert doc["speedup"] >= doc["acceptance_min_speedup"], doc


def main() -> int:
    """Measure the full grid and merge it into ``BENCH_kernels.json``."""
    for n in COMPOSE_NS:
        _persist(f"compose_n{n}", measure_compose(n))
        print(f"compose n={n} done")
    for n in TSTAR_NS:
        _persist(f"tstar_n{n}", measure_tstar(n))
        print(f"tstar n={n} done")
    print(f"wrote {RESULTS_PATH}")
    return 0


def test_results_file_is_well_formed():
    """Whatever cells exist on disk must parse and carry the schema."""
    if not RESULTS_PATH.exists():
        pytest.skip("BENCH_kernels.json not generated yet")
    doc = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    assert isinstance(doc, dict) and doc
    assert "machine" in doc
    assert {"platform", "numpy", "cpus"} <= set(doc["machine"])
    for key, cell in doc.items():
        if key.startswith("compose_"):
            assert set(cell["cells"]["dense"]["seconds"]) >= {"bitset/word-or", "dense/blas"}, key
        if key.startswith("tstar_"):
            assert cell["seconds"]["squaring"] > 0, key


if __name__ == "__main__":
    raise SystemExit(main())
