"""Cyclic chain-fan witness: seconds per run, and t* against the formula.

Measures ``run_adversary(CyclicFamilyAdversary(n), n)`` -- the repo's
Theorem 3.1 witness -- and writes the numbers to
``benchmarks/BENCH_cyclic.json``:

* ``runs``: seconds per run at n = 32, 48, 64, 128 on both backends
  (median of 3 runs up to n = 64, one run at n = 128), at the default
  ``m_stride``.  With ``--baseline REV`` the same cells are also timed on
  that revision's ``src/`` (extracted with ``git archive``), so both
  columns come from this script on the same host.
* ``tstar``: the achieved t* against ``lower_bound(n)`` at the default
  stride (n = 64, 96, 128) and with ``m_stride=1`` (n = 64, 96, 128).
* ``formula_sweep``: t* with ``m_stride=1`` at every n = 2 .. 64 and every
  eighth n up to 128, and the sizes where it misses ``lower_bound(n)``.

Every cell runs in a fresh interpreter.  Usage::

    python benchmarks/bench_cyclic.py --baseline HEAD~1    # ~6 min, both columns
    python benchmarks/bench_cyclic.py                      # this checkout only

Under pytest only the smallest cell runs, plus a schema check of the
committed JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = ROOT / "src"
if str(REPO_SRC) not in sys.path:  # runnable without PYTHONPATH
    sys.path.insert(0, str(REPO_SRC))

RESULTS_PATH = Path(__file__).with_name("BENCH_cyclic.json")
RUN_NS = (32, 48, 64, 128)
BACKENDS = ("dense", "bitset")
#: (n, m_stride) t* cells; ``None`` is the adversary's default stride.
TSTAR_CELLS = ((64, None), (64, 1), (96, None), (96, 1), (128, None), (128, 1))
SWEEP_NS = (*range(2, 65), *range(72, 129, 8))
#: The committed speedup at n >= 48 must stay at least this.
MIN_SPEEDUP = 4.0


def measure(n: int, backend: str, m_stride: Optional[int], repeats: int) -> Dict:
    """Time ``repeats`` witness runs in this interpreter."""
    from repro.adversaries.zeiner import CyclicFamilyAdversary
    from repro.core.broadcast import run_adversary

    seconds: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        adversary = CyclicFamilyAdversary(n, m_stride)
        result = run_adversary(adversary, n, backend=backend)
        seconds.append(time.perf_counter() - t0)
    return {
        "m_stride": adversary._m_stride,
        "t_star": result.t_star,
        "seconds": round(statistics.median(seconds), 4),
    }


def _measure_in(src: Path, n: int, backend: str, m_stride: Optional[int]) -> Dict:
    """:func:`measure` in a fresh interpreter importing ``repro`` from ``src``."""
    job = json.dumps([str(src), n, backend, m_stride, 3 if n <= 64 else 1])
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", job],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _baseline_src(rev: str, into: Path) -> Path:
    archive = subprocess.run(
        ["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="git revision to time beside this checkout")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        src, *job = json.loads(args.worker)
        sys.path.insert(0, src)
        import repro

        assert Path(repro.__file__).parents[1] == Path(src), repro.__file__
        print(json.dumps(measure(*job)))
        return 0

    from repro.core.bounds import lower_bound
    from repro.core.kernels import machine_info

    doc: Dict = {
        "command": "python benchmarks/bench_cyclic.py"
        + (f" --baseline {args.baseline}" if args.baseline else ""),
        "git_rev": _git("rev-parse", "HEAD"),
        "worktree_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "machine": machine_info(),
        "min_speedup_n48_up": MIN_SPEEDUP,
        "runs": [],
        "tstar": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        base = None
        if args.baseline:
            doc["baseline_rev"] = _git("rev-parse", args.baseline)
            base = _baseline_src(args.baseline, Path(tmp))
        for n in RUN_NS:
            for backend in BACKENDS:
                cell = {"n": n, "backend": backend, "lower_bound": lower_bound(n)}
                cell.update(_measure_in(REPO_SRC, n, backend, None))
                if base is not None:
                    before = _measure_in(base, n, backend, None)
                    assert before["t_star"] == cell["t_star"], (before, cell)
                    cell["baseline_seconds"] = before["seconds"]
                    cell["speedup"] = round(before["seconds"] / cell["seconds"], 2)
                doc["runs"].append(cell)
                print(json.dumps(cell), flush=True)
    for n, m_stride in TSTAR_CELLS:
        cell = {"n": n, "lower_bound": lower_bound(n)}
        cell.update(_measure_in(REPO_SRC, n, "dense", m_stride))
        doc["tstar"].append(cell)
        print(json.dumps(cell), flush=True)
    sweep = {n: measure(n, "dense", 1, 1)["t_star"] for n in SWEEP_NS}
    doc["formula_sweep"] = {
        "m_stride": 1,
        "t_star": sweep,
        "misses": [n for n, t in sweep.items() if t != lower_bound(n)],
    }
    print(json.dumps(doc["formula_sweep"]), flush=True)
    RESULTS_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RESULTS_PATH}")
    return 0


def test_smallest_cell_meets_the_formula():
    from repro.core.bounds import lower_bound

    for backend in BACKENDS:
        assert measure(RUN_NS[0], backend, None, 1)["t_star"] == lower_bound(RUN_NS[0])


def test_results_file_is_well_formed():
    """The committed JSON carries provenance, every cell, and the speedup."""
    from repro.core.bounds import lower_bound, upper_bound

    doc = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    assert {"platform", "numpy", "cpus"} <= set(doc["machine"])
    assert doc["git_rev"] and doc["baseline_rev"]
    cells = {(c["n"], c["backend"]) for c in doc["runs"]}
    assert cells == {(n, b) for n in RUN_NS for b in BACKENDS}
    for cell in doc["runs"]:
        assert cell["seconds"] > 0 and cell["baseline_seconds"] > 0, cell
        if cell["n"] <= 48:
            assert cell["t_star"] == cell["lower_bound"], cell
        if cell["n"] >= 48:
            assert cell["speedup"] >= doc["min_speedup_n48_up"], cell
    assert {(c["n"], c["m_stride"]) for c in doc["tstar"]} >= {(64, 1), (96, 1)}
    for cell in doc["tstar"]:
        assert 0 < cell["t_star"] <= upper_bound(cell["n"]), cell
    sweep = doc["formula_sweep"]
    assert sorted(map(int, sweep["t_star"])) == list(SWEEP_NS)
    assert sweep["misses"] == [
        int(n) for n, t in sweep["t_star"].items() if t != lower_bound(int(n))
    ]


if __name__ == "__main__":
    sys.exit(main())
