"""E3 -- exact game values t*(T_n) for small n.

The exact solver certifies the true broadcast game value by exhaustive
search.  Reproduced finding: **t*(T_n) equals the lower-bound formula
⌈(3n−1)/2⌉ − 2 for every n = 2..6** -- the Zeiner et al. lower bound is
tight at these sizes, and the paper's open gap (Section 5) leans toward
the lower end at small n.

As a script it writes ``benchmarks/BENCH_exact.json``: per n, t*, states
expanded, level sizes, seconds (median of 5 solves up to n = 5, one at
n = 6) and the peak RSS of the interpreter that ran them.  n = 6 runs only
with ``REPRO_BENCH_EXACT_N6=1``.  With ``--baseline REV`` the same cells
are also solved by that revision's ``src/`` (extracted with ``git
archive``), so both columns come from this script on the same host.
Every cell runs in a fresh interpreter.  Usage::

    REPRO_BENCH_EXACT_N6=1 python benchmarks/bench_exact_small_n.py --baseline HEAD~1
    python benchmarks/bench_exact_small_n.py       # n = 2..5, this checkout only

Under pytest it prints the E3 table for n = 2..5 (n = 6 from the committed
JSON), times the n = 4 solve, checks the committed JSON, and re-solves
n = 6 only when ``REPRO_BENCH_EXACT_N6=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = ROOT / "src"
if str(REPO_SRC) not in sys.path:  # runnable without PYTHONPATH
    sys.path.insert(0, str(REPO_SRC))

from repro.adversaries.exact import ExactGameSolver  # noqa: E402
from repro.analysis.tables import format_table  # noqa: E402
from repro.core.bounds import lower_bound, upper_bound  # noqa: E402

RESULTS_PATH = Path(__file__).with_name("BENCH_exact.json")
#: (n, exact value) checked in-suite on every run.
EXACT_VALUES = [(2, 1), (3, 2), (4, 4), (5, 5)]
N6 = os.environ.get("REPRO_BENCH_EXACT_N6") == "1"


#: One cell in a fresh interpreter (``python -c _WORKER SRC N``): solve n
#: with ``repro`` imported from SRC and print t*, states, level sizes,
#: median seconds and the interpreter's peak RSS as JSON.
_WORKER = """
import json, resource, statistics, sys, time
from pathlib import Path
src, n = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, src)
import repro
from repro.adversaries.exact import ExactGameSolver
assert Path(repro.__file__).parents[1] == Path(src), repro.__file__
seconds = []
for _ in range(5 if n <= 5 else 1):
    t0 = time.perf_counter()
    result = ExactGameSolver(n, max_states=30_000_000).solve()
    seconds.append(time.perf_counter() - t0)
print(json.dumps({
    "t_star": result.t_star,
    "states": result.states_explored,
    "level_sizes": getattr(result, "level_sizes", None),
    "seconds": round(statistics.median(seconds), 4),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}))
"""


def _measure_in(src: Path, n: int) -> Dict:
    """Solve ``n`` in a fresh interpreter importing ``repro`` from ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", _WORKER, str(src), str(n)],
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
    ap.add_argument("--baseline", help="git revision to solve beside this checkout")
    args = ap.parse_args(argv)
    from repro.core.kernels import machine_info

    doc: Dict = {
        "command": ("REPRO_BENCH_EXACT_N6=1 " if N6 else "")
        + "python benchmarks/bench_exact_small_n.py"
        + (f" --baseline {args.baseline}" if args.baseline else ""),
        "git_rev": _git("rev-parse", "HEAD"),
        "worktree_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "machine": machine_info(),
        "cells": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        base = None
        if args.baseline:
            doc["baseline_rev"] = _git("rev-parse", args.baseline)
            base = _baseline_src(args.baseline, Path(tmp))
        for n in [n for n, _ in EXACT_VALUES] + ([6] if N6 else []):
            cell = {"n": n, "lower_bound": lower_bound(n), "tree_count": n ** (n - 1)}
            cell.update(_measure_in(REPO_SRC, n))
            if base is not None:
                before = _measure_in(base, n)
                assert before["t_star"] == cell["t_star"], (before, cell)
                del before["level_sizes"]
                cell["baseline"] = before
                cell["speedup"] = round(before["seconds"] / cell["seconds"], 2)
            doc["cells"].append(cell)
            print(json.dumps(cell), flush=True)
    RESULTS_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RESULTS_PATH}")
    return 0


@pytest.mark.table
def test_print_exact_table(capsys):
    """Exact values vs the Theorem 3.1 formulas."""
    rows = []
    for n, expected in EXACT_VALUES:
        result = ExactGameSolver(n).solve()
        assert result.t_star == expected == lower_bound(n)
        rows.append(
            (
                n,
                lower_bound(n),
                result.t_star,
                upper_bound(n),
                result.states_explored,
                result.tree_count,
                f"{result.elapsed_seconds:.2f}s",
            )
        )
    recorded = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))["cells"]
    for cell in recorded:
        if cell["n"] > EXACT_VALUES[-1][0]:
            n = cell["n"]
            rows.append(
                (n, lower_bound(n), f"{cell['t_star']} (recorded)", upper_bound(n),
                 cell["states"], cell["tree_count"], f"{cell['seconds']:.0f}s")
            )
    with capsys.disabled():
        print()
        print(
            format_table(
                ["n", "LB formula", "exact t*(T_n)", "UB formula", "states", "|T_n|", "time"],
                rows,
                title="E3: exact game values (LB formula is tight for n <= 6)",
            )
        )


@pytest.mark.skipif(
    not N6, reason="n=6 exact solve takes ~12 s; set REPRO_BENCH_EXACT_N6=1"
)
def test_exact_n6_full_solve():
    result = ExactGameSolver(6, max_states=30_000_000).solve()
    assert result.t_star == 7 == lower_bound(6)
    assert result.level_sizes == [1, 19, 1359, 7828, 7010, 2769, 15]


def test_exact_solver_speed_n4(benchmark):
    """Timing of the full exhaustive solve at n = 4."""
    result = benchmark(lambda: ExactGameSolver(4).solve())
    assert result.t_star == 4


def test_results_file_is_well_formed():
    """The committed JSON carries provenance, every n = 2..6, and the baseline."""
    doc = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    assert {"platform", "numpy", "cpus"} <= set(doc["machine"])
    assert doc["git_rev"] and doc["baseline_rev"]
    assert [c["n"] for c in doc["cells"]] == [2, 3, 4, 5, 6]
    for cell in doc["cells"]:
        n = cell["n"]
        assert cell["t_star"] == cell["lower_bound"] == lower_bound(n), cell
        assert cell["baseline"]["t_star"] == cell["t_star"], cell
        assert len(cell["level_sizes"]) == cell["t_star"], cell
        assert sum(cell["level_sizes"]) == cell["states"], cell
        assert cell["tree_count"] == n ** (n - 1), cell
        assert cell["seconds"] > 0 and cell["baseline"]["seconds"] > 0, cell
        assert cell["peak_rss_mb"] > 0 and cell["baseline"]["peak_rss_mb"] > 0, cell


if __name__ == "__main__":
    sys.exit(main())
