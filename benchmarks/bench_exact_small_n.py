"""E3 -- exact game values t*(T_n) for small n.

The exact solver certifies the true broadcast game value by exhaustive
minimax.  Reproduced finding: **t*(T_n) equals the lower-bound formula
⌈(3n−1)/2⌉ − 2 for every n = 2..6** -- the Zeiner et al. lower bound is
tight at these sizes, and the paper's open gap (Section 5) leans toward
the lower end at small n.

n = 6 (7776 trees/state, ~112k canonical states) is gated behind
``REPRO_BENCH_EXACT_N6=1``; its result is recorded as ``EXACT_N6`` below
and in E3's table note (``repro.experiments.registry``).  The benchmark
times the n = 4 solve.
"""

from __future__ import annotations

import os

import pytest

from repro.adversaries.exact import ExactGameSolver
from repro.analysis.tables import format_table
from repro.core.bounds import lower_bound, upper_bound

#: (n, exact value) -- n=6 computed with this library (112620 canonical
#: states; 1620 s with the tuple-based solver, ~100 s with the packed one on
#: a 2-vCPU VM); re-verified in-suite only when explicitly requested.
EXACT_VALUES = [(2, 1), (3, 2), (4, 4), (5, 5)]
EXACT_N6 = (6, 7)


@pytest.mark.table
def test_print_exact_table(capsys):
    """Exact values vs the Theorem 3.1 formulas."""
    rows = []
    for n, expected in EXACT_VALUES:
        result = ExactGameSolver(n).solve()
        assert result.t_star == expected
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
    n6, v6 = EXACT_N6
    rows.append((n6, lower_bound(n6), f"{v6} (recorded)", upper_bound(n6), 112620, 7776, "1620s"))
    with capsys.disabled():
        print()
        print(
            format_table(
                ["n", "LB formula", "exact t*(T_n)", "UB formula", "states", "|T_n|", "time"],
                rows,
                title="E3: exact game values (LB formula is tight for n <= 6)",
            )
        )
    for n, expected in EXACT_VALUES:
        assert expected == lower_bound(n)


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_EXACT_N6") != "1",
    reason="n=6 exact solve takes ~100 s; set REPRO_BENCH_EXACT_N6=1",
)
def test_exact_n6_full_solve():
    result = ExactGameSolver(6, max_states=30_000_000).solve()
    assert result.t_star == EXACT_N6[1] == lower_bound(6)


def test_exact_solver_speed_n4(benchmark):
    """Timing of the full exhaustive solve at n = 4."""
    result = benchmark(lambda: ExactGameSolver(4).solve())
    assert result.t_star == 4
