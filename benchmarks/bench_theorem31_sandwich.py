"""E2 -- Theorem 3.1: the measured sandwich.

For each ``n``: run the adversary portfolio, report the strongest measured
broadcast time between the two formulas, and assert

* every adversary respects the upper bound ``⌈(1+√2)n − 1⌉``;
* the cyclic chain-fan adversary achieves the lower-bound formula
  ``⌈(3n−1)/2⌉ − 2`` exactly.

The benchmark component times the lower-bound witness run (the expensive,
headline computation).
"""

from __future__ import annotations

import pytest

from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.analysis.tables import format_table
from repro.core.bounds import lower_bound, upper_bound
from repro.core.broadcast import run_adversary
from repro.service.specs import portfolio_handles

NS = [4, 5, 6, 8, 10, 12, 16, 20]


@pytest.mark.table
def test_print_sandwich_table(capsys):
    """The measured Theorem 3.1 table (paper-vs-measured, E2)."""
    rows = []
    for n in NS:
        board = {
            label: run_adversary(handle(n), n).t_star
            for label, handle in portfolio_handles().items()
        }
        assert all(t <= upper_bound(n) for t in board.values()), (
            f"upper bound violated at n={n}: {board}"
        )
        best = max(board.values())
        rows.append(
            (
                n,
                lower_bound(n),
                best,
                upper_bound(n),
                f"{best / n:.3f}",
                "yes" if best >= lower_bound(n) else "no",
            )
        )
    with capsys.disabled():
        print()
        print(
            format_table(
                ["n", "LB formula", "best measured t*", "UB formula", "t*/n", "LB met"],
                rows,
                title="E2 / Theorem 3.1: LB <= t* <= UB (measured portfolio)",
            )
        )
    for _, lb, t, ub, _, met in rows:
        assert lb <= t <= ub
        assert met == "yes"


@pytest.mark.parametrize("n", [8, 12, 16])
def test_lower_bound_witness_speed(benchmark, n):
    """Timing of the cyclic chain-fan witness run."""
    result = benchmark(lambda: run_adversary(CyclicFamilyAdversary(n), n))
    assert result.t_star == lower_bound(n)
