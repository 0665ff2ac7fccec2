#!/usr/bin/env python
"""Adversary tournament: who delays broadcast longest?

Runs the adversary portfolio over a range of ``n`` and prints the
leaderboard: measured ``t*`` per (adversary, n) with the Theorem 3.1
formulas alongside.  Shows the reproduction's central empirical story --
the paths play at most ``n − 1``, the cyclic chain-fan family reaches
the ``⌈(3n−1)/2⌉ − 2`` lower bound, and nothing crosses the
``⌈(1+√2)n − 1⌉`` upper bound.

Run: ``python examples/adversary_tournament.py``
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.core.bounds import lower_bound, upper_bound
from repro.engine import SequentialExecutor
from repro.service.specs import portfolio_handles


def main() -> None:
    ns = [6, 8, 10, 12]
    result = SequentialExecutor().sweep(portfolio_handles(), ns)

    headers = ["adversary", *[f"n={n}" for n in ns]]
    rows = []
    for name, points in result.by_adversary().items():
        by_n = {p.n: p.t_star for p in points}
        rows.append([name, *[by_n.get(n, "-") for n in ns]])
    rows.append(["-- LB formula --", *[lower_bound(n) for n in ns]])
    rows.append(["-- UB formula --", *[upper_bound(n) for n in ns]])

    print(format_table(headers, rows, title="Adversary tournament (t* per n)"))

    print("\nWinners per n:")
    for n, point in sorted(result.best_per_n().items()):
        status = "== LB formula" if point.t_star == lower_bound(n) else ""
        print(f"  n={n}: {point.adversary} with t*={point.t_star} {status}")

    assert result.all_within_bounds(), "Theorem 3.1 upper bound violated!"
    print("\nAll measurements respect the Theorem 3.1 upper bound.")


if __name__ == "__main__":
    main()
