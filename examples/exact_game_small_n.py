#!/usr/bin/env python
"""Exact game solving: the true t*(T_n) for small n.

Solves the broadcast game exhaustively for n = 2..5 (optionally 6 with
``--n6``, ~12 s more), prints the exact values against the Theorem 3.1
formulas, and replays an optimal adversary line for n = 5, classifying
the tree shapes optimal play uses.

Key reproduced finding: the exact value equals the LOWER bound formula at
every solvable size -- the open gap of the paper's Section 5 is, at small
n, entirely on the upper-bound side.

Run: ``python examples/exact_game_small_n.py [--n6]``
"""

from __future__ import annotations

import sys

from repro.adversaries.exact import ExactGameSolver
from repro.analysis.tables import format_table
from repro.core.bounds import lower_bound, upper_bound
from repro.core.broadcast import run_sequence
from repro.trees.canonical import classify_shape


def main() -> None:
    sizes = [2, 3, 4, 5]
    if "--n6" in sys.argv:
        sizes.append(6)

    rows = []
    solvers = {}
    for n in sizes:
        solver = ExactGameSolver(n, max_states=30_000_000)
        result = solver.solve()
        solvers[n] = solver
        rows.append(
            (
                n,
                lower_bound(n),
                result.t_star,
                upper_bound(n),
                result.tree_count,
                result.states_explored,
                f"{result.elapsed_seconds:.2f}s",
            )
        )
    print(
        format_table(
            ["n", "LB formula", "exact t*(T_n)", "UB formula", "|T_n|", "states", "time"],
            rows,
            title="Exact broadcast game values",
        )
    )
    for n, lb, exact, ub, *_ in rows:
        marker = "tight!" if exact == lb else f"gap {exact - lb} above LB"
        print(f"  n={n}: lower bound is {marker}")

    # Replay optimal play at the largest quick size.
    n = 5
    print(f"\nOptimal adversary line for n={n}:")
    seq = solvers[n].optimal_sequence()
    for i, tree in enumerate(seq, start=1):
        print(
            f"  round {i}: {classify_shape(tree):<9} "
            f"root={tree.root} parents={list(tree.parents)}"
        )
    check = run_sequence(seq, n=n)
    print(f"replayed through the plain engine: t* = {check.t_star}")


if __name__ == "__main__":
    main()
