#!/usr/bin/env python
"""The lower-bound witness, round by round.

Runs the cyclic chain-fan adversary at a chosen ``n`` and narrates what
the paper's matrix perspective sees each round: which tree shape was
played, who stalled, who gained, and how the reach sets evolve as cyclic
intervals.  Finishes with the Theorem 3.1 sandwich report and an
independent certificate of the achieved broadcast time.

Run: ``python examples/lower_bound_demo.py [n]``
"""

from __future__ import annotations

import sys

from repro.adversaries import CyclicFamilyAdversary
from repro.analysis.certificates import certify_sequence
from repro.analysis.stalling import stall_report
from repro.core.bounds import lower_bound, upper_bound
from repro.core.state import BroadcastState
from repro.core.theorem import sandwich
from repro.trees.canonical import classify_shape


def render_matrix(matrix) -> str:
    """ASCII art of a boolean matrix: one line per row, ``#`` marks an edge."""
    return "\n".join("".join("#" if cell else "." for cell in row) for row in matrix)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    adversary = CyclicFamilyAdversary(n)
    state = BroadcastState.initial(n)
    played = []

    print(f"Cyclic chain-fan adversary on n={n} processes")
    print(f"target: t* = ⌈(3n−1)/2⌉ − 2 = {lower_bound(n)}  (UB: {upper_bound(n)})\n")

    t = 0
    while not state.is_broadcast_complete():
        t += 1
        tree = adversary.next_tree(state, t)
        report = stall_report(state, tree)
        state.apply_tree_inplace(tree)
        played.append(tree)
        sizes = state.reach_sizes()
        intervals = [sorted(state.reach_set(x)) for x in range(n)]
        print(
            f"round {t:>2}: {classify_shape(tree):<11} root={tree.root} "
            f"stalled {len(report.stalled)}/{n} nodes; "
            f"reach sizes {sizes.tolist()}"
        )
        if n <= 10:
            print(f"          reach sets: {intervals}")

    print(f"\nbroadcast completed at t* = {t}")
    print(f"broadcasters: {state.broadcasters()}")
    print("\nfinal product graph G(t*) (rows = reach sets):")
    print(render_matrix(state.reach_matrix_view()))

    cert = certify_sequence(played, t, n)
    print(f"\nindependent certificate: t*={cert.t_star}, "
          f"UB respected: {cert.respects_upper_bound}, "
          f"LB formula met: {cert.meets_lower_bound}")
    print(sandwich(n, t))


if __name__ == "__main__":
    main()
