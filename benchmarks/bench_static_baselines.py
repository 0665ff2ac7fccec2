"""E4 -- Section 2's quoted baselines.

* a static path yields exactly ``t* = n − 1``;
* at least one new product-graph edge appears per round (so ``t* <= n²``);
* a static star finishes in one round (the other extreme).

The benchmark times the matrix engine's core kernel: one full static-path
run at various ``n`` (O(n²) per round, n − 1 rounds).
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_table
from repro.core.broadcast import run_sequence
from repro.trees.generators import binary_tree, path, star

NS = [8, 16, 32, 64, 128, 256]


@pytest.mark.table
def test_print_static_baseline_table(capsys):
    rows = []
    for n in NS:
        path_t = run_sequence([path(n)] * (n * n), n).t_star
        star_t = run_sequence([star(n)], n).t_star
        tree_t = run_sequence([binary_tree(n)] * n, n).t_star
        history = run_sequence([path(n)] * (n - 1), n, keep_history=True).history
        rows.append(
            (
                n,
                path_t,
                n - 1,
                star_t,
                tree_t,
                min(snap.new_edges for snap in history),
            )
        )
    with capsys.disabled():
        print()
        print(
            format_table(
                [
                    "n",
                    "static path t*",
                    "paper says n-1",
                    "static star t*",
                    "static binary t*",
                    "min new edges/round",
                ],
                rows,
                title="E4: Section 2 baselines",
            )
        )
    for n, path_t, expected, star_t, tree_t, min_edges in rows:
        assert path_t == expected
        assert star_t == 1
        assert min_edges >= 1
        # A static tree broadcasts in its height.
        assert tree_t == binary_tree(n).height


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_static_path_run_speed(benchmark, n):
    """Matrix-engine kernel: full n-1 round static-path run."""
    trees = [path(n)] * (n - 1)
    result = benchmark(lambda: run_sequence(trees, n))
    assert result.t_star == n - 1
