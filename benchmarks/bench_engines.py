"""Engine ablations: tree fast path vs generic matmul; compiled vs tree loop.

The first ablation times the matrix engine and its O(n²) tree
composition against the generic boolean matmul.  The design choice
justified here: the column-gather composition is the default everywhere.

The second ablation pins the unified execution layer
(:mod:`repro.engine.executor`): the compiled parent-schedule fast path
versus the per-round :class:`RootedTree` loop, over the static-path
family (static + rotated cyclic paths) at large ``n`` under the bitset
backend.  Schedules that rebuild a tree every round (the rotated path --
the general oblivious case) gain an order of magnitude; the family
aggregate is asserted >= 2x.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.adversaries.paths import RotatingPathAdversary, StaticPathAdversary
from repro.analysis.tables import format_table
from repro.core import matrix as M
from repro.core.backend import use_backend
from repro.core.broadcast import run_sequence
from repro.engine.executor import RunSpec, SequentialExecutor
from repro.trees.generators import random_tree


def _sequence(n: int, rounds: int, seed: int):
    rng = np.random.default_rng(seed)
    return [random_tree(n, rng) for _ in range(rounds)]


@pytest.mark.parametrize("n", [32, 128, 512])
def test_matrix_engine_speed(benchmark, n):
    trees = _sequence(n, rounds=16, seed=0)
    result = benchmark(lambda: run_sequence(trees, n, stop_at_broadcast=False))
    assert result.final_state.round_index == 16


@pytest.mark.parametrize("n", [64, 256])
def test_tree_fast_path_vs_generic_matmul(benchmark, n):
    """The composition ablation: fast path timing (generic checked equal)."""
    rng = np.random.default_rng(1)
    tree = random_tree(n, rng)
    reach = M.identity_matrix(n)
    for t in _sequence(n, 4, seed=2):
        reach = M.compose_with_tree(reach, t)

    fast = benchmark(lambda: M.compose_with_tree(reach, tree))
    generic = M.bool_product(reach, tree.to_adjacency())
    assert (fast == generic).all()


#: The static-path family: oblivious path schedules the executors compile.
STATIC_PATH_FAMILY = [
    ("StaticPath", StaticPathAdversary),
    ("RotatingPath", lambda n: RotatingPathAdversary(n, shift=1)),
]


def _time_run(executor: SequentialExecutor, factory, n: int) -> float:
    t0 = time.perf_counter()
    report = executor.run(RunSpec(adversary=factory(n), n=n))
    elapsed = time.perf_counter() - t0
    assert report.t_star == n - 1  # every path-family member achieves n - 1
    return elapsed


@pytest.mark.parametrize("n", [128, 512])
def test_compiled_schedule_vs_tree_loop(n, capsys):
    """Compiled parent schedules vs per-round RootedTree construction.

    Under the bitset backend the compose kernel is cheap, so per-round
    tree construction dominates oblivious runs; compiling the schedule
    once must pay off >= 2x on the static-path family aggregate at
    n = 512 (measured ~5x: ~1.1x on the statically cached path, ~10x on
    the rotated path that would otherwise build a tree per round).
    """
    compiled_exec = SequentialExecutor()
    tree_exec = SequentialExecutor(use_compiled=False)
    rows = []
    compiled_total = tree_total = 0.0
    with use_backend("bitset"):
        for label, factory in STATIC_PATH_FAMILY:
            # Warm the schedule/row caches out of the timed region, as a
            # long-running sweep would.
            _time_run(compiled_exec, factory, n)
            t_compiled = min(_time_run(compiled_exec, factory, n) for _ in range(3))
            t_tree = min(_time_run(tree_exec, factory, n) for _ in range(3))
            compiled_total += t_compiled
            tree_total += t_tree
            rows.append(
                (
                    label,
                    n,
                    f"{t_tree * 1e3:.1f}ms",
                    f"{t_compiled * 1e3:.1f}ms",
                    f"{t_tree / max(t_compiled, 1e-9):.1f}x",
                )
            )
    family_speedup = tree_total / max(compiled_total, 1e-9)
    rows.append(
        (
            "family total",
            n,
            f"{tree_total * 1e3:.1f}ms",
            f"{compiled_total * 1e3:.1f}ms",
            f"{family_speedup:.1f}x",
        )
    )
    with capsys.disabled():
        print()
        print(
            format_table(
                ["adversary", "n", "tree loop", "compiled", "speedup"],
                rows,
                title=(
                    "E8b: compiled parent schedules vs per-round trees "
                    "(bitset backend)"
                ),
            )
        )
    if n >= 512:
        assert family_speedup >= 2.0, (
            f"compiled schedules only {family_speedup:.2f}x faster at n={n}; "
            "expected >= 2x on the static-path family under bitset"
        )
