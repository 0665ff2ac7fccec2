"""E6 -- the nonsplit bridge of the related work ([1], [9]).

Two reproduced claims:

* **Lemma N** ([1]): composing any ``n − 1`` rooted-tree rounds gives a
  nonsplit graph -- checked over random and adversarial sequences;
* **radius shape** ([9]): broadcast over nonsplit graphs completes in far
  fewer rounds than over trees (``O(log log n)`` vs ``Θ(n)``) -- measured
  for the cyclic-window and random nonsplit families.

The benchmark times the nonsplit check (a boolean matmul) and a nonsplit
broadcast run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.nonsplit import (
    NonsplitAdversary,
    broadcast_time_nonsplit,
    cyclic_nonsplit_graph,
    nonsplit_radius,
)
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.analysis.tables import format_table
from repro.core.broadcast import run_adversary
from repro.core.product import is_nonsplit
from repro.gossip.consensus import blocks_are_nonsplit
from repro.trees.generators import random_tree

NS = [8, 16, 32, 64, 128]


@pytest.mark.table
def test_print_nonsplit_table(capsys):
    rows = []
    rng = np.random.default_rng(0)
    for n in NS:
        tree_t = run_adversary(CyclicFamilyAdversary(n, m_stride=max(1, n // 16)), n).t_star
        cyc_radius = nonsplit_radius(cyclic_nonsplit_graph(n))
        rnd_t, _ = broadcast_time_nonsplit(NonsplitAdversary(n, mode="random", seed=1), n)
        rows.append((n, tree_t, cyc_radius, rnd_t, f"{tree_t / max(rnd_t, 1):.1f}x"))
    with capsys.disabled():
        print()
        print(
            format_table(
                [
                    "n",
                    "tree adversary t*",
                    "cyclic nonsplit radius",
                    "random nonsplit t*",
                    "tree/nonsplit ratio",
                ],
                rows,
                title="E6: nonsplit graphs broadcast dramatically faster than trees",
            )
        )
    # Shape: nonsplit times stay tiny while tree times grow linearly.
    for n, tree_t, cyc_radius, rnd_t, _ in rows:
        assert cyc_radius <= 6
        assert rnd_t <= 8
        assert tree_t >= n - 1


@pytest.mark.table
def test_lemma_n_blocks_nonsplit_bulk(capsys):
    """Lemma N over 200 random sequences (bulk check beyond unit tests)."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 10))
        trees = [random_tree(n, rng) for _ in range(n - 1)]
        assert blocks_are_nonsplit(trees, n)
        checked += 1
    with capsys.disabled():
        print(f"\nE6/Lemma N: {checked} random (n-1)-round blocks, all nonsplit")


def test_nonsplit_check_speed(benchmark):
    a = cyclic_nonsplit_graph(512)
    assert benchmark(lambda: is_nonsplit(a))


def test_nonsplit_broadcast_speed(benchmark):
    n = 128
    adv = NonsplitAdversary(n, mode="random", seed=3)
    t, _ = benchmark(lambda: broadcast_time_nonsplit(adv, n))
    assert t <= 8
