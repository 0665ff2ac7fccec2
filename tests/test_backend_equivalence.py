"""Cross-backend equivalence: dense and bitset must be indistinguishable.

The central correctness net for the bitset backend: randomized tree
sequences (seeded, n up to 128) must produce identical broadcast times,
broadcaster sets, reach/heard-of counts, matrices, and keys under both
backends, and the search adversaries must make identical decisions.
``N_VALUES x CASES_PER_N`` gives the randomized cross-backend case count
(asserted >= 200 below).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.beam import BeamSearchAdversary
from repro.adversaries.greedy import GreedyDelayAdversary, score_tree
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.core import matrix as M
from repro.core.backend import get_backend, use_backend
from repro.core.broadcast import run_sequence
from repro.core.product import product_of_trees
from repro.core.state import BroadcastState
from repro.engine.batch import score_candidates
from repro.trees.generators import random_tree

from helpers import run_with

#: Node counts straddling every packing boundary (1 bit .. 2 words).
N_VALUES = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33,
    63, 64, 65, 96, 127, 128,
]
CASES_PER_N = 10

DENSE = get_backend("dense")
BITSET = get_backend("bitset")


def test_case_count_meets_bar():
    """The randomized cross-backend sweep below covers >= 200 cases."""
    assert len(N_VALUES) * CASES_PER_N >= 200


def _random_sequence(n: int, rng: np.random.Generator):
    rounds = int(rng.integers(1, 3 * n + 2))
    return [random_tree(n, rng) for _ in range(rounds)]


@pytest.mark.parametrize("n", N_VALUES)
def test_random_sequences_agree(n):
    """t*, broadcasters, counts, and matrices agree on random sequences."""
    for seed in range(CASES_PER_N):
        rng = np.random.default_rng(1000 * n + seed)
        trees = _random_sequence(n, rng)
        dense = run_sequence(trees, n=n, stop_at_broadcast=False, backend="dense")
        packed = run_sequence(trees, n=n, stop_at_broadcast=False, backend="bitset")
        assert dense.t_star == packed.t_star
        assert dense.broadcasters == packed.broadcasters
        ds, ps = dense.final_state, packed.final_state
        assert (ds.reach_sizes() == ps.reach_sizes()).all()
        assert (ds.heard_of_sizes() == ps.heard_of_sizes()).all()
        assert ds.edge_count() == ps.edge_count()
        assert (ds.reach_matrix == ps.reach_matrix).all()
        assert ds.key() == ps.key()
        assert ds == ps


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 40, 65])
def test_stepwise_queries_agree(n):
    """Every per-round query agrees while a run is in flight."""
    rng = np.random.default_rng(n)
    d = BroadcastState.initial(n, backend="dense")
    b = BroadcastState.initial(n, backend="bitset")
    for _ in range(n + 2):
        tree = random_tree(n, rng)
        d.apply_tree_inplace(tree)
        b.apply_tree_inplace(tree)
        assert d.is_broadcast_complete() == b.is_broadcast_complete()
        assert d.broadcasters() == b.broadcasters()
        assert d.edge_count() == b.edge_count()
        x = int(rng.integers(n))
        assert d.reach_set(x) == b.reach_set(x)
        assert d.heard_of_set(x) == b.heard_of_set(x)
        assert d.missing(x) == b.missing(x)
        assert (d.reach_matrix_view() == b.reach_matrix_view()).all()


@pytest.mark.parametrize("n", [2, 4, 8, 19, 33, 80])
def test_dense_roundtrip(n):
    """from_dense/to_dense is exact for arbitrary reflexive matrices."""
    rng = np.random.default_rng(n)
    a = rng.random((n, n)) < 0.35
    np.fill_diagonal(a, True)
    packed = BITSET.from_dense(a)
    assert (BITSET.to_dense(packed) == a).all()
    assert BITSET.matrix_key(packed) == DENSE.matrix_key(a.copy())
    assert (BITSET.full_rows(packed) == a.all(axis=1)).all()


@pytest.mark.parametrize("n", [3, 6, 12, 20])
def test_product_of_trees_agrees(n):
    rng = np.random.default_rng(n)
    trees = [random_tree(n, rng) for _ in range(n - 1)]
    with use_backend("dense"):
        dense = product_of_trees(trees)
    with use_backend("bitset"):
        packed = product_of_trees(trees)
    assert (dense == packed).all()


@pytest.mark.parametrize("n", [4, 7, 12, 24])
@pytest.mark.parametrize(
    "factory",
    [
        lambda n: GreedyDelayAdversary(n, seed=3),
        lambda n: BeamSearchAdversary(n, depth=2, width=4, seed=3),
        lambda n: CyclicFamilyAdversary(n),
    ],
    ids=["greedy", "beam", "cyclic-family"],
)
def test_adversaries_play_identically(n, factory):
    """Search adversaries pick the same trees and t* on both backends."""
    dense = run_with(factory(n), n, keep_trees=True, backend="dense")
    packed = run_with(factory(n), n, keep_trees=True, backend="bitset")
    assert dense.t_star == packed.t_star
    assert dense.broadcasters == packed.broadcasters
    assert dense.trees == packed.trees


@pytest.mark.parametrize("n", [2, 5, 11, 30, 70])
def test_batched_scoring_matches_reference(n):
    """score_candidates == score_tree, per candidate, on both backends."""
    rng = np.random.default_rng(n)
    for backend in ("dense", "bitset"):
        state = BroadcastState.initial(n, backend=backend)
        for _ in range(n // 2 + 1):
            state.apply_tree_inplace(random_tree(n, rng))
        candidates = [random_tree(n, rng) for _ in range(8)]
        assert score_candidates(state, candidates) == [
            score_tree(state, t) for t in candidates
        ]


@given(data=st.data(), n=st.integers(min_value=1, max_value=70))
@settings(max_examples=60, deadline=None)
def test_compose_property(data, n):
    """Property: one composition step agrees for arbitrary matrix + tree."""
    bits = data.draw(
        st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    a = np.array(bits, dtype=np.bool_)
    np.fill_diagonal(a, True)
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    tree = random_tree(n, np.random.default_rng(seed))
    parent = tree.parent_array_numpy()
    want = a | a[:, parent]
    got = BITSET.to_dense(BITSET.compose_with_tree(BITSET.from_dense(a), parent))
    assert (got == want).all()


def test_backend_conversion_between_states():
    state = BroadcastState.initial(9, backend="dense")
    rng = np.random.default_rng(0)
    for _ in range(4):
        state.apply_tree_inplace(random_tree(9, rng))
    other = BroadcastState(9, state.reach_matrix, state.round_index, backend="bitset")
    assert other.backend is BITSET
    assert other == state
    assert (other.reach_matrix == state.reach_matrix).all()


# ----------------------------------------------------------------------
# Graph compose: each backend's one product is the reference product
# ----------------------------------------------------------------------


class TestGraphCompose:
    """``compose_with_graph`` equals ``bool_product`` on both backends.

    Each backend has one graph-compose product; these checks drive the
    same randomized matrices through both and demand byte equality with
    the reference, across the 64-bit word boundary, on an empty graph,
    and with the bitset padding bits left zero.
    """

    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    @pytest.mark.parametrize("n", [1, 17, 33, 63, 64, 65, 96, 128])
    def test_product_matches_reference(self, backend, n):
        rng = np.random.default_rng(7000 + n)
        a = rng.random((n, n)) < 0.4
        np.fill_diagonal(a, True)
        g = rng.random((n, n)) < 0.3
        np.fill_diagonal(g, True)
        bk = get_backend(backend)
        got = bk.to_dense(bk.compose_with_graph(bk.from_dense(a), g))
        assert (got == M.bool_product(a, g)).all()

    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    def test_empty_graph(self, backend):
        n = 65
        a = np.random.default_rng(65).random((n, n)) < 0.5
        g = np.zeros((n, n), dtype=np.bool_)
        bk = get_backend(backend)
        got = bk.to_dense(bk.compose_with_graph(bk.from_dense(a), g))
        assert not got.any()

    def test_padding_bits_stay_zero(self):
        n = 65
        rng = np.random.default_rng(66)
        out = BITSET.compose_with_graph(
            BITSET.from_dense(rng.random((n, n)) < 0.5), rng.random((n, n)) < 0.5
        )
        pad_mask = np.uint64((1 << 64) - (1 << (n % 64)))
        assert (out[:, -1] & pad_mask).max() == 0
