"""Property-based fuzz suite over randomized tree sequences.

Universally-quantified invariants from the paper, asserted on random
adversarial inputs across BOTH matrix backends:

* monotonicity -- reach sets only grow: reach counts and edge counts are
  non-decreasing round over round, and a completed broadcast stays
  completed (so ``t*`` is monotone in rounds: extending a sequence never
  changes an achieved ``t*``);
* Figure 1 / Theorem 3.1 bounds -- every sequence long enough completes,
  with ``1 <= t* <= ⌈(1+√2)n − 1⌉ <= n²`` (n >= 2);
* composition associativity -- ``(A ∘ B) ∘ C = A ∘ (B ∘ C)`` both for the
  dense reference product and through each backend's
  ``compose_with_graph`` kernel (which exercises the word-parallel bitset
  ``bool_product``);
* cross-backend equality -- dense and bitset agree on ``t*``, the final
  matrix, and every intermediate reach count;
* cyclic chain-fan scoring -- the GEMM-squares walk picks the argmin of
  the full-table score key on any reachable state.

Runs are deterministic: hypothesis is ``derandomize``d (CI exercises the
suite under a fixed seed on both backends).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.adversaries import zeiner
from repro.core import kernels
from repro.core import matrix as M
from repro.core.backend import get_backend, use_backend
from repro.core.bounds import trivial_upper_bound, upper_bound
from repro.core.broadcast import run_sequence
from repro.core.state import BroadcastState
from repro.trees.generators import random_tree
from repro.trees.rooted_tree import RootedTree

BACKENDS = ["dense", "bitset"]

FUZZ = settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def tree_sequences(draw, min_n: int = 2, max_n: int = 12, max_len: int = 24):
    """A random (n, [trees]) pair over a shared node count."""
    n = draw(st.integers(min_n, max_n))
    length = draw(st.integers(1, max_len))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return n, [random_tree(n, rng) for _ in range(length)]


@st.composite
def reflexive_matrices(draw, max_n: int = 24):
    """A random reflexive 0/1 matrix (product graphs are reflexive)."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(st.floats(0.05, 0.9))
    a = np.random.default_rng(seed).random((n, n)) < density
    np.fill_diagonal(a, True)
    return a


# ----------------------------------------------------------------------
# Monotonicity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@FUZZ
@given(tree_sequences())
def test_reach_and_edges_nondecreasing(backend, seq):
    n, trees = seq
    with use_backend(backend):
        state = BroadcastState.initial(n)
        prev_reach = state.reach_sizes()
        prev_edges = state.edge_count()
        completed = False
        for tree in trees:
            state.apply_tree_inplace(tree)
            reach = state.reach_sizes()
            assert (reach >= prev_reach).all()
            assert state.edge_count() >= prev_edges
            if completed:  # broadcast never un-completes
                assert state.is_broadcast_complete()
            completed = completed or state.is_broadcast_complete()
            prev_reach, prev_edges = reach, state.edge_count()


@pytest.mark.parametrize("backend", BACKENDS)
@FUZZ
@given(tree_sequences(max_len=16), st.integers(1, 8))
def test_tstar_monotone_in_rounds(backend, seq, extra):
    """Extending a sequence never changes an achieved ``t*``."""
    n, trees = seq
    rng = np.random.default_rng(len(trees) * 7919 + n)
    longer = trees + [random_tree(n, rng) for _ in range(extra)]
    with use_backend(backend):
        t_short = run_sequence(trees, n=n, stop_at_broadcast=False).t_star
        t_long = run_sequence(longer, n=n, stop_at_broadcast=False).t_star
    if t_short is not None:
        assert t_long == t_short
    elif t_long is not None:
        assert len(trees) < t_long <= len(longer)


# ----------------------------------------------------------------------
# Figure 1 / Theorem 3.1 bounds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@FUZZ
@given(tree_sequences(max_n=10, max_len=1))
def test_tstar_within_figure1_bounds(backend, seq):
    """Any sufficiently long sequence completes within the paper's bounds."""
    n, trees = seq
    rng = np.random.default_rng(n * 31337)
    padded = trees + [
        random_tree(n, rng) for _ in range(upper_bound(n) - len(trees))
    ]
    with use_backend(backend):
        t = run_sequence(padded, n=n).t_star
    assert t is not None, "Theorem 3.1: broadcast must complete by the UB"
    assert 1 <= t <= upper_bound(n) <= trivial_upper_bound(n)


# ----------------------------------------------------------------------
# Composition associativity
# ----------------------------------------------------------------------


@FUZZ
@given(st.integers(2, 20), st.integers(0, 2**31 - 1))
def test_bool_product_associative_dense(n, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.random((n, n)) < 0.25 for _ in range(3))
    left = M.bool_product(M.bool_product(a, b), c)
    right = M.bool_product(a, M.bool_product(b, c))
    assert (left == right).all()


@pytest.mark.parametrize("backend", BACKENDS)
@FUZZ
@given(reflexive_matrices(), st.integers(0, 2**31 - 1))
def test_compose_with_graph_associative(backend, a, seed):
    """Backend composition kernels respect ``(A∘B)∘C = A∘(B∘C)``."""
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    b = rng.random((n, n)) < 0.3
    c = rng.random((n, n)) < 0.3
    np.fill_diagonal(b, True)
    np.fill_diagonal(c, True)
    bk = get_backend(backend)
    ha = bk.from_dense(a)
    left = bk.compose_with_graph(bk.compose_with_graph(ha, b), c)
    right = bk.compose_with_graph(ha, M.bool_product(b, c))
    assert (bk.to_dense(left) == bk.to_dense(right)).all()
    assert (bk.to_dense(left) == M.bool_product(M.bool_product(a, b), c)).all()


@pytest.mark.parametrize("backend", BACKENDS)
@FUZZ
@given(tree_sequences(max_len=6))
def test_tree_composition_equals_generic_product(backend, seq):
    """The tree fast path equals the generic ``A ∘ (tree + loops)``."""
    n, trees = seq
    bk = get_backend(backend)
    state = bk.identity(n)
    dense = M.identity_matrix(n)
    for tree in trees:
        state = bk.compose_with_tree(state, tree.parent_array_numpy())
        dense = M.bool_product(dense, tree.to_adjacency(include_self_loops=True))
        assert (bk.to_dense(state) == dense).all()


# ----------------------------------------------------------------------
# Gains accounting
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# Cross-backend equality
# ----------------------------------------------------------------------


@FUZZ
@given(tree_sequences())
def test_backends_agree_roundwise(seq):
    n, trees = seq
    dense_state = BroadcastState.initial(n, backend="dense")
    bitset_state = BroadcastState.initial(n, backend="bitset")
    for tree in trees:
        dense_state.apply_tree_inplace(tree)
        bitset_state.apply_tree_inplace(tree)
        assert (dense_state.reach_sizes() == bitset_state.reach_sizes()).all()
        assert dense_state.edge_count() == bitset_state.edge_count()
        assert (
            dense_state.is_broadcast_complete()
            == bitset_state.is_broadcast_complete()
        )
    assert (dense_state.reach_matrix == bitset_state.reach_matrix).all()


@FUZZ
@given(tree_sequences(min_n=2, max_n=9, max_len=12))
def test_backends_agree_on_tstar(seq):
    n, trees = seq
    assert (
        run_sequence(trees, n=n, backend="dense").t_star
        == run_sequence(trees, n=n, backend="bitset").t_star
    )


KERNEL_PAIRS = [
    (backend, kernel)
    for backend in BACKENDS
    for kernel in kernels.available_kernels(backend)
]


@pytest.mark.parametrize("backend,kernel", KERNEL_PAIRS)
@FUZZ
@given(reflexive_matrices(), st.integers(0, 2**31 - 1))
def test_forced_kernel_compose_matches_reference(backend, kernel, a, seed):
    """Every registered kernel computes exactly ``bool_product``."""
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    g = rng.random((n, n)) < 0.3
    np.fill_diagonal(g, True)
    bk = get_backend(backend)
    with kernels.use_kernel(kernel):
        got = bk.to_dense(bk.compose_with_graph(bk.from_dense(a), g))
    assert (got == M.bool_product(a, g)).all()


# ----------------------------------------------------------------------
# Cyclic chain-fan scoring
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@FUZZ
@given(tree_sequences(min_n=2, max_n=20), st.sampled_from([1, 2, 3]))
@example(  # the max row breaks a squares tie among non-finishers
    seq=(18, [
        RootedTree([5, 7, 12, 6, 0, 15, 6, 14, 12, 7, 2, 3, 11, 3, 6, 11, 10, 13]),
        RootedTree([2, 3, 4, 12, 9, 11, 17, 0, 12, 17, 10, 0, 4, 8, 11, 2, 10, 16]),
        RootedTree([12, 7, 16, 4, 17, 11, 11, 11, 4, 9, 17, 16, 3, 11, 15, 5, 9, 16]),
    ]),
    stride=1,
)
def test_cyclic_gemm_choice_is_full_table_argmin(backend, seq, stride):
    """The GEMM walk picks the full-table ``(done, squares, top)`` argmin."""
    n, trees = seq
    fam = zeiner._chain_fan_family(n, stride)
    with use_backend(backend):
        state = BroadcastState.initial(n)
        for tree in trees:
            if state.apply_tree(tree).is_broadcast_complete():
                break
            state.apply_tree_inplace(tree)
        reach = state.reach_matrix_view()
        scores = zeiner._chain_fan_scores(fam, reach)
        assert zeiner._gemm_choice(fam, reach) == np.lexsort(scores.T[::-1])[0]
