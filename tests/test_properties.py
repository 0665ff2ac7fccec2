"""Property-based tests (hypothesis) for the model's core invariants.

These encode the paper's structural facts as universally-quantified
properties over random trees, sequences, and states:

* product composition is associative and monotone;
* the matrix fast path equals the generic boolean product;
* Lemma R (root always gains) and Lemma S (stalling characterization);
* Section 2's >= 1 new edge per round, hence t* <= n²;
* Lemma N: any n-1 composed tree rounds are nonsplit;
* Theorem 3.1's upper bound on every generated run;
* engine equivalence (matrix vs process-level simulator).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import matrix as M
from repro.core.bounds import trivial_upper_bound, upper_bound
from repro.core.broadcast import run_sequence
from repro.core.product import is_nonsplit, product_of_trees
from repro.core.state import BroadcastState
from repro.trees.rooted_tree import RootedTree
from repro.trees.subtree import is_union_of_subtrees, stalled_nodes

from heard_of import compare_engines

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def rooted_trees(draw, min_n: int = 2, max_n: int = 9):
    """A random rooted labeled tree via a random parent-attachment order."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(list(range(n))))
    parents = [0] * n
    parents[order[0]] = order[0]
    for i in range(1, n):
        attach_to = draw(st.integers(0, i - 1))
        parents[order[i]] = order[attach_to]
    return RootedTree(parents)


@st.composite
def tree_sequences(draw, min_n: int = 2, max_n: int = 7, max_len: int = 12):
    """A sequence of rooted trees over a common node count."""
    n = draw(st.integers(min_n, max_n))
    length = draw(st.integers(1, max_len))
    trees = []
    for _ in range(length):
        order = draw(st.permutations(list(range(n))))
        parents = [0] * n
        parents[order[0]] = order[0]
        for i in range(1, n):
            attach_to = draw(st.integers(0, i - 1))
            parents[order[i]] = order[attach_to]
        trees.append(RootedTree(parents))
    return n, trees


# ----------------------------------------------------------------------
# Algebra of the product
# ----------------------------------------------------------------------


@given(tree_sequences(max_len=6))
@settings(max_examples=60, deadline=None)
def test_product_monotone_and_reflexive(seq):
    n, trees = seq
    state = M.identity_matrix(n)
    for t in trees:
        nxt = M.compose_with_tree(state, t)
        assert (~state | nxt).all()  # monotone: no edge is ever lost
        assert nxt.diagonal().all()  # reflexive
        state = nxt


@given(tree_sequences(max_len=5))
@settings(max_examples=40, deadline=None)
def test_fast_composition_equals_generic(seq):
    n, trees = seq
    fast = product_of_trees(trees)
    generic = M.identity_matrix(n)
    for t in trees:
        generic = M.bool_product(generic, t.to_adjacency())
    assert (fast == generic).all()


@given(rooted_trees(), rooted_trees())
@settings(max_examples=40, deadline=None)
def test_product_respects_definition(t1, t2):
    if t1.n != t2.n:
        return
    a, b = t1.to_adjacency(), t2.to_adjacency()
    prod = M.bool_product(a, b)
    n = t1.n
    for x in range(n):
        for y in range(n):
            assert prod[x, y] == any(a[x, z] and b[z, y] for z in range(n))


# ----------------------------------------------------------------------
# The lemmas
# ----------------------------------------------------------------------


@given(tree_sequences(max_len=8), rooted_trees())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_lemma_r_root_always_gains(seq, probe):
    n, trees = seq
    if probe.n != n:
        return
    state = BroadcastState.initial(n)
    for t in trees:
        state.apply_tree_inplace(t)
    reach = state.reach_matrix_view()
    if reach[probe.root].all():
        return  # finished root: nothing to gain
    st_nodes = stalled_nodes(probe, reach)
    assert probe.root not in st_nodes


@given(tree_sequences(max_len=8), rooted_trees())
@settings(max_examples=60, deadline=None)
def test_lemma_s_stall_characterization(seq, probe):
    n, trees = seq
    if probe.n != n:
        return
    state = BroadcastState.initial(n)
    for t in trees:
        state.apply_tree_inplace(t)
    reach = state.reach_matrix_view()
    st_nodes = stalled_nodes(probe, reach)
    for x in range(n):
        assert (x in st_nodes) == is_union_of_subtrees(probe, state.reach_set(x))


@given(tree_sequences())
@settings(max_examples=60, deadline=None)
def test_section2_one_new_edge_per_round(seq):
    n, trees = seq
    state = BroadcastState.initial(n)
    for t in trees:
        if state.is_broadcast_complete():
            break
        before = state.edge_count()
        state.apply_tree_inplace(t)
        assert state.edge_count() >= before + 1


@given(st.integers(2, 7), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_t_star_at_most_n_squared(n, rnd):
    # Drive with arbitrary (randomly chosen) trees: must finish by n².
    from repro.trees.generators import random_tree

    rng = np.random.default_rng(rnd.randint(0, 2**31))
    state = BroadcastState.initial(n)
    rounds = 0
    while not state.is_broadcast_complete():
        state.apply_tree_inplace(random_tree(n, rng))
        rounds += 1
        assert rounds <= trivial_upper_bound(n)


# ----------------------------------------------------------------------
# Lemma N (nonsplit composition) and Theorem 3.1
# ----------------------------------------------------------------------


@given(tree_sequences(min_n=2, max_n=6, max_len=10))
@settings(max_examples=50, deadline=None)
def test_lemma_n_blocks_nonsplit(seq):
    n, trees = seq
    if len(trees) < n - 1:
        return
    block = product_of_trees(trees[: n - 1])
    assert is_nonsplit(block)


@given(tree_sequences(max_len=12))
@settings(max_examples=50, deadline=None)
def test_theorem_31_upper_bound_on_any_run(seq):
    n, trees = seq
    result = run_sequence(trees, n)
    if result.t_star is not None:
        assert result.t_star <= upper_bound(n)


# ----------------------------------------------------------------------
# Codec and engine equivalence
# ----------------------------------------------------------------------


@given(tree_sequences(max_n=6, max_len=8))
@settings(max_examples=40, deadline=None)
def test_engines_equivalent(seq):
    n, trees = seq
    matrix_t, sim_t = compare_engines(trees, n)
    assert matrix_t == sim_t


@given(tree_sequences(max_len=6))
@settings(max_examples=40, deadline=None)
def test_broadcast_state_key_reversible(seq):
    n, trees = seq
    state = BroadcastState.initial(n)
    for t in trees:
        state.apply_tree_inplace(t)
    key = state.key()
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=n * n)
    assert (bits.astype(bool).reshape(n, n) == state.reach_matrix_view()).all()
