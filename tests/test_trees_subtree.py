"""Unit tests for the stalling machinery (Lemma S building blocks)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import BroadcastState
from repro.trees.generators import path, star
from repro.trees.subtree import (
    is_union_of_subtrees,
    is_union_of_subtrees_by_decomposition,
    stalled_nodes,
)

from helpers import make_random_state


def root_always_gains(tree, reach) -> bool:
    """Lemma R on one configuration: the root is finished or gains."""
    return bool(reach[tree.root].all()) or tree.root not in stalled_nodes(tree, reach)


class TestUnionOfSubtrees:
    def test_path_suffixes_are_unions(self):
        t = path(5)
        assert is_union_of_subtrees(t, {3, 4})
        assert is_union_of_subtrees(t, {2, 3, 4})
        assert not is_union_of_subtrees(t, {1, 2})  # missing 3, 4

    def test_empty_set_is_union(self, caterpillar6):
        assert is_union_of_subtrees(caterpillar6, set())

    def test_full_set_is_union(self, caterpillar6):
        assert is_union_of_subtrees(caterpillar6, set(range(6)))

    def test_combined_subtrees(self, caterpillar6):
        assert is_union_of_subtrees(caterpillar6, {1, 3, 4, 5})
        assert not is_union_of_subtrees(caterpillar6, {1, 3, 5})

    @pytest.mark.parametrize("seed", range(5))
    def test_two_implementations_agree(self, seed, rng):
        from repro.trees.generators import random_tree

        gen = np.random.default_rng(seed)
        t = random_tree(7, gen)
        for _ in range(30):
            size = int(gen.integers(0, 8))
            nodes = set(int(v) for v in gen.choice(7, size=size, replace=False))
            assert is_union_of_subtrees(t, nodes) == (
                is_union_of_subtrees_by_decomposition(t, nodes)
            )


class TestStalledNodes:
    def test_identity_state_leaves_stall(self):
        t = path(4)
        state = BroadcastState.initial(4)
        st = stalled_nodes(t, state.reach_matrix_view())
        # In a path only the last node is a leaf: everyone else gains.
        assert st == {3}

    def test_star_stalls_all_but_center(self):
        t = star(4)
        state = BroadcastState.initial(4)
        st = stalled_nodes(t, state.reach_matrix_view())
        assert st == {1, 2, 3}

    def test_matches_lemma_s_characterization(self):
        state = make_random_state(6, rounds=3, seed=42)
        t = path(6)
        st = stalled_nodes(t, state.reach_matrix_view())
        for x in range(6):
            expected = is_union_of_subtrees(t, state.reach_set(x))
            assert (x in st) == expected

    def test_shape_mismatch_rejected(self):
        t = path(4)
        with pytest.raises(ValueError, match="shape"):
            stalled_nodes(t, np.eye(5, dtype=bool))


class TestLemmaR:
    @pytest.mark.parametrize("seed", range(10))
    def test_root_always_gains_random_configs(self, seed):
        from repro.trees.generators import random_tree

        gen = np.random.default_rng(seed)
        state = make_random_state(6, rounds=int(gen.integers(0, 8)), seed=seed)
        t = random_tree(6, gen)
        assert root_always_gains(t, state.reach_matrix_view())

    def test_finished_root_counts_as_ok(self):
        state = BroadcastState.initial(3)
        state.apply_tree_inplace(star(3))  # node 0 finishes
        assert root_always_gains(star(3), state.reach_matrix_view())
