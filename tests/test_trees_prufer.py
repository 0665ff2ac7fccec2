"""Unit tests for the Prüfer codec."""

from __future__ import annotations

import pytest

from repro.errors import InvalidTreeError
from repro.trees.generators import path, random_tree, star
from repro.trees.prufer import from_prufer, to_prufer
from repro.trees.rooted_tree import RootedTree


class TestDecode:
    def test_empty_sequence_n2(self):
        t = from_prufer([], 2, root=1)
        assert t.root == 1
        assert t.edges() == ((1, 0),)

    def test_single_node(self):
        assert from_prufer([], 1).n == 1

    def test_star_sequence(self):
        # Prüfer sequence of a star is (center,) * (n-2).
        t = from_prufer([0, 0, 0], 5, root=0)
        assert t.is_star()

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidTreeError, match="length"):
            from_prufer([0], 4)

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            from_prufer([5, 0], 4)


class TestEncode:
    def test_star_encodes_to_centers(self):
        assert to_prufer(star(5)) == [0, 0, 0]

    def test_path_encodes_to_interior(self):
        assert to_prufer(path(5)) == [1, 2, 3]

    def test_small_trees_empty(self):
        assert to_prufer(path(2)) == []
        assert to_prufer(RootedTree([0])) == []


class TestRoundTrip:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 20])
    def test_roundtrip_random_trees(self, n, rng):
        for _ in range(10):
            t = random_tree(n, rng)
            seq = to_prufer(t)
            assert from_prufer(seq, n, root=t.root) == t

    def test_roundtrip_ignores_root_in_encoding(self):
        # Same undirected tree, different roots -> same sequence.
        t = path(5)
        rerooted = t.rerooted_at(4)
        assert to_prufer(t) == to_prufer(rerooted)

    def test_decode_is_injective_over_sequences(self):
        n = 5
        seen = set()
        from itertools import product

        for seq in product(range(n), repeat=n - 2):
            t = from_prufer(list(seq), n, root=0)
            key = t.parents
            assert key not in seen, f"two sequences produced {key}"
            seen.add(key)
        # Cayley: n^(n-2) distinct unrooted trees.
        assert len(seen) == n ** (n - 2)
