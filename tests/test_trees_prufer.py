"""Unit tests for the Prüfer codec."""

from __future__ import annotations

import pytest

from repro.errors import InvalidTreeError
from repro.trees.prufer import from_prufer


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


class TestRoundTrip:
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
