"""Unit tests for the Prüfer codec."""

from __future__ import annotations

import heapq
from itertools import product

import numpy as np
import pytest

from repro.errors import InvalidTreeError
from repro.trees.prufer import from_prufer


def _heap_decode(sequence, n, root):
    """Reference decoder: detach the smallest leaf with a min-heap, build the
    undirected tree, then orient it away from ``root`` by a DFS."""
    if n == 1:
        return (0,)
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    undirected = [[] for _ in range(n)]
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in sequence:
        leaf = heapq.heappop(leaves)
        undirected[leaf].append(x)
        undirected[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    undirected[u].append(v)
    undirected[v].append(u)
    parents = [-1] * n
    parents[root] = root
    stack = [root]
    while stack:
        a = stack.pop()
        for b in undirected[a]:
            if parents[b] == -1:
                parents[b] = a
                stack.append(b)
    return tuple(parents)


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


class TestMatchesHeapDecoder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_sequence_and_root(self, n):
        for seq in product(range(n), repeat=max(n - 2, 0)):
            for root in range(n):
                assert from_prufer(list(seq), n, root=root).parents == _heap_decode(
                    seq, n, root
                ), (seq, root)

    def test_seeded_random_cases_up_to_n100(self):
        rng = np.random.default_rng(20240531)
        for n in [7, 8, 9, 16, 31, 32, 33, 64, 99, 100]:
            for _ in range(40):
                seq = rng.integers(0, n, size=n - 2).tolist()
                root = int(rng.integers(n))
                assert from_prufer(seq, n, root=root).parents == _heap_decode(
                    seq, n, root
                ), (n, seq, root)
