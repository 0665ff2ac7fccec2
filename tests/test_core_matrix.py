"""Unit tests for repro.core.matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import matrix as M
from repro.errors import DimensionMismatchError, InvalidGraphError
from repro.trees.generators import path, random_tree, star


class TestValidation:
    def test_identity_is_reflexive(self):
        a = M.identity_matrix(4)
        assert a.diagonal().all()
        assert a.sum() == 4

    def test_validate_rejects_non_square(self):
        with pytest.raises(InvalidGraphError):
            M.validate_adjacency(np.zeros((2, 3), dtype=bool))

    def test_validate_rejects_1d(self):
        with pytest.raises(InvalidGraphError):
            M.validate_adjacency(np.zeros(4, dtype=bool))

    def test_validate_requires_reflexive_when_asked(self):
        a = np.zeros((3, 3), dtype=bool)
        with pytest.raises(InvalidGraphError, match="reflexive"):
            M.validate_adjacency(a, require_reflexive=True)

    def test_validate_coerces_int_dtype(self):
        a = M.validate_adjacency(np.eye(3, dtype=int))
        assert a.dtype == np.bool_

    def test_validate_coerces_float_zeros_and_ones(self):
        a = M.validate_adjacency(np.eye(3, dtype=float))
        assert a.dtype == np.bool_

    def test_validate_rejects_values_outside_01(self):
        # astype(bool) would silently turn a weight of 2 into an edge.
        a = np.eye(3, dtype=int)
        a[0, 1] = 2
        with pytest.raises(InvalidGraphError, match="0 or 1"):
            M.validate_adjacency(a)

    def test_validate_rejects_fractional_floats(self):
        a = np.eye(3, dtype=float)
        a[1, 2] = 0.5
        with pytest.raises(InvalidGraphError, match="0 or 1"):
            M.validate_adjacency(a)

    def test_validate_rejects_negative_entries(self):
        a = np.eye(3, dtype=int)
        a[2, 0] = -1
        with pytest.raises(InvalidGraphError, match="0 or 1"):
            M.validate_adjacency(a)


class TestBoolProduct:
    def test_matches_definition_2_1(self, rng):
        # (x, y) in A∘B iff exists z with (x,z) in A and (z,y) in B.
        n = 6
        a = rng.random((n, n)) < 0.3
        b = rng.random((n, n)) < 0.3
        prod = M.bool_product(a, b)
        for x in range(n):
            for y in range(n):
                expected = any(a[x, z] and b[z, y] for z in range(n))
                assert prod[x, y] == expected

    def test_identity_is_neutral(self, rng):
        a = rng.random((5, 5)) < 0.4
        i = M.identity_matrix(5)
        assert (M.bool_product(a, i) == a).all()
        assert (M.bool_product(i, a) == a).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            M.bool_product(M.identity_matrix(3), M.identity_matrix(4))

    def test_no_uint8_overflow_large_n(self):
        # n = 300 > 255: a naive uint8 matmul would overflow the counts.
        n = 300
        ones = np.ones((n, n), dtype=bool)
        assert M.bool_product(ones, ones).all()


class TestComposeWithTree:
    def test_equals_generic_product(self, rng):
        for n in (3, 5, 9):
            reach = M.identity_matrix(n)
            for _ in range(4):
                t = random_tree(n, rng)
                fast = M.compose_with_tree(reach, t)
                generic = M.bool_product(reach, t.to_adjacency())
                assert (fast == generic).all()
                reach = fast

    def test_pure_vs_inplace(self, rng):
        n = 6
        t = random_tree(n, rng)
        reach = M.identity_matrix(n)
        pure = M.compose_with_tree(reach, t)
        M.compose_with_tree_inplace(reach, t)
        assert (pure == reach).all()

    def test_path_round_extends_one_hop(self):
        t = path(4)
        reach = M.compose_with_tree(M.identity_matrix(4), t)
        assert reach[0, 1] and not reach[0, 2]
        assert reach[2, 3]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            M.compose_with_tree(M.identity_matrix(3), path(4))


class TestQueries:
    def test_full_rows_and_broadcasters(self):
        reach = M.compose_with_tree(M.identity_matrix(3), star(3))
        assert M.has_broadcaster(reach)
        assert M.broadcasters(reach) == (0,)
        assert M.full_rows(reach).tolist() == [True, False, False]

    def test_edge_count_and_new_edges(self):
        before = M.identity_matrix(3)
        after = M.compose_with_tree(before, path(3))
        assert M.edge_count(before) == 3
        assert M.edge_count(after) == 5
        assert M.new_edges(before, after) == 2

    def test_new_edges_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            M.new_edges(M.identity_matrix(3), M.identity_matrix(4))

    def test_monotone_step(self):
        before = M.identity_matrix(4)
        after = M.compose_with_tree(before, path(4))
        assert (~before | after).all()  # no edge lost
        assert not (~after | before).all()


class TestKeysAndPermutations:
    def test_key_roundtrip(self, rng):
        a = rng.random((6, 6)) < 0.5
        key = M.matrix_key(a)
        bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=36)
        assert (bits.astype(bool).reshape(6, 6) == a).all()

    def test_distinct_matrices_distinct_keys(self):
        a = M.identity_matrix(4)
        b = M.compose_with_tree(a, path(4))
        assert M.matrix_key(a) != M.matrix_key(b)

    def test_permute_matrix_definition(self, rng):
        n = 5
        a = rng.random((n, n)) < 0.5
        perm = rng.permutation(n)
        b = M.permute_matrix(a, perm)
        for x in range(n):
            for y in range(n):
                assert b[perm[x], perm[y]] == a[x, y]
