"""Unit tests for AHU canonical forms and shape classification."""

from __future__ import annotations

from repro.trees.canonical import (
    ahu_signature,
    are_isomorphic,
    classify_shape,
    shape_profile,
)
from repro.trees.generators import broom, caterpillar, path, spider, star
from repro.trees.rooted_tree import RootedTree


class TestAHU:
    def test_leaf_signature(self):
        assert ahu_signature(RootedTree([0])) == "()"

    def test_path_signature_nested(self):
        assert ahu_signature(path(3)) == "((()))"

    def test_star_signature_flat(self):
        assert ahu_signature(star(4)) == "((()()()))"[1:-1]  # "(()()())"

    def test_relabeling_preserves_signature(self, caterpillar6):
        perm = [5, 3, 4, 0, 1, 2]
        assert ahu_signature(caterpillar6) == ahu_signature(
            caterpillar6.relabel(perm)
        )

    def test_different_shapes_different_signatures(self):
        assert ahu_signature(path(4)) != ahu_signature(star(4))


class TestIsomorphism:
    def test_isomorphic_after_relabel(self, caterpillar6):
        assert are_isomorphic(caterpillar6, caterpillar6.relabel([1, 0, 2, 4, 3, 5]))

    def test_not_isomorphic_different_n(self):
        assert not are_isomorphic(path(3), path(4))

    def test_root_matters(self):
        # Same undirected path, rooted at the end vs in the middle.
        end_rooted = path(3)
        mid_rooted = RootedTree([1, 1, 1])  # root 1, children 0 and 2
        assert not are_isomorphic(end_rooted, mid_rooted)


class TestShapeClassification:
    def test_named_families(self):
        assert classify_shape(RootedTree([0])) == "singleton"
        assert classify_shape(path(5)) == "path"
        assert classify_shape(star(5)) == "star"
        assert classify_shape(broom(6, 3)) == "broom"
        assert classify_shape(spider(7, 3)) == "spider"

    def test_caterpillar_detected(self):
        t = caterpillar(8, spine=[0, 1, 2, 3])
        assert classify_shape(t) in ("caterpillar", "broom")

    def test_profile_components(self):
        h, leaves, deg, spine = shape_profile(broom(6, 3))
        assert h == 3
        assert leaves == 3
        assert deg == 3
        assert spine == 2
