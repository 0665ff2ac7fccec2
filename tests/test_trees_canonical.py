"""Unit tests for tree shape classification."""

from __future__ import annotations

from repro.trees.canonical import classify_shape
from repro.trees.generators import broom, caterpillar, path, spider, star
from repro.trees.rooted_tree import RootedTree


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
