"""Round-trip tests for ``SweepResult.to_json`` / ``from_json``."""

from __future__ import annotations

import json

import pytest

from repro.adversaries.paths import StaticPathAdversary
from repro.analysis.sweep import (
    SWEEP_FORMAT_VERSION,
    SweepPoint,
    SweepResult,
)
from repro.engine.executor import SequentialExecutor
from repro.errors import SweepFormatError


def _sample_result() -> SweepResult:
    return SequentialExecutor().sweep({"StaticPath": StaticPathAdversary}, [4, 6, 8])


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        result = _sample_result()
        back = SweepResult.from_json(result.to_json())
        assert back == result
        assert back.ns() == [4, 6, 8]
        assert all(p.within_bounds for p in back.points)

    def test_serialization_is_order_preserving_and_versioned(self):
        result = _sample_result()
        doc = json.loads(result.to_json(indent=2))
        assert doc["format_version"] == SWEEP_FORMAT_VERSION
        assert [p["n"] for p in doc["points"]] == [4, 6, 8]
        assert [p["t_star"] for p in doc["points"]] == [3, 5, 7]

    def test_save_load(self, tmp_path):
        result = _sample_result()
        out = tmp_path / "sweep.json"
        result.save(out)
        assert SweepResult.load(out) == result

    def test_empty_result_round_trips(self):
        empty = SweepResult()
        assert SweepResult.from_json(empty.to_json()) == empty

    def test_cli_out_writes_loadable_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        assert (
            main(["sweep", "--ns", "5", "6", "--out", str(out)]) == 0
        )
        loaded = SweepResult.load(out)
        assert loaded.ns() == [5, 6]
        assert "written to" in capsys.readouterr().out


class TestRejection:
    def test_bad_json(self):
        with pytest.raises(SweepFormatError, match="not valid JSON"):
            SweepResult.from_json("{nope")

    def test_wrong_version(self):
        with pytest.raises(SweepFormatError, match="version"):
            SweepResult.from_json('{"format_version": 99, "points": []}')

    def test_missing_points(self):
        with pytest.raises(SweepFormatError, match="points"):
            SweepResult.from_json(
                json.dumps({"format_version": SWEEP_FORMAT_VERSION})
            )

    def test_malformed_point(self):
        doc = {
            "format_version": SWEEP_FORMAT_VERSION,
            "points": [{"adversary": "x", "n": 4}],
        }
        with pytest.raises(SweepFormatError, match="malformed sweep point 0"):
            SweepResult.from_json(json.dumps(doc))

    def test_non_object_document(self):
        with pytest.raises(SweepFormatError, match="version"):
            SweepResult.from_json("[1, 2, 3]")


def test_points_survive_with_exact_bounds():
    point = SweepPoint(adversary="a", n=10, t_star=13, lower=13, upper=24)
    back = SweepResult.from_json(SweepResult(points=[point]).to_json())
    assert back.points[0] == point
    assert back.points[0].normalized == 1.3
