"""Tests for the heard-of oracle, traced runs, traces, and metrics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.adversaries.oblivious import StaticTreeAdversary
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.engine.events import RoundRecord
from repro.engine.metrics import MetricsCollector
from repro.engine.trace import TRACE_FORMAT_VERSION, Trace, TraceRecorder
from repro.errors import DimensionMismatchError, TraceError
from repro.trees.generators import path, random_tree, star

from heard_of import HeardOfSimulator, compare_engines
from helpers import replay_trace, run_traced


class TestSimulator:
    def test_initial_knowledge(self):
        sim = HeardOfSimulator(4)
        for pid in range(4):
            assert sim.heard_of(pid) == {pid}

    def test_star_round_informs_children(self):
        sim = HeardOfSimulator(4)
        sim.step(star(4))
        for pid in (1, 2, 3):
            assert sim.heard_of(pid) == {0, pid}
        assert sim.broadcasters() == (0,)

    def test_snapshot_semantics(self):
        # In a path round, node 2 must receive node 1's *old* set, not the
        # set node 1 acquires in the same round.
        sim = HeardOfSimulator(3)
        sim.step(path(3))
        assert sim.heard_of(2) == {1, 2}  # not {0, 1, 2}

    def test_static_path_broadcast_time(self):
        n = 6
        sim = HeardOfSimulator(n)
        t = sim.run([path(n)] * (n * n))
        assert t == n - 1

    def test_message_counting(self):
        sim = HeardOfSimulator(5)
        sim.step(path(5))
        assert sim.messages_total == 4
        assert sim.process(1).messages_received == 1

    def test_reach_heard_duality(self, rng):
        sim = HeardOfSimulator(6)
        for _ in range(4):
            sim.step(random_tree(6, rng))
        for x in range(6):
            assert all(x in sim.heard_of(y) for y in sim.reach_of(x))

    def test_reset(self):
        sim = HeardOfSimulator(4)
        sim.step(star(4))
        sim.reset()
        assert sim.round_index == 0
        assert sim.heard_of(1) == {1}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            HeardOfSimulator(4).step(path(5))

    def test_state_summary(self):
        sim = HeardOfSimulator(3)
        assert "round=0" in sim.state_summary()


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_sequences_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        trees = [random_tree(n, rng) for _ in range(int(rng.integers(1, 3 * n)))]
        matrix_t, sim_t = compare_engines(trees, n)
        assert matrix_t == sim_t

    def test_disagreement_would_raise(self):
        # compare_engines returns cleanly on honest input.
        assert compare_engines([path(4)] * 5, 4) == (3, 3)


class TestRunEngine:
    def test_instrumented_run_matches_plain(self):
        n = 8
        run = run_traced(StaticTreeAdversary(path(n)), n)
        assert run.t_star == n - 1
        assert run.metrics.rounds == n - 1
        assert run.metrics.min_new_edges_per_round >= 1
        assert len(run.trace.rounds) == n - 1

    def test_trace_replays(self):
        run = run_traced(CyclicFamilyAdversary(7), 7, seed=3)
        assert replay_trace(run.trace)

    def test_metrics_shapes_recorded(self):
        run = run_traced(CyclicFamilyAdversary(8), 8)
        assert sum(run.metrics.shape_histogram.values()) == run.t_star

    def test_truncation_with_cap(self):
        run = run_traced(StaticTreeAdversary(path(6)), 6, max_rounds=2)
        assert run.t_star is None
        assert run.trace.t_star is None


def _trace_doc() -> dict:
    """A recorded 4-node static-path trace as a parsed JSON document."""
    return json.loads(run_traced(StaticTreeAdversary(path(4)), 4).trace.to_json())


class TestTraceSerialization:
    def test_json_roundtrip(self):
        run = run_traced(StaticTreeAdversary(path(5)), 5)
        text = run.trace.to_json(indent=2)
        back = Trace.from_json(text)
        assert back.n == 5
        assert back.t_star == run.t_star
        assert [r.parents for r in back.rounds] == [
            r.parents for r in run.trace.rounds
        ]
        assert replay_trace(back)

    def test_save_load(self, tmp_path):
        run = run_traced(StaticTreeAdversary(path(4)), 4)
        p = tmp_path / "trace.json"
        run.trace.save(p)
        assert replay_trace(Trace.load(p))

    def test_bad_json_rejected(self):
        with pytest.raises(TraceError, match="not valid JSON"):
            Trace.from_json("{nope")

    def test_wrong_version_rejected(self):
        with pytest.raises(TraceError, match="version"):
            Trace.from_json('{"format_version": 99, "n": 2}')

    def test_missing_keys_rejected(self):
        with pytest.raises(TraceError, match="missing"):
            Trace.from_json(f'{{"format_version": {TRACE_FORMAT_VERSION}}}')

    @pytest.mark.parametrize("text", ["[]", "3", '"trace"', "null"])
    def test_non_object_document_rejected(self, text):
        with pytest.raises(TraceError, match="JSON object"):
            Trace.from_json(text)

    def test_round_missing_parents_rejected(self):
        doc = _trace_doc()
        del doc["rounds"][1]["parents"]
        with pytest.raises(TraceError, match="round 1 is malformed.*parents"):
            Trace.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "bad_round", [None, [1, 2], {"round_index": "one"}, {"parents": 5}]
    )
    def test_malformed_round_rejected(self, bad_round):
        doc = _trace_doc()
        doc["rounds"][0] = bad_round
        with pytest.raises(TraceError, match="round 0 is malformed"):
            Trace.from_json(json.dumps(doc))

    @pytest.mark.parametrize("n", ["five", None, [5]])
    def test_non_integer_n_rejected(self, n):
        doc = _trace_doc()
        doc["n"] = n
        with pytest.raises(TraceError, match="'n' is not an integer"):
            Trace.from_json(json.dumps(doc))

    def test_rounds_must_be_an_array(self):
        doc = _trace_doc()
        doc["rounds"] = 7
        with pytest.raises(TraceError, match="array"):
            Trace.from_json(json.dumps(doc))

    def test_tampered_trace_fails_replay(self):
        run = run_traced(StaticTreeAdversary(path(4)), 4)
        run.trace.rounds[0] = RoundRecord(
            round_index=1,
            parents=run.trace.rounds[0].parents,
            new_edges=99,
            max_reach=run.trace.rounds[0].max_reach,
            min_reach=run.trace.rounds[0].min_reach,
            broadcaster_count=0,
        )
        with pytest.raises(TraceError, match="new_edges"):
            replay_trace(run.trace)

    def test_recorder_rejects_out_of_order(self):
        rec = TraceRecorder(3, "test")
        record = RoundRecord(2, (0, 0, 1), 1, 2, 1, 0)
        with pytest.raises(TraceError, match="out of order"):
            rec.record_round(record)


def test_metrics_collector_direct():
    collector = MetricsCollector(5)
    record = RoundRecord(1, (0, 0, 1, 2, 3), 4, 2, 1, 0)
    collector.observe_round(record, path(5))
    metrics = collector.finish(t_star=None)
    assert metrics.rounds == 1
    assert metrics.total_new_edges == 4
    assert metrics.shape_histogram == {"path": 1}
