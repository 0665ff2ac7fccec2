"""Replaying recorded traces through ``SequenceAdversary``, both backends.

A :class:`~repro.engine.trace.Trace` is a complete run record; feeding its
trees back through a :class:`~repro.adversaries.base.SequenceAdversary`
must reproduce the run exactly -- same ``t*``, same per-round edge counts
-- on every backend and on every executor.  This closes the loop between
the trace subsystem, the adversary layer, and the unified execution layer
(a recorded trace is itself a compiled-schedule-eligible adversary).
"""

from __future__ import annotations

import pytest

from repro.adversaries.base import SequenceAdversary
from repro.adversaries.oblivious import RandomTreeAdversary
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.core.backend import use_backend
from repro.core.broadcast import run_adversary
from repro.engine.executor import BatchExecutor, RunSpec, SequentialExecutor
from repro.engine.trace import Trace

from helpers import replay_trace, run_traced

BACKENDS = ["dense", "bitset"]


def _recorded_trace(make_adversary, n: int) -> Trace:
    run = run_traced(make_adversary(n), n, seed=0)
    assert run.t_star is not None
    return run.trace


ADVERSARIES = [
    ("cyclic", CyclicFamilyAdversary, 8),
    ("random", lambda n: RandomTreeAdversary(n, seed=5), 9),
]


class TestTraceThroughSequenceAdversary:
    @pytest.mark.parametrize("label,factory,n", ADVERSARIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_reproduces_t_star_and_edge_counts(self, label, factory, n, backend):
        trace = _recorded_trace(factory, n)
        replayer = SequenceAdversary(trace.trees(), after="error")
        with use_backend(backend):
            result = run_adversary(replayer, n, keep_history=True)
        assert result.t_star == trace.t_star
        assert [h.new_edges for h in result.history] == [
            r.new_edges for r in trace.rounds
        ]
        assert [h.broadcaster_count for h in result.history] == [
            r.broadcaster_count for r in trace.rounds
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_is_compiled_schedule_eligible(self, backend):
        # The compiled fast path must reproduce the recorded t* too (the
        # error-mode sequence refuses to compile past its end, so this
        # also covers the horizon-refusal path when t* is near 2n + 2).
        trace = _recorded_trace(CyclicFamilyAdversary, 8)
        with use_backend(backend):
            report = SequentialExecutor().run(
                RunSpec(adversary=SequenceAdversary(trace.trees(), after="hold"), n=8)
            )
        assert report.t_star == trace.t_star

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_matches_across_executors(self, backend):
        trace = _recorded_trace(CyclicFamilyAdversary, 8)
        spec = RunSpec(
            adversary=SequenceAdversary(trace.trees(), after="hold"), n=8
        )
        with use_backend(backend):
            sequential = SequentialExecutor().run(spec)
            batched = BatchExecutor().run(spec)
        assert sequential.t_star == batched.t_star == trace.t_star
        assert sequential.final_state.key() == batched.final_state.key()

    def test_round_trip_through_json_still_replays(self):
        trace = _recorded_trace(CyclicFamilyAdversary, 7)
        back = Trace.from_json(trace.to_json())
        assert replay_trace(back)
        replayer = SequenceAdversary(back.trees(), after="error")
        assert run_adversary(replayer, 7).t_star == trace.t_star
