"""Non-fixture helpers shared across test modules."""

from __future__ import annotations

import sys
from typing import List

import numpy as np

from repro.adversaries.beam import BeamSearchAdversary
from repro.adversaries.greedy import GreedyDelayAdversary
from repro.adversaries.oblivious import RandomTreeAdversary
from repro.adversaries.paths import (
    AlternatingPathAdversary,
    RotatingPathAdversary,
    SortedPathAdversary,
    StaticPathAdversary,
    TwoPhaseFlipAdversary,
)
from repro.adversaries.zeiner import (
    CyclicFamilyAdversary,
    RunnerAdversary,
    ZeinerStyleAdversary,
)
from repro.core.broadcast import BroadcastResult, run_sequence
from repro.core.state import BroadcastState
from repro.engine.executor import RunReport, RunSpec, SequentialExecutor
from repro.engine.trace import Trace
from repro.errors import TraceError
from repro.service import specs, tasks
from repro.trees.generators import random_tree


def make_random_state(n: int, rounds: int, seed: int) -> BroadcastState:
    """A reproducible mid-game state after ``rounds`` random rounds."""
    gen = np.random.default_rng(seed)
    state = BroadcastState.initial(n)
    for _ in range(rounds):
        state.apply_tree_inplace(random_tree(n, gen))
    return state


def make_unfinished_state(n: int, seed: int, max_rounds: int = 6) -> BroadcastState:
    """A random state guaranteed not to be broadcast-complete."""
    gen = np.random.default_rng(seed)
    state = BroadcastState.initial(n)
    for _ in range(max_rounds):
        nxt = state.apply_tree(random_tree(n, gen))
        if nxt.is_broadcast_complete():
            break
        state = nxt
    return state


def run_traced(adversary, n: int, **kwargs) -> RunReport:
    """One sequential run with a replayable trace and per-round metrics."""
    spec = RunSpec(adversary=adversary, n=n, instrumentation="trace", **kwargs)
    return SequentialExecutor().run(spec)


def run_with(adversary, n: int, **options) -> BroadcastResult:
    """One sequential run with ``RunSpec`` options (``keep_trees``,
    ``max_rounds``, ``instrumentation``...), as a ``BroadcastResult``."""
    spec = RunSpec(adversary=adversary, n=n, **options)
    return SequentialExecutor().run(spec).to_broadcast_result()


def replay_trace(trace: Trace) -> bool:
    """Re-execute a trace on the plain engine and verify every recorded
    statistic (an oracle independent of the recorder).

    Returns True on success; raises :class:`TraceError` on the first
    mismatch (with a message naming the round and the field).
    """
    trees = trace.trees()
    result = run_sequence(
        trees, n=trace.n, keep_history=True, stop_at_broadcast=False
    )
    if result.t_star != trace.t_star:
        raise TraceError(
            f"replay t*={result.t_star} does not match recorded {trace.t_star}"
        )
    if len(result.history) != len(trace.rounds):
        raise TraceError(
            f"replay produced {len(result.history)} rounds, "
            f"trace has {len(trace.rounds)}"
        )
    for snap, rec in zip(result.history, trace.rounds):
        for name, got, want in (
            ("new_edges", snap.new_edges, rec.new_edges),
            ("max_reach", snap.max_reach, rec.max_reach),
            ("min_reach", snap.min_reach, rec.min_reach),
            ("broadcaster_count", snap.broadcaster_count, rec.broadcaster_count),
        ):
            if got != want:
                raise TraceError(
                    f"round {rec.round_index}: {name} mismatch "
                    f"(replay {got}, recorded {want})"
                )
    return True


def portfolio_rows(handles, n: int = 6):
    """``(label, adversary class, params)`` for each portfolio handle, in order."""
    return [(label, type(handle(n)), handle.params) for label, handle in handles.items()]


def expected_portfolio(include_search: bool = True):
    """The standard sweep portfolio, written out: ``(label, class, params)``."""
    rows = [
        ("StaticPath", StaticPathAdversary, {}),
        ("AlternatingPath", AlternatingPathAdversary, {"period": 1}),
        ("RotatingPath", RotatingPathAdversary, {"shift": 1}),
        ("SortedPath[asc]", SortedPathAdversary, {"ascending": True, "tie_break": "index"}),
        ("SortedPath[desc]", SortedPathAdversary, {"ascending": False, "tie_break": "index"}),
        ("TwoPhaseFlip", TwoPhaseFlipAdversary, {"alpha": 0.5, "ascending": True}),
        ("ZeinerStyle", ZeinerStyleAdversary, {"phase1_rounds": None}),
        ("Runner", RunnerAdversary, {}),
        ("CyclicFamily", CyclicFamilyAdversary, {"m_stride": None}),
        ("RandomTree", RandomTreeAdversary, {}),
    ]
    if include_search:
        rows += [
            ("GreedyDelay", GreedyDelayAdversary, {}),
            ("BeamSearch", BeamSearchAdversary, {"depth": 2, "width": 6}),
        ]
    return rows


def count_calls(monkeypatch, module, name: str) -> List[int]:
    """Count calls to ``module.name`` wherever a module binds it by name."""
    original = getattr(module, name)
    calls: List[int] = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def unregister_adversary(name: str) -> None:
    """Drop an adversary family a test registered."""
    specs._REGISTRY.pop(name, None)


def unregister_task_kind(name: str) -> None:
    """Drop a task kind a test registered."""
    tasks._KINDS.pop(name, None)
