"""Non-fixture helpers shared across test modules."""

from __future__ import annotations

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
from repro.core.state import BroadcastState
from repro.engine.executor import RunReport, RunSpec, SequentialExecutor
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
