"""Executor-equivalence suite for the unified execution layer.

The contract of :mod:`repro.engine.executor` is strict:

* :class:`SequentialExecutor`, :class:`BatchExecutor`, and
  :class:`ShardedExecutor` are **decision-equivalent** -- identical
  ``t_star``, broadcasters, and final product matrices for every
  adversary in the portfolio and the restricted adaptive families, on
  randomized grids, under both backends;
* the compiled parent-schedule fast path is **bit-identical** to the
  per-round :class:`RootedTree` path (the schedules literally are the
  trees' parent rows, and runs driven either way end in the same state);
* the round-cap policy is shared: trivial ``n²`` default raises on
  illegal adversaries, explicit ``max_rounds`` truncates quietly --
  identically on every executor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.base import Adversary, SequenceAdversary
from repro.adversaries.oblivious import RandomTreeAdversary, StaticTreeAdversary
from repro.adversaries.paths import RotatingPathAdversary, StaticPathAdversary
from repro.adversaries.restricted import KInnerAdversary, KLeafAdversary, spider_from_order
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.core.backend import use_backend
from repro.core.bounds import resolve_round_cap, trivial_upper_bound
from repro.core.broadcast import run_adversary, run_sequence
from repro.core.state import BroadcastState
from repro.engine.executor import (
    EXECUTOR_NAMES,
    BatchExecutor,
    RunSpec,
    SequentialExecutor,
    ShardedExecutor,
    get_executor,
)
from repro.errors import AdversaryError, SimulationError
from repro.service.specs import portfolio_handles
from repro.trees.generators import path, star

BACKENDS = ["dense", "bitset"]


def _fresh_portfolio(n: int):
    """Portfolio instances plus the restricted adaptive families."""
    k = max(1, n // 3)
    return [handle(n) for handle in portfolio_handles().values()] + [
        KLeafAdversary(n, k),
        KInnerAdversary(n, k),
    ]


def _report_key(report):
    return (
        report.t_star,
        report.broadcasters,
        report.final_state.key(),
        report.rounds,
    )


class TestRunSpec:
    def test_factory_and_instance_both_work(self):
        seq = SequentialExecutor()
        by_factory = seq.run(RunSpec(adversary=StaticPathAdversary, n=6))
        by_instance = seq.run(RunSpec(adversary=StaticPathAdversary(6), n=6))
        assert _report_key(by_factory) == _report_key(by_instance)
        assert by_factory.t_star == 5

    def test_instances_are_reset(self):
        calls = []

        class Tracking(Adversary):
            def next_tree(self, state, round_index):
                return star(4)

            def reset(self):
                calls.append("reset")

        adv = Tracking()
        SequentialExecutor().run(RunSpec(adversary=adv, n=4))
        SequentialExecutor().run(RunSpec(adversary=adv, n=4))
        assert calls == ["reset", "reset"]

    def test_round_cap_policy_is_shared(self):
        spec = RunSpec(adversary=StaticPathAdversary, n=7)
        assert spec.round_cap() == resolve_round_cap(7) == (49, False)
        capped = RunSpec(adversary=StaticPathAdversary, n=7, max_rounds=3)
        assert capped.round_cap() == (3, True)
        assert resolve_round_cap(7, None)[0] == trivial_upper_bound(7)

    def test_bad_instrumentation_rejected(self):
        with pytest.raises(SimulationError, match="instrumentation"):
            RunSpec(adversary=StaticPathAdversary, n=4, instrumentation="metrics")

    def test_display_name(self):
        assert RunSpec(adversary=StaticPathAdversary, n=4, name="x").display_name() == "x"
        adv = StaticPathAdversary(4)
        assert RunSpec(adversary=adv, n=4).display_name() == adv.name


class TestGetExecutor:
    def test_names_resolve(self):
        for name in EXECUTOR_NAMES:
            assert get_executor(name).name == name

    def test_default_is_sequential(self):
        assert get_executor().name == "sequential"

    def test_instance_passthrough(self):
        ex = BatchExecutor()
        assert get_executor(ex) is ex

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError, match="unknown executor"):
            get_executor("gpu")


class TestExecutorEquivalence:
    """Sequential vs batch vs sharded on the full portfolio, both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_portfolio_identical_across_executors(self, backend, n):
        with use_backend(backend):
            sequential = [
                SequentialExecutor().run(RunSpec(adversary=adv, n=n))
                for adv in _fresh_portfolio(n)
            ]
            batched = BatchExecutor().run_many(
                [RunSpec(adversary=adv, n=n) for adv in _fresh_portfolio(n)]
            )
            inline_sharded = ShardedExecutor(workers=1).run_many(
                [RunSpec(adversary=adv, n=n) for adv in _fresh_portfolio(n)]
            )
        for seq, bat, shd in zip(sequential, batched, inline_sharded):
            assert _report_key(seq) == _report_key(bat) == _report_key(shd)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_randomized_grid_sequential_vs_batch(self, backend):
        gen = np.random.default_rng(7)
        specs, oracle = [], []
        with use_backend(backend):
            for _ in range(12):
                n = int(gen.integers(2, 14))
                seed = int(gen.integers(0, 1000))
                adv = RandomTreeAdversary(n, seed=seed)
                specs.append(RunSpec(adversary=adv, n=n, seed=seed))
                oracle.append(
                    SequentialExecutor().run(RunSpec(adversary=adv, n=n, seed=seed))
                )
            batched = BatchExecutor().run_many(specs)
        for want, got in zip(oracle, batched):
            assert _report_key(want) == _report_key(got)

    def test_spawned_sharded_matches_sequential(self):
        # Real worker processes (spawn) on a small mixed-n grid.
        factories = portfolio_handles()
        specs = [
            RunSpec(adversary=factory, n=n, name=name)
            for n in (6, 9)
            for name, factory in factories.items()
        ]
        sequential = SequentialExecutor().run_many(specs)
        sharded = ShardedExecutor(workers=2).run_many(specs)
        assert len(sharded) == len(specs)
        for want, got in zip(sequential, sharded):
            assert _report_key(want) == _report_key(got)

    @pytest.mark.parametrize("engine", ["sequential", "batch", "sharded"])
    def test_sweep_identical_across_engines(self, engine):
        factories = portfolio_handles()
        want = SequentialExecutor().sweep(factories, [6, 8])
        got = get_executor(engine).sweep(factories, [6, 8])
        assert got == want
        # Serialized tables are byte-identical (the CI smoke job diffs them).
        assert got.to_json() == want.to_json()


class TestCompiledSchedules:
    """The compiled fast path must be bit-identical to the tree path."""

    COMPILABLE = [
        lambda n: StaticPathAdversary(n),
        lambda n: StaticTreeAdversary(star(n)),
        lambda n: RotatingPathAdversary(n, shift=3),
        lambda n: SequenceAdversary([path(n), path(n), star(n)], after="repeat"),
        lambda n: RotatingPathAdversary(n, shift=1),
        lambda n: RotatingPathAdversary(n, shift=2),
        lambda n: RotatingPathAdversary(n, shift=0),
        lambda n: SequenceAdversary([path(n), star(n)], after="repeat"),
        lambda n: SequenceAdversary([star(n), path(n)], after="repeat"),
        lambda n: SequenceAdversary([path(n)] * 3, after="hold"),
    ]

    @pytest.mark.parametrize("make", COMPILABLE)
    @pytest.mark.parametrize("n", [2, 6, 11])
    def test_schedule_rows_equal_next_tree_rows(self, make, n):
        adv = make(n)
        rounds = 2 * n + 3
        schedule = adv.compile_schedule(n, rounds)
        assert schedule is not None and schedule.shape == (rounds, n)
        state = BroadcastState.initial(n)  # ignored by oblivious strategies
        for t in range(1, rounds + 1):
            expected = adv.next_tree(state, t).parent_array_numpy()
            assert (schedule[t - 1] == expected).all(), f"round {t} differs"

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("make", COMPILABLE)
    def test_compiled_run_bit_identical(self, backend, make):
        n = 9
        with use_backend(backend):
            compiled = SequentialExecutor().run(RunSpec(adversary=make(n), n=n))
            plain = SequentialExecutor(use_compiled=False).run(
                RunSpec(adversary=make(n), n=n)
            )
        assert compiled.compiled and not plain.compiled
        assert compiled.t_star == plain.t_star
        assert compiled.broadcasters == plain.broadcasters
        assert compiled.final_state.key() == plain.final_state.key()

    def test_next_parents_override_drives_the_hot_loop(self):
        # An adaptive adversary emitting raw parent rows: executors must
        # call the override (skipping RootedTree construction) and match
        # the equivalent tree-returning twin bit-for-bit.
        calls = []

        class RowSpider(Adversary):
            """KLeafAdversary with k = 2, but emitting rows directly."""

            def next_tree(self, state, round_index):
                return spider_from_order(self._order(state).tolist(), 2)

            def next_parents(self, state, round_index):
                calls.append(round_index)
                order = self._order(state)
                # Two legs: the j-th node of the order hangs off the
                # (j - 2)-th, or off the center (j = 0) while the legs start.
                row = np.empty(state.n, dtype=np.int64)
                row[order] = order[np.maximum(np.arange(state.n) - 2, 0)]
                return row

            @staticmethod
            def _order(state):
                rows, cols = state.reach_sizes(), state.heard_of_sizes()
                center = min(range(state.n), key=lambda v: (cols[v], rows[v], v))
                rest = sorted(
                    (v for v in range(state.n) if v != center),
                    key=lambda v: (rows[v], v),
                )
                return np.array([center] + rest, dtype=np.int64)

        n = 9
        for executor in (SequentialExecutor(), BatchExecutor()):
            calls.clear()
            via_rows = executor.run(RunSpec(adversary=RowSpider(), n=n))
            assert calls, f"{executor.name} never called next_parents"
            oracle = SequentialExecutor().run(RunSpec(adversary=KLeafAdversary(n, 2), n=n))
            assert via_rows.t_star == oracle.t_star
            assert via_rows.final_state.key() == oracle.final_state.key()

    def test_next_parents_bad_shape_rejected(self):
        class BadRows(Adversary):
            def next_tree(self, state, round_index):
                return path(state.n)

            def next_parents(self, state, round_index):
                return np.zeros(3, dtype=np.int64)

        with pytest.raises(AdversaryError, match="parent row"):
            SequentialExecutor().run(RunSpec(adversary=BadRows(), n=6))

    def test_default_next_parents_routes_through_next_tree(self):
        adv = KLeafAdversary(6, 2)
        state = BroadcastState.initial(6)
        row = adv.next_parents(state, 1)
        assert (row == adv.next_tree(state, 1).parent_array_numpy()).all()

    def test_adaptive_adversaries_do_not_compile(self):
        report = SequentialExecutor().run(
            RunSpec(adversary=KLeafAdversary(8, 2), n=8)
        )
        assert not report.compiled
        assert KLeafAdversary(8, 2).compile_schedule(8, 4) is None
        assert CyclicFamilyAdversary(8).compile_schedule(8, 4) is None

    def test_instrumented_runs_skip_the_fast_path(self):
        report = SequentialExecutor().run(
            RunSpec(adversary=StaticPathAdversary(6), n=6, instrumentation="trace")
        )
        assert not report.compiled
        assert report.trace is not None and report.metrics is not None

    def test_error_sequences_fall_back_and_still_raise(self):
        # after='error' stops compiling past the sequence; driving past the
        # end must raise exactly like the uncompiled path.
        adv = SequenceAdversary([path(6)] * 2, after="error")
        with pytest.raises(AdversaryError, match="exhausted"):
            SequentialExecutor().run(RunSpec(adversary=adv, n=6))

    def test_long_repeat_sequence_compiles_and_matches(self):
        n = 4
        trees = [path(n), star(n)] * 20
        adv = SequenceAdversary(trees, after="repeat")
        compiled = SequentialExecutor().run(RunSpec(adversary=adv, n=n))
        plain = SequentialExecutor(use_compiled=False).run(RunSpec(adversary=adv, n=n))
        assert compiled.compiled
        assert compiled.t_star == plain.t_star

    def test_cursor_horizon_doubles_up_to_the_cap(self):
        # Legal adversaries finish inside the initial horizon (2n + 2
        # covers every known construction), so exercise the doubling path
        # directly: rounds past the horizon must recompile, rounds past
        # the cap must hand control back to the generic loop.
        from repro.engine.executor import _ScheduleCursor

        n = 6
        adv = SequenceAdversary([path(n), star(n)] * 30, after="repeat")
        cursor = _ScheduleCursor.try_compile(adv, n, cap=36)
        assert cursor is not None  # initial horizon: min(36, 16) = 16
        state = BroadcastState.initial(n)
        for t in (1, 17, 33, 36):  # crosses 16 -> 32 -> 36 (cap-clamped)
            expected = adv.next_tree(state, t).parent_array_numpy()
            assert (cursor.row(t) == expected).all()
        assert cursor.row(37) is None  # past the cap: fall back


class TestCapPolicyAcrossExecutors:
    @pytest.mark.parametrize("engine", ["sequential", "batch", "sharded"])
    def test_explicit_cap_truncates_quietly(self, engine):
        executor = get_executor(engine, workers=1)
        report = executor.run(
            RunSpec(adversary=StaticPathAdversary(8), n=8, max_rounds=3)
        )
        assert report.t_star is None
        assert not report.completed
        assert report.broadcasters == ()
        assert report.rounds == 3

    def test_implicit_cap_is_the_trivial_bound(self):
        # Legal rooted trees always add an edge, so the implicit cap is
        # unreachable in honest runs; the policy still pins it to n².
        cap, explicit = resolve_round_cap(4)
        assert (cap, explicit) == (16, False)

    @pytest.mark.parametrize("engine", ["sequential", "batch"])
    def test_illegal_adversary_raises_adversary_error(self, engine):
        class WrongSize(Adversary):
            def next_tree(self, state, round_index):
                return path(3)

        with pytest.raises(AdversaryError, match="over 3 nodes"):
            get_executor(engine).run(RunSpec(adversary=WrongSize(), n=5))

    @pytest.mark.parametrize("engine", ["sequential", "batch"])
    def test_non_tree_rejected(self, engine):
        class NotATree(Adversary):
            def next_tree(self, state, round_index):
                return "oops"

        with pytest.raises(AdversaryError, match="RootedTree"):
            get_executor(engine).run(RunSpec(adversary=NotATree(), n=4))


class TestRunReport:
    def test_report_fields_and_helpers(self):
        report = SequentialExecutor().run(
            RunSpec(adversary=StaticPathAdversary(6), n=6, seed=11)
        )
        assert report.completed
        assert report.t_star == 5
        assert report.rounds == 5
        assert report.seed == 11
        assert report.executor == "sequential"
        result = report.to_broadcast_result()
        assert result.t_star == 5 and result.n == 6

    def test_history_level_matches_run_adversary(self):
        adv = RandomTreeAdversary(7, seed=3)
        report = SequentialExecutor().run(
            RunSpec(adversary=adv, n=7, instrumentation="history", keep_trees=True)
        )
        legacy = run_sequence(report.trees, keep_history=True)
        assert report.t_star == legacy.t_star
        assert report.t_star == run_adversary(RandomTreeAdversary(7, seed=3), 7).t_star
        assert report.trees == legacy.trees
        assert [h.new_edges for h in report.history] == [
            h.new_edges for h in legacy.history
        ]

    def test_trace_level_produces_replayable_trace(self):
        from helpers import replay_trace

        report = SequentialExecutor().run(
            RunSpec(adversary=CyclicFamilyAdversary(7), n=7, instrumentation="trace")
        )
        assert replay_trace(report.trace)
        assert report.metrics.t_star == report.t_star
