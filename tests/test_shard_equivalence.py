"""Sharded sweeps must be bit-identical to sequential, any worker count.

The contract of :class:`repro.engine.executor.ShardedExecutor` is strict:
partitioning a sweep grid or a spec list over a ``spawn`` process pool is
a pure scheduling decision -- every :class:`SweepPoint` and every run
report (t*, broadcasters, final matrix) must equal the sequential path
element-wise for worker counts {1, 2, 7}, including uneven shards (grid
size not divisible by the worker count), B=1 shards, and the n=1
degenerate game.  Worker processes are real (spawned), so these tests
also pin spawn-safety of the payloads and backend-name propagation
across the process boundary.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import pytest

from repro.adversaries.oblivious import RandomTreeAdversary
from repro.adversaries.paths import StaticPathAdversary
from repro.core.backend import use_backend
from repro.engine.executor import (
    BatchExecutor,
    RunSpec,
    SequentialExecutor,
    ShardedExecutor,
    get_executor,
)
from repro.engine.shard import split_shards
from repro.errors import SimulationError
from repro.service.specs import portfolio_handles

from helpers import expected_portfolio, portfolio_rows

SRC = Path(__file__).resolve().parent.parent / "src"

#: Worker counts exercised everywhere: inline, even split, more workers
#: than some shards can fill (uneven shards).
WORKER_COUNTS = [1, 2, 7]

#: A cheap deterministic + seeded-random factory mix (all picklable).
FACTORIES = {
    "StaticPath": StaticPathAdversary,
    "RandomTree": partial(RandomTreeAdversary, seed=0),
}


def _states_equal(a, b) -> bool:
    return (
        a.t_star == b.t_star
        and a.broadcasters == b.broadcasters
        and a.final_state == b.final_state
    )


def _multi_seed_specs(factory, n, seeds, backend=None):
    return [RunSpec(adversary=factory(seed), n=n, backend=backend) for seed in seeds]


class TestSplitShards:
    def test_balanced_contiguous(self):
        assert split_shards(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]

    def test_more_shards_than_items(self):
        assert split_shards([1, 2], 7) == [[1], [2]]

    def test_empty(self):
        assert split_shards([], 4) == []

    def test_concatenation_preserves_order(self):
        items = list(range(23))
        for shards in (1, 2, 5, 7, 23, 40):
            parts = split_shards(items, shards)
            assert [x for part in parts for x in part] == items


class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def sequential(self):
        return SequentialExecutor().sweep(FACTORIES, [1, 4, 5, 6, 8])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_sweep(self, workers, sequential):
        executor = ShardedExecutor(workers=workers)
        assert executor.sweep(FACTORIES, [1, 4, 5, 6, 8]) == sequential

    def test_uneven_grid_seven_workers(self):
        # 5 grid points over 7 workers: five B=1 shards, two empty (dropped).
        facs = {"StaticPath": StaticPathAdversary}
        ns = [2, 3, 4, 5, 6]
        seq = SequentialExecutor().sweep(facs, ns)
        assert ShardedExecutor(workers=7).sweep(facs, ns) == seq

    def test_single_point_grid(self):
        # B=1 total: degenerates to the inline path but must still agree.
        facs = {"StaticPath": StaticPathAdversary}
        seq = SequentialExecutor().sweep(facs, [6])
        for workers in WORKER_COUNTS:
            assert ShardedExecutor(workers=workers).sweep(facs, [6]) == seq

    def test_n_equals_one(self):
        # The degenerate game is complete at round 0 before any tree.
        facs = {"StaticPath": StaticPathAdversary}
        seq = SequentialExecutor().sweep(facs, [1, 2])
        assert seq.points[0].t_star == 0
        assert ShardedExecutor(workers=2).sweep(facs, [1, 2]) == seq

    def test_empty_grid(self):
        executor = ShardedExecutor(workers=2)
        assert executor.sweep(FACTORIES, []) == SequentialExecutor().sweep(FACTORIES, [])
        assert executor.sweep({}, [4, 5]).points == []

    def test_max_rounds_truncation_matches(self):
        # Truncated points are dropped identically on both paths.
        seq = SequentialExecutor().sweep(FACTORIES, [4, 8], max_rounds=5)
        sharded = ShardedExecutor(workers=2).sweep(FACTORIES, [4, 8], max_rounds=5)
        assert sharded == seq

    def test_sweep_adversaries_workers_kwarg(self):
        # The ``--workers`` path of the CLI: a sharded executor resolved
        # by name with a worker count sweeps like the sequential one.
        seq = SequentialExecutor().sweep(FACTORIES, [4, 6])
        assert get_executor("sharded", workers=2).sweep(FACTORIES, [4, 6]) == seq

    def test_sweep_n_sharded(self):
        got = ShardedExecutor(workers=2).sweep({"sp": StaticPathAdversary}, [2, 4, 6])
        assert [(p.adversary, p.n, p.t_star) for p in got.points] == [
            ("sp", 2, 1),
            ("sp", 4, 3),
            ("sp", 6, 5),
        ]


class TestMultiSeedEquivalence:
    SEEDS = [3, 1, 4, 1, 5, 9, 2, 6]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_results(self, workers):
        factory = partial(RandomTreeAdversary, 9)
        seq = BatchExecutor().run_many(_multi_seed_specs(factory, 9, self.SEEDS))
        got = ShardedExecutor(workers=workers).run_many(
            _multi_seed_specs(factory, 9, self.SEEDS)
        )
        assert len(got) == len(seq)
        assert all(_states_equal(a, b) for a, b in zip(seq, got))

    def test_single_seed(self):
        factory = partial(RandomTreeAdversary, 7)
        seq = BatchExecutor().run_many(_multi_seed_specs(factory, 7, [42]))
        got = ShardedExecutor(workers=2).run_many(_multi_seed_specs(factory, 7, [42]))
        assert _states_equal(seq[0], got[0])

    def test_empty_seeds(self):
        assert ShardedExecutor(workers=2).run_many([]) == []

    def test_backend_propagates_to_workers(self):
        factory = partial(RandomTreeAdversary, 8)
        with use_backend("bitset"):
            got = ShardedExecutor(workers=2).run_many(
                _multi_seed_specs(factory, 8, self.SEEDS[:4])
            )
        seq = BatchExecutor().run_many(
            _multi_seed_specs(factory, 8, self.SEEDS[:4], backend="bitset")
        )
        assert all(g.final_state.backend.name == "bitset" for g in got)
        assert all(_states_equal(a, b) for a, b in zip(seq, got))


class TestValidationAndSafety:
    def test_workers_must_be_positive(self):
        with pytest.raises(SimulationError, match="workers"):
            ShardedExecutor(workers=0)

    def test_unpicklable_factory_fails_loudly(self):
        executor = ShardedExecutor(workers=2)
        facs = {"lambda": lambda n: StaticPathAdversary(n)}
        with pytest.raises(SimulationError, match="picklable"):
            executor.sweep(facs, [4, 5])

    def test_unpicklable_factory_fine_inline(self):
        # workers=1 never crosses a process boundary; closures are allowed.
        executor = ShardedExecutor(workers=1)
        got = executor.sweep({"lambda": lambda n: StaticPathAdversary(n)}, [4, 5])
        assert [p.t_star for p in got.points] == [3, 4]

    def test_workers_that_cannot_start_raise_not_hang(self):
        # Spawned workers re-import __main__; read from stdin, it cannot be
        # imported, so every worker dies at start-up.  The call must fail
        # with a SimulationError instead of respawning workers forever.
        script = textwrap.dedent(
            """
            from repro.adversaries.paths import StaticPathAdversary
            from repro.engine.executor import RunSpec, ShardedExecutor

            def factory(n):
                return StaticPathAdversary(n)

            specs = [RunSpec(adversary=factory, n=n) for n in (4, 5, 6, 7)]
            ShardedExecutor(workers=2).run_many(specs)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-"],
            input=script,
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "SimulationError" in proc.stderr
        assert "importable" in proc.stderr

    def test_default_factories_are_picklable(self):
        for label, handle in portfolio_handles().items():
            clone = pickle.loads(pickle.dumps(handle))
            assert clone.label == label
            assert clone(6).name == handle(6).name

    def test_default_factories_mirror_portfolio(self):
        handles = portfolio_handles()
        assert portfolio_rows(handles) == expected_portfolio()
