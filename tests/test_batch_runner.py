"""BatchRunner: batched runs must agree element-wise with sequential runs.

Covers explicit sequences (ragged, B=1, n=1), adaptive adversaries
(the restricted k-leaf/k-inner families included), multi-seed sweeps, truncation semantics,
and the stacked-tensor bookkeeping itself -- on both backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.oblivious import RandomTreeAdversary
from repro.adversaries.paths import StaticPathAdversary
from repro.adversaries.restricted import KInnerAdversary, KLeafAdversary
from repro.core.broadcast import run_adversary, run_sequence
from repro.engine.batch import BatchRunner, run_sequences_batch
from repro.engine.executor import BatchExecutor, RunSpec
from repro.errors import AdversaryError, DimensionMismatchError, SimulationError
from repro.trees.generators import path, random_tree
from repro.trees.rooted_tree import RootedTree

BACKENDS = ["dense", "bitset"]


def _run_batch(adversaries, n, **kwargs):
    """Drive ``adversaries`` over the same ``n`` in one lockstep batch."""
    specs = [RunSpec(adversary=adv, n=n, **kwargs) for adv in adversaries]
    return BatchExecutor().run_many(specs)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_sequences_batch_matches_sequential(backend, n):
    rng = np.random.default_rng(n)
    seqs = [
        [random_tree(n, rng) for _ in range(int(rng.integers(0, 3 * n + 1)))]
        for _ in range(9)
    ]
    got = run_sequences_batch(seqs, n=n, backend=backend)
    want = [run_sequence(s, n=n).t_star for s in seqs]
    assert got == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_of_one(backend):
    """B=1 degenerates to a plain sequential run."""
    n = 6
    seq = [path(n)] * (n - 1)
    assert run_sequences_batch([seq], n=n, backend=backend) == [n - 1]
    runner = BatchRunner(n, 1, backend=backend)
    for tree in seq:
        runner.step([tree])
    assert runner.t_star(0) == n - 1
    assert runner.broadcasters(0) == (0,)


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_node_universe(backend):
    """n=1: the identity already broadcasts; semantics match run_sequence."""
    tree = RootedTree([0])
    assert run_sequences_batch([[tree]], n=1, backend=backend) == [
        run_sequence([tree], n=1).t_star
    ]
    assert run_sequences_batch([[]], n=1, backend=backend) == [
        run_sequence([], n=1).t_star
    ]
    runner = BatchRunner(1, 3, backend=backend)
    assert runner.all_complete
    assert runner.t_stars() == [0, 0, 0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_ragged_padding_is_noop(backend):
    """Short sequences are padded with no-op rounds that change nothing."""
    n = 5
    long = [path(n)] * (n - 1)
    short = [path(n)]
    got = run_sequences_batch([long, short, []], n=n, backend=backend)
    assert got == [n - 1, None, None]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "factory",
    [
        lambda n, s: RandomTreeAdversary(n, seed=s),
        lambda n, s: KLeafAdversary(n, k=s + 1),
        lambda n, s: KInnerAdversary(n, k=s + 1),
    ],
    ids=["random", "k-leaf", "k-inner"],
)
def test_adversaries_batch_matches_sequential(backend, factory):
    """Adaptive batched runs agree run-by-run with sequential drivers."""
    n = 7
    advs_batch = [factory(n, s) for s in range(4)]
    advs_seq = [factory(n, s) for s in range(4)]
    batched = _run_batch(advs_batch, n, backend=backend)
    for b, adv in enumerate(advs_seq):
        ref = run_adversary(adv, n, backend=backend)
        assert batched[b].t_star == ref.t_star
        assert batched[b].broadcasters == ref.broadcasters
        assert batched[b].final_state == ref.final_state


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_multi_seed(backend):
    n = 6
    results = _run_batch(
        [RandomTreeAdversary(n, seed=s) for s in [0, 1, 2]], n, backend=backend
    )
    for s, res in zip([0, 1, 2], results):
        ref = run_adversary(RandomTreeAdversary(n, seed=s), n, backend=backend)
        assert res.t_star == ref.t_star


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_rounds_truncation(backend):
    """An explicit cap yields t_star=None for unfinished runs, no raise."""
    n = 8
    results = _run_batch(
        [StaticPathAdversary(n), StaticPathAdversary(n)],
        n,
        max_rounds=2,
        backend=backend,
    )
    assert [r.t_star for r in results] == [None, None]
    assert all(r.broadcasters == () for r in results)
    assert all(r.final_state.round_index == 2 for r in results)


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_completion_keeps_matrices_frozen(backend):
    """A finished run's matrix must not change while others continue."""
    n = 5
    runner = BatchRunner(n, 2, backend=backend)
    star_seq = [RootedTree([0] * n)]  # star: completes in one round
    long_seq = [path(n)] * (n - 1)
    runner.step([star_seq[0], long_seq[0]])
    assert runner.t_star(0) == 1 and runner.t_star(1) is None
    frozen = runner.state(0).reach_matrix
    for tree in long_seq[1:]:
        runner.step([None, tree])
    assert runner.t_star(0) == 1
    assert (runner.state(0).reach_matrix == frozen).all()
    assert runner.t_star(1) == n - 1
    assert runner.all_complete


@pytest.mark.parametrize("backend", BACKENDS)
def test_state_copy_and_view(backend):
    n = 6
    runner = BatchRunner(n, 2, backend=backend)
    runner.step([path(n), path(n)])
    copy = runner.state(0)
    view = runner.state_view(0)
    assert copy == view.copy()
    runner.step([path(n), path(n)])
    # The copy is independent of subsequent steps; the view tracks them.
    assert copy.edge_count() < runner.state(0).edge_count()
    assert runner.state_view(0).edge_count() == runner.state(0).edge_count()


def test_empty_batch_returns_empty():
    """No adversaries degenerates to [] like the sequential loop."""
    assert _run_batch([], 5) == []


def test_wrong_sized_tree_raises_adversary_error():
    """The batched driver mirrors run_adversary's error type."""

    class WrongSize:
        name = "wrong-size"

        def reset(self):
            pass

        def next_tree(self, state, round_index):
            return path(state.n + 1)

    with pytest.raises(AdversaryError, match="tree over 6 nodes in a game over 5"):
        _run_batch([WrongSize()], 5)


def test_invalid_arguments():
    with pytest.raises(SimulationError):
        BatchRunner(4, 0)
    runner = BatchRunner(4, 2)
    with pytest.raises(DimensionMismatchError):
        runner.step([path(4)])  # wrong batch size
    with pytest.raises(DimensionMismatchError):
        runner.step([path(4), path(5)])  # wrong tree size
    with pytest.raises(DimensionMismatchError):
        runner.step_parents(np.zeros((2, 5), dtype=np.int64))
    assert run_sequences_batch([], n=4) == []
    with pytest.raises(SimulationError):
        run_sequences_batch([[], []])  # n unknown
