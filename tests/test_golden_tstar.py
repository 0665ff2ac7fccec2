"""Golden regression: exact t* of the paper's named constructions.

``tests/fixtures/golden_tstar.json`` pins the broadcast times measured on
the seed (dense) implementation for the static path (t* = n - 1,
Section 2), the cyclic chain-fan family (the Theorem 3.1 lower-bound
witness, t* = ceil((3n-1)/2) - 2), and the cyclic nonsplit reduction of
[9]/[1].  Both backends must
reproduce every recorded value bit-for-bit; any drift is a correctness
regression, not noise.

The cyclic family is scored from per-round prefix sums
(:func:`repro.adversaries.zeiner._chain_fan_scores`), never by composing a
candidate; larger pools take their squares from GEMMs and build exact
rows only for the winning group
(:func:`repro.adversaries.zeiner._gemm_choice`).
:class:`TestBatchedCyclicScorerDecisions` pins both to the per-candidate
oracle :func:`quadratic_potential_score`: the *full* score vector and the
GEMM squares on random states whose reach sets are not cyclic intervals,
every round of full runs up to n = 64, the last-round fallback, the
earliest-candidate tie-break, and the pool sizes the benchmarks quote.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.adversaries import zeiner
from repro.adversaries.nonsplit import NonsplitAdversary, broadcast_time_nonsplit
from repro.adversaries.paths import StaticPathAdversary
from repro.adversaries.zeiner import CyclicFamilyAdversary, quadratic_potential_score
from repro.analysis.intervals import as_cyclic_interval
from repro.core.backend import get_backend, use_backend
from repro.core.broadcast import run_adversary
from repro.core.state import BroadcastState
from repro.trees.generators import random_tree
from repro.trees.rooted_tree import RootedTree

FIXTURE = Path(__file__).parent / "fixtures" / "golden_tstar.json"
GOLDEN = json.loads(FIXTURE.read_text())

BACKENDS = ["dense", "bitset"]
NS = sorted(int(n) for n in GOLDEN["static_path"])

CONSTRUCTIONS = {
    "static_path": lambda n, backend: run_adversary(
        StaticPathAdversary(n), n, backend=backend
    ).t_star,
    "cyclic_family": lambda n, backend: run_adversary(
        CyclicFamilyAdversary(n), n, backend=backend
    ).t_star,
}


def test_fixture_is_well_formed():
    assert set(GOLDEN) == set(CONSTRUCTIONS) | {"nonsplit_cyclic"}
    for name, values in GOLDEN.items():
        assert sorted(int(n) for n in values) == NS, name


def test_fixture_matches_paper_formulas():
    """The recorded values themselves satisfy the paper's closed forms."""
    for n in NS:
        assert GOLDEN["static_path"][str(n)] == n - 1
        assert GOLDEN["cyclic_family"][str(n)] == math.ceil((3 * n - 1) / 2) - 2


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_constructions_reproduce_golden(backend, name):
    run = CONSTRUCTIONS[name]
    for n in NS:
        assert run(n, backend) == GOLDEN[name][str(n)], (name, n, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_nonsplit_reduction_reproduces_golden(backend):
    with use_backend(backend):
        for n in NS:
            t, state = broadcast_time_nonsplit(
                NonsplitAdversary(n, mode="cyclic"), n
            )
            assert state.backend.name == backend
            assert t == GOLDEN["nonsplit_cyclic"][str(n)], (n, backend)


#: Three random trees at n = 18 after which the max row decides the move.
TIE_TREES_N18 = (
    (5, 7, 12, 6, 0, 15, 6, 14, 12, 7, 2, 3, 11, 3, 6, 11, 10, 13),
    (2, 3, 4, 12, 9, 11, 17, 0, 12, 17, 10, 0, 4, 8, 11, 2, 10, 16),
    (12, 7, 16, 4, 17, 11, 11, 11, 4, 9, 17, 16, 3, 11, 15, 5, 9, 16),
)


def _reference_scores(adv: CyclicFamilyAdversary, state: BroadcastState):
    """Per-candidate oracle scores over the deduplicated pool."""
    reach = state.reach_matrix_view()
    return [
        quadratic_potential_score(reach, parent, state.n)
        for parent in adv._candidate_parent_matrix()
    ]


def _composed_scores(adv: CyclicFamilyAdversary, state: BroadcastState) -> np.ndarray:
    """``(C, 3)`` oracle scores of the pool, composing every candidate.

    The :func:`quadratic_potential_score` formula over rows from the
    bitset backend's batched composition (the fastest one), in blocks of
    512 candidates.
    """
    n, bits = state.n, get_backend("bitset")
    mat = bits.from_dense(state.reach_matrix_view())
    parents = adv._candidate_parent_matrix()
    rows = np.concatenate([
        bits.batch_reach_sizes(bits.batch_compose_from(mat, parents[i : i + 512]))
        for i in range(0, len(parents), 512)
    ]).astype(np.int64)
    return np.stack([(rows == n).sum(axis=1), (rows**2).sum(axis=1), rows.max(axis=1)], 1)


def _reference_next_tree(adv: CyclicFamilyAdversary, state: BroadcastState):
    """The oracle's move: lowest composed score, earliest candidate on ties."""
    scores = _composed_scores(adv, state)
    best = np.lexsort(scores.T[::-1])[0]  # stable: ties keep pool order
    return RootedTree(adv._candidate_parent_matrix()[best].tolist())


def _reference_pool(n: int, m_stride: int) -> np.ndarray:
    """The historical generation loop: distinct candidates in play order."""
    seen, out = set(), []
    for s in range(n):
        for step in (1, -1):
            order = [(s + step * i) % n for i in range(n)]
            chains = [(n - 1, s)] + [
                (m, anchor)
                for m in range(1, n - 1, m_stride)
                for anchor in (s, order[m])
            ]
            for m, anchor in chains:
                parents = [anchor] * n
                parents[s] = s
                for a, b in zip(order[:m], order[1 : m + 1]):
                    parents[b] = a
                if tuple(parents) not in seen:
                    seen.add(tuple(parents))
                    out.append(parents)
    return np.asarray(out)


def _pool_scores(adv: CyclicFamilyAdversary, state: BroadcastState):
    """The prefix-sum scorer's vector over the same deduplicated pool."""
    n, stride = adv._n, adv._m_stride
    first, _ = zeiner._chain_fan_pool(n, stride)
    scores = zeiner._chain_fan_scores(
        zeiner._chain_fan_family(n, stride), state.reach_matrix_view()
    )
    return [tuple(row) for row in scores[first].tolist()]


def _random_prefix_state(n: int, rng: np.random.Generator) -> BroadcastState:
    state = BroadcastState.initial(n)
    for _ in range(int(rng.integers(0, 2 * n))):
        nxt = state.apply_tree(random_tree(n, rng))
        if nxt.is_broadcast_complete():
            break
        state = nxt
    return state


class TestBatchedCyclicScorerDecisions:
    """The prefix-sum scorer equals the per-candidate oracle, score for score."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 17, 33, 64])
    def test_decision_equality_on_random_states(self, backend, n):
        rng = np.random.default_rng(n * 1009)
        trials = 8 if n <= 17 else 2
        non_interval = 0
        with use_backend(backend):
            for stride in (None, 2, 3):
                adv = CyclicFamilyAdversary(n, m_stride=stride)
                for trial in range(trials):
                    state = _random_prefix_state(n, rng)
                    non_interval += any(
                        as_cyclic_interval(state.reach_set(x), n) is None for x in range(n)
                    )
                    case = (backend, n, stride, trial)
                    assert _pool_scores(adv, state) == _reference_scores(adv, state), case
                    chosen = adv.next_tree(state, 1)
                    assert chosen.parents == _reference_next_tree(adv, state).parents, case
        if n >= 4:
            assert non_interval, "no state left the interval structure"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_run_decision_trace(self, backend):
        """Round-by-round: both scorers drive the identical trajectory."""
        with use_backend(backend):
            for n in (10, 24):
                adv = CyclicFamilyAdversary(n)
                state = BroadcastState.initial(n)
                rounds = 0
                while not state.is_broadcast_complete():
                    rounds += 1
                    assert _pool_scores(adv, state) == _reference_scores(adv, state)
                    tree = adv.next_tree(state, rounds)
                    assert tree.parents == _reference_next_tree(adv, state).parents
                    state.apply_tree_inplace(tree)
                assert rounds == GOLDEN["cyclic_family"][str(n)]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 17, 33, 64])
    def test_gemm_squares_match_full_table(self, backend, n):
        """Squares from the GEMMs equal column 1 of the full table, at any n."""
        rng = np.random.default_rng(n * 31)
        with use_backend(backend):
            for stride in (None, 2, 3):
                fam = zeiner._chain_fan_family(n, CyclicFamilyAdversary(n, stride)._m_stride)
                for trial in range(4 if n <= 17 else 2):
                    reach = _random_prefix_state(n, rng).reach_matrix_view()
                    squares = zeiner._gemm_squares(fam, zeiner._prefix_tables(fam, reach))
                    full = zeiner._chain_fan_scores(fam, reach)
                    np.testing.assert_array_equal(squares, full[:, 1])
                    assert zeiner._gemm_choice(fam, reach) == zeiner._full_table_choice(
                        fam, reach
                    ), (backend, n, stride, trial)

    def test_composed_oracle_is_quadratic_potential_score(self):
        """The batched oracle returns the per-candidate score tuples."""
        rng = np.random.default_rng(7)
        for n in (5, 12, 17):
            adv = CyclicFamilyAdversary(n)
            state = _random_prefix_state(n, rng)
            assert [tuple(r) for r in _composed_scores(adv, state).tolist()] == (
                _reference_scores(adv, state)
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_runs_match_oracle_up_to_64(self, backend):
        """Every round of full runs on both scorers (the pool passes 1000 at n = 17)."""
        with use_backend(backend):
            for n in (17, 33, 64):
                adv = CyclicFamilyAdversary(n)
                state = BroadcastState.initial(n)
                while not state.is_broadcast_complete():
                    tree = adv.next_tree(state, state.round_index + 1)
                    assert tree.parents == _reference_next_tree(adv, state).parents, (
                        n, state.round_index
                    )
                    state.apply_tree_inplace(tree)

    def test_max_row_breaks_squares_ties(self):
        """Within the winning squares group the lower max row wins.

        Rare on random states: after these three trees at n = 18 the
        lowest-squares non-finishing candidates have max rows 16 and 15,
        and the earlier one has 16.
        """
        n = 18
        state = BroadcastState.initial(n)
        for parents in TIE_TREES_N18:
            state.apply_tree_inplace(RootedTree(parents))
        adv = CyclicFamilyAdversary(n)
        fam = zeiner._chain_fan_family(n, 1)
        reach = state.reach_matrix_view()
        scores = zeiner._chain_fan_scores(fam, reach)
        by_squares = np.lexsort(scores[:, :2].T[::-1])[0]
        best = zeiner._gemm_choice(fam, reach)
        assert fam.hi.size >= zeiner._FULL_TABLE_POOL
        assert scores[best, 1] == scores[by_squares, 1]
        assert scores[best, 2] < scores[by_squares, 2]
        assert best == zeiner._full_table_choice(fam, reach)
        assert adv.next_tree(state, 1).parents == _reference_next_tree(adv, state).parents

    def test_last_round_falls_back_to_full_table(self, monkeypatch):
        """When every candidate finishes, the full table picks the move."""
        n = 24
        adv = CyclicFamilyAdversary(n)
        fam = zeiner._chain_fan_family(n, 1)
        state = BroadcastState.initial(n)
        for _ in range(GOLDEN["cyclic_family"][str(n)] - 1):
            state.apply_tree_inplace(adv.next_tree(state, 1))
        assert (zeiner._chain_fan_scores(fam, state.reach_matrix_view())[:, 0] > 0).all()
        calls = []
        full_table = zeiner._full_table_choice
        monkeypatch.setattr(
            zeiner, "_full_table_choice", lambda *a: calls.append(a) or full_table(*a)
        )
        tree = adv.next_tree(state, 1)
        assert len(calls) == 1 and fam.hi.size >= zeiner._FULL_TABLE_POOL
        assert tree.parents == _reference_next_tree(adv, state).parents
        assert state.apply_tree(tree).is_broadcast_complete()

    def test_prefilter_empties_minimal_squares_group(self):
        """The lowest squares all fill a largest row; a later group wins.

        From round 22 of 32 at n = 24 the minimal-squares candidates all
        finish a largest row, so the prefilter drops that whole group.
        """
        n = 24
        adv = CyclicFamilyAdversary(n)
        fam = zeiner._chain_fan_family(n, 1)
        state = BroadcastState.initial(n)
        for _ in range(n):
            state.apply_tree_inplace(adv.next_tree(state, 1))
        reach = state.reach_matrix_view()
        tables = zeiner._prefix_tables(fam, reach)
        squares = zeiner._gemm_squares(fam, tables)
        lowest = squares == squares.min()
        assert zeiner._fills_largest_rows(fam, tables)[lowest].all()
        best = zeiner._gemm_choice(fam, reach)
        assert squares[best] > squares.min()
        assert best == zeiner._full_table_choice(fam, reach)
        assert adv.next_tree(state, 1).parents == _reference_next_tree(adv, state).parents

    def test_stride_subsampling_keeps_decisions(self):
        """Strided pools (the large-n config) keep their decisions too.

        Subsampled pools are a legitimately weaker adversary (t* below
        the formula), so the pinned property is decision equality with
        the per-candidate oracle over a full run, not the formula value.
        """
        n, stride = 16, 3
        adv = CyclicFamilyAdversary(n, m_stride=stride)
        state = BroadcastState.initial(n)
        while not state.is_broadcast_complete():
            tree = adv.next_tree(state, state.round_index + 1)
            assert tree.parents == _reference_next_tree(adv, state).parents
            state.apply_tree_inplace(tree)
        assert state.round_index == run_adversary(
            CyclicFamilyAdversary(n, m_stride=stride), n
        ).t_star

    @pytest.mark.parametrize("n, size", [(32, 3808), (48, 8784), (64, 8000)])
    def test_pool_sizes(self, n, size):
        assert len(CyclicFamilyAdversary(n)._candidate_parent_matrix()) == size

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 17, 33])
    def test_pool_matches_generation_loop(self, n):
        """Same candidates in the same order: the tie-break depends on it."""
        for stride in (1, 2, 3):
            pool = CyclicFamilyAdversary(n, m_stride=stride)._candidate_parent_matrix()
            np.testing.assert_array_equal(pool, _reference_pool(n, stride))

    @pytest.mark.parametrize("starts", [1, 5])
    def test_small_score_blocks_keep_earliest_tie(self, monkeypatch, starts):
        """Scoring few start nodes per block changes no score and no tie-break.

        n = 12 splits into blocks of 1 start, or of 5, 5 and 2.  On the
        initial state every rotation of a candidate ties, so the earliest
        candidate must win across blocks.
        """
        n = 12
        adv = CyclicFamilyAdversary(n)
        states = [BroadcastState.initial(n)]
        while not states[-1].is_broadcast_complete():
            states.append(states[-1].apply_tree(adv.next_tree(states[-1], 1)))
        expected = [_pool_scores(adv, state) for state in states]
        per_start = zeiner._chain_fan_family(n, 1).hi[0].size * n
        monkeypatch.setattr(zeiner, "_SCORE_BLOCK", starts * per_start)
        for state, scores in zip(states, expected):
            assert _pool_scores(adv, state) == scores
            tree = adv.next_tree(state, 1)
            assert tree.parents == _reference_next_tree(adv, state).parents
        assert adv.next_tree(states[0], 1).parents == tuple(
            adv._candidate_parent_matrix()[0].tolist()
        )


class TestSquaringReproducesGolden:
    """The repeated-squaring search lands on the same golden t* values.

    The static-path rows of the fixture are reproduced three ways: the
    squaring fast path (the default), the compiled round-by-round loop
    (``use_squaring=False``), and the uncompiled loop
    (``use_compiled=False``) -- all three must agree with the recorded
    ``n - 1`` on both backends, byte-identical final states included.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", NS)
    def test_static_path_squaring_matches_golden(self, backend, n):
        from repro.engine.executor import RunSpec, SequentialExecutor

        golden = GOLDEN["static_path"][str(n)]
        spec = RunSpec(adversary=StaticPathAdversary(n), n=n, backend=backend)
        squared = SequentialExecutor().run(spec)
        looped = SequentialExecutor(use_squaring=False).run(spec)
        uncompiled = SequentialExecutor(use_compiled=False).run(spec)
        assert squared.t_star == looped.t_star == uncompiled.t_star == golden
        assert squared.compiled
        assert squared.final_state.key() == looped.final_state.key()
        assert squared.final_state.key() == uncompiled.final_state.key()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", NS)
    def test_random_static_tree_squaring_vs_loop(self, backend, n):
        from repro.adversaries.oblivious import StaticTreeAdversary
        from repro.engine.executor import RunSpec, SequentialExecutor

        adv = StaticTreeAdversary(random_tree(n, np.random.default_rng(n)))
        spec = RunSpec(adversary=adv, n=n, backend=backend)
        squared = SequentialExecutor().run(spec)
        looped = SequentialExecutor(use_squaring=False).run(spec)
        assert squared.t_star == looped.t_star
        assert squared.broadcasters == looped.broadcasters
        assert squared.final_state.key() == looped.final_state.key()
