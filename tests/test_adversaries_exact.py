"""Tests for the exact game solver -- certifies t*(T_n) for small n."""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.adversaries import exact
from repro.adversaries.exact import (
    ExactGameSolver,
    _minimal_antichain,
    _subseteq,
    exact_broadcast_time,
)
from repro.core.bounds import lower_bound, upper_bound
from repro.core.broadcast import run_sequence
from repro.errors import SearchBudgetExceeded
from repro.trees.enumerate import all_parent_arrays


class TestExactValues:
    """The reproduction's ground truth for small n."""

    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 4), (5, 5)])
    def test_exact_game_values(self, n, expected):
        # t*(T_n) equals the lower-bound formula for n = 2..5 -- the
        # formula is tight at these sizes.
        assert exact_broadcast_time(n) == expected
        assert expected == lower_bound(n)

    def test_single_process_trivial(self):
        assert exact_broadcast_time(1) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exact_value_within_theorem(self, n):
        v = exact_broadcast_time(n)
        assert lower_bound(n) <= v <= upper_bound(n)


class TestSolverMechanics:
    def test_initial_state(self):
        solver = ExactGameSolver(3)
        assert solver.initial_state() == (1, 2, 4)
        assert not solver.is_finished(solver.initial_state())
        assert solver.is_finished((7, 1, 2))

    def test_successor_count_small(self):
        solver = ExactGameSolver(2)
        succ = solver.successors(solver.initial_state())
        # Both trees finish immediately: states (3,2)-like; dedupe +
        # antichain keeps the distinct minimal ones.
        assert all(solver.is_finished(s) for s in succ)

    def test_canonicalize_collapses_relabelings(self):
        solver = ExactGameSolver(3)
        a = (0b011, 0b010, 0b100)  # node 0 reached {0, 1}
        b = (0b001, 0b110, 0b100)  # node 1 reached {1, 2}: a relabeling
        assert solver.canonical(a) == solver.canonical(b)

    def test_canonicalization_optional(self):
        plain = ExactGameSolver(3, canonicalize=False)
        assert plain.solve().t_star == 2

    def test_canonicalization_does_not_change_value(self):
        for n in (3, 4):
            with_c = ExactGameSolver(n, canonicalize=True).solve()
            without = ExactGameSolver(n, canonicalize=False).solve()
            assert with_c.t_star == without.t_star
            # The canonical memo table must be no larger.
            assert with_c.states_explored <= without.states_explored

    def test_budget_enforced(self):
        with pytest.raises(SearchBudgetExceeded):
            ExactGameSolver(4, max_states=3).solve()

    def test_rejects_silly_n(self):
        with pytest.raises(ValueError):
            ExactGameSolver(1)
        with pytest.raises(SearchBudgetExceeded):
            ExactGameSolver(9)

    def test_result_metadata(self):
        result = ExactGameSolver(3).solve()
        assert result.tree_count == 9
        assert result.states_explored >= 1
        assert result.elapsed_seconds >= 0


class TestOptimalSequence:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sequence_achieves_value_and_certifies(self, n):
        solver = ExactGameSolver(n)
        seq = solver.optimal_sequence()
        value = solver.solve().t_star
        assert len(seq) == value
        # Independent validation through the plain engine: completes at
        # exactly the claimed round, not earlier.
        result = run_sequence(seq, n=n)
        assert result.t_star == value

    def test_sequence_trees_are_valid(self):
        for tree in ExactGameSolver(4).optimal_sequence():
            assert tree.n == 4


class TestAntichain:
    def test_subseteq(self):
        assert _subseteq((0b01, 0b10), (0b11, 0b10))
        assert not _subseteq((0b11, 0b10), (0b01, 0b10))

    def test_minimal_antichain_prunes_supersets(self):
        states = [(0b11, 0b10), (0b01, 0b10), (0b01, 0b11)]
        kept = _minimal_antichain(states)
        assert (0b01, 0b10) in kept
        assert (0b11, 0b10) not in kept
        assert (0b01, 0b11) not in kept

    def test_incomparable_states_all_kept(self):
        states = [(0b01, 0b10), (0b10, 0b01)]
        assert len(_minimal_antichain(states)) == 2


# ----------------------------------------------------------------------
# Packed path vs the tuple-level reference
# ----------------------------------------------------------------------


def _reference_tables(n):
    """Per tree: new_row = row | {c : parent(c) in row}, in plain Python."""
    tables = []
    for parents in all_parent_arrays(n):
        table = []
        for row in range(1 << n):
            grown = row
            for c, p in enumerate(parents):
                if p != c and (row >> p) & 1:
                    grown |= 1 << c
            table.append(grown)
        tables.append(table)
    return tables


def _reference_successors(tables, state):
    """Every tree's table lookups on ``state``, deduplicated."""
    return {tuple(table[row] for row in state) for table in tables}


def _reference_canonical(n, state):
    """Lexicographic minimum over all n! simultaneous relabelings."""
    best = None
    for perm in permutations(range(n)):
        out = [0] * n
        for x, row in enumerate(state):
            out[perm[x]] = sum(1 << perm[y] for y in range(n) if (row >> y) & 1)
        if best is None or tuple(out) < best:
            best = tuple(out)
    return best


def _expanded_states(solver):
    """Solve, recording every state whose successors the solver expands."""
    seen = []
    packed_successors = solver.successors

    def recording(state):
        seen.append(state)
        return packed_successors(state)

    solver.successors = recording
    solver.solve()
    del solver.successors
    return seen


class TestPackedEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_successors_match_reference_antichain(self, n):
        solver = ExactGameSolver(n)
        seen = _expanded_states(solver)
        tables = _reference_tables(n)
        for state in seen:
            got = solver.successors(state)
            assert len(got) == len(set(got))
            assert all(type(row) is int for s in got for row in s)
            want = _minimal_antichain(list(_reference_successors(tables, state)))
            assert set(got) == set(want)

    def test_successors_match_reference_in_small_blocks(self, monkeypatch):
        # Blocks of 3 pairs split every domination test into many chunks,
        # down to one candidate against more kept states than the block.
        solver = ExactGameSolver(4)
        seen = _expanded_states(solver)
        tables = _reference_tables(4)
        monkeypatch.setattr(exact, "_BLOCK", 3)
        for state in seen:
            want = _minimal_antichain(list(_reference_successors(tables, state)))
            assert set(solver.successors(state)) == set(want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_canonical_is_brute_force_minimum(self, n):
        solver = ExactGameSolver(n)
        seen = _expanded_states(solver)
        for state in seen:
            key = solver.canonical(state)
            assert all(type(row) is int for row in key)
            assert key == _reference_canonical(n, state)

    @pytest.mark.parametrize(
        "n,t_star,states", [(2, 1, 1), (3, 2, 2), (4, 4, 19), (5, 5, 817)]
    )
    def test_pinned_solve_counts(self, n, t_star, states):
        result = ExactGameSolver(n).solve()
        assert (result.t_star, result.states_explored) == (t_star, states)

    @pytest.mark.parametrize(
        "n,t_star,states", [(2, 1, 1), (3, 2, 7), (4, 4, 385)]
    )
    def test_pinned_uncanonicalized_counts(self, n, t_star, states):
        result = ExactGameSolver(n, canonicalize=False).solve()
        assert (result.t_star, result.states_explored) == (t_star, states)

    @pytest.mark.parametrize(
        "n,sequence",
        [
            (4, [(0, 0, 1, 2), (0, 0, 3, 0), (1, 2, 2, 0), (0, 0, 0, 0)]),
            (
                5,
                [
                    (0, 0, 0, 1, 2),
                    (1, 3, 0, 4, 4),
                    (1, 2, 4, 4, 4),
                    (0, 0, 0, 4, 2),
                    (0, 0, 0, 0, 0),
                ],
            ),
        ],
    )
    def test_pinned_optimal_sequence(self, n, sequence):
        trees = ExactGameSolver(n).optimal_sequence()
        assert [tuple(t.parents) for t in trees] == sequence

    def test_n6_initial_successors_all_incomparable(self):
        # From the identity state every tree adds exactly its n-1 edges, so
        # all 7776 successors are distinct with equal popcount: none can
        # contain another and the antichain keeps every one.
        solver = ExactGameSolver(6)
        start = solver.initial_state()
        got = solver.successors(start)
        want = _reference_successors(_reference_tables(6), start)
        assert len(want) == 7776
        assert {sum(bin(r).count("1") for r in s) for s in want} == {11}
        assert len(got) == 7776
        assert set(got) == want

    def test_n6_budget_enforced(self):
        with pytest.raises(SearchBudgetExceeded) as info:
            ExactGameSolver(6, max_states=50).solve()
        assert info.value.states_explored == 50
