"""Tests for the lower-bound adversaries -- the reproduction's key claims."""

from __future__ import annotations

import pytest

from repro.adversaries.zeiner import (
    CyclicFamilyAdversary,
    RunnerAdversary,
    ZeinerStyleAdversary,
    best_known_adversary,
    portfolio,
    quadratic_potential_score,
)
from repro.core.bounds import lower_bound, upper_bound
from repro.core.broadcast import run_adversary
from repro.core.state import BroadcastState
from repro.errors import AdversaryError


class TestCyclicFamily:
    """The headline lower-bound reproduction."""

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 10, 12])
    def test_achieves_lower_bound_formula(self, n):
        # t* == ⌈(3n−1)/2⌉ − 2 exactly on every tested size.
        result = run_adversary(CyclicFamilyAdversary(n), n)
        assert result.t_star == lower_bound(n)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_respects_upper_bound(self, n):
        result = run_adversary(CyclicFamilyAdversary(n), n)
        assert result.t_star <= upper_bound(n)

    def test_matches_exact_small_n(self):
        # For n <= 5 the exact solver certifies t*(T_n) == LB formula;
        # the cyclic adversary should realize exactly that value.
        for n, exact in [(4, 4), (5, 5)]:
            assert run_adversary(CyclicFamilyAdversary(n), n).t_star == exact

    def test_stride_reduces_candidates_but_stays_strong(self):
        n = 12
        strided = run_adversary(CyclicFamilyAdversary(n, m_stride=2), n)
        assert strided.t_star >= n - 1  # never worse than the static path

    def test_rejects_tiny_n_and_bad_stride(self):
        with pytest.raises(AdversaryError):
            CyclicFamilyAdversary(1)
        with pytest.raises(AdversaryError):
            CyclicFamilyAdversary(6, m_stride=0)

    def test_rejects_n_beyond_exact_scoring(self):
        """Scores are exact only below 6000 nodes (the int64 key)."""
        CyclicFamilyAdversary(5999)
        with pytest.raises(AdversaryError, match="6000"):
            CyclicFamilyAdversary(6000)

    def test_wrong_n_rejected_at_play_time(self):
        adv = CyclicFamilyAdversary(6)
        with pytest.raises(AdversaryError):
            adv.next_tree(BroadcastState.initial(5), 1)

    def test_candidates_cached(self):
        adv = CyclicFamilyAdversary(6)
        first = adv._candidate_parent_matrix()
        second = adv._candidate_parent_matrix()
        assert first is second
        assert first.ndim == 2 and first.shape[1] == 6


class TestQuadraticScore:
    def test_prefers_non_finishing_move(self):
        from repro.trees.generators import path, star

        state = BroadcastState.initial(4)
        reach = state.reach_matrix_view()
        star_score = quadratic_potential_score(
            reach, star(4).parent_array_numpy(), 4
        )
        path_score = quadratic_potential_score(
            reach, path(4).parent_array_numpy(), 4
        )
        assert star_score[0] == 1  # star finishes instantly
        assert path_score[0] == 0
        assert path_score < star_score


class TestHeuristicBaselines:
    def test_zeiner_style_below_cyclic_family(self):
        # Documented negative result: linear-order re-rooting heuristics
        # cannot even sustain the static path's n - 1 in general -- the
        # adaptive re-sorting accidentally *helps* broadcast.  They stay
        # within the theorem and strictly below the cyclic construction.
        n = 8
        t = run_adversary(ZeinerStyleAdversary(n), n).t_star
        assert 1 <= t <= upper_bound(n)
        assert t < lower_bound(n)

    def test_runner_below_cyclic_family(self):
        n = 8
        t = run_adversary(RunnerAdversary(n), n).t_star
        assert 1 <= t <= upper_bound(n)
        assert t < lower_bound(n)

    def test_zeiner_style_phase1_override(self):
        adv = ZeinerStyleAdversary(8, phase1_rounds=0)
        assert run_adversary(adv, 8).t_star is not None


class TestPortfolio:
    def test_contains_cyclic_family(self):
        names = [a.name for a in portfolio(6, include_search=False)]
        assert any("CyclicFamily" in name for name in names)

    def test_best_known_is_cyclic_at_small_n(self):
        adv, result, board = best_known_adversary(6, include_search=False)
        assert result.t_star == lower_bound(6)
        assert board[adv.name] == result.t_star
        # The portfolio's weaker members must all be <= the winner.
        assert all(v <= result.t_star for v in board.values())

    def test_every_portfolio_member_respects_theorem(self):
        n = 7
        _, _, board = best_known_adversary(n, include_search=False)
        for name, t in board.items():
            assert t <= upper_bound(n), f"{name} violated the upper bound"
