"""End-to-end integration tests: the reproduction's headline claims.

Each test here corresponds to an experiment (E1..E8) of
``repro.experiments.registry``, whose tables are pinned in
``tests/fixtures/golden_experiments.json``, and exercises multiple
subsystems together (adversaries + engines + bounds + analysis).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.exact import ExactGameSolver
from repro.adversaries.oblivious import RandomTreeAdversary, StaticTreeAdversary
from repro.adversaries.restricted import KInnerAdversary, KLeafAdversary
from repro.adversaries.zeiner import CyclicFamilyAdversary, best_known_adversary
from repro.analysis.certificates import certify_sequence
from repro.analysis.stats import linear_fit
from repro.core.bounds import lower_bound, upper_bound
from repro.core.broadcast import run_adversary, run_sequence
from repro.engine.runner import compare_engines, run_engine
from repro.engine.trace import replay_trace
from repro.trees.generators import path


class TestExactValuesE3:
    """E3: exact t*(T_n) via the solver, certified end to end."""

    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 4)])
    def test_exact_value_with_certified_witness(self, n, expected):
        solver = ExactGameSolver(n)
        result = solver.solve()
        assert result.t_star == expected == lower_bound(n)
        # The optimal sequence is a witness; certify it independently.
        seq = solver.optimal_sequence()
        cert = certify_sequence(seq, expected, n)
        assert cert.respects_upper_bound and cert.meets_lower_bound

    def test_exact_n5_value(self):
        # Slightly slower (~1-2 s): kept as the largest in-suite solve.
        assert ExactGameSolver(5).solve().t_star == 5 == lower_bound(5)


class TestLowerBoundWitnessE2:
    """E2: the cyclic chain-fan adversary matches the LB formula."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 11, 12, 14])
    def test_cyclic_family_matches_formula(self, n):
        result = run_adversary(CyclicFamilyAdversary(n), n)
        assert result.t_star == lower_bound(n)

    def test_witness_trace_replays_and_certifies(self):
        n = 10
        run = run_engine(CyclicFamilyAdversary(n), n)
        assert run.t_star == lower_bound(n)
        assert replay_trace(run.trace)
        cert = certify_sequence(run.trace.trees(), run.t_star, n)
        assert cert.meets_lower_bound


class TestTheorem31E2:
    """E2: no adversary in the portfolio ever violates the upper bound."""

    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_portfolio_respects_upper_bound(self, n):
        _, best, board = best_known_adversary(n, include_search=False)
        assert all(t <= upper_bound(n) for t in board.values())
        assert best.t_star == lower_bound(n)  # cyclic family wins

    def test_random_adversaries_respect_upper_bound(self):
        for seed in range(5):
            n = 6 + seed
            t = run_adversary(RandomTreeAdversary(n, seed=seed), n).t_star
            assert t <= upper_bound(n)


class TestStaticBaselinesE4:
    """E4: Section 2's quoted facts."""

    def test_static_path_exactly_n_minus_1(self):
        for n in (2, 5, 9, 17, 33):
            assert run_adversary(StaticTreeAdversary(path(n)), n).t_star == n - 1

    def test_every_round_adds_an_edge_even_adversarially(self):
        n = 9
        run = run_engine(CyclicFamilyAdversary(n), n)
        assert run.metrics.min_new_edges_per_round >= 1

    def test_linear_growth_of_best_adversary(self):
        # The headline: broadcast time is LINEAR -- measured slope ~1.5,
        # strictly between the paper's 1.5 (LB) and 2.414 (UB) constants.
        ns = [6, 8, 10, 12, 14, 16]
        ts = [run_adversary(CyclicFamilyAdversary(n), n).t_star for n in ns]
        fit = linear_fit(ns, ts)
        assert fit.r_squared > 0.99
        assert 1.3 <= fit.slope <= 2.5


class TestRestrictedE5:
    """E5: k-leaf / k-inner adversaries stay linear (Figure 1 rows)."""

    @pytest.mark.parametrize("factory", [KLeafAdversary, KInnerAdversary])
    def test_linear_in_n_for_fixed_k(self, factory):
        k = 2
        ns = [6, 9, 12, 15, 18]
        ts = [run_adversary(factory(n, k), n).t_star for n in ns]
        fit = linear_fit(ns, ts)
        assert fit.r_squared > 0.9
        # Linear with slope below the O(kn) constant (2k = 4).
        assert fit.slope <= 2 * k


class TestEngineCrossValidation:
    """The two engines agree on adversarial (not just random) runs."""

    def test_cyclic_run_through_both_engines(self):
        n = 8
        result = run_adversary(CyclicFamilyAdversary(n), n, keep_trees=True)
        matrix_t, sim_t = compare_engines(result.trees, n)
        assert matrix_t == sim_t == result.t_star

    def test_exact_witness_through_both_engines(self):
        seq = ExactGameSolver(4).optimal_sequence()
        matrix_t, sim_t = compare_engines(seq, 4)
        assert matrix_t == sim_t == 4


class TestScaleSmoke:
    """The matrix engine handles larger n comfortably."""

    def test_static_path_n_512(self):
        n = 512
        result = run_sequence([path(n)] * (n - 1), n)
        assert result.t_star == n - 1

    def test_random_run_n_256(self):
        n = 256
        rng = np.random.default_rng(0)
        from repro.trees.generators import random_tree

        trees = [random_tree(n, rng) for _ in range(64)]
        result = run_sequence(trees, n)
        assert result.t_star is not None
        assert result.t_star <= upper_bound(n)
