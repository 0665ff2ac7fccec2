"""Tests for the simulated-annealing sequence searcher."""

from __future__ import annotations

import pytest

from repro.adversaries.annealing import anneal_sequence
from repro.core.bounds import upper_bound
from repro.core.broadcast import run_sequence
from repro.errors import AdversaryError
from repro.trees.generators import path


class TestAnnealing:
    def test_deterministic_given_seed(self):
        a = anneal_sequence(5, iterations=120, seed=3)
        b = anneal_sequence(5, iterations=120, seed=3)
        assert a.best_t_star == b.best_t_star
        assert [t.parents for t in a.best_sequence] == [
            t.parents for t in b.best_sequence
        ]

    def test_never_below_static_path_baseline(self):
        # The initial sequence is the static path, so n - 1 is a floor.
        result = anneal_sequence(6, iterations=150, seed=0)
        assert result.best_t_star >= 5

    def test_respects_upper_bound(self):
        n = 6
        result = anneal_sequence(n, iterations=200, seed=1)
        assert result.best_t_star <= upper_bound(n)

    def test_witness_sequence_realizes_score(self):
        result = anneal_sequence(5, iterations=150, seed=2)
        realized = run_sequence(result.best_sequence, 5).t_star
        assert realized == result.best_t_star

    def test_history_is_monotone(self):
        result = anneal_sequence(6, iterations=200, seed=4)
        assert result.history == sorted(result.history)
        assert result.iterations == 200
        assert 0 <= result.accepted <= 200

    def test_custom_initial_sequence(self):
        init = [path(5)] * 3  # shorter than the horizon: gets padded
        result = anneal_sequence(5, iterations=30, seed=0, initial=init)
        assert result.best_t_star >= 1

    def test_validation(self):
        with pytest.raises(AdversaryError):
            anneal_sequence(1, iterations=5)
        with pytest.raises(AdversaryError):
            anneal_sequence(5, iterations=0)
