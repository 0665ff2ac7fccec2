"""Tests for the simulated-annealing sequence searcher."""

from __future__ import annotations

import hashlib

import pytest

from repro.adversaries.annealing import anneal_sequence
from repro.core.bounds import upper_bound
from repro.core.broadcast import run_sequence
from repro.errors import AdversaryError
from repro.trees.generators import path, star


def _sequence_digest(result):
    parents = [t.parents for t in result.best_sequence]
    return hashlib.sha256(repr(parents).encode()).hexdigest()


#: (kwargs, best_t_star, accepted, history, sha256 of the best sequence's
#: parent tuples), recorded with full-sequence replay scoring.
PINNED_RUNS = [
    pytest.param(dict(n=2, iterations=50, seed=0), 1, 50, [1],
                 "2e671ae9b7fca357b34a051eb7716cbf08cdc9e1ee9dbf0f7fecd06ad15e35da",
                 id="n2"),
    pytest.param(dict(n=5, iterations=120, seed=3), 4, 102, [4],
                 "4daca8d58f1459009100fe657cf5cd88348cfe38a056a930d51f2a3c4878ecf3",
                 id="n5-seed3"),
    pytest.param(dict(n=6, iterations=200, seed=4), 5, 163, [5],
                 "0ba1782993a381f4e1dbd15179c079117ab4bf41ce5513106fa1bc03b91668ad",
                 id="n6-seed4"),
    pytest.param(dict(n=8, iterations=400, seed=0), 7, 264, [7],
                 "c253ba803f0f01fb826eeeec924214cff24d07a9eeb19aca3299e59b1e2810d6",
                 id="n8-seed0-e8"),
    pytest.param(dict(n=12, iterations=100, seed=7), 11, 65, [11],
                 "2ae67da979d153f7a786ee7ef2a57aa62f9c58554aaf35bead52be37cb28aa40",
                 id="n12-seed7"),
    pytest.param(dict(n=5, iterations=60, seed=4, initial=[path(5)] * 3), 4, 52, [4],
                 "4daca8d58f1459009100fe657cf5cd88348cfe38a056a930d51f2a3c4878ecf3",
                 id="short-initial"),
    pytest.param(dict(n=6, iterations=200, seed=1, initial=[star(6)] * 4), 5, 182,
                 [1, 2, 3, 4, 5],
                 "1eb576f2654c2f90315e2ed582527847cb0a5f1377e49e4167c0457cb0907de1",
                 id="star-initial"),
    pytest.param(dict(n=8, iterations=150, seed=2, initial=[star(8)] * 6, horizon=6),
                 5, 132, [1, 2, 3, 4, 5],
                 "d7cb3993b8c4c329622207aa5f2b111a26f0cbb0ae254b6589996a58039fc7ff",
                 id="star-initial-horizon6"),
    pytest.param(dict(n=8, iterations=100, seed=5, horizon=5), 6, 82, [6],
                 "bb3956f568d1ad979ba35744d5dc509ddb4fea23e33b109d281526c57053c89e",
                 id="unfinished-horizon5"),
]


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

    @pytest.mark.parametrize("kwargs,t_star,accepted,history,digest", PINNED_RUNS)
    def test_pinned_runs(self, kwargs, t_star, accepted, history, digest):
        result = anneal_sequence(**kwargs)
        assert result.best_t_star == t_star
        assert result.accepted == accepted
        assert result.history == history
        assert _sequence_digest(result) == digest

    def test_validation(self):
        with pytest.raises(AdversaryError):
            anneal_sequence(1, iterations=5)
        with pytest.raises(AdversaryError):
            anneal_sequence(5, iterations=0)
