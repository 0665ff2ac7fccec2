"""Tests for the analysis package (stalling, certificates, sweeps, tables,
stats)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.oblivious import StaticTreeAdversary
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.analysis.certificates import (
    certify_adversary_run,
    certify_lower_bound_witness,
    certify_sequence,
)
from repro.analysis.stalling import (
    stall_report,
    verify_lemmas_on_round,
)
from repro.analysis.stats import linear_fit
from repro.analysis.tables import format_table
from repro.core.state import BroadcastState
from repro.engine.executor import SequentialExecutor
from repro.errors import AdversaryError
from repro.trees.generators import path, random_tree, star

from helpers import make_unfinished_state


class TestStalling:
    def test_report_fields(self):
        state = BroadcastState.initial(5)
        rep = stall_report(state, star(5))
        assert rep.root == 0
        assert rep.stalled == frozenset({1, 2, 3, 4})
        assert rep.growing == frozenset({0})
        assert rep.stall_fraction == pytest.approx(0.8)

    @pytest.mark.parametrize("seed", range(8))
    def test_lemmas_hold_on_random_configs(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 8))
        state = make_unfinished_state(n, seed=seed)
        tree = random_tree(n, gen)
        r, s1, s2 = verify_lemmas_on_round(state, tree)
        assert r and s1 and s2


class TestCertificates:
    def test_certify_sequence_accepts_truth(self):
        cert = certify_sequence([path(5)] * 4, 4, 5)
        assert cert.t_star == 4
        assert cert.respects_upper_bound

    def test_certify_sequence_rejects_lies(self):
        with pytest.raises(AdversaryError, match="completes at"):
            certify_sequence([path(5)] * 6, 6, 5)  # actually completes at 4

    def test_certify_adversary_run(self):
        cert = certify_adversary_run(StaticTreeAdversary(path(6)), 6)
        assert cert.t_star == 5
        assert not cert.meets_lower_bound  # path is below the formula

    def test_certify_lower_bound_witness_accepts_cyclic(self):
        cert = certify_lower_bound_witness(CyclicFamilyAdversary(8), 8)
        assert cert.meets_lower_bound

    def test_certify_lower_bound_witness_rejects_weak(self):
        with pytest.raises(AdversaryError, match="does not witness"):
            certify_lower_bound_witness(StaticTreeAdversary(path(8)), 8)


class TestSweep:
    def test_sweep_n_basic(self):
        result = SequentialExecutor().sweep({"path": lambda n: StaticTreeAdversary(path(n))}, [4, 6, 8])
        assert result.ns() == [4, 6, 8]
        assert result.all_within_bounds()
        assert [p.t_star for p in result.points] == [3, 5, 7]

    def test_sweep_adversaries_grouping(self):
        factories = {
            "path": lambda n: StaticTreeAdversary(path(n)),
            "star": lambda n: StaticTreeAdversary(star(n)),
        }
        result = SequentialExecutor().sweep(factories, [5, 6])
        groups = result.by_adversary()
        assert set(groups) == {"path", "star"}
        assert all(p.t_star == 1 for p in groups["star"])

    def test_best_per_n(self):
        factories = {
            "path": lambda n: StaticTreeAdversary(path(n)),
            "star": lambda n: StaticTreeAdversary(star(n)),
        }
        best = SequentialExecutor().sweep(factories, [5]).best_per_n()
        assert best[5].adversary == "path"

    def test_normalized(self):
        result = SequentialExecutor().sweep({"p": lambda n: StaticTreeAdversary(path(n))}, [10])
        assert result.points[0].normalized == pytest.approx(0.9)


class TestTables:
    def test_plain_table_alignment(self):
        out = format_table(["name", "v"], [["a", 1], ["bb", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert lines[-1].endswith("22")

    def test_plain_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestStats:
    def test_linear_fit_exact_line(self):
        fit = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_linear_fit_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])
        with pytest.raises(ValueError):
            linear_fit([2, 2], [1, 3])
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1, 2, 3])

    def test_constant_y_r2(self):
        assert linear_fit([1, 2, 3], [5, 5, 5]).r_squared == pytest.approx(1.0)

