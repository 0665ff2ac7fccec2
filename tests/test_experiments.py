"""Tests for the experiment registry and its CLI surface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import get_experiment, list_experiments
from repro.experiments.registry import ExperimentTable


class TestRegistry:
    def test_all_eight_registered(self):
        specs = list_experiments()
        assert [s.experiment_id for s in specs] == [f"E{i}" for i in range(1, 9)]

    def test_lookup_case_insensitive(self):
        assert get_experiment("e2").experiment_id == "E2"

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="known"):
            get_experiment("E99")

    def test_specs_carry_paper_artifacts(self):
        for spec in list_experiments():
            assert spec.paper_artifact
            assert spec.title


class TestRunFunctions:
    """Run the fast experiments and validate structure + checks."""

    @pytest.mark.parametrize(
        "eid",
        [
            "E1",
            "E2",
            "E4",
            pytest.param(
                "E5",
                marks=pytest.mark.xfail(
                    strict=True, reason="ROADMAP item 3: E5 check fails and its golden pins it"
                ),
            ),
            "E6",
            "E8",
        ],
    )
    def test_fast_experiments_pass_checks(self, eid):
        table = get_experiment(eid).run()
        assert isinstance(table, ExperimentTable)
        assert table.checks_passed
        assert table.rows
        assert all(len(r) == len(table.headers) for r in table.rows)

    def test_e3_exact_passes(self):
        table = get_experiment("E3").run()
        assert table.checks_passed
        # Exact values column equals LB column on every row.
        for row in table.rows:
            assert row[1] == row[2]

    def test_e7_gossip_passes(self):
        table = get_experiment("E7").run()
        assert table.checks_passed
        assert all(row[1] == "never" for row in table.rows)

    def test_render_contains_title_and_status(self):
        out = get_experiment("E1").run().render()
        assert "E1:" in out
        assert "checks: PASSED" in out


class TestCliExperiment:
    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out and "E8:" in out

    def test_run_single(self, capsys):
        assert main(["experiment", "E4"]) == 0
        out = capsys.readouterr().out
        assert "checks: PASSED" in out

    def test_unknown(self, capsys):
        assert main(["experiment", "E42"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
