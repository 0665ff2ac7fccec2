"""Tests for the repro-broadcast CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main, n_bucket


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestBounds:
    def test_bounds_output(self, capsys):
        assert main(["bounds", "-n", "16"]) == 0
        out = capsys.readouterr().out
        assert "new_linear" in out
        assert "38" in out  # upper_bound(16)


class TestSimulate:
    def test_simulate_cyclic(self, capsys):
        assert main(["simulate", "-n", "8", "--adversary", "cyclic"]) == 0
        out = capsys.readouterr().out
        assert "t*=10" in out  # LB formula at n=8

    def test_simulate_unknown_adversary(self, capsys):
        from repro.service.specs import adversary_names

        assert main(["simulate", "-n", "6", "--adversary", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown adversary" in err
        assert all(repr(name) in err for name in adversary_names())

    @pytest.mark.parametrize(
        "argv,t_star",
        [
            (["--adversary", "static-star"], 1),
            (["--adversary", "static-path"], 7),
            (["--adversary", "k-leaf", "--param", "k=2"], None),
        ],
    )
    def test_simulate_resolves_the_service_registry(self, capsys, argv, t_star):
        assert main(["simulate", "-n", "8", *argv]) == 0
        out = capsys.readouterr().out
        assert "t*=" in out
        if t_star is not None:
            assert f"t*={t_star} " in out

    def test_simulate_rejects_a_bad_param(self, capsys):
        argv = ["simulate", "-n", "6", "--adversary", "k-leaf", "--param", "kk=2"]
        assert main(argv) == 2
        assert "unknown params ['kk']" in capsys.readouterr().err

    def test_simulate_writes_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        code = main(
            [
                "simulate",
                "-n",
                "6",
                "--adversary",
                "static-path",
                "--trace",
                str(trace_file),
            ]
        )
        assert code == 0
        assert trace_file.exists()
        from repro.engine.trace import Trace

        from helpers import replay_trace

        assert replay_trace(Trace.load(trace_file))


class TestSweepExactLemmas:
    def test_sweep(self, capsys):
        assert main(["sweep", "--ns", "5", "6"]) == 0
        out = capsys.readouterr().out
        assert "sandwich" in out.lower()

    def test_sweep_engines_print_identical_tables(self, capsys):
        tables = []
        for engine in ("sequential", "batch", "sharded"):
            assert main(["sweep", "--ns", "5", "6", "--engine", engine]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] == tables[2]

    def test_sweep_cache_warm_rerun_computes_no_runs(self, tmp_path, capsys):
        cache = str(tmp_path / "sweep.jsonl")
        outs = []
        for i, ns in enumerate((["5", "6"], ["5", "6"], ["5", "6", "7"])):
            out = str(tmp_path / f"sweep{i}.json")
            argv = ["sweep", "--ns", *ns, "--cache", cache, "--out", out]
            assert main(argv) == 0
            outs.append((capsys.readouterr().err, (tmp_path / f"sweep{i}.json").read_text()))
        assert "0 cached, 9 computed, runs computed: 8" in outs[0][0]
        assert "9 cached, 0 computed, runs computed: 0" in outs[1][0]
        assert outs[1][1] == outs[0][1]
        # the enlarged grid computes only the new n=7 column (+ its agg)
        assert "8 cached, 5 computed, runs computed: 4" in outs[2][0]

    def test_simulate_batch_engine(self, capsys):
        assert main(["simulate", "-n", "8", "--engine", "batch"]) == 0
        out = capsys.readouterr().out
        assert "t*=10" in out  # identical decision to the sequential engine
        assert "engine: batch" in out

    def test_workers_warning_on_non_sharded_engine(self, capsys):
        assert main(
            ["sweep", "--ns", "5", "--engine", "batch", "--workers", "4"]
        ) == 0
        assert "--workers 4 is ignored" in capsys.readouterr().err

    def test_exact_small(self, capsys):
        assert main(["exact", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "t*(T_3) = 2 exactly" in out
        assert "level sizes: 1 1\n" in out
        assert "states/s)" in out

    def test_exact_with_sequence(self, capsys):
        assert main(["exact", "-n", "3", "--show-sequence"]) == 0
        out = capsys.readouterr().out
        assert "round 1" in out

    @pytest.mark.parametrize(
        "argv,explored",
        [(["exact", "-n", "9"], 0), (["exact", "-n", "6", "--max-states", "20"], 20)],
    )
    def test_exact_budget_exits_cleanly(self, capsys, argv, explored):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"(states explored: {explored})" in captured.err

    def test_lemmas_clean(self, capsys):
        assert main(["lemmas", "-n", "5", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out


class TestCacheCommands:
    def test_cache_compact_shrinks_and_reports(self, tmp_path, capsys):
        from repro.service.cache import ResultCache

        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path=path)
        for i in range(4):
            cache.store("same", "cell", {"t_star": i})  # 3 dead lines
        assert main(["cache", "compact", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "1 live entries" in out
        assert ResultCache(path=path).lookup("same") == {"t_star": 3}

    def test_cache_stats_reports_compactions(self, tmp_path, capsys):
        from repro.service.cache import ResultCache

        path = tmp_path / "cache.jsonl"
        ResultCache(path=path).store("a", "cell", {"t_star": 1})
        assert main(["cache", "stats", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compactions" in out and "file_bytes" in out


class TestWorker:
    def test_unknown_engine_exits_2_before_connecting(self, monkeypatch, capsys):
        from repro.service.client import ServiceClient

        def no_connection(*args, **kwargs):
            raise AssertionError("worker opened a connection")

        monkeypatch.setattr(ServiceClient, "from_url", no_connection)
        with pytest.raises(SystemExit) as exc:
            main(["worker", "--url", "http://127.0.0.1:9", "--engine", "compiled"])
        assert exc.value.code == 2
        assert "invalid choice: 'compiled'" in capsys.readouterr().err


def test_n_bucket_edges():
    assert n_bucket(1) == "n<=1"
    assert n_bucket(10) == "n<=16"
    assert n_bucket(16) == "n<=16"
    assert n_bucket(17) == "n<=32"
    assert n_bucket(4097) == "n<=8192"
