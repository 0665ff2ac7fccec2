"""Result cache: exact round-trips, LRU/persistence/versioning, cached sweeps.

The acceptance property pinned here: **cached results are provably
trustworthy** -- for every adversary in the portfolio, on both backends,
a cache-hit ``RunReport`` serializes byte-identically to a fresh
recomputation, and stale-version entries are rejected at load instead of
served.
"""

from __future__ import annotations

import json

import pytest

from repro.core.backend import use_backend
from repro.engine.executor import BatchExecutor, SequentialExecutor, ShardedExecutor
from repro.errors import CacheError, SpecError
from repro.service.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    report_from_doc,
    report_to_doc,
)
from repro.service.specs import portfolio_handles, spec_digest, to_run_spec
from repro.service.tasks import run_graph, sweep_graph

#: Every registered family, with small-n-safe params.
PORTFOLIO = [
    ("static-path", {}),
    ("static-star", {}),
    ("rotating-path", {"shift": 2}),
    ("cyclic", {}),
    ("random-tree", {}),
    ("k-leaf", {"k": 2}),
    ("k-inner", {"k": 2}),
]


class TestReportRoundTrip:
    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    def test_cache_hit_is_byte_identical_to_fresh_recomputation(self, backend, rng):
        """The headline acceptance: portfolio x backends, randomized n/seed."""
        executor = SequentialExecutor()
        cache = ResultCache()
        for adversary, params in PORTFOLIO:
            n = int(rng.integers(5, 14))
            seed = int(rng.integers(0, 100))
            raw = {
                "adversary": adversary,
                "params": params,
                "n": n,
                "seed": seed,
                "backend": backend,
            }
            digest = spec_digest(raw)
            fresh = executor.run(to_run_spec(raw))
            cache.store(digest, "run", report_to_doc(fresh))
            hit = report_from_doc(cache.lookup(digest, kind="run"), backend=backend)
            # byte-identical: the canonical serializations match exactly
            assert json.dumps(report_to_doc(hit), sort_keys=True) == json.dumps(
                report_to_doc(fresh), sort_keys=True
            ), f"{adversary}@{backend}: cache hit diverged from fresh run"
            # and against a *second* fresh recomputation (determinism)
            again = executor.run(to_run_spec(raw))
            assert json.dumps(report_to_doc(hit), sort_keys=True) == json.dumps(
                report_to_doc(again), sort_keys=True
            )
            assert hit.final_state == fresh.final_state
            assert hit.broadcasters == fresh.broadcasters
            assert hit.t_star == fresh.t_star

    def test_instrumented_reports_are_not_cacheable(self):
        from repro.engine.executor import RunSpec

        report = SequentialExecutor().run(
            RunSpec(
                adversary=to_run_spec({"adversary": "k-leaf", "n": 6}).adversary,
                n=6,
                instrumentation="history",
            )
        )
        with pytest.raises(CacheError, match="uninstrumented"):
            report_to_doc(report)

    def test_malformed_doc_rejected(self):
        with pytest.raises(CacheError, match="malformed run-report"):
            report_from_doc({"n": 4, "reach_bits": "zz"})


class TestCacheMechanics:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(capacity=3)
        for i in range(4):
            cache.store(f"d{i}", "cell", {"t_star": i})
        assert len(cache) == 3
        assert "d0" not in cache  # least recently used fell out
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["stores"] == 4
        # a hit refreshes recency: d1 survives the next eviction
        assert cache.lookup("d1") == {"t_star": 1}
        cache.store("d4", "cell", {"t_star": 4})
        assert "d1" in cache and "d2" not in cache

    def test_kind_mismatch_is_a_miss(self):
        cache = ResultCache()
        cache.store("d", "cell", {"t_star": 1})
        assert cache.lookup("d", kind="run") is None
        assert cache.stats()["misses"] == 1

    def test_byte_budget_evicts_lru_first(self):
        """Satellite: ResultCache(max_bytes=...) alongside the entry LRU."""
        cache = ResultCache(max_bytes=200)
        payload = {"blob": "x" * 50}  # ~60 accounted bytes + digest
        for i in range(4):
            cache.store(f"byte{i}", "cell", dict(payload))
        stats = cache.stats()
        assert stats["max_bytes"] == 200
        assert 0 < stats["bytes"] <= 200
        assert stats["evictions"] >= 1
        assert "byte0" not in cache  # oldest fell to the byte budget
        assert "byte3" in cache

    def test_byte_accounting_tracks_inserts_and_evictions(self):
        cache = ResultCache()
        assert cache.stats()["bytes"] == 0
        cache.store("a", "cell", {"t_star": 1})
        one = cache.stats()["bytes"]
        assert one > 0
        cache.store("b", "cell", {"t_star": 2})
        assert cache.stats()["bytes"] > one
        # Overwriting re-accounts instead of double-counting.
        cache.store("a", "cell", {"t_star": 1})
        cache.store("a", "cell", {"t_star": 1})
        two = cache.stats()["bytes"]
        cache.clear()
        assert cache.stats()["bytes"] == 0 and two > 0

    def test_oversized_entry_still_lands(self):
        """An entry bigger than the whole budget must not silently vanish."""
        cache = ResultCache(max_bytes=16)
        cache.store("huge", "cell", {"blob": "y" * 500})
        assert "huge" in cache
        assert cache.lookup("huge") == {"blob": "y" * 500}
        # The next store evicts the oversized one, not itself.
        cache.store("tiny", "cell", {"t_star": 1})
        assert "tiny" in cache and "huge" not in cache

    def test_byte_budget_validation(self):
        with pytest.raises(CacheError, match="max_bytes"):
            ResultCache(max_bytes=0)

    def test_eviction_below_threshold_keeps_file_history(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        cache = ResultCache(path=path, max_bytes=150)
        for i in range(3):
            cache.store(f"k{i}", "cell", {"blob": "z" * 40})
        assert len(cache) < 3  # memory tier trimmed
        assert cache.stats()["compactions"] == 0
        reopened = ResultCache(path=path)
        assert len(reopened) == 3  # the file kept the full history

    def test_eviction_past_threshold_auto_compacts(self, tmp_path):
        """Once evictions orphan a full budget of file bytes, compact."""
        path = tmp_path / "budget.jsonl"
        cache = ResultCache(path=path, max_bytes=150)
        for i in range(12):
            cache.store(f"k{i}", "cell", {"blob": "z" * 40})
        assert cache.stats()["compactions"] >= 1
        reopened = ResultCache(path=path)
        # The rewritten file holds exactly the live set at compaction
        # time (plus any appends after it) -- not the full history.
        assert len(reopened) < 12
        for i in range(12):
            if f"k{i}" in cache:
                assert reopened.lookup(f"k{i}") == cache.lookup(f"k{i}")

    def test_compact_shrinks_file_and_reload_is_byte_identical(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path=path)
        for i in range(6):
            cache.store(f"k{i}", "cell", {"t_star": i})
        for i in range(6):  # overwrites: 6 dead lines in the file
            cache.store(f"k{i}", "cell", {"t_star": i * 10})
        report = cache.compact()
        assert report["after_bytes"] < report["before_bytes"]
        assert report["entries"] == 6
        reopened = ResultCache(path=path)
        assert len(reopened) == 6
        for i in range(6):
            assert reopened.lookup(f"k{i}") == {"t_star": i * 10}
        # Compacting an already-compact file is a no-op byte-wise.
        again = cache.compact()
        assert again["after_bytes"] == report["after_bytes"]
        assert cache.stats()["compactions"] == 2

    def test_compact_requires_persistence_path(self):
        with pytest.raises(CacheError, match="persistence path"):
            ResultCache().compact()

    def test_torn_final_line_repaired_on_open(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path=path)
        cache.store("a", "cell", {"t_star": 1})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"digest": "b", "form')  # SIGKILL mid-append
        reopened = ResultCache(path=path)
        assert reopened.lookup("a") == {"t_star": 1}
        assert "b" not in reopened
        # The repair truncated the fragment, so new appends replay clean.
        reopened.store("c", "cell", {"t_star": 3})
        assert ResultCache(path=path).lookup("c") == {"t_star": 3}

    def test_persistence_round_trip_later_lines_win(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = ResultCache(path=path)
        first.store("a", "cell", {"t_star": 1})
        first.store("b", "cell", {"t_star": 2})
        first.store("a", "cell", {"t_star": 3})  # overwrite appends
        reopened = ResultCache(path=path)
        assert reopened.lookup("a") == {"t_star": 3}
        assert reopened.lookup("b") == {"t_star": 2}
        assert reopened.stats()["loaded_from_disk"] == 3

    def test_stale_version_entries_rejected_not_served(self, tmp_path):
        """A cache written by a different format version must miss."""
        path = tmp_path / "cache.jsonl"
        stale = {
            "format_version": CACHE_FORMAT_VERSION + 1,
            "digest": "d-stale",
            "kind": "cell",
            "payload": {"t_star": 99},
        }
        good = {
            "format_version": CACHE_FORMAT_VERSION,
            "digest": "d-good",
            "kind": "cell",
            "payload": {"t_star": 5},
        }
        path.write_text(json.dumps(stale) + "\n" + json.dumps(good) + "\n")
        cache = ResultCache(path=path)
        assert cache.lookup("d-stale") is None  # rejected, not served
        assert cache.lookup("d-good") == {"t_star": 5}
        assert cache.stats()["stale_rejected"] == 1

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(CacheError, match="not valid JSON"):
            ResultCache(path=path)

    def test_clear_truncates_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path=path)
        cache.store("a", "cell", {"t_star": 1})
        cache.clear()
        assert len(cache) == 0
        assert path.read_text() == ""
        assert len(ResultCache(path=path)) == 0


def _entry(digest: str, payload) -> str:
    """One cache line exactly as ``ResultCache.store`` writes it."""
    return json.dumps(
        {"digest": digest, "format_version": CACHE_FORMAT_VERSION,
         "kind": "cell", "payload": payload},
        sort_keys=True,
    )


def _doubled(separator: str):
    """Three lines, the second holding two values."""
    return [
        _entry("a", {"t_star": 1}),
        _entry("b", {"t_star": 2}) + separator + _entry("c", {"t_star": 3}),
        _entry("d", {"t_star": 4}),
    ]


def _split_and_doubled():
    """One value broken over two lines next to a line holding two values:
    as many values as lines, but every one a line off."""
    whole = _entry("a", {"t_star": 1})
    cut = whole.index('"format_version"')
    return [
        whole[:cut].rstrip(", "),
        whole[cut:],
        _entry("b", {"t_star": 2}) + "," + _entry("c", {"t_star": 3}),
    ]


def _small_cache_file(tmp_path, compacted: bool):
    """A small cache file, as appended or after ``compact()``; its sizes."""
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path=path)
    cache.store("a", "cell", {"t_star": 1})
    cache.store('q"uote\\', "task", {"task_kind": "bounds", "doc": {"z": [1, 2.5, None]}})
    cache.store("b", "sweep", {"points": [], "label": "caf\u00e9 \u2028"})
    cache.store("a", "cell", {"t_star": None})  # overwrite: a dead line
    report = SequentialExecutor().run(to_run_spec({"adversary": "cyclic", "n": 6}))
    cache.store("r", "run", report_to_doc(report))
    if compacted:
        cache.compact()
    sizes = {d: cache.entry_nbytes(d) for d in ("a", 'q"uote\\', "b", "r")}
    return path, sizes, cache.stats()["bytes"]


class TestReplayEquivalence:
    """Reopening replays to exactly the state and sizes stores produced."""

    @pytest.mark.parametrize("compacted", [False, True], ids=["appended", "compacted"])
    def test_sizes_equal_store_time_values(self, tmp_path, compacted):
        path, sizes, total = _small_cache_file(tmp_path, compacted)
        reopened = ResultCache(path=path)
        assert {d: reopened.entry_nbytes(d) for d in sizes} == sizes
        assert reopened.stats()["bytes"] == total
        assert reopened.lookup("a") == {"t_star": None}

    def test_non_canonical_line_is_sized_like_a_store(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            '{"payload":{"t_star":  7},"kind":"cell","digest":"x","format_version":1}\n'
        )
        stored = ResultCache()
        stored.store("x", "cell", {"t_star": 7})
        assert ResultCache(path=path).entry_nbytes("x") == stored.entry_nbytes("x")

    @pytest.mark.parametrize("compacted", [False, True], ids=["appended", "compacted"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("{not json}", "not valid JSON"),
            ("[1, 2]", "not an object"),
            ('{"format_version": 1, "kind": "cell", "payload": {}}', "missing"),
            ('{"digest": "z", "format_version": 1, "kind": "bogus", "payload": {}}',
             "unknown entry kind"),
        ],
    )
    def test_bad_line_among_valid_ones_names_its_line(
        self, tmp_path, compacted, bad, message
    ):
        path, _, _ = _small_cache_file(tmp_path, compacted)
        lineno = len(path.read_text().splitlines()) + 2  # after one blank line
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n" + bad + "\n" + _entry("c", {"t_star": 3}) + "\n")
        with pytest.raises(CacheError, match=f"{path.name}:{lineno}: .*{message}"):
            ResultCache(path=path)

    @pytest.mark.parametrize(
        "lines, lineno",
        [
            (_doubled(" "), 2),
            (_doubled(","), 2),
            (_split_and_doubled(), 1),
        ],
        ids=["space", "comma", "split-value"],
    )
    def test_two_values_on_one_line_do_not_shift_entries(self, tmp_path, lines, lineno):
        """A doubled line must fail loudly, never load entries one line off."""
        path = tmp_path / "cache.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            CacheError, match=f"{path.name}:{lineno}: cache line is not valid JSON"
        ):
            ResultCache(path=path)

    @pytest.mark.parametrize("compacted", [False, True], ids=["appended", "compacted"])
    def test_torn_final_line_repair(self, tmp_path, compacted):
        path, _, total = _small_cache_file(tmp_path, compacted)
        intact = path.read_bytes()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(_entry("torn", {"t_star": 9})[:25])  # killed mid-append
        reopened = ResultCache(path=path)
        assert path.read_bytes() == intact
        assert "torn" not in reopened
        assert reopened.stats()["bytes"] == total
        reopened.store("c", "cell", {"t_star": 3})
        assert ResultCache(path=path).lookup("c") == {"t_star": 3}


#: A ``cell`` line exactly as the retired sweep cell cache appended it
#: (static-path at n=6 on the dense backend).
PARENT_CELL_LINE = (
    '{"digest": "cell:1b66fe5bc10178bfe2b6e7bf113cef7f0a148a6ef1ea5a85f9a143635bd68d47", '
    '"format_version": 1, "kind": "cell", "payload": {"t_star": 5}}\n'
)


#: Two ``run`` lines as a cache written while the ``greedy`` adversary was
#: registered holds them: ``greedy``, then ``static-path`` (n=4, dense).
DELETED_ADVERSARY_LINES = (
    '{"digest": "0d25a03daeab6391a16435e9bd2404f607f67ba11c0f268728b26a2bdeea6212", '
    '"format_version": 1, "kind": "run", "payload": {"adversary_name": "GreedyDelay", '
    '"broadcasters": [0], "compiled": false, "executor": "sequential", "final_round": 3, '
    '"n": 4, "reach_bits": "f731", "rounds": 3, "seed": 0, "t_star": 3}}\n'
    '{"digest": "00738503751c4e5d953503306e8af3559102b928f632fa4c94f30d78d11575c8", '
    '"format_version": 1, "kind": "run", "payload": {"adversary_name": "StaticPath[n=4]", '
    '"broadcasters": [0], "compiled": true, "executor": "sequential", "final_round": 3, '
    '"n": 4, "reach_bits": "f731", "rounds": 3, "seed": 0, "t_star": 3}}\n'
)


def _portfolio_sweep(ns, **extra):
    """The CLI's portfolio as a sweep spec over ``ns``."""
    rows = [
        {"adversary": h.adversary, "params": h.params, "label": label}
        for label, h in portfolio_handles().items()
    ]
    return sweep_graph({"adversaries": rows, "ns": ns, **extra})


class TestCachedSweeps:
    """A sweep runs as a task graph: every grid cell is a cached ``run``
    task, so a warm sweep computes only new cells and stays bit-identical
    to a cold one."""

    @pytest.mark.parametrize("executor_cls", [SequentialExecutor, BatchExecutor])
    def test_warm_sweep_bit_identical_and_incremental(self, executor_cls):
        executor = executor_cls()
        rows = len(portfolio_handles())
        cache = ResultCache()
        small, small_out = _portfolio_sweep([6, 8])
        cold_small = run_graph(small, executor=executor).result(small_out)
        warm_small = run_graph(small, executor=executor, cache=cache)
        assert warm_small.result(small_out) == cold_small
        assert warm_small.stats["runs_computed"] == 2 * rows
        # enlarging the grid computes only the new n=10 column
        big, big_out = _portfolio_sweep([6, 8, 10])
        cold_big = run_graph(big, executor=executor).result(big_out)
        warm_big = run_graph(big, executor=executor, cache=cache)
        assert warm_big.result(big_out) == cold_big
        assert warm_big.stats["runs_computed"] == rows
        assert warm_big.stats["cached"] == 2 * rows
        # a fully-warm rerun computes and stores nothing
        before = cache.stats()["stores"]
        rerun = run_graph(big, executor=executor, cache=cache)
        assert rerun.result(big_out) == cold_big
        assert rerun.stats["computed"] == 0
        assert cache.stats()["stores"] == before

    def test_sharded_executor_uses_the_cache_in_the_parent(self):
        graph, out = _portfolio_sweep([6, 8])
        cache = ResultCache()
        sharded = ShardedExecutor(workers=2)
        cold = run_graph(graph, executor=sharded).result(out)
        warm = run_graph(graph, executor=sharded, cache=cache)
        assert warm.result(out) == cold
        rerun = run_graph(graph, executor=sharded, cache=cache)
        assert rerun.result(out) == cold
        assert rerun.stats["runs_computed"] == 0
        assert rerun.stats["cached"] == len(graph)

    def test_cache_file_with_a_cell_line_still_opens(self, tmp_path):
        """A file holding a ``cell`` line the retired sweep path wrote opens;
        the sweep computes its run entry beside it and nothing reads it."""
        path = tmp_path / "cache.jsonl"
        path.write_text(PARENT_CELL_LINE)
        cache = ResultCache(path=path)
        assert cache.stats()["loaded_from_disk"] == 1
        cell = "cell:" + spec_digest({"adversary": "static-path", "n": 6, "backend": "dense"})
        assert cell in cache
        graph, out = sweep_graph(
            {"adversaries": ["static-path"], "ns": [6], "backend": "dense"}
        )
        run = run_graph(graph, cache=cache)
        assert run.stats["runs_computed"] == 1
        assert [p["t_star"] for p in run.result(out)["points"]] == [5]
        reopened = ResultCache(path=path)
        assert reopened.lookup(cell, kind="cell") == {"t_star": 5}
        assert len(reopened) == len(cache) == 3  # the cell, the run, the agg

    def test_entry_for_a_deleted_adversary_leaves_the_file_usable(self, tmp_path):
        """A run entry for an adversary no longer registered still loads;
        no spec can address it, and the file's other entries still hit."""
        path = tmp_path / "cache.jsonl"
        path.write_text(DELETED_ADVERSARY_LINES)
        cache = ResultCache(path=path)
        assert cache.stats()["loaded_from_disk"] == 2
        with pytest.raises(SpecError, match="unknown adversary 'greedy'"):
            spec_digest({"adversary": "greedy", "n": 4, "backend": "dense"})
        raw = {"adversary": "static-path", "n": 4, "backend": "dense"}
        hit = cache.lookup(spec_digest(raw), kind="run")
        assert hit == report_to_doc(SequentialExecutor().run(to_run_spec(raw)))
        assert cache.stats()["hits"] == 1

    def test_cache_respects_backend_in_the_cell_address(self):
        """Cells are addressed per backend name: no cross-backend serving."""
        cache = ResultCache()
        runs = []
        for backend in ("dense", "bitset"):
            with use_backend(backend):
                graph, _ = sweep_graph({"adversaries": ["rotating-path"], "ns": [8]})
                runs.append(run_graph(graph, cache=cache).stats["runs_computed"])
        assert runs == [1, 1]
        for backend in ("dense", "bitset"):
            raw = {"adversary": "rotating-path", "n": 8, "backend": backend}
            assert spec_digest(raw) in cache
