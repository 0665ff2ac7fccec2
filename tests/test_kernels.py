"""The compiled kernel tier: dispatch, every kernel, and t* squaring.

Three things are pinned here.  (1) Every registered graph-compose kernel
(``word-or`` / ``gather`` / ``blas`` on bitset, ``matmul`` / ``blas`` on
dense) is byte-identical to the :func:`repro.core.matrix.bool_product`
reference across randomized matrices, word boundaries, empty graphs, and
forced-dispatch combinations.  (2) The dispatch layer: ``REPRO_KERNEL``
and :func:`~repro.core.kernels.use_kernel` forcing, the measured-rule
auto choice, :func:`~repro.core.kernels.autotune` persistence round
trips, and the byte-sized ``bool_product_words`` chunk bound.  (3) The
repeated-squaring completion search is decision- and byte-identical to
the round-by-round loop on both backends, including explicit-cap
truncation, ``n == 1``, and every adversary that advertises a static
schedule -- while spec digests (cache addresses) never see any of it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.adversaries.base import SequenceAdversary
from repro.adversaries.oblivious import RoundRobinAdversary, StaticTreeAdversary
from repro.adversaries.paths import RotatingPathAdversary, StaticPathAdversary
from repro.core import kernels as K
from repro.core import matrix as M
from repro.core.backend import get_backend
from repro.core.bitset import OR_CHUNK_BYTES, or_chunk_rows, words_for
from repro.engine.executor import BatchExecutor, RunSpec, SequentialExecutor
from repro.errors import BackendError
from repro.trees.generators import path, random_tree, star
from repro.trees.rooted_tree import RootedTree

BITSET = get_backend("bitset")
DENSE = get_backend("dense")

BITSET_KERNELS = K.available_kernels("bitset")
DENSE_KERNELS = K.available_kernels("dense")

def _random_matrix(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    a = rng.random((n, n)) < density
    np.fill_diagonal(a, True)
    return a


def _reference(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (a.astype(np.int32) @ g.astype(np.int32)) > 0


class TestKernelRegistry:
    def test_expected_kernels_registered(self):
        assert set(BITSET_KERNELS) >= {"word-or", "gather", "blas"}
        assert set(DENSE_KERNELS) >= {"matmul", "blas"}

    def test_unknown_forced_kernel_rejected(self):
        with pytest.raises(BackendError):
            K.set_kernel("no-such-kernel")
        with pytest.raises(BackendError):
            with K.use_kernel("definitely-not-registered"):
                pass

    def test_env_forcing_unknown_name_errors(self, monkeypatch):
        monkeypatch.setenv(K.ENV_KERNEL, "bogus")
        with pytest.raises(BackendError):
            K.forced_kernel_name()

    def test_env_auto_means_no_forcing(self, monkeypatch):
        monkeypatch.setenv(K.ENV_KERNEL, "auto")
        assert K.forced_kernel_name() is None
        monkeypatch.setenv(K.ENV_KERNEL, "")
        assert K.forced_kernel_name() is None

    def test_in_process_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(K.ENV_KERNEL, "word-or")
        with K.use_kernel("blas"):
            assert K.forced_kernel_name() == "blas"
        assert K.forced_kernel_name() == "word-or"


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel", BITSET_KERNELS)
    @pytest.mark.parametrize("seed", range(12))
    def test_bitset_kernels_match_reference(self, kernel, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(1, 200))
        a = _random_matrix(n, 0.4, rng)
        g = (rng.random((n, n)) < rng.choice([0.02, 0.3, 0.8])).astype(np.bool_)
        with K.use_kernel(kernel):
            got = BITSET.to_dense(BITSET.compose_with_graph(BITSET.from_dense(a), g))
        np.testing.assert_array_equal(got, _reference(a, g))

    @pytest.mark.parametrize("kernel", DENSE_KERNELS)
    @pytest.mark.parametrize("seed", range(6))
    def test_dense_kernels_match_reference(self, kernel, seed):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 200))
        a = _random_matrix(n, 0.4, rng)
        g = (rng.random((n, n)) < 0.3).astype(np.bool_)
        with K.use_kernel(kernel):
            got = DENSE.compose_with_graph(a.copy(), g)
        np.testing.assert_array_equal(got, _reference(a, g))

    @pytest.mark.parametrize("kernel", BITSET_KERNELS)
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, kernel, n):
        rng = np.random.default_rng(n)
        a = _random_matrix(n, 0.4, rng)
        g = _random_matrix(n, 0.4, rng)
        with K.use_kernel(kernel):
            got = BITSET.to_dense(BITSET.compose_with_graph(BITSET.from_dense(a), g))
        np.testing.assert_array_equal(got, _reference(a, g))

    @pytest.mark.parametrize("kernel", BITSET_KERNELS)
    def test_empty_graph(self, kernel):
        """Zero columns must stay zero (reduceat's empty-segment trap)."""
        n = 70
        a = _random_matrix(n, 0.5, np.random.default_rng(7))
        g = np.zeros((n, n), dtype=np.bool_)
        g[3, 5] = True  # one lonely edge among empty columns
        with K.use_kernel(kernel):
            got = BITSET.to_dense(BITSET.compose_with_graph(BITSET.from_dense(a), g))
        np.testing.assert_array_equal(got, _reference(a, g))

    @pytest.mark.parametrize("kernel", BITSET_KERNELS)
    def test_padding_bits_stay_zero(self, kernel):
        rng = np.random.default_rng(11)
        n = 67
        with K.use_kernel(kernel):
            out = BITSET.compose_with_graph(
                BITSET.from_dense(_random_matrix(n, 0.5, rng)),
                _random_matrix(n, 0.5, rng),
            )
        pad_mask = np.uint64((1 << 64) - (1 << (n % 64)))
        assert (out[:, -1] & pad_mask).max() == 0


class TestDispatch:
    def test_sparse_graph_routes_to_gather(self):
        n = 256
        g = np.eye(n, dtype=np.bool_)  # mean degree 1
        assert K.choose_kernel("bitset", n, g) == "gather"

    def test_large_dense_graph_routes_to_blas(self):
        n = 1024
        g = np.ones((n, n), dtype=np.bool_)
        assert K.choose_kernel("bitset", n, g) == "blas"

    def test_small_dense_graph_routes_to_word_or(self):
        n = 64  # mean degree 64 > gather threshold, n below the blas cutoff
        g = np.ones((n, n), dtype=np.bool_)
        assert K.choose_kernel("bitset", n, g) == "word-or"

    def test_forced_kernel_unavailable_for_backend_falls_back(self, monkeypatch):
        """REPRO_KERNEL=gather must not break the dense backend."""
        monkeypatch.setenv(K.ENV_KERNEL, "gather")
        rng = np.random.default_rng(5)
        a = _random_matrix(40, 0.4, rng)
        g = _random_matrix(40, 0.3, rng)
        got = DENSE.compose_with_graph(a.copy(), g)
        np.testing.assert_array_equal(got, _reference(a, g))

    def test_kernel_table_shape(self):
        doc = K.kernel_table()
        assert set(doc) >= {"forced", "rules", "kernels", "table_path", "table_error"}
        assert "bitset" in doc["kernels"]
        assert "gather_max_degree" in doc["rules"]["bitset"]

    def test_corrupt_table_file_falls_back_to_defaults(self, tmp_path, monkeypatch):
        bad = tmp_path / "table.json"
        bad.write_text("{not json")
        monkeypatch.setenv(K.ENV_TABLE, str(bad))
        K.reload_kernel_table()
        try:
            assert K.current_rules()["bitset"] == K.DEFAULT_RULES["bitset"]
            assert K.kernel_table()["table_error"] is not None
        finally:
            K.reload_kernel_table()

    def test_table_file_overrides_rules(self, tmp_path, monkeypatch):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"rules": {"bitset": {"blas_min_n": 7777}}}))
        monkeypatch.setenv(K.ENV_TABLE, str(table))
        K.reload_kernel_table()
        try:
            assert K.current_rules()["bitset"]["blas_min_n"] == 7777
            # gather threshold untouched by a partial override
            assert (
                K.current_rules()["bitset"]["gather_max_degree"]
                == K.DEFAULT_RULES["bitset"]["gather_max_degree"]
            )
        finally:
            K.reload_kernel_table()


class TestAutotune:
    def test_autotune_persists_and_activates(self, tmp_path):
        target = tmp_path / "kernel_table.json"
        try:
            doc = K.autotune(ns=(16, 32), degrees=(4,), repeats=1, path=str(target))
            assert target.exists()
            on_disk = json.loads(target.read_text())
            assert on_disk["rules"] == doc["rules"]
            assert on_disk["version"] == 1
            assert set(on_disk["machine"]) >= {"platform", "numpy", "cpus"}
            assert on_disk["measured"]  # per-n timings recorded
            # the fresh rules are active in-process
            assert K.current_rules()["bitset"] == doc["rules"]["bitset"]
        finally:
            K.reload_kernel_table()

    def test_autotune_without_persist_leaves_no_file(self, tmp_path):
        target = tmp_path / "never.json"
        try:
            K.autotune(ns=(16,), degrees=(4,), repeats=1, path=str(target), persist=False)
            assert not target.exists()
        finally:
            K.reload_kernel_table()


class TestChunkBudget:
    @pytest.mark.parametrize("n", [64, 1100, 4096, 100_000])
    def test_or_temporary_bounded_in_bytes(self, n):
        """The (chunk, n, words) uint64 temporary fits the byte budget."""
        words = words_for(n)
        chunk = or_chunk_rows(n, words)
        assert chunk >= 1
        if chunk > 1:  # a single row may legitimately exceed the budget
            assert chunk * n * words * 8 <= OR_CHUNK_BYTES

    def test_n4096_regression(self):
        """The n=4096 temporary is 32 MiB, not the pre-fix 8x blowup."""
        words = words_for(4096)
        chunk = or_chunk_rows(4096, words)
        assert chunk * 4096 * words * 8 <= 32 * 1024 * 1024

    def test_blas_chunk_bounded(self):
        """The blas kernel's f32 bits temporary respects its budget."""
        n = 1 << 15
        word_chunk = max(1, K.BLAS_CHUNK_BYTES // (4 * n * 64))
        assert word_chunk * 64 * n * 4 <= K.BLAS_CHUNK_BYTES


def _sequential_reference(adv, n, backend, max_rounds=None):
    """The compiled round-by-round loop with squaring disabled."""
    return SequentialExecutor(use_squaring=False).run(
        RunSpec(adversary=adv, n=n, backend=backend, max_rounds=max_rounds)
    )


def _squared(adv, n, backend, max_rounds=None, executor=None):
    ex = executor if executor is not None else SequentialExecutor()
    return ex.run(RunSpec(adversary=adv, n=n, backend=backend, max_rounds=max_rounds))


class TestSquaringSearch:
    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_static_trees_match_loop(self, backend, seed):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(1, 130))
        adv = StaticTreeAdversary(random_tree(n, rng))
        fast = _squared(adv, n, backend)
        slow = _sequential_reference(adv, n, backend)
        assert fast.compiled and fast.t_star == slow.t_star
        assert fast.rounds == slow.rounds
        assert fast.broadcasters == slow.broadcasters
        assert fast.final_state.key() == slow.final_state.key()

    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: StaticPathAdversary(n),
            lambda n: StaticTreeAdversary(star(n)),
            lambda n: RotatingPathAdversary(n, shift=0),
            lambda n: RotatingPathAdversary(n, shift=n),  # shift % n == 0
            lambda n: RoundRobinAdversary([path(n)]),
            lambda n: SequenceAdversary([path(n)] * 3, after="hold"),
            lambda n: SequenceAdversary([path(n)], after="repeat"),
        ],
        ids=[
            "static-path",
            "static-star",
            "rotating-shift0",
            "rotating-shift-n",
            "round-robin-1",
            "sequence-hold",
            "sequence-repeat",
        ],
    )
    def test_static_families_take_fast_path(self, backend, make):
        n = 23
        fast = _squared(make(n), n, backend)
        slow = _sequential_reference(make(n), n, backend)
        assert fast.compiled
        assert fast.t_star == slow.t_star
        assert fast.final_state.key() == slow.final_state.key()

    def test_non_static_families_are_not_claimed(self):
        n = 12
        assert RotatingPathAdversary(n, shift=1).compile_static_row(n) is None
        assert SequenceAdversary(
            [path(n), star(n)], after="hold"
        ).compile_static_row(n) is None
        assert SequenceAdversary([path(n)], after="error").compile_static_row(n) is None
        two = [path(n), star(n)]
        assert RoundRobinAdversary(two).compile_static_row(n) is None

    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    @pytest.mark.parametrize("cap", [0, 1, 2, 7, 21, 22, 23])
    def test_explicit_cap_truncation(self, backend, cap):
        """Truncated runs report t_star=None with the state after cap rounds."""
        n = 23  # static path: t* = 22
        fast = _squared(StaticPathAdversary(n), n, backend, max_rounds=cap)
        slow = _sequential_reference(StaticPathAdversary(n), n, backend, max_rounds=cap)
        assert fast.t_star == slow.t_star
        assert fast.rounds == slow.rounds == min(cap, 22)
        assert fast.final_state.key() == slow.final_state.key()

    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    def test_n1_completes_at_zero(self, backend):
        fast = _squared(StaticPathAdversary(1), 1, backend)
        assert fast.t_star == 0 and fast.rounds == 0
        assert fast.broadcasters == (0,)

    def test_batch_executor_routes_static_specs(self):
        n = 17
        specs = [
            RunSpec(adversary=StaticPathAdversary(n), n=n, backend="bitset"),
            RunSpec(adversary=RotatingPathAdversary(n, shift=1), n=n, backend="bitset"),
            RunSpec(adversary=StaticTreeAdversary(star(n)), n=n, backend="bitset"),
        ]
        batch = BatchExecutor().run_many(specs)
        seq = [SequentialExecutor().run(s) for s in specs]
        for b, s in zip(batch, seq):
            assert b.t_star == s.t_star
            assert b.final_state.key() == s.final_state.key()
        assert batch[0].compiled and batch[2].compiled

    def test_keep_trees_disables_squaring(self):
        """keep_trees needs the real loop; the fast path must step aside."""
        n = 9
        report = SequentialExecutor().run(
            RunSpec(adversary=StaticPathAdversary(n), n=n, keep_trees=True)
        )
        assert len(report.trees) == report.t_star == n - 1

    def test_search_uses_log_compositions(self):
        """The whole point: O(log t*) composes, not O(t*)."""
        calls = {"n": 0}
        backend = get_backend("bitset")

        class Counting(type(backend)):
            def or_gather(self, mat, other, parents):
                calls["n"] += 1
                return super().or_gather(mat, other, parents)

            def compose_with_tree(self, mat, parent):
                calls["n"] += 1
                return super().compose_with_tree(mat, parent)

        n = 1025  # static path: t* = 1024
        row = path(n).parent_array_numpy()
        t_star, _, _ = K.static_completion_search(Counting(), row, n, n * n)
        assert t_star == 1024
        assert calls["n"] <= 2 * 10 + 4  # ~2 log2(t*) + O(1)


class TestServiceInvariance:
    def test_spec_digest_ignores_kernel_choice(self, monkeypatch):
        """Kernel choice is an execution detail: cache addresses are stable."""
        from repro.service.specs import spec_digest

        spec = {"adversary": "static-path", "n": 24}
        baseline = spec_digest(spec)
        for forced in ("word-or", "gather", "blas"):
            monkeypatch.setenv(K.ENV_KERNEL, forced)
            assert spec_digest(spec) == baseline
            with K.use_kernel(forced):
                assert spec_digest(spec) == baseline
        monkeypatch.delenv(K.ENV_KERNEL)
        assert spec_digest(spec) == baseline

    def test_cached_static_run_matches_loop_result(self, tmp_path):
        """A squared run round-trips the result cache byte-identically."""
        from repro.service.cache import ResultCache
        from repro.service.specs import spec_digest, to_run_spec

        raw = {"adversary": "static-path", "n": 24}
        report = SequentialExecutor().run(to_run_spec(raw))
        loop = SequentialExecutor(use_squaring=False).run(to_run_spec(raw))
        cache = ResultCache(path=str(tmp_path / "c.jsonl"))
        digest = spec_digest(raw)
        cache.store_report(digest, report)
        cached = cache.lookup_report(digest)
        assert cached is not None
        assert cached.t_star == loop.t_star == 23
        assert cached.final_state.key() == loop.final_state.key()

    def test_metrics_reports_kernel_table(self):
        from repro.service.scheduler import JobScheduler

        scheduler = JobScheduler()
        doc = scheduler.metrics()
        assert "kernels" in doc
        assert "bitset" in doc["kernels"]["kernels"]
        assert "rules" in doc["kernels"]


def test_rooted_tree_type_is_importable():
    # Keeps the RootedTree import honest for readers of this module.
    assert RootedTree is not None


def test_matrix_reference_untouched():
    """M.bool_product stays the dispatch-free reference semantics."""
    rng = np.random.default_rng(1)
    a = _random_matrix(30, 0.4, rng)
    g = _random_matrix(30, 0.4, rng)
    np.testing.assert_array_equal(M.bool_product(a, g), _reference(a, g))
