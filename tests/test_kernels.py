"""The kernel tier: one graph-compose product per backend, and t* squaring.

Two things are pinned here.  (1) Each backend's one ``R ∘ G`` product
(``word-or`` on bitset, the float32 ``blas`` GEMM on dense) is what the
backend seam runs and is byte-identical to the
:func:`repro.core.matrix.bool_product` reference across randomized
matrices, word boundaries, empty graphs and padding bits, with the
byte-sized ``bool_product_words`` chunk bound.  (2) The repeated-squaring
completion search is decision- and byte-identical to the round-by-round
loop on both backends, including explicit-cap truncation, ``n == 1``,
and every adversary that advertises a static schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.base import SequenceAdversary
from repro.adversaries.oblivious import StaticTreeAdversary
from repro.adversaries.paths import RotatingPathAdversary, StaticPathAdversary
from repro.core import kernels as K
from repro.core import matrix as M
from repro.core.backend import get_backend
from repro.core.bitset import OR_CHUNK_BYTES, or_chunk_rows, words_for
from repro.engine.executor import BatchExecutor, RunSpec, SequentialExecutor
from repro.trees.generators import path, random_tree, star
from repro.trees.rooted_tree import RootedTree

BITSET = get_backend("bitset")

#: Backend name -> its one graph-compose product (the ``kernel`` span label).
PRODUCTS = K.kernel_table()


def _random_matrix(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    a = rng.random((n, n)) < density
    np.fill_diagonal(a, True)
    return a


def _reference(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (a.astype(np.int32) @ g.astype(np.int32)) > 0


def _compose(backend: str, kernel: str, mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``mat ∘ g`` through the backend seam, asserting ``kernel`` computed it."""
    seen = []

    def observer(backend_name, kernel_name, n, thunk):
        seen.append((backend_name, kernel_name, n))
        return thunk()

    saved = K._compose_observer
    K.set_compose_observer(observer)
    try:
        out = get_backend(backend).compose_with_graph(mat, g)
    finally:
        K.set_compose_observer(saved)
    assert seen == [(backend, kernel, mat.shape[0])]
    return out


def _bitset_compose(kernel: str, a: np.ndarray, g: np.ndarray) -> np.ndarray:
    return BITSET.to_dense(_compose("bitset", kernel, BITSET.from_dense(a), g))


def test_each_backend_has_one_product():
    assert PRODUCTS == {"bitset": "word-or", "dense": "blas"}


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel", [PRODUCTS["bitset"]])
    @pytest.mark.parametrize("seed", range(12))
    def test_bitset_product_matches_reference(self, kernel, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(1, 200))
        a = _random_matrix(n, 0.4, rng)
        g = (rng.random((n, n)) < rng.choice([0.02, 0.3, 0.8])).astype(np.bool_)
        got = _bitset_compose(kernel, a, g)
        np.testing.assert_array_equal(got, M.bool_product(a, g))

    @pytest.mark.parametrize("kernel", [PRODUCTS["dense"]])
    @pytest.mark.parametrize("seed", range(6))
    def test_dense_kernels_match_reference(self, kernel, seed):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 200))
        a = _random_matrix(n, 0.4, rng)
        g = (rng.random((n, n)) < 0.3).astype(np.bool_)
        got = _compose("dense", kernel, a.copy(), g)
        np.testing.assert_array_equal(got, M.bool_product(a, g))

    @pytest.mark.parametrize("kernel", [PRODUCTS["bitset"]])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, kernel, n):
        rng = np.random.default_rng(n)
        a = _random_matrix(n, 0.4, rng)
        g = _random_matrix(n, 0.4, rng)
        got = _bitset_compose(kernel, a, g)
        np.testing.assert_array_equal(got, M.bool_product(a, g))

    @pytest.mark.parametrize("kernel", [PRODUCTS["bitset"]])
    def test_empty_graph(self, kernel):
        """Zero columns must stay zero."""
        n = 70
        a = _random_matrix(n, 0.5, np.random.default_rng(7))
        g = np.zeros((n, n), dtype=np.bool_)
        g[3, 5] = True  # one lonely edge among empty columns
        got = _bitset_compose(kernel, a, g)
        np.testing.assert_array_equal(got, M.bool_product(a, g))

    @pytest.mark.parametrize("kernel", [PRODUCTS["bitset"]])
    def test_padding_bits_stay_zero(self, kernel):
        rng = np.random.default_rng(11)
        n = 67
        out = _compose(
            "bitset",
            kernel,
            BITSET.from_dense(_random_matrix(n, 0.5, rng)),
            _random_matrix(n, 0.5, rng),
        )
        pad_mask = np.uint64((1 << 64) - (1 << (n % 64)))
        assert (out[:, -1] & pad_mask).max() == 0


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
            lambda n: SequenceAdversary([path(n)] * 3, after="hold"),
            lambda n: SequenceAdversary([path(n)], after="repeat"),
        ],
        ids=[
            "static-path",
            "static-star",
            "rotating-shift0",
            "rotating-shift-n",
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
        assert SequenceAdversary(two, after="repeat").compile_static_row(n) is None

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
    def test_cached_static_run_matches_loop_result(self, tmp_path):
        """A squared run round-trips the result cache byte-identically."""
        from repro.service.cache import ResultCache, report_from_doc, report_to_doc
        from repro.service.specs import spec_digest, to_run_spec

        raw = {"adversary": "static-path", "n": 24}
        report = SequentialExecutor().run(to_run_spec(raw))
        loop = SequentialExecutor(use_squaring=False).run(to_run_spec(raw))
        cache = ResultCache(path=str(tmp_path / "c.jsonl"))
        digest = spec_digest(raw)
        cache.store(digest, "run", report_to_doc(report))
        cached = report_from_doc(cache.lookup(digest, kind="run"))
        assert cached.t_star == loop.t_star == 23
        assert cached.final_state.key() == loop.final_state.key()


def test_rooted_tree_type_is_importable():
    # Keeps the RootedTree import honest for readers of this module.
    assert RootedTree is not None


def test_matrix_reference_untouched():
    """M.bool_product stays the dispatch-free reference semantics."""
    rng = np.random.default_rng(1)
    a = _random_matrix(30, 0.4, rng)
    g = _random_matrix(30, 0.4, rng)
    np.testing.assert_array_equal(M.bool_product(a, g), _reference(a, g))
