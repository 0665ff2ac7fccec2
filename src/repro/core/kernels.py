"""Compiled kernel tier: graph-compose kernels, dispatch, and t* squaring.

This module sits *behind* the backend seam (:mod:`repro.core.backend`):
``compose_with_graph`` on both shipped backends routes through
:func:`graph_compose`, which picks one of several registered kernels for
the same mathematical operation ``R ∘ G``.  Three legs live here:

Graph-compose kernels (bitset)
------------------------------
``word-or``
    The original chunked OR-reduction over packed rows
    (:func:`repro.core.bitset.bool_product_words`) -- pure word-parallel
    memory traffic, no BLAS.
``gather``
    CSR-style gather: concatenate the packed heard-of rows selected by
    each column of ``G`` and ``np.bitwise_or.reduceat`` over the segment
    starts.  Work is ``O(nnz(G) * words)``, so it wins big on sparse
    round graphs (the nonsplit experiments' cyclic graphs have constant
    degree) and loses on dense ones.
``blas``
    Reformulate the boolean product as a float32 sgemm: unpack the packed
    words to 0/1 float32, compute ``G.T @ bits`` (counts are <= n < 2^24,
    exactly representable in float32), threshold ``> 0``, and repack.
    OpenBLAS turns the ``n^3`` bit-AND-OR into a cache-blocked sgemm --
    ~5x over ``word-or`` at n=4096 dense on one core.  Chunked over the
    word axis so the float32 temporaries stay under
    :data:`BLAS_CHUNK_BYTES`.

The dense backend gets ``matmul`` (the original int32 matmul, the
reference semantics of :func:`repro.core.matrix.bool_product`) and a
float32 ``blas`` variant.

Dispatch
--------
:func:`graph_compose` consults, in priority order: an in-process override
(:func:`set_kernel` / :func:`use_kernel`), the ``REPRO_KERNEL``
environment variable, then a small measured rule table (mean degree of
``G`` routes sparse graphs to ``gather``; ``n`` past the measured
crossover routes to ``blas``).  The built-in defaults were measured on a
1-core OpenBLAS host; :func:`autotune` re-measures the crossovers on the
current machine and persists them as JSON (``REPRO_KERNEL_TABLE`` points
future processes at the file).  Kernel choice is an *execution detail*:
every kernel is bit-identical, so cache digests never include it.

Repeated-squaring completion search
-----------------------------------
:func:`static_completion_search` finds ``t*`` for a *static* schedule
(the same tree every round) in ``O(log t*)`` compositions instead of
``O(t*)``.  Naive boolean matrix squaring would lose here (``t* <= 2.5n``
but squaring costs ``n^3/64`` per step); instead the power ``G(d)`` of a
single tree is represented as the pair ``(H_d, j_d)`` where ``H_d`` is
the ordinary state handle and ``j_d[y]`` is ``y``'s ``d``-step ancestor
(clamped at the root).  Because the heard-of set after ``a + b`` rounds
satisfies ``heard_{a+b}[y] = heard_a[y] | heard_b[j_a[y]]``, both
doubling and combining are one ``or_gather`` (gather + OR, ``O(n *
words)``) plus one integer gather ``j_b[j_a]``:

    double:   H_{2d} = H_d | H_d[j_d],     j_{2d} = j_d[j_d]
    combine:  H_{a+b} = H_a | H_b[j_a],    j_{a+b} = j_b[j_a]

So the search is: double until a broadcaster appears (or the round cap is
hit), then binary-search the exact ``t*`` down the ladder -- ``~2 log2
t* + 1`` gather-OR passes, byte-identical to the round-by-round loop.
The executors (:mod:`repro.engine.executor`) call this automatically for
adversaries that advertise a static schedule via
:meth:`~repro.adversaries.base.Adversary.compile_static_row`.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.backend import MatrixBackend, get_backend
from repro.errors import BackendError

#: Environment variable forcing one kernel name (or ``auto``) for every
#: graph compose; the in-process :func:`set_kernel` override wins over it.
ENV_KERNEL = "REPRO_KERNEL"

#: Environment variable pointing at a persisted :func:`autotune` table.
ENV_TABLE = "REPRO_KERNEL_TABLE"

#: Byte budget for the float32 unpacked-bits temporary of the ``blas``
#: kernel.  64 MiB keeps n <= 4096 in a single sgemm (narrow chunked
#: panels measured ~2x slower than one full-width call on OpenBLAS) while
#: still bounding memory at larger n.
BLAS_CHUNK_BYTES = 1 << 26

#: Byte budget for the gathered-rows temporary of the ``gather`` kernel.
GATHER_CHUNK_BYTES = 1 << 25

#: Dispatch rules measured on the reference host (1 core, OpenBLAS,
#: numpy 2.x).  ``gather_max_degree``: route to ``gather`` when the mean
#: out-degree of ``G`` is at or below this.  ``blas_min_n``: route to
#: ``blas`` from this ``n`` up.  :func:`autotune` re-measures both.
DEFAULT_RULES: Dict[str, Dict[str, float]] = {
    "bitset": {"gather_max_degree": 32.0, "blas_min_n": 128},
    "dense": {"blas_min_n": 128},
}

#: Sentinel for "never pick this kernel" in an autotuned rule.
NEVER = 1 << 30


# ----------------------------------------------------------------------
# Kernel implementations
# ----------------------------------------------------------------------


def _word_or_kernel(mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    from repro.core.bitset import bool_product_words

    return bool_product_words(mat, g)


def _gather_kernel(mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """OR-reduce the packed rows selected by each column of ``G``.

    ``heard'[y] = OR over {z : G[z, y]} heard[z]`` becomes: gather the
    selected rows for a block of output rows into one ``(nnz_block,
    words)`` array and ``np.bitwise_or.reduceat`` at the segment starts.
    Rows with no contributors stay zero (``reduceat`` mishandles empty
    segments, so only nonempty rows are reduced).  Chunked over output
    rows so the gathered temporary stays under
    :data:`GATHER_CHUNK_BYTES`.
    """
    n, words = mat.shape
    gT = np.asarray(g, dtype=np.bool_).T
    counts = gT.sum(axis=1, dtype=np.int64)
    out = np.zeros_like(mat)
    budget_rows = max(1, GATHER_CHUNK_BYTES // (words * 8))
    csum = np.concatenate([[0], np.cumsum(counts)])
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and csum[stop + 1] - csum[start] <= budget_rows:
            stop += 1
        ys, zs = np.nonzero(gT[start:stop])
        if zs.size:
            cnt = counts[start:stop]
            nonempty = cnt > 0
            seg_starts = np.concatenate([[0], np.cumsum(cnt)])[:-1][nonempty]
            reduced = np.bitwise_or.reduceat(mat[zs], seg_starts, axis=0)
            out[np.nonzero(nonempty)[0] + start] = reduced
        start = stop
    return out


def _blas_kernel(mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``R ∘ G`` as a float32 sgemm over unpacked bit columns.

    ``G.T @ bits`` counts, per (y, source-bit), how many selected rows
    carry the bit; counts are <= n < 2^24 so float32 is exact and the
    ``> 0`` threshold reproduces the boolean OR bit-for-bit.  Source
    padding bits are zero in ``mat``, so their columns repack to zero.
    """
    from repro.core.bitset import WORD_BITS, _unpack_bits

    n, words = mat.shape
    gT = np.ascontiguousarray(g.T, dtype=np.float32)
    out = np.empty_like(mat)
    word_chunk = max(1, BLAS_CHUNK_BYTES // (4 * n * WORD_BITS))
    for w0 in range(0, words, word_chunk):
        w1 = min(words, w0 + word_chunk)
        bits = _unpack_bits(mat[:, w0:w1], (w1 - w0) * WORD_BITS)
        prod = gT @ bits.astype(np.float32)
        packed = np.packbits(prod > 0, axis=-1, bitorder="little")
        out[:, w0:w1] = np.ascontiguousarray(packed).view(np.uint64)
    return out


def _dense_matmul_kernel(mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    # The reference semantics of repro.core.matrix.bool_product.
    return (mat.astype(np.int32) @ g.astype(np.int32)) > 0


def _dense_blas_kernel(mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (mat.astype(np.float32) @ g.astype(np.float32)) > 0


# ----------------------------------------------------------------------
# Registry + dispatch
# ----------------------------------------------------------------------

#: ``{backend name: {kernel name: fn(mat, validated bool G) -> handle}}``.
_KERNELS: Dict[str, Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]] = {
    "bitset": {
        "word-or": _word_or_kernel,
        "gather": _gather_kernel,
        "blas": _blas_kernel,
    },
    "dense": {
        "matmul": _dense_matmul_kernel,
        "blas": _dense_blas_kernel,
    },
}

_forced: Optional[str] = None
_rules_cache: Optional[Tuple[Dict[str, Dict[str, float]], Optional[str], Optional[str]]] = None

#: Optional observability hook (installed while :mod:`repro.obs.trace` is on).
#: When set, every compose that crosses the kernel seam routes through it
#: as ``observer(backend_name, kernel_name, n, thunk) -> result``; when
#: ``None`` (the default) call sites take the raw path -- one attribute
#: load and an ``is None`` branch is the entire disabled cost.
_compose_observer: Optional[Callable[[str, str, int, Callable[[], np.ndarray]], np.ndarray]] = None


def set_compose_observer(
    observer: Optional[Callable[[str, str, int, Callable[[], np.ndarray]], np.ndarray]]
) -> None:
    """Install (or with ``None`` remove) the kernel-seam observer."""
    global _compose_observer
    _compose_observer = observer


def available_kernels(backend_name: str) -> Tuple[str, ...]:
    """Kernel names registered for a backend, sorted."""
    return tuple(sorted(_KERNELS.get(backend_name, ())))


def known_kernel_names() -> Tuple[str, ...]:
    """Every kernel name any backend registers (the ``REPRO_KERNEL`` domain)."""
    names = {name for table in _KERNELS.values() for name in table}
    return tuple(sorted(names))


def set_kernel(name: Optional[str]) -> None:
    """Force one kernel in-process (``None``/``"auto"`` restores dispatch)."""
    global _forced
    if name in (None, "auto"):
        _forced = None
        return
    if name not in known_kernel_names():
        raise BackendError(
            f"unknown kernel {name!r}; known: {known_kernel_names()}"
        )
    _forced = name


@contextmanager
def use_kernel(name: Optional[str]) -> Iterator[None]:
    """Temporarily force one kernel (tests and the equivalence sweeps)."""
    global _forced
    saved = _forced
    set_kernel(name)
    try:
        yield
    finally:
        _forced = saved


def forced_kernel_name() -> Optional[str]:
    """The forced kernel: in-process override first, then ``REPRO_KERNEL``."""
    if _forced is not None:
        return _forced
    env = os.environ.get(ENV_KERNEL, "").strip()
    if not env or env == "auto":
        return None
    if env not in known_kernel_names():
        raise BackendError(
            f"{ENV_KERNEL}={env!r} is not a known kernel; "
            f"known: {known_kernel_names()}"
        )
    return env


def _load_rules() -> Tuple[Dict[str, Dict[str, float]], Optional[str], Optional[str]]:
    """``(rules, table_path, load_error)`` with the persisted table merged in."""
    rules = {name: dict(table) for name, table in DEFAULT_RULES.items()}
    path = os.environ.get(ENV_TABLE) or None
    error: Optional[str] = None
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            for backend_name, overrides in doc.get("rules", {}).items():
                rules.setdefault(backend_name, {}).update(overrides)
        except (OSError, ValueError) as exc:
            # A missing or corrupt table must not take down runs; the
            # defaults stay active and kernel_table() reports the error.
            error = f"{type(exc).__name__}: {exc}"
    return rules, path, error


def current_rules() -> Dict[str, Dict[str, float]]:
    """The active dispatch rules (defaults overlaid by any persisted table)."""
    global _rules_cache
    if _rules_cache is None:
        _rules_cache = _load_rules()
    return _rules_cache[0]


def choose_kernel(backend_name: str, n: int, g: np.ndarray) -> Optional[str]:
    """The kernel auto-dispatch would pick for this compose (``None`` = ABC)."""
    rules = current_rules().get(backend_name)
    if rules is None or backend_name not in _KERNELS:
        return None
    table = _KERNELS[backend_name]
    if backend_name == "bitset":
        degree = np.count_nonzero(g) / max(n, 1)
        if degree <= rules.get("gather_max_degree", 0) and "gather" in table:
            return "gather"
        if n >= rules.get("blas_min_n", NEVER) and "blas" in table:
            return "blas"
        return "word-or"
    if n >= rules.get("blas_min_n", NEVER) and "blas" in table:
        return "blas"
    return "matmul" if "matmul" in table else None


def graph_compose(
    backend: MatrixBackend, mat: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Dispatch one validated ``R ∘ G`` compose to the winning kernel.

    ``g`` must already be a validated boolean ``(n, n)`` adjacency (the
    backends validate before routing here).  A forced kernel that is not
    registered for this backend's layout falls back to auto dispatch, so
    ``REPRO_KERNEL=gather`` can drive a whole suite without the dense
    backend erroring.
    """
    table = _KERNELS.get(backend.name)
    if not table:
        raise BackendError(
            f"no graph-compose kernels registered for backend {backend.name!r}"
        )
    name = forced_kernel_name()
    if name is None or name not in table:
        name = choose_kernel(backend.name, mat.shape[0], g)
    if name is None:
        raise BackendError(
            f"no dispatch rule for backend {backend.name!r}"
        )
    observer = _compose_observer
    if observer is None:
        return table[name](mat, g)
    return observer(backend.name, name, mat.shape[0], lambda: table[name](mat, g))


# ----------------------------------------------------------------------
# Autotune + introspection
# ----------------------------------------------------------------------


def machine_info() -> Dict[str, object]:
    """Host fingerprint recorded next to measured numbers."""
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count() or 1,
    }


def default_table_path() -> str:
    """Where :func:`autotune` persists when no path is given."""
    env = os.environ.get(ENV_TABLE)
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "kernel_table.json"
    )


def _time_call(fn: Callable[[], np.ndarray], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def autotune(
    ns: Tuple[int, ...] = (64, 128, 256, 512),
    degrees: Tuple[int, ...] = (8, 32, 128),
    repeats: int = 3,
    path: Optional[str] = None,
    persist: bool = True,
    seed: int = 0,
) -> Dict[str, object]:
    """Re-measure the kernel crossovers on this machine.

    Times every registered bitset/dense kernel on random states over the
    ``ns`` grid (dense ~0.3-density graphs for the n-crossover, constant
    ``degrees`` graphs at the largest ``n`` for the gather threshold),
    derives fresh dispatch rules, and -- when ``persist`` -- writes the
    whole document to ``path`` (default :func:`default_table_path`, which
    honours ``REPRO_KERNEL_TABLE``).  The new rules become active in this
    process immediately.  Returns the document.
    """
    global _rules_cache
    rng = np.random.default_rng(seed)
    bitset = get_backend("bitset")
    measured: Dict[str, Dict[str, float]] = {}

    def _dense_graph(n: int) -> np.ndarray:
        g = rng.random((n, n)) < 0.3
        np.fill_diagonal(g, True)
        return g

    def _sparse_graph(n: int, degree: int) -> np.ndarray:
        g = rng.random((n, n)) < min(1.0, degree / n)
        np.fill_diagonal(g, True)
        return g

    blas_min_n = NEVER
    dense_blas_min_n = NEVER
    for n in sorted(ns):
        mat = bitset.from_dense(rng.random((n, n)) < 0.3)
        dmat = rng.random((n, n)) < 0.3
        g = _dense_graph(n)
        cell = {
            "word-or": _time_call(lambda: _word_or_kernel(mat, g), repeats),
            "blas": _time_call(lambda: _blas_kernel(mat, g), repeats),
            "dense-matmul": _time_call(
                lambda: _dense_matmul_kernel(dmat, g), repeats
            ),
            "dense-blas": _time_call(
                lambda: _dense_blas_kernel(dmat, g), repeats
            ),
        }
        measured[f"n{n}"] = cell
        if blas_min_n == NEVER and cell["blas"] < cell["word-or"]:
            blas_min_n = n
        if dense_blas_min_n == NEVER and cell["dense-blas"] < cell["dense-matmul"]:
            dense_blas_min_n = n

    n_big = max(ns)
    mat = bitset.from_dense(rng.random((n_big, n_big)) < 0.3)
    gather_max_degree = 0.0
    for degree in sorted(degrees):
        g = _sparse_graph(n_big, degree)
        gather_s = _time_call(lambda: _gather_kernel(mat, g), repeats)
        rival_s = min(
            _time_call(lambda: _word_or_kernel(mat, g), repeats),
            _time_call(lambda: _blas_kernel(mat, g), repeats),
        )
        measured[f"n{n_big}-deg{degree}"] = {
            "gather": gather_s,
            "rival": rival_s,
        }
        if gather_s < rival_s:
            gather_max_degree = float(degree)

    doc: Dict[str, object] = {
        "version": 1,
        "machine": machine_info(),
        "rules": {
            "bitset": {
                "gather_max_degree": gather_max_degree,
                "blas_min_n": blas_min_n,
            },
            "dense": {"blas_min_n": dense_blas_min_n},
        },
        "measured": measured,
    }
    if persist:
        target = path or default_table_path()
        os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    # Activate immediately, regardless of whether the file is on the
    # REPRO_KERNEL_TABLE path this process started with.
    rules = {name: dict(table) for name, table in DEFAULT_RULES.items()}
    for backend_name, overrides in doc["rules"].items():
        rules.setdefault(backend_name, {}).update(overrides)
    _rules_cache = (rules, path or default_table_path(), None)
    return doc


def kernel_table() -> Dict[str, object]:
    """The active dispatch picture (the service exposes this on /metrics)."""
    rules, path, error = _rules_cache if _rules_cache is not None else _load_rules()
    try:
        forced = forced_kernel_name()
    except BackendError as exc:
        forced, error = None, str(exc)
    return {
        "forced": forced,
        "rules": rules,
        "table_path": path,
        "table_error": error,
        "kernels": {name: list(available_kernels(name)) for name in sorted(_KERNELS)},
    }


# ----------------------------------------------------------------------
# Repeated-squaring completion search
# ----------------------------------------------------------------------

#: One rung of the jump-pointer ladder: ``(H_{2^i}, j_{2^i})``.
_Rung = Tuple[np.ndarray, np.ndarray]


def _combine(backend: MatrixBackend, a: _Rung, b: _Rung) -> _Rung:
    """``(H_{c+d}, j_{c+d})`` from ``(H_c, j_c)`` and ``(H_d, j_d)``."""
    h_a, j_a = a
    h_b, j_b = b
    return backend.or_gather(h_a, h_b, j_a), j_b[j_a]


def _state_at(backend: MatrixBackend, ladder: List[_Rung], t: int) -> np.ndarray:
    """``H_t`` by binary decomposition of ``t >= 1`` over the ladder."""
    acc: Optional[_Rung] = None
    for i in range(t.bit_length()):
        if (t >> i) & 1:
            acc = ladder[i] if acc is None else _combine(backend, acc, ladder[i])
    assert acc is not None
    return acc[0]


def static_completion_search(
    backend: MatrixBackend, parents: np.ndarray, n: int, cap: int
) -> Tuple[Optional[int], np.ndarray, int]:
    """``(t_star, final_handle, rounds)`` for a static schedule under a cap.

    Routes through the observability seam (one ``squaring`` kernel span
    per search) when an observer is installed; see
    :func:`set_compose_observer`.
    """
    observer = _compose_observer
    if observer is None:
        return _static_completion_search(backend, parents, n, cap)
    return observer(
        backend.name,
        "squaring",
        n,
        lambda: _static_completion_search(backend, parents, n, cap),
    )


def _static_completion_search(
    backend: MatrixBackend, parents: np.ndarray, n: int, cap: int
) -> Tuple[Optional[int], np.ndarray, int]:
    """The uninstrumented search (docs on the public wrapper above).

    Plays the tree ``parents`` every round via the jump-pointer doubling
    described in the module docstring.  Semantics exactly match the
    sequential loop: ``t_star`` is the first round with a broadcaster
    (``0`` when ``n == 1``), or ``None`` when the run does not complete
    within ``cap`` rounds -- then ``final_handle`` is the state after
    exactly ``cap`` rounds and ``rounds == cap`` (the caller decides
    whether an exhausted cap raises or truncates).  The result is
    byte-identical to composing round by round.
    """
    ident = backend.identity(n)
    if backend.has_broadcaster(ident):  # n == 1: complete before any round
        return 0, ident, 0
    if cap <= 0:
        return None, ident, 0
    parents = np.asarray(parents, dtype=np.int64)
    ladder: List[_Rung] = [(backend.compose_with_tree(ident, parents), parents)]
    d = 1
    while not backend.has_broadcaster(ladder[-1][0]) and d < cap:
        h, j = ladder[-1]
        ladder.append((backend.or_gather(h, h, j), j[j]))
        d *= 2
    if not backend.has_broadcaster(ladder[-1][0]):
        # Doubled past the cap while still incomplete: t* > cap.
        return None, _state_at(backend, ladder, cap), cap
    k = len(ladder) - 1
    if k == 0:
        return 1, ladder[0][0], 1
    # t* is in (2^(k-1), 2^k]: greedily add lower powers while incomplete.
    cur = ladder[k - 1]
    c = 1 << (k - 1)
    for i in range(k - 2, -1, -1):
        cand = _combine(backend, cur, ladder[i])
        if not backend.has_broadcaster(cand[0]):
            cur = cand
            c += 1 << i
    t_star = c + 1
    if t_star > cap:
        return None, _state_at(backend, ladder, cap), cap
    final = backend.or_gather(cur[0], ladder[0][0], cur[1])
    return t_star, final, t_star


__all__ = [
    "ENV_KERNEL",
    "ENV_TABLE",
    "BLAS_CHUNK_BYTES",
    "GATHER_CHUNK_BYTES",
    "DEFAULT_RULES",
    "available_kernels",
    "known_kernel_names",
    "set_kernel",
    "use_kernel",
    "forced_kernel_name",
    "current_rules",
    "choose_kernel",
    "graph_compose",
    "set_compose_observer",
    "machine_info",
    "default_table_path",
    "autotune",
    "kernel_table",
    "static_completion_search",
]
