"""Graph compose and the t* squaring search, behind the backend seam.

This module sits *behind* the backend seam (:mod:`repro.core.backend`):
``compose_with_graph`` on both shipped backends routes through
:func:`graph_compose`, the one place an ``R ∘ G`` compose with a
non-tree round graph ``G`` happens.  Its only caller in the experiments
is :meth:`~repro.core.state.BroadcastState.apply_graph` (E6's nonsplit
bridge), at n <= 64.  Tree rounds never come here: they take the
backends' ``compose_with_tree`` gathers.

Graph compose
-------------
Each backend has exactly one product, named on ``kernel`` trace spans:

``word-or`` (bitset)
    :func:`repro.core.bitset.bool_product_words`: the chunked
    OR-reduction of the packed heard-of rows each column of ``G``
    selects.
``blas`` (dense)
    A float32 GEMM thresholded at ``> 0``.  Counts are <= n < 2^24, so
    float32 is exact and the result equals the int32 reference
    :func:`repro.core.matrix.bool_product` bit for bit.

:func:`kernel_table` reports the map.  The product is an execution
detail: results are byte-identical to the reference, so cache digests
never include it.

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

import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.backend import MatrixBackend
from repro.core.bitset import bool_product_words
from repro.errors import BackendError


def _dense_gemm(mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    return (mat.astype(np.float32) @ g.astype(np.float32)) > 0


#: ``{backend name: (product name, fn(mat, validated bool G) -> handle)}``.
_PRODUCTS: Dict[str, Tuple[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]] = {
    "bitset": ("word-or", bool_product_words),
    "dense": ("blas", _dense_gemm),
}

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


def graph_compose(
    backend: MatrixBackend, mat: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """One ``R ∘ G`` compose through the backend's product.

    ``g`` must already be a validated boolean ``(n, n)`` adjacency (the
    backends validate before routing here).
    """
    try:
        name, product = _PRODUCTS[backend.name]
    except KeyError:
        raise BackendError(
            f"no graph-compose product for backend {backend.name!r}"
        ) from None
    observer = _compose_observer
    if observer is None:
        return product(mat, g)
    return observer(backend.name, name, mat.shape[0], lambda: product(mat, g))


def kernel_table() -> Dict[str, str]:
    """The fixed backend -> graph-compose product map."""
    return {backend: name for backend, (name, _) in _PRODUCTS.items()}


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
    "graph_compose",
    "set_compose_observer",
    "machine_info",
    "kernel_table",
    "static_completion_search",
]
