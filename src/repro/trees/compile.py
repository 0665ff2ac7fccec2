"""Compiled parent schedules: packed ``(rounds, n)`` arrays for oblivious play.

An *oblivious* adversary's whole strategy is a predetermined tree sequence,
so there is no reason to rebuild a :class:`~repro.trees.rooted_tree.RootedTree`
(with its O(n) validation pass) in the hot loop every round.  This module
compiles such strategies once into packed ``int64`` parent arrays that the
executors (:mod:`repro.engine.executor`) feed straight into the backend
compose kernels / :meth:`repro.engine.batch.BatchRunner.step_parents`.

Two memoization layers keep repeated compilation free:

* **per-tree rows** -- :func:`parent_row` caches one read-only ``(n,)``
  vector per canonical tree form (the parent tuple *is* the canonical form
  of a labeled rooted tree), so the same tree appearing in many schedules,
  adversaries, or freshly reconstructed ``RootedTree`` instances shares one
  array;
* **per-schedule stacks** -- :func:`sequence_schedule` LRU-caches the stacked ``(rounds, n)`` arrays keyed by the tuple of
  canonical forms plus the horizon, so an executor growing its horizon (or
  many runs of the same adversary) recompiles nothing.

Static (single-tree) schedules are served as ``np.broadcast_to`` views of
the cached row -- O(1) memory for any number of rounds.

All returned arrays are read-only; copy before mutating.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.trees.rooted_tree import RootedTree

#: Maximum number of stacked schedules kept in the LRU cache.
SCHEDULE_CACHE_SIZE = 128

#: Maximum number of per-tree parent rows kept in the LRU cache.
ROW_CACHE_SIZE = 4096

_ROW_CACHE: "OrderedDict[Tuple[int, ...], np.ndarray]" = OrderedDict()
_SCHEDULE_CACHE: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()


def parent_row(tree: RootedTree) -> np.ndarray:
    """Read-only ``(n,)`` int64 parent vector, memoized by canonical form.

    Unlike :meth:`RootedTree.parent_array_numpy` (cached per *instance*),
    this cache is keyed by the parent tuple, so structurally identical
    trees -- however they were constructed -- share one array.  LRU-bounded
    (:data:`ROW_CACHE_SIZE`) so long-lived processes replaying ever-new
    trees cannot grow it without bound.
    """
    key = tree.parents
    row = _ROW_CACHE.get(key)
    if row is None:
        row = np.asarray(key, dtype=np.int64)
        row.setflags(write=False)
        _ROW_CACHE[key] = row
        while len(_ROW_CACHE) > ROW_CACHE_SIZE:
            _ROW_CACHE.popitem(last=False)
    else:
        _ROW_CACHE.move_to_end(key)
    return row


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _cache_get(key: Tuple) -> Optional[np.ndarray]:
    cached = _SCHEDULE_CACHE.get(key)
    if cached is not None:
        _SCHEDULE_CACHE.move_to_end(key)
    return cached


def _cache_put(key: Tuple, schedule: np.ndarray) -> np.ndarray:
    _SCHEDULE_CACHE[key] = schedule
    while len(_SCHEDULE_CACHE) > SCHEDULE_CACHE_SIZE:
        _SCHEDULE_CACHE.popitem(last=False)
    return schedule


def static_schedule(tree: RootedTree, rounds: int) -> np.ndarray:
    """``(rounds, n)`` schedule repeating one tree -- an O(1) broadcast view."""
    if rounds < 0:
        raise SimulationError(f"rounds must be >= 0, got {rounds}")
    return np.broadcast_to(parent_row(tree), (rounds, tree.n))


def sequence_schedule(
    trees: Sequence[RootedTree],
    rounds: int,
    after: str = "hold",
) -> Optional[np.ndarray]:
    """Compile an explicit tree sequence into a packed parent schedule.

    ``after`` mirrors :class:`repro.adversaries.base.SequenceAdversary`:
    past the end of the sequence, ``"repeat"`` cycles from the start,
    ``"hold"`` repeats the last tree, and ``"error"`` refuses -- the
    function returns ``None`` when ``rounds`` exceeds the sequence (the
    caller must fall back to the uncompiled path so the adversary itself
    can raise at the offending round).
    """
    if rounds < 0:
        raise SimulationError(f"rounds must be >= 0, got {rounds}")
    if not trees:
        raise SimulationError("cannot compile an empty tree sequence")
    if after not in ("repeat", "hold", "error"):
        raise SimulationError(
            f"after must be 'repeat', 'hold' or 'error', got {after!r}"
        )
    if after == "error" and rounds > len(trees):
        return None
    if len(trees) == 1 or (after == "hold" and rounds <= 1):
        return static_schedule(trees[0], rounds)
    keys = tuple(t.parents for t in trees)
    cache_key = (after, rounds, keys)
    cached = _cache_get(cache_key)
    if cached is not None:
        return cached
    n = trees[0].n
    rows = np.stack([parent_row(t) for t in trees])
    length = len(trees)
    idx = np.arange(rounds, dtype=np.int64)
    if after == "repeat":
        idx %= length
    else:  # "hold" and in-range "error" both clamp to the last tree
        idx = np.minimum(idx, length - 1)
    schedule = _freeze(np.ascontiguousarray(rows[idx].reshape(rounds, n)))
    return _cache_put(cache_key, schedule)


def cached_schedule(key: Tuple, builder: Callable[[], np.ndarray]) -> np.ndarray:
    """Memoize an adversary-specific schedule under the shared LRU cache.

    For strategies whose schedules are cheaper to build directly than via
    tree objects (rotating paths): ``key`` must uniquely determine the
    schedule (include the strategy name, ``n``, parameters, and the
    horizon).  The built array is frozen read-only before
    caching.
    """
    cache_key = ("custom", *key)
    cached = _cache_get(cache_key)
    if cached is not None:
        return cached
    return _cache_put(cache_key, _freeze(np.ascontiguousarray(builder())))


__all__ = [
    "ROW_CACHE_SIZE",
    "SCHEDULE_CACHE_SIZE",
    "cached_schedule",
    "parent_row",
    "static_schedule",
    "sequence_schedule",
]
