"""Worker-pool helpers for :class:`repro.engine.executor.ShardedExecutor`.

The sharded executor partitions a spec list into contiguous per-process
shards (:func:`split_shards`), runs them over a process pool
(:func:`pool_map`), and merges the shard outputs back by spec index.
Grid sweeps reach it through ``Executor.sweep``, which sends every grid
cell through ``run_many``.

Spawn safety
------------
The pool always uses the ``"spawn"`` start method -- the strictest one
(and the only one on Windows/macOS): workers import everything fresh, so
all shard payloads (factories included) must be picklable.  Plain
functions, classes used as factories, :func:`functools.partial` over
them, and :class:`repro.service.specs.SpecHandle` are; closures and
lambdas are not.  ``workers=1`` runs the shard inline (no pool, no
pickling requirement), which is also the fallback when there is a single
shard's worth of work.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, List, Sequence, Tuple

from repro.errors import SimulationError


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    Respects CPU affinity / cgroup pinning where the platform exposes it
    (``os.cpu_count()`` reports the host's cores even inside a container
    pinned to a few of them, which would oversubscribe the pool).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def split_shards(items: Sequence, shards: int) -> List[List]:
    """Partition ``items`` into ``shards`` contiguous, balanced chunks.

    The first ``len(items) % shards`` chunks get one extra item
    (``np.array_split`` semantics); empty chunks are dropped.  Contiguity
    keeps same-``n`` grid points together so workers can batch them.
    """
    items = list(items)
    shards = max(1, min(shards, len(items)))
    base, extra = divmod(len(items), shards)
    out, start = [], 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        if size:
            out.append(items[start : start + size])
        start += size
    return out


def pool_map(worker: Callable, payloads: List[Tuple], workers: int) -> List[List]:
    """Run ``worker`` over shard payloads, pooled when it pays off.

    Inline (no pool, no pickling requirement) when ``workers == 1`` or
    there is at most one payload; otherwise every payload is
    pickle-checked up front so a non-picklable factory fails with an
    actionable message instead of a deep pool traceback.  A worker that
    dies (say, it cannot import the factory's module) raises
    :class:`~repro.errors.SimulationError` rather than hanging the call.
    """
    if workers == 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    for payload in payloads:
        try:
            pickle.dumps(payload)
        except Exception as exc:
            raise SimulationError(
                "shard payloads must be picklable for workers > 1 "
                "(factories must be module-level callables, classes, or "
                "functools.partial over them -- not lambdas/closures); "
                f"pickling failed with: {exc}"
            ) from exc
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    ctx = mp.get_context("spawn")
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(payloads)), mp_context=ctx
        ) as pool:
            return list(pool.map(worker, payloads))
    except BrokenProcessPool as exc:
        raise SimulationError(
            "a shard worker process died before returning its result; "
            "spawned workers re-import the factory's module, so it must "
            "be importable from a file (a __main__ read from stdin or "
            f"defined interactively is not): {exc}"
        ) from exc


__all__ = [
    "pool_map",
    "split_shards",
    "usable_cpus",
]
