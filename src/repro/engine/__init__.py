"""Execution layer over the matrix engine of :mod:`repro.core`.

* :mod:`~repro.engine.executor` -- ``RunSpec`` in, ``RunReport`` out: the
  sequential, batched and sharded executors every entry point drives;
* :mod:`~repro.engine.batch` -- :class:`BatchRunner`, many runs advanced
  in lockstep as one vectorized step per round;
* :mod:`~repro.engine.trace` / :mod:`~repro.engine.events` -- replayable
  run traces and their per-round records;
* :mod:`~repro.engine.metrics` -- per-round metrics of instrumented runs.
"""

from repro.engine.events import RoundRecord
from repro.engine.trace import Trace, TraceRecorder
from repro.engine.batch import BatchRunner, run_sequences_batch
from repro.engine.executor import (
    BatchExecutor,
    Executor,
    RunReport,
    RunSpec,
    SequentialExecutor,
    ShardedExecutor,
    get_executor,
)
from repro.engine.metrics import MetricsCollector, RunMetrics

__all__ = [
    "RoundRecord",
    "Trace",
    "TraceRecorder",
    "BatchRunner",
    "run_sequences_batch",
    "RunSpec",
    "RunReport",
    "Executor",
    "SequentialExecutor",
    "BatchExecutor",
    "ShardedExecutor",
    "get_executor",
    "MetricsCollector",
    "RunMetrics",
]
