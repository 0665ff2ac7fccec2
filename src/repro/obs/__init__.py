"""Unified observability: tracing and typed metrics.

Zero-dependency (stdlib-only) subsystem wired through every layer of the
stack:

* :mod:`repro.obs.trace` -- span tracer with thread-local context,
  ``traceparent`` header propagation, an append-only JSONL sink, and
  Chrome trace-event export (``repro-broadcast obs export --chrome``).
  While tracing, every kernel compose is a ``kernel`` span and every run
  span carries its decision-vs-kernel phase split (``repro-broadcast obs
  top`` tabulates both);
* :mod:`repro.obs.metrics` -- counters/gauges/histograms behind
  ``/metrics`` (JSON shape unchanged; ``?format=prometheus`` added).

Tracing is the one switch.  It is off by default and costs one
flag/``is None`` check when disabled.  Enable via ``REPRO_TRACE=<path>``
in the environment, ``serve --trace <path>``, or
:func:`repro.obs.trace.enable`.
"""

from repro.obs import metrics, trace

__all__ = ["trace", "metrics"]
