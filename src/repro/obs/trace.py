"""Span-based tracer: thread-local context, JSONL sink, Chrome export.

One trace is a tree of **spans** sharing a 32-hex ``trace_id``; each span
is a named, timed unit of work with a 16-hex ``span_id`` and a
``parent_id`` pointing at the span that was active when it opened.  The
service's request handler opens the root span, the scheduler's worker
threads re-activate the request's context around job dispatch, the
task-graph runner opens one span per node, the executors wrap dispatch
(and, while tracing, write each run's ``decision_s``/``kernel_s`` phase
split on its ``run``/``run_group`` span), and the kernel observer
(:func:`_observe_compose`) wraps individual compose calls -- so one HTTP
request yields one connected tree:
``request -> job -> node -> executor -> kernel``.

Design constraints, in priority order:

* **Disabled means free.**  :func:`span` checks one module-level flag
  and returns a shared no-op when tracing is off; no allocation, no
  thread-local access, no clock read.  The kernel hot loops additionally
  gate on the compose observer being ``None``: :func:`enable` installs
  it and :func:`disable` removes it, so a disabled tracer stays within
  the <2% overhead budget by never touching the per-round path at all.
* **Context crosses threads and processes explicitly.**  The active span
  stack is thread-local.  Handoffs serialize a :class:`TraceContext`
  (``to_doc``/``from_doc``) into whatever payload crosses the boundary:
  the scheduler stores it on the :class:`~repro.service.scheduler.Job`,
  the sharded executor packs it into the spawn-worker payload, and HTTP
  carries it as a W3C ``traceparent``-style header.  Spawn workers also
  inherit ``REPRO_TRACE`` through the environment, so they append to the
  same sink (``O_APPEND``; one line per span stays atomic at these
  sizes).
* **The sink is append-only JSONL.**  One JSON object per finished span;
  readers tolerate a torn final line.  :func:`chrome_trace` converts a
  span list to Chrome trace-event JSON (``ph="X"`` complete events,
  microsecond units) loadable in Perfetto / ``chrome://tracing``.

Enable with ``REPRO_TRACE=/path/to/trace.jsonl`` in the environment (in
effect at import) or programmatically with :func:`enable`.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TextIO

#: Environment variable: when set to a path, tracing is enabled at
#: import and spans append there.  Inherited by ``spawn`` workers, which
#: is exactly how sharded-executor kernel spans land in the same file.
ENV_TRACE = "REPRO_TRACE"

_HEADER_RE = re.compile(r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


@dataclass(frozen=True)
class TraceContext:
    """An addressable position in one trace: ``(trace_id, span_id)``."""

    trace_id: str
    span_id: str

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh root context (new trace id, new span id)."""
        return cls(secrets.token_hex(16), secrets.token_hex(8))

    def child(self) -> "TraceContext":
        """Same trace, fresh span id."""
        return TraceContext(self.trace_id, secrets.token_hex(8))

    def to_header(self) -> str:
        """W3C ``traceparent``-style header value."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_header(cls, value: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` on absent/malformed."""
        if not value:
            return None
        match = _HEADER_RE.match(value.strip().lower())
        if match is None:
            return None
        trace_id, span_id = match.group(2), match.group(3)
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id, span_id)

    def to_doc(self) -> Dict[str, str]:
        """JSON-safe form for payloads that cross thread/process seams."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_doc(cls, doc: Optional[Dict[str, Any]]) -> Optional["TraceContext"]:
        if not doc:
            return None
        trace_id = doc.get("trace_id")
        span_id = doc.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id, span_id)


# ----------------------------------------------------------------------
# Tracer state
# ----------------------------------------------------------------------

_enabled = False
_sink_path: Optional[str] = None
_sink: Optional[TextIO] = None
_sink_lock = threading.Lock()
_tls = threading.local()


def _stack() -> List[TraceContext]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def enabled() -> bool:
    """True when spans are being recorded."""
    return _enabled


def sink_path() -> Optional[str]:
    """The active JSONL sink path, or ``None`` when disabled."""
    return _sink_path


def enable(path: str) -> None:
    """Record spans to ``path`` (append-only JSONL) from now on."""
    global _enabled, _sink_path, _sink
    with _sink_lock:
        if _sink is not None:
            _sink.close()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        _sink = open(path, "a", encoding="utf-8")
        _sink_path = path
        _enabled = True
    from repro.core import kernels

    kernels.set_compose_observer(_observe_compose)


def disable() -> None:
    """Stop recording and close the sink."""
    global _enabled, _sink_path, _sink
    with _sink_lock:
        _enabled = False
        _sink_path = None
        if _sink is not None:
            _sink.close()
            _sink = None
    from repro.core import kernels

    kernels.set_compose_observer(None)


def _observe_compose(namespace: str, kernel: str, n: int, fn: Callable[[], Any]) -> Any:
    """The kernel-seam observer: run one compose call in a ``kernel`` span."""
    with span("kernel", backend=namespace, kernel=kernel, n=n):
        return fn()


def _write(doc: Dict[str, Any]) -> None:
    with _sink_lock:
        if _sink is None:
            return
        try:
            _sink.write(json.dumps(doc, sort_keys=True) + "\n")
            _sink.flush()
        except (OSError, ValueError):  # pragma: no cover - sink torn away
            pass


def current_context() -> Optional[TraceContext]:
    """The innermost active context on this thread, or ``None``."""
    stack = getattr(_tls, "stack", None)
    if not stack:
        return None
    return stack[-1]


class _ContextScope:
    """Activate a remote parent context without emitting a span.

    Works even when tracing is disabled, so a trace id arriving on a
    ``traceparent`` header still flows into job records and the journal
    with no spans recorded.  ``ctx=None`` is a no-op scope.
    """

    __slots__ = ("_ctx",)

    def __init__(self, ctx: Optional[TraceContext]) -> None:
        self._ctx = ctx

    def __enter__(self) -> Optional[TraceContext]:
        if self._ctx is not None:
            _stack().append(self._ctx)
        return self._ctx

    def __exit__(self, *exc_info: Any) -> None:
        if self._ctx is not None:
            stack = _stack()
            if stack and stack[-1] is self._ctx:
                stack.pop()


def context(ctx: Optional[TraceContext]) -> _ContextScope:
    """Scope manager: make ``ctx`` the current parent for nested spans."""
    return _ContextScope(ctx)


def parented(header: Optional[str]) -> _ContextScope:
    """Scope manager: adopt a W3C ``traceparent`` header as the parent.

    ``parented(item["traceparent"])`` is how a fleet worker attaches
    its execution spans to the trace of the HTTP request that created
    the work item -- across a process *and machine* boundary.  A
    missing/malformed header yields a no-op scope, same as
    :func:`context` with ``None``.
    """
    return _ContextScope(TraceContext.from_header(header))


class _NoopSpan:
    """Shared do-nothing span: the entire disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set_attrs(self, **attrs: Any) -> None:
        pass

    @property
    def ctx(self) -> Optional[TraceContext]:
        return None


_NOOP = _NoopSpan()


class Span:
    """One recorded unit of work; use via ``with span(name, ...) as sp:``."""

    __slots__ = ("name", "attrs", "_ctx", "_parent_id", "_t0", "_p0")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self._ctx: Optional[TraceContext] = None

    @property
    def ctx(self) -> Optional[TraceContext]:
        """This span's own context (valid once entered)."""
        return self._ctx

    def set_attrs(self, **attrs: Any) -> None:
        """Attach/overwrite attributes on the running span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        parent = current_context()
        self._ctx = parent.child() if parent is not None else TraceContext.new()
        self._parent_id = parent.span_id if parent is not None else None
        _stack().append(self._ctx)
        self._t0 = time.time()
        self._p0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        dur = time.perf_counter() - self._p0
        stack = _stack()
        if stack and stack[-1] is self._ctx:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _write(
            {
                "trace_id": self._ctx.trace_id,
                "span_id": self._ctx.span_id,
                "parent_id": self._parent_id,
                "name": self.name,
                "ts": self._t0,
                "dur": dur,
                "attrs": self.attrs,
                "pid": os.getpid(),
                "thread": threading.current_thread().name,
            }
        )
        return False


def span(name: str, **attrs: Any):
    """Open a span under the current context (no-op when disabled)."""
    if not _enabled:
        return _NOOP
    return Span(name, attrs)


# ----------------------------------------------------------------------
# Reading + export
# ----------------------------------------------------------------------


def read_spans(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL span file, tolerating a torn final line."""
    spans: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return spans
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                continue  # torn final write (process killed mid-span)
            raise
        if isinstance(doc, dict):
            spans.append(doc)
    return spans


def span_trees(spans: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """Group spans into trees: ``{trace_id: [root spans]}``.

    Each returned span dict gains a ``"children"`` list.  A span whose
    ``parent_id`` is missing from its trace (e.g. the parent came from a
    remote caller that did not export here) is treated as a root.
    """
    by_trace: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for raw in spans:
        node = dict(raw)
        node["children"] = []
        by_trace.setdefault(node["trace_id"], {})[node["span_id"]] = node
    forests: Dict[str, List[Dict[str, Any]]] = {}
    for trace_id, nodes in by_trace.items():
        roots: List[Dict[str, Any]] = []
        for node in nodes.values():
            parent = nodes.get(node.get("parent_id"))
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        forests[trace_id] = roots
    return forests


def chrome_trace(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert spans to Chrome trace-event JSON (Perfetto-loadable)."""
    events = []
    for sp in spans:
        events.append(
            {
                "name": sp.get("name", "?"),
                "ph": "X",
                "ts": round(float(sp.get("ts", 0.0)) * 1e6, 3),
                "dur": round(float(sp.get("dur", 0.0)) * 1e6, 3),
                "pid": sp.get("pid", 0),
                "tid": sp.get("thread", "main"),
                "args": {
                    **(sp.get("attrs") or {}),
                    "trace_id": sp.get("trace_id"),
                    "span_id": sp.get("span_id"),
                    "parent_id": sp.get("parent_id"),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# Environment activation: a spawn worker (or any fresh process) with
# REPRO_TRACE set starts recording on first import, which is what makes
# sharded-executor kernel spans land in the parent's sink file.
_env_path = os.environ.get(ENV_TRACE, "").strip()
if _env_path:
    enable(_env_path)
del _env_path


__all__ = [
    "ENV_TRACE",
    "TraceContext",
    "Span",
    "span",
    "context",
    "parented",
    "current_context",
    "enable",
    "disable",
    "enabled",
    "sink_path",
    "read_spans",
    "span_trees",
    "chrome_trace",
]
