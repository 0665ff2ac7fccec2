"""Layer-boundary tracing owned by the benchmark, not by the program.

:func:`install` wraps the public function at each layer boundary of the
``repro`` package (the table :data:`LAYERS`) with a span that records its
duration, the part of it covered by child spans, and optional counters
taken from its arguments or return value.  :meth:`Installed.restore`
puts every original back, so tracing one workload never leaks into the
next.

Spans are aggregated in memory per name (calls, outermost inclusive
time, self time = duration minus child spans on the same thread); the
outermost spans are also kept as records and written out at the end by
the caller.  Nothing here touches the program's own ``repro.obs`` tracer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", tuple, dict, Any], None]

#: Outermost span records kept for the trace file; beyond this only the
#: aggregates grow.
MAX_RECORDS = 20_000


class Tracer:
    """In-memory span aggregation with per-thread nesting."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Boundaries :func:`install` could not find in the program.
        self.missing: List[str] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            #: name -> [calls, outermost calls, inclusive seconds of the
            #: outermost calls, self seconds]
            self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0, 0.0, 0.0])
            self.counters: Dict[str, float] = defaultdict(float)
            self.records: List[Tuple[str, float, float, str]] = []

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        outermost = all(frame[0] != name for frame in stack)
        frame = [name, time.perf_counter(), 0.0, outermost, not stack]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, children, outermost, top = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            agg = self.spans[name]
            agg[0] += 1
            if outermost:
                agg[1] += 1
                agg[2] += duration
            agg[3] += duration - children
            if top and len(self.records) < MAX_RECORDS:
                self.records.append((name, start, end, threading.current_thread().name))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of the aggregates and records."""
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "missing": list(self.missing),
                "records": [list(r) for r in self.records],
            }


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer, self._name = tracer, name

    def __enter__(self) -> None:
        self._frame = self._tracer.enter(self._name)

    def __exit__(self, *exc: Any) -> None:
        self._tracer.exit(self._frame)


def _wrap(
    tracer: Tracer,
    name: Optional[str],
    fn: Callable,
    before: Optional[Hook],
    after: Optional[Hook],
) -> Callable:
    """``fn`` inside a span called ``name`` (no span when ``None``) plus hooks."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            before(tracer, args, kwargs, None)
        if name is None:
            result = fn(*args, **kwargs)
        else:
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    return wrapper


# ----------------------------------------------------------------------
# Counters read at the boundaries
# ----------------------------------------------------------------------


def _count_candidates(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("engine.batch.candidates", len(result))
    tracer.count("engine.batch.score_calls")


def _count_successors(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("adversaries.exact.survivors", len(result))
    tracer.count(f"adversaries.exact.expansions@{id(args[0])}")


def _count_solve(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # Every expansion of this solver generated one candidate per tree.
    expansions = tracer.counters.pop(f"adversaries.exact.expansions@{id(args[0])}", 0.0)
    tracer.count("adversaries.exact.generated", expansions * result.tree_count)
    tracer.count("adversaries.exact.states", result.states_explored)


def _count_lookup(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("service.cache.lookups")
    if result is not None:
        tracer.count("service.cache.hits")


def _count_graph(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("service.tasks.nodes_computed", result.stats.get("computed", 0))
    tracer.count("service.tasks.nodes_cached", result.stats.get("cached", 0))


#: (span name, module, class or None, attributes, derived classes too, after-hook)
LAYERS: List[Tuple[str, str, Optional[str], Tuple[str, ...], bool, Optional[Hook]]] = [
    ("adversaries.next_tree", "repro.adversaries.base", "Adversary", ("next_tree",), True, None),
    ("engine.batch.score", "repro.engine.batch", None, ("score_parents_quadratic",), False, _count_candidates),
    ("core.backend.batch_compose", "repro.core.backend", "MatrixBackend", ("batch_compose_from", "batch_compose_inplace"), True, None),
    ("core.backend.reach_sizes", "repro.core.backend", "MatrixBackend", ("batch_reach_sizes",), True, None),
    ("core.state.apply", "repro.core.state", "BroadcastState", ("apply_tree_inplace", "apply_parents_inplace"), False, None),
    ("core.kernels.graph_compose", "repro.core.kernels", None, ("graph_compose",), False, None),
    ("adversaries.exact.solve", "repro.adversaries.exact", "ExactGameSolver", ("solve",), False, _count_solve),
    ("adversaries.exact.successors", "repro.adversaries.exact", "ExactGameSolver", ("successors",), False, _count_successors),
    ("adversaries.exact.canonical", "repro.adversaries.exact", "ExactGameSolver", ("canonical",), False, None),
    ("engine.executor.run", "repro.engine.executor", "Executor", ("run", "run_many_settled"), True, None),
    ("service.tasks.run", "repro.service.tasks", "TaskGraphRunner", ("run",), False, _count_graph),
    ("service.cache.open", "repro.service.cache", "ResultCache", ("__init__",), False, None),
    ("service.cache.lookup", "repro.service.cache", "ResultCache", ("lookup",), False, _count_lookup),
    ("service.cache.store", "repro.service.cache", "ResultCache", ("store",), False, None),
]

#: Modules whose import registers every adversary and executor subclass.
_PRELOAD = (
    "repro.adversaries",
    "repro.core.bitset",
    "repro.engine.executor",
    "repro.service.fleet",
    "repro.service.tasks",
)


def subclasses(cls: type) -> List[type]:
    """``cls`` and every class deriving from it, transitively."""
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Installed:
    """Handle on the wrappers one :func:`install` call put in place."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: Optional[str],
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> None:
        self._set(cls, attr, _wrap(self.tracer, name, vars(cls)[attr], before, after))

    def wrap_function(self, module: Any, attr: str, name: str, after: Optional[Hook]) -> None:
        """Wrap a module function everywhere it is bound by name."""
        original = getattr(module, attr)
        wrapper = _wrap(self.tracer, name, original, None, after)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every boundary in :data:`LAYERS`; returns the undo handle.

    A boundary that no longer exists in the program is skipped and listed
    in ``tracer.missing`` (its metrics then read zero).
    """
    for mod in _PRELOAD:
        importlib.import_module(mod)
    handle = Installed(tracer)
    for name, module_name, class_name, attrs, derived, after in LAYERS:
        module = importlib.import_module(module_name)
        if class_name is None:
            for attr in attrs:
                if hasattr(module, attr):
                    handle.wrap_function(module, attr, name, after)
                else:
                    tracer.missing.append(f"{module_name}.{attr}")
            continue
        base = getattr(module, class_name, None)
        if base is None:
            tracer.missing.append(f"{module_name}.{class_name}")
            continue
        for cls in subclasses(base) if derived else [base]:
            for attr in attrs:
                if attr in vars(cls):
                    handle.wrap_method(cls, attr, name, after=after)
                elif cls is base:
                    tracer.missing.append(f"{module_name}.{class_name}.{attr}")
    return handle
