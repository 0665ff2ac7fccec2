"""Typed metrics: counters, histograms, Prometheus exposition.

:class:`Registry` replaces the service's hand-rolled counter dicts with
typed, individually-locked instruments while keeping the ``/metrics``
JSON shape byte-compatible (the existing tests pin it):

* :class:`Counter` -- monotonically increasing, optionally labelled
  (the scheduler labels submissions by tenant);
* :class:`Histogram` -- fixed-bucket distribution with exact ``sum`` /
  ``count`` and interpolated percentiles (request latency p50/p95/p99).

:meth:`Registry.to_prometheus` renders the registered instruments in the
Prometheus text exposition format (``# HELP`` / ``# TYPE`` + samples;
histograms as cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``),
and :func:`parse_prometheus` is the matching validating parser -- the
round-trip the CI obs smoke job asserts.  :func:`flatten_json_metrics`
turns the nested legacy ``/metrics`` JSON blocks (jobs, cache, tenants)
into additional gauge samples so one scrape sees the whole picture.

Everything is stdlib-only and safe under free-threaded access: each
instrument carries its own lock, so reading one block never holds
another block's lock (see the staleness contract on
:meth:`repro.service.scheduler.JobScheduler.metrics`).
"""

from __future__ import annotations

import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond service hits up to
#: multi-second graph submissions.  The +Inf bucket is implicit.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')

LabelKey = Tuple[Tuple[str, str], ...]


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary key into a legal Prometheus metric name."""
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not name or not _NAME_RE.match(name):
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in labels)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared shell: name, help text, label names, per-instrument lock."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, Any]) -> LabelKey:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple((k, str(labels[k])) for k in self.labelnames)

    def header_lines(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Instrument):
    """Monotonic counter, optionally labelled."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        """One label-set's value, or the sum over all label sets."""
        with self._lock:
            if labels or not self.labelnames:
                return self._values.get(self._key(labels), 0)
            return sum(self._values.values())

    def snapshot(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def expose(self) -> List[str]:
        lines = self.header_lines()
        snap = self.snapshot()
        if not snap and not self.labelnames:
            snap = {(): 0}
        for key in sorted(snap):
            lines.append(f"{self.name}{_render_labels(key)} {_format_value(snap[key])}")
        return lines


class Histogram(_Instrument):
    """Fixed-bucket histogram with exact sum/count, interpolated quantiles."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, ())
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> Optional[float]:
        """Interpolated quantile ``q`` in [0, 1]; ``None`` when empty.

        Linear interpolation within the winning bucket; values landing in
        the +Inf overflow report the largest finite bound (a floor, which
        is the honest direction for an alerting percentile).
        """
        with self._lock:
            if self._count == 0:
                return None
            target = q * self._count
            cum = 0
            lo = 0.0
            for i, bound in enumerate(self.buckets):
                prev = cum
                cum += self._counts[i]
                if cum >= target:
                    frac = 0.0 if self._counts[i] == 0 else (target - prev) / self._counts[i]
                    return lo + (bound - lo) * min(1.0, max(0.0, frac))
                lo = bound
            return self.buckets[-1]

    def summary(self) -> Dict[str, Any]:
        """The JSON shape ``/metrics`` serves for this histogram."""
        with self._lock:
            count, total = self._count, self._sum
        doc: Dict[str, Any] = {"count": count, "sum_s": round(total, 6)}
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            value = self.percentile(q)
            doc[f"{label}_ms"] = None if value is None else round(value * 1000.0, 3)
        return doc

    def expose(self) -> List[str]:
        lines = self.header_lines()
        with self._lock:
            counts = list(self._counts)
            total, count = self._sum, self._count
        cum = 0
        for i, bound in enumerate(self.buckets):
            cum += counts[i]
            lines.append(
                f'{self.name}_bucket{{le="{_format_value(bound)}"}} {cum}'
            )
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {count}')
        lines.append(f"{self.name}_sum {_format_value(total)}")
        lines.append(f"{self.name}_count {count}")
        return lines


class Registry:
    """Get-or-create home for named instruments; one per service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help=help, labelnames=labelnames)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, buckets=buckets)

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def to_prometheus(self, extra_lines: Iterable[str] = ()) -> str:
        """Text exposition of every registered instrument (+ extras)."""
        lines: List[str] = []
        for instrument in sorted(self.instruments(), key=lambda i: i.name):
            lines.extend(instrument.expose())
        lines.extend(extra_lines)
        return "\n".join(lines) + "\n"


class CounterMap:
    """Dict-shaped facade over named registry counters.

    The scheduler and HTTP layer historically kept ``{"submitted": 0,
    ...}`` dicts and served them verbatim on ``/metrics``; this keeps
    that JSON shape (``to_dict`` returns plain ints under the original
    keys) while the values live in typed, individually-locked
    :class:`Counter` instruments that also render to Prometheus.
    """

    def __init__(
        self,
        registry: Registry,
        prefix: str,
        names: Sequence[str],
        help: str = "",
    ) -> None:
        self._counters: Dict[str, Counter] = {
            name: registry.counter(
                f"{prefix}_{sanitize_metric_name(name)}_total",
                help=help and f"{help} ({name})",
            )
            for name in names
        }

    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def __getitem__(self, name: str) -> int:
        return int(self._counters[name].value())

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def to_dict(self) -> Dict[str, int]:
        return {name: int(c.value()) for name, c in self._counters.items()}


# ----------------------------------------------------------------------
# Legacy-JSON flattening + exposition parsing
# ----------------------------------------------------------------------


def flatten_json_metrics(
    doc: Dict[str, Any], prefix: str = "repro"
) -> List[str]:
    """Numeric leaves of a nested JSON doc as Prometheus gauge samples.

    ``{"jobs": {"done": 3}, "cache": {"hits": 7}}`` becomes
    ``repro_jobs_done 3`` / ``repro_cache_hits 7``.  Non-numeric leaves
    (kernel names, paths) are skipped -- they have no sample type.
    """
    lines: List[str] = []

    def walk(node: Any, path: List[str]) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], path + [str(key)])
        elif isinstance(node, bool):
            return
        elif isinstance(node, (int, float)):
            name = sanitize_metric_name("_".join([prefix] + path))
            lines.append(f"{name} {_format_value(float(node))}")

    walk(doc, [])
    return lines


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Validating parser for the text exposition format.

    Returns ``{sample_name: [(labels, value), ...]}`` and raises
    :class:`ValueError` on any malformed line -- the round-trip check the
    obs tests and CI smoke job run against ``/metrics?format=prometheus``.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for m in _LABEL_RE.finditer(raw_labels):
                labels[m.group("key")] = (
                    m.group("value")
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                consumed = m.end()
            leftover = raw_labels[consumed:].strip().strip(",")
            if leftover:
                raise ValueError(
                    f"line {lineno}: malformed labels {raw_labels!r}"
                )
        raw_value = match.group("value")
        try:
            value = float("inf") if raw_value == "+Inf" else float(raw_value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: not a numeric value: {raw_value!r}"
            ) from None
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Histogram",
    "Registry",
    "CounterMap",
    "sanitize_metric_name",
    "flatten_json_metrics",
    "parse_prometheus",
]
