"""Trace recording and JSON serialization.

A :class:`Trace` is the complete, replayable record of one run: ``n``, the
adversary's name, every round's tree and statistics, and the final
broadcast time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.engine.events import RoundRecord
from repro.errors import TraceError
from repro.trees.rooted_tree import RootedTree

#: Format version written into every serialized trace.
TRACE_FORMAT_VERSION = 1


@dataclass
class Trace:
    """A replayable run record."""

    n: int
    adversary_name: str
    rounds: List[RoundRecord] = field(default_factory=list)
    t_star: Optional[int] = None
    seed: Optional[int] = None

    def trees(self) -> List[RootedTree]:
        """Reconstruct the played trees."""
        return [RootedTree(r.parents) for r in self.rounds]

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string."""
        doc = {
            "format_version": TRACE_FORMAT_VERSION,
            "n": self.n,
            "adversary_name": self.adversary_name,
            "t_star": self.t_star,
            "seed": self.seed,
            "rounds": [r.to_dict() for r in self.rounds],
        }
        return json.dumps(doc, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Parse a trace from JSON.

        Raises :class:`TraceError` on invalid JSON, a non-object document,
        a wrong format version, a missing key, a non-integer ``n`` or a
        malformed round.
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceError(f"trace is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise TraceError(f"trace must be a JSON object, not {type(doc).__name__}")
        version = doc.get("format_version")
        if version != TRACE_FORMAT_VERSION:
            raise TraceError(
                f"unsupported trace format version {version!r} "
                f"(expected {TRACE_FORMAT_VERSION})"
            )
        for key in ("n", "adversary_name", "rounds"):
            if key not in doc:
                raise TraceError(f"trace is missing required key {key!r}")
        try:
            n = int(doc["n"])
        except (TypeError, ValueError) as exc:
            raise TraceError(f"trace 'n' is not an integer: {doc['n']!r}") from exc
        if not isinstance(doc["rounds"], list):
            raise TraceError("trace 'rounds' must be a JSON array")
        rounds = []
        for index, raw in enumerate(doc["rounds"]):
            try:
                rounds.append(RoundRecord.from_dict(raw))
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceError(f"trace round {index} is malformed: {exc!r}") from exc
        return cls(
            n=n,
            adversary_name=str(doc["adversary_name"]),
            rounds=rounds,
            t_star=doc.get("t_star"),
            seed=doc.get("seed"),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path`` as indented JSON."""
        Path(path).write_text(self.to_json(indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


class TraceRecorder:
    """Build a :class:`Trace` from an instrumented run.

    :class:`~repro.engine.executor.SequentialExecutor` feeds it one
    record per round when a spec asks for ``instrumentation="trace"``;
    it can also be fed round records manually.
    """

    def __init__(self, n: int, adversary_name: str, seed: Optional[int] = None) -> None:
        self._trace = Trace(n=n, adversary_name=adversary_name, seed=seed)

    def record_round(self, record: RoundRecord) -> None:
        """Append one round record (rounds must arrive in order)."""
        expected = len(self._trace.rounds) + 1
        if record.round_index != expected:
            raise TraceError(
                f"round records out of order: got {record.round_index}, "
                f"expected {expected}"
            )
        self._trace.rounds.append(record)

    def finish(self, t_star: Optional[int]) -> Trace:
        """Seal the trace with the final broadcast time."""
        self._trace.t_star = t_star
        return self._trace
