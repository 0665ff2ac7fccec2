"""Parameter sweep results: broadcast time across ``n`` and adversaries.

A grid runs on an executor (:meth:`repro.engine.executor.Executor.sweep`)
or, when a spec describes it, as a task graph
(:func:`repro.service.tasks.sweep_graph`); both build their points here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.bounds import lower_bound, upper_bound
from repro.errors import SweepFormatError

#: Format version written into every serialized sweep result.
SWEEP_FORMAT_VERSION = 1


@dataclass
class SweepPoint:
    """One (adversary, n) measurement."""

    adversary: str
    n: int
    t_star: int
    lower: int
    upper: int

    @property
    def normalized(self) -> float:
        """``t*/n``."""
        return self.t_star / self.n

    @property
    def within_bounds(self) -> bool:
        """Theorem 3.1 upper bound respected (must always hold)."""
        return self.t_star <= self.upper


@dataclass
class SweepResult:
    """A grid of measurements with helpers for tabulation."""

    points: List[SweepPoint] = field(default_factory=list)

    def by_adversary(self) -> Dict[str, List[SweepPoint]]:
        """Group points by adversary name (insertion-ordered)."""
        groups: Dict[str, List[SweepPoint]] = {}
        for p in self.points:
            groups.setdefault(p.adversary, []).append(p)
        return groups

    def ns(self) -> List[int]:
        """Sorted distinct ``n`` values."""
        return sorted({p.n for p in self.points})

    def all_within_bounds(self) -> bool:
        """True iff no measurement violates the Theorem 3.1 upper bound."""
        return all(p.within_bounds for p in self.points)

    def best_per_n(self) -> Dict[int, SweepPoint]:
        """The strongest adversary measurement for each ``n``."""
        best: Dict[int, SweepPoint] = {}
        for p in self.points:
            if p.n not in best or p.t_star > best[p.n].t_star:
                best[p.n] = p
        return best

    # ------------------------------------------------------------------
    # Serialization (CLI ``sweep --out`` / cross-engine comparisons)
    # ------------------------------------------------------------------

    def to_doc(self) -> Dict[str, object]:
        """The JSON-ready document form of the grid (what codecs store).

        The point order is preserved, so two sweeps of the same grid by
        different executors (or through the task-graph path) produce
        identical documents.
        """
        return {
            "format_version": SWEEP_FORMAT_VERSION,
            "points": [
                {
                    "adversary": p.adversary,
                    "n": p.n,
                    "t_star": p.t_star,
                    "lower": p.lower,
                    "upper": p.upper,
                }
                for p in self.points
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize the full grid to a JSON string.

        The point order is preserved, so two sweeps of the same grid by
        different executors serialize to byte-identical documents -- the
        CI executor-equivalence job diffs these files directly.
        """
        return json.dumps(self.to_doc(), indent=indent)

    @classmethod
    def from_doc(cls, doc: object) -> "SweepResult":
        """Rebuild a result from its :meth:`to_doc` document.

        Raises :class:`~repro.errors.SweepFormatError` on malformed input
        (wrong version, missing point fields).
        """
        version = doc.get("format_version") if isinstance(doc, dict) else None
        if version != SWEEP_FORMAT_VERSION:
            raise SweepFormatError(
                f"unsupported sweep format version {version!r} "
                f"(expected {SWEEP_FORMAT_VERSION})"
            )
        if not isinstance(doc.get("points"), list):
            raise SweepFormatError("sweep result is missing the 'points' list")
        points = []
        for i, raw in enumerate(doc["points"]):
            try:
                points.append(
                    SweepPoint(
                        adversary=str(raw["adversary"]),
                        n=int(raw["n"]),
                        t_star=int(raw["t_star"]),
                        lower=int(raw["lower"]),
                        upper=int(raw["upper"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SweepFormatError(f"malformed sweep point {i}: {exc!r}") from exc
        return cls(points=points)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Parse a result previously produced by :meth:`to_json`.

        Raises :class:`~repro.errors.SweepFormatError` on malformed input
        (bad JSON, wrong version, missing point fields).
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepFormatError(f"sweep result is not valid JSON: {exc}") from exc
        return cls.from_doc(doc)

    def save(self, path: Union[str, Path]) -> None:
        """Write the result to ``path`` as indented JSON."""
        Path(path).write_text(self.to_json(indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepResult":
        """Read a result previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


def make_sweep_point(adversary: str, n: int, t_star: Optional[int]) -> Optional[SweepPoint]:
    """The canonical measurement record for one completed grid point.

    Returns ``None`` for runs truncated by an explicit cap (``t_star``
    ``None``) -- such points are dropped from sweep results.  Every
    executor's sweep (:meth:`repro.engine.executor.Executor.sweep`) and
    the task graph's ``sweep-agg`` node build their points here, which
    is what keeps them bit-identical by construction.
    """
    if t_star is None:
        return None
    return SweepPoint(
        adversary=adversary,
        n=n,
        t_star=t_star,
        lower=lower_bound(n),
        upper=upper_bound(n),
    )
