"""Cyclic-interval structure of reach sets.

The exact solver's optimal adversary lines share a striking invariant:
every reach set stays a *cyclic interval* -- a set of the form
``{a, a+1, ..., b} (mod n)``.  The cyclic chain-fan adversary was designed
around this observation, and this module makes the invariant checkable:

* :class:`CyclicInterval` -- normalized arc representation;
* :func:`as_cyclic_interval` -- recognize a set as an arc (or None).

The interval lens also explains the stalling calculus: under a rotated
*forward* cyclic path starting at ``s``, an arc grows at its right end
unless that end is ``s − 1``; under a *backward* path, at its left end
unless that end is ``s + 1``.  Chain-fan trees mix the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional

from repro.types import validate_node_count


@dataclass(frozen=True)
class CyclicInterval:
    """A nonempty arc ``{start, start+1, ..., start+length-1} (mod n)``.

    Normalization: a full arc (``length == n``) uses ``start = 0``;
    otherwise ``start`` is the unique element whose predecessor is absent.
    """

    n: int
    start: int
    length: int

    def __post_init__(self) -> None:
        validate_node_count(self.n)
        if not 1 <= self.length <= self.n:
            raise ValueError(f"arc length {self.length} invalid for n={self.n}")
        if not 0 <= self.start < self.n:
            raise ValueError(f"arc start {self.start} out of range for n={self.n}")
        if self.length == self.n and self.start != 0:
            raise ValueError("full arcs must be normalized to start=0")

    @property
    def end(self) -> int:
        """The last element of the arc (inclusive)."""
        return (self.start + self.length - 1) % self.n

    def members(self) -> frozenset:
        """The arc as a set of nodes."""
        return frozenset((self.start + i) % self.n for i in range(self.length))

    def extend_right(self) -> "CyclicInterval":
        """The arc grown by one at its right end (saturates at full)."""
        if self.length == self.n:
            return self
        new_len = self.length + 1
        if new_len == self.n:
            return CyclicInterval(self.n, 0, self.n)
        return CyclicInterval(self.n, self.start, new_len)

    def extend_left(self) -> "CyclicInterval":
        """The arc grown by one at its left end (saturates at full)."""
        if self.length == self.n:
            return self
        new_len = self.length + 1
        if new_len == self.n:
            return CyclicInterval(self.n, 0, self.n)
        return CyclicInterval(self.n, (self.start - 1) % self.n, new_len)

    def is_full(self) -> bool:
        """True iff the arc covers every node (a broadcaster's reach)."""
        return self.length == self.n

    def __str__(self) -> str:
        return f"[{self.start}..{self.end}]/{self.n}(len={self.length})"


def as_cyclic_interval(nodes: AbstractSet[int], n: int) -> Optional[CyclicInterval]:
    """Recognize ``nodes`` as a cyclic interval over ``[n]``.

    Returns the normalized :class:`CyclicInterval`, or ``None`` if the set
    is empty or not an arc.
    """
    validate_node_count(n)
    size = len(nodes)
    if size == 0:
        return None
    if size == n:
        return CyclicInterval(n, 0, n)
    member = [False] * n
    for v in nodes:
        if not 0 <= v < n:
            raise ValueError(f"node {v} out of range for n={n}")
        member[v] = True
    # An arc of size < n has exactly one "start": member whose predecessor
    # is not a member.
    starts = [v for v in range(n) if member[v] and not member[(v - 1) % n]]
    if len(starts) != 1:
        return None
    start = starts[0]
    if all(member[(start + i) % n] for i in range(size)):
        return CyclicInterval(n, start, size)
    return None
