"""Executable checks of Theorem 3.1.

    ⌈(3n−1)/2⌉ − 2  ≤  t*(T_n)  ≤  ⌈(1+√2)·n − 1⌉

The upper bound must hold for *every* adversary (any violation would
falsify the reproduction -- or the theorem); the lower bound is witnessed
by specific adversaries.  :func:`sandwich` reports where a measured value
falls between the two formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import lower_bound, upper_bound
from repro.types import validate_node_count


@dataclass(frozen=True)
class SandwichReport:
    """Where a measured broadcast time sits relative to Theorem 3.1."""

    n: int
    measured: int
    lower: int
    upper: int

    @property
    def upper_bound_respected(self) -> bool:
        """Must be True for every legal adversary (else the theorem fails)."""
        return self.measured <= self.upper

    @property
    def meets_lower_bound(self) -> bool:
        """True if the adversary achieved at least the known lower bound."""
        return self.measured >= self.lower

    @property
    def normalized(self) -> float:
        """``measured / n`` -- comparable to 1.5 (lower) and 2.414 (upper)."""
        return self.measured / self.n

    def __str__(self) -> str:
        return (
            f"n={self.n}: {self.lower} <= t*={self.measured} <= {self.upper} "
            f"(t*/n = {self.normalized:.3f}; UB ok: {self.upper_bound_respected}, "
            f"LB met: {self.meets_lower_bound})"
        )


def sandwich(n: int, measured_t_star: int) -> SandwichReport:
    """Build a :class:`SandwichReport` for one measurement."""
    validate_node_count(n)
    if measured_t_star < 0:
        raise ValueError(f"broadcast time cannot be negative: {measured_t_star}")
    return SandwichReport(
        n=n,
        measured=measured_t_star,
        lower=lower_bound(n),
        upper=upper_bound(n),
    )


def check_exact_value(n: int, exact_t_star: int) -> bool:
    """Check an *exact* game value (from the exhaustive solver) against both
    sides of Theorem 3.1.

    Unlike a measured adversary's value, an exact value must meet the lower
    bound too, because it is the max over all adversaries.
    """
    report = sandwich(n, exact_t_star)
    return report.upper_bound_respected and report.meets_lower_bound
