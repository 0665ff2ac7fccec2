"""Certificates: independent validation of claimed results.

Search adversaries and the exact solver output broadcast times and witness
sequences; before a number lands in an experiment table (``repro.experiments``,
pinned in ``tests/fixtures/golden_experiments.json``) it is re-validated here
from scratch (fresh state, plain engine, no shared code paths with the
search that produced it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.broadcast import run_adversary, run_sequence
from repro.core.theorem import sandwich
from repro.errors import AdversaryError
from repro.trees.rooted_tree import RootedTree
from repro.types import AdversaryProtocol


@dataclass(frozen=True)
class Certificate:
    """A validated broadcast-time claim.

    Attributes
    ----------
    n: number of processes.
    t_star: the validated broadcast time.
    respects_upper_bound: Theorem 3.1 upper bound holds (must always).
    meets_lower_bound: the run achieves the Theorem 3.1 lower-bound
        formula (only expected of strong adversaries).
    """

    n: int
    t_star: int
    respects_upper_bound: bool
    meets_lower_bound: bool


def certify_sequence(
    trees: Sequence[RootedTree], claimed_t_star: int, n: Optional[int] = None
) -> Certificate:
    """Validate that a tree sequence has exactly the claimed ``t*``.

    Raises
    ------
    AdversaryError
        If the sequence completes at a different round (earlier or later),
        or never completes.
    """
    if n is None:
        if not trees:
            raise AdversaryError("cannot certify an empty sequence")
        n = trees[0].n
    result = run_sequence(trees, n=n, stop_at_broadcast=True)
    if result.t_star != claimed_t_star:
        raise AdversaryError(
            f"claimed t*={claimed_t_star} but the sequence completes at "
            f"{result.t_star}"
        )
    report = sandwich(n, result.t_star)
    return Certificate(
        n=n,
        t_star=result.t_star,
        respects_upper_bound=report.upper_bound_respected,
        meets_lower_bound=report.meets_lower_bound,
    )


def certify_adversary_run(adversary: AdversaryProtocol, n: int) -> Certificate:
    """Run an adversary fresh and certify the outcome against Theorem 3.1."""
    result = run_adversary(adversary, n)
    assert result.t_star is not None
    report = sandwich(n, result.t_star)
    if not report.upper_bound_respected:
        raise AdversaryError(
            f"adversary violated the Theorem 3.1 upper bound: "
            f"t*={result.t_star} > {report.upper}; either the theorem or "
            "the model implementation is wrong"
        )
    return Certificate(
        n=n,
        t_star=result.t_star,
        respects_upper_bound=True,
        meets_lower_bound=report.meets_lower_bound,
    )


def certify_lower_bound_witness(
    adversary: AdversaryProtocol, n: int
) -> Certificate:
    """Certify that an adversary witnesses the lower-bound formula.

    Like :func:`certify_adversary_run` but additionally requires
    ``t* >= ⌈(3n−1)/2⌉ − 2``; used for
    :class:`~repro.adversaries.zeiner.CyclicFamilyAdversary` claims.
    """
    cert = certify_adversary_run(adversary, n)
    if not cert.meets_lower_bound:
        raise AdversaryError(
            f"adversary does not witness the lower bound at n={n}: "
            f"t*={cert.t_star} < formula"
        )
    return cert
