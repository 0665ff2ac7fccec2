"""Adversary strategies for the dynamic-rooted-tree broadcast game.

The adversary of Definition 2.3 picks one rooted tree per round to maximize
the broadcast time ``t*``.  This package implements:

* :mod:`~repro.adversaries.base` -- the :class:`Adversary` ABC and sequence
  adapters;
* :mod:`~repro.adversaries.oblivious` -- adversaries that ignore the state
  (static tree, random);
* :mod:`~repro.adversaries.paths` -- the static and rotating paths;
* :mod:`~repro.adversaries.zeiner` -- the cyclic chain-fan adversary, which
  meets the lower bound of Zeiner-Schwarz-Schmid [14];
* :mod:`~repro.adversaries.exact` -- exhaustive game solver (exact
  ``t*(T_n)`` for small ``n``);
* :mod:`~repro.adversaries.restricted` -- the k-leaf / k-inner-node
  restricted settings of Figure 1;
* :mod:`~repro.adversaries.nonsplit` -- the nonsplit-graph adversary pool
  of the related work [9].
"""

from repro.adversaries.base import (
    Adversary,
    SequenceAdversary,
)
from repro.adversaries.oblivious import (
    RandomTreeAdversary,
    StaticTreeAdversary,
)
from repro.adversaries.paths import StaticPathAdversary
from repro.adversaries.zeiner import (
    CyclicFamilyAdversary,
    quadratic_potential_score,
)
from repro.adversaries.exact import ExactGameSolver, ExactResult
from repro.adversaries.restricted import (
    KInnerAdversary,
    KLeafAdversary,
)
from repro.adversaries.nonsplit import NonsplitAdversary, random_nonsplit_graph
from repro.adversaries.annealing import AnnealingResult, anneal_sequence
from repro.adversaries.interval_game import (
    ArcState,
    arc_game_optimal_sequence,
    arc_game_value,
    validate_abstraction,
)

__all__ = [
    "Adversary",
    "SequenceAdversary",
    "StaticTreeAdversary",
    "RandomTreeAdversary",
    "StaticPathAdversary",
    "CyclicFamilyAdversary",
    "quadratic_potential_score",
    "ExactGameSolver",
    "ExactResult",
    "KLeafAdversary",
    "KInnerAdversary",
    "NonsplitAdversary",
    "random_nonsplit_graph",
    "AnnealingResult",
    "anneal_sequence",
    "ArcState",
    "arc_game_value",
    "arc_game_optimal_sequence",
    "validate_abstraction",
]
