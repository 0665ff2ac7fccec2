"""Black-box sequence optimization: simulated annealing over tree sequences.

A different attack on Definition 2.3's max: instead of playing adaptively,
optimize an entire *sequence* of trees offline.  The optimizer maintains a
candidate sequence (long enough to be safely past any achievable ``t*``),
scores it by the broadcast time it realizes, and locally perturbs single
rounds (replacing one tree with a random one) under a standard annealing
acceptance rule.

Scoring is incremental.  The optimizer keeps the *prefix states* of the
current sequence -- the product graph after ``k`` rounds, for ``k = 0 ..
t*`` -- and a proposal that changes round ``idx`` only replays from
the state after ``idx`` rounds: copy it, play the new tree, then the
current sequence's later rounds until some row is full.  An accepted
proposal adopts the states it played.

Purpose in the reproduction: an *independent, structure-free* searcher to
compare against the structured cyclic family (benchmark E8b's story).
Annealing plateaus around the static-path value for moderate ``n`` --
evidence that the lower-bound constructions occupy a thin manifold random
local search does not find, which is consistent with the problem having
been open for years.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.bounds import upper_bound
from repro.core.state import BroadcastState
from repro.errors import AdversaryError
from repro.trees.generators import path, random_tree
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node_count


@dataclass
class AnnealingResult:
    """Outcome of a sequence-annealing run.

    Attributes
    ----------
    n: number of processes.
    best_t_star: the best broadcast time found.
    best_sequence: a witness sequence realizing it (truncated at t*).
    iterations: proposals evaluated.
    accepted: proposals accepted (including improvements).
    history: best-so-far after each improvement (for convergence plots).
    """

    n: int
    best_t_star: int
    best_sequence: List[RootedTree]
    iterations: int
    accepted: int
    history: List[int] = field(default_factory=list)


def _extend(states: List[BroadcastState], trees: List[RootedTree]) -> int:
    """Play ``trees`` on from ``states[-1]``, the state after
    ``len(states) - 1`` rounds, appending each new state, until some row is
    full.  Returns the score: the completion round, or ``len(trees) + 1``
    when the sequence ends unfinished (strictly better than any finishing
    sequence of that length)."""
    state = states[-1]
    while not state.is_broadcast_complete():
        if len(states) > len(trees):
            return len(trees) + 1
        state = state.copy().apply_tree_inplace(trees[len(states) - 1])
        states.append(state)
    return len(states) - 1


def anneal_sequence(
    n: int,
    iterations: int = 2000,
    seed: int = 0,
    initial: Optional[List[RootedTree]] = None,
    horizon: Optional[int] = None,
    temperature0: float = 2.0,
) -> AnnealingResult:
    """Maximize broadcast time by annealing over tree sequences.

    Parameters
    ----------
    n: number of processes.
    iterations: proposal count (each costs one sequence evaluation).
    seed: RNG seed (fully deterministic).
    initial: starting sequence; defaults to the static path (the natural
        ``n − 1`` baseline).
    horizon: sequence length; defaults to the Theorem 3.1 upper bound
        (no legal sequence can delay longer, so the horizon never binds).
    temperature0: initial acceptance temperature, decayed geometrically.
    """
    validate_node_count(n)
    if n < 2:
        raise AdversaryError("annealing needs n >= 2")
    if iterations < 1:
        raise AdversaryError(f"iterations must be >= 1, got {iterations}")
    rng = np.random.default_rng(seed)
    horizon = horizon if horizon is not None else upper_bound(n)
    current = list(initial) if initial is not None else [path(n)] * horizon
    if len(current) < horizon:
        current = current + [path(n)] * (horizon - len(current))
    states = [BroadcastState.initial(n)]
    current_score = _extend(states, current)
    best = list(current)
    best_score = current_score
    accepted = 0
    history = [best_score]

    for it in range(iterations):
        temperature = temperature0 * (0.995 ** it)
        proposal = list(current)
        # Perturb a round at or before the current completion point --
        # changes past t* cannot affect the score.
        cutoff = min(current_score, len(proposal) - 1)
        idx = int(rng.integers(0, max(cutoff, 1)))
        proposal[idx] = random_tree(n, rng)
        proposal_states = states[:idx + 1]
        proposal_score = _extend(proposal_states, proposal)
        delta = proposal_score - current_score
        if delta >= 0 or rng.random() < np.exp(delta / max(temperature, 1e-9)):
            current, current_score = proposal, proposal_score
            states = proposal_states
            accepted += 1
            if current_score > best_score:
                best, best_score = list(current), current_score
                history.append(best_score)

    witness = best[:best_score] if best_score <= len(best) else best
    return AnnealingResult(
        n=n,
        best_t_star=best_score,
        best_sequence=witness,
        iterations=iterations,
        accepted=accepted,
        history=history,
    )
