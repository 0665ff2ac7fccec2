"""Nonsplit-graph adversaries (the related setting of [9] and [1]).

A directed graph is *nonsplit* if every pair of nodes has a common
in-neighbor.  Two facts from the related work frame our experiment E6:

* Charron-Bost, Függer, Nowak [1]: one round of a nonsplit graph can be
  simulated by ``n - 1`` rounds of rooted trees -- equivalently, the
  composition of any ``n - 1`` rooted trees (with self-loops) is nonsplit
  (Lemma N, property-tested in ``tests/test_properties.py``);
* Függer, Nowak, Winkler [9]: broadcast over nonsplit graphs takes
  ``O(log log n)`` rounds, which via the simulation yields the previous
  ``O(n log log n)`` bound for rooted trees.

Because nonsplit round graphs are not trees, these adversaries do not
implement the tree :class:`~repro.adversaries.base.Adversary` interface;
they produce adjacency matrices and are driven by
:func:`broadcast_time_nonsplit`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core import matrix as M
from repro.core.product import is_nonsplit, split_pairs
from repro.core.state import BroadcastState
from repro.errors import AdversaryError, InvalidGraphError
from repro.types import validate_node_count


def cyclic_nonsplit_graph(n: int, window: Optional[int] = None) -> np.ndarray:
    """Deterministic nonsplit family: node ``y`` hears from a cyclic window.

    ``y``'s in-neighborhood is ``{y, y+1, ..., y+w} (mod n)`` with
    ``w = ⌈n/2⌉`` by default, so any two in-neighborhoods (size > n/2)
    intersect -- nonsplit by pigeonhole.
    """
    validate_node_count(n)
    w = window if window is not None else (n + 1) // 2
    if not n == 1 and not (n // 2 <= w <= n):
        # windows of size >= n/2 guarantee pairwise intersection
        raise InvalidGraphError(
            f"window {w} too small to guarantee nonsplit for n={n}"
        )
    a = np.zeros((n, n), dtype=np.bool_)
    for y in range(n):
        for d in range(w + 1):
            a[(y + d) % n, y] = True
    np.fill_diagonal(a, True)
    return a


def random_nonsplit_graph(
    n: int,
    in_degree: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Random reflexive nonsplit graph with roughly ``in_degree`` in-edges.

    Sampling: each node draws a random in-neighborhood of the requested
    size (default ``~2·√n``, where random sets intersect with constant
    probability); any surviving split pair is repaired by inserting a
    common in-neighbor.  The result is always nonsplit.
    """
    validate_node_count(n)
    rng = rng if rng is not None else np.random.default_rng()
    d = in_degree if in_degree is not None else max(1, int(2 * np.sqrt(n)))
    d = min(d, n)
    a = np.zeros((n, n), dtype=np.bool_)
    for y in range(n):
        ins = rng.choice(n, size=d, replace=False)
        a[ins, y] = True
    np.fill_diagonal(a, True)
    for (i, j) in split_pairs(a):
        z = int(rng.integers(n))
        a[z, i] = True
        a[z, j] = True
    if not is_nonsplit(a):  # pragma: no cover - repair is exhaustive
        raise InvalidGraphError("nonsplit repair failed")
    return a


class NonsplitAdversary:
    """Adversary over the nonsplit-graph pool.

    ``mode='cyclic'`` repeats the deterministic cyclic-window graph;
    ``mode='random'`` draws a fresh random nonsplit graph every round
    (seeded, reproducible); ``mode='rotating'`` rotates the cyclic window's
    labels each round so no single node stays well-heard.
    """

    def __init__(
        self,
        n: int,
        mode: str = "random",
        seed: int = 0,
        in_degree: Optional[int] = None,
    ) -> None:
        if mode not in ("cyclic", "random", "rotating"):
            raise AdversaryError(
                f"mode must be 'cyclic', 'random' or 'rotating', got {mode!r}"
            )
        self._n = n
        self._mode = mode
        self._seed = seed
        self._in_degree = in_degree
        self._rng = np.random.default_rng(seed)
        self.name = f"Nonsplit[{mode}]"

    def next_graph(self, state: BroadcastState, round_index: int) -> np.ndarray:
        """The adjacency matrix played in ``round_index`` (1-based)."""
        if self._mode == "cyclic":
            return cyclic_nonsplit_graph(self._n)
        if self._mode == "rotating":
            base = cyclic_nonsplit_graph(self._n)
            shift = (round_index - 1) % self._n
            perm = np.array([(v + shift) % self._n for v in range(self._n)])
            return M.permute_matrix(base, perm)
        return random_nonsplit_graph(self._n, self._in_degree, self._rng)

    def reset(self) -> None:
        """Restore the RNG for reproducible reruns."""
        self._rng = np.random.default_rng(self._seed)


def broadcast_time_nonsplit(
    adversary: NonsplitAdversary,
    n: int,
    max_rounds: Optional[int] = None,
) -> Tuple[int, BroadcastState]:
    """Drive a nonsplit adversary until broadcast completes.

    Returns ``(t_star, final_state)``.  Nonsplit graphs guarantee fast
    completion; the cap (default ``n + 2⌈log2 n⌉ + 10``) exists only to
    catch bugs and raises :class:`AdversaryError` when exceeded.
    """
    validate_node_count(n)
    adversary.reset()
    cap = max_rounds if max_rounds is not None else n + 2 * int(np.log2(max(n, 2))) + 10
    state = BroadcastState.initial(n)
    t = 0
    while not state.is_broadcast_complete():
        if t >= cap:
            raise AdversaryError(
                f"nonsplit adversary still unfinished after {cap} rounds; "
                "this contradicts the O(log log n) theory and indicates a bug"
            )
        t += 1
        g = adversary.next_graph(state, t)
        if not is_nonsplit(g):
            raise AdversaryError(f"adversary produced a split graph in round {t}")
        state = state.apply_graph(g)
    return t, state


def nonsplit_radius(a: np.ndarray) -> int:
    """Rounds for a broadcaster to appear when repeating graph ``a``.

    The quantity bounded by [9] (their "radius of nonsplit graphs").
    """
    a = M.validate_adjacency(a, require_reflexive=True)
    n = a.shape[0]
    state = BroadcastState.initial(n)
    t = 0
    while not state.is_broadcast_complete():
        state = state.apply_graph(a)
        t += 1
        if t > n * n:  # pragma: no cover - safety net
            raise AdversaryError("radius exceeded n^2; graph is not making progress")
    return t
