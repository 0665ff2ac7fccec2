"""Adversary base class and adapters.

An adversary implements ``next_tree(state, round_index)``: it observes the
current product graph and returns the next round's rooted tree.  Adaptive
and oblivious adversaries coincide in power here (the system is
deterministic and Definition 2.3 maximizes over sequences), so the adaptive
interface is the general one; oblivious adversaries simply ignore ``state``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.state import BroadcastState
from repro.errors import AdversaryError
from repro.trees.rooted_tree import RootedTree


class Adversary:
    """Abstract base class for adversaries.

    Subclasses override :meth:`next_tree`; :meth:`reset` clears per-run
    state and defaults to a no-op.  The class also provides ``name`` for
    reports (defaults to the class name).

    Two optional hot-loop hooks let the executors
    (:mod:`repro.engine.executor`) skip per-round ``RootedTree``
    construction:

    * :meth:`next_parents` -- the parent row the adversary would play next
      (defaults to routing through :meth:`next_tree`);
    * :meth:`compile_schedule` -- for *oblivious* strategies only: the
      whole run as one packed ``(rounds, n)`` parent array, so engines
      drive the backend kernels directly.
    """

    #: Human-readable label used by sweeps and benchmark tables.
    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        """Return the tree to play at 1-based round ``round_index``."""
        raise NotImplementedError

    def next_parents(self, state: BroadcastState, round_index: int) -> np.ndarray:
        """Parent row (``(n,)`` int64, root points to itself) for the round.

        Executors call this *instead of* :meth:`next_tree` on
        uninstrumented runs whenever a subclass genuinely overrides it --
        the streaming analog of :meth:`compile_schedule` for adaptive
        strategies that can emit parent rows without materializing a
        validated tree.  Overrides must stay consistent with
        :meth:`next_tree` (instrumented runs still use the tree path) and
        must return a valid parent array; the engines only shape-check
        it.  The default routes through :meth:`next_tree`.
        """
        return self.next_tree(state, round_index).parent_array_numpy()

    def compile_schedule(self, n: int, rounds: int) -> Optional[np.ndarray]:
        """Compile rounds ``1 .. rounds`` into one ``(rounds, n)`` array.

        Only meaningful for oblivious adversaries whose move at round
        ``t`` depends on nothing but ``t`` (``next_tree`` must ignore the
        state *and* any mutable per-run internals): executors may play the
        compiled rows without ever calling :meth:`next_tree`, and may fall
        back to it mid-run when a longer horizon fails to compile.
        Returns ``None`` (the default) when the strategy is adaptive or
        the horizon cannot be compiled; the result must be bit-identical
        to the rows :meth:`next_tree` would produce.
        """
        return None

    def compile_static_row(self, n: int) -> Optional[np.ndarray]:
        """The single parent row of a *static* schedule, or ``None``.

        Strictly stronger contract than :meth:`compile_schedule`: the
        adversary must play the tree described by this ``(n,)`` parent
        row at **every** round, forever.  Executors then skip the
        round-by-round loop entirely and binary-search ``t*`` via
        :func:`repro.core.kernels.static_completion_search` -- ``O(log
        t*)`` compositions, byte-identical to playing the row each round.
        Return ``None`` (the default) whenever the schedule is not
        provably static; a wrong row here silently corrupts results.
        """
        return None

    def reset(self) -> None:
        """Forget per-run state so the adversary can be reused."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SequenceAdversary(Adversary):
    """Play a fixed finite sequence of trees, then optionally repeat or hold.

    Parameters
    ----------
    trees:
        The round graphs for rounds ``1 .. len(trees)``.
    after:
        What to do past the end of the sequence: ``"repeat"`` cycles from
        the start, ``"hold"`` repeats the last tree forever, ``"error"``
        raises :class:`AdversaryError`.
    """

    def __init__(
        self,
        trees: Sequence[RootedTree],
        after: str = "hold",
        name: Optional[str] = None,
    ) -> None:
        if not trees:
            raise AdversaryError("SequenceAdversary needs at least one tree")
        if after not in ("repeat", "hold", "error"):
            raise AdversaryError(
                f"after must be 'repeat', 'hold' or 'error', got {after!r}"
            )
        n = trees[0].n
        for t in trees:
            if t.n != n:
                raise AdversaryError("all trees in a sequence must share n")
        self._trees: List[RootedTree] = list(trees)
        self._after = after
        self.name = name or f"Sequence[{len(trees)} trees]"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        i = round_index - 1
        if i < len(self._trees):
            return self._trees[i]
        if self._after == "repeat":
            return self._trees[i % len(self._trees)]
        if self._after == "hold":
            return self._trees[-1]
        raise AdversaryError(
            f"sequence of length {len(self._trees)} exhausted at round {round_index}"
        )

    def compile_schedule(self, n: int, rounds: int) -> Optional[np.ndarray]:
        """Packed schedule following the sequence and its ``after`` policy.

        With ``after='error'`` a horizon past the end of the sequence is
        not compilable (``None``): the executor then falls back to
        :meth:`next_tree`, which raises at the offending round exactly as
        the uncompiled path would.
        """
        from repro.trees.compile import sequence_schedule

        if self._trees[0].n != n:
            return None
        return sequence_schedule(self._trees, rounds, after=self._after)

    def compile_static_row(self, n: int) -> Optional[np.ndarray]:
        """Static iff every tree in the sequence is the same tree.

        ``after='error'`` is never static: the uncompiled path raises
        once the sequence is exhausted, so jumping past it would change
        observable behaviour.
        """
        from repro.trees.compile import parent_row

        if self._trees[0].n != n or self._after == "error":
            return None
        first = parent_row(self._trees[0])
        for tree in self._trees[1:]:
            if not np.array_equal(parent_row(tree), first):
                return None
        return first

    def __len__(self) -> int:
        return len(self._trees)
