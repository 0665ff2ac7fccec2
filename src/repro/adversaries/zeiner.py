"""Lower-bound adversaries: the cyclic chain-fan construction and friends.

The ``⌈(3n−1)/2⌉ − 2`` lower bound of Theorem 3.1 is due to Zeiner,
Schwarz, Schmid [14] via an explicit adversary (published separately in
Discrete Applied Mathematics 255, 2019, not restated in the brief
announcement we reproduce).  This module supplies executable adversaries
that *witness* the bound:

* :class:`CyclicFamilyAdversary` -- the reproduction's main result on the
  lower-bound side.  Playing greedily (quadratic-potential score) over the
  family of *rotated cyclic paths* and *cyclic chain-fan trees*, it keeps
  every reach set a cyclic interval and achieves **exactly**
  ``⌈(3n−1)/2⌉ − 2`` on the full pool (``m_stride=1``, the default below
  64 nodes) at every ``n`` measured: 2 .. 64, then 72, 80, .., 128
  (``benchmarks/BENCH_cyclic.json``), matching the exact game values
  computed by :mod:`repro.adversaries.exact` for ``n <= 5`` (where
  ``t*(T_n)`` equals the formula).  The default subsampled pool above 63
  nodes falls short: t* = 93, 116, 155 against 94, 142, 190 at n = 64,
  96, 128.  How it was found: we solved the game exactly for small
  ``n``, observed that optimal play keeps reach sets as cyclic intervals
  and plays chains-with-fans, and closed the family under rotation and
  direction.

* :class:`ZeinerStyleAdversary`, :class:`RunnerAdversary` -- simpler
  two-phase/path heuristics kept as baselines (they only reach ``n - 1``;
  their failure is itself informative and benchmarked in E8).

* :func:`best_known_adversary` -- portfolio driver returning the strongest
  measured adversary for a given ``n``.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.adversaries.base import Adversary
from repro.adversaries.paths import (
    AlternatingPathAdversary,
    RotatingPathAdversary,
    SortedPathAdversary,
    StaticPathAdversary,
    TwoPhaseFlipAdversary,
)
from repro.core.broadcast import BroadcastResult, run_adversary
from repro.core.state import BroadcastState
from repro.errors import AdversaryError
from repro.trees.generators import chain_fan, path_from_order, rotated_path
from repro.trees.rooted_tree import RootedTree


def quadratic_potential_score(
    reach: np.ndarray, parent: np.ndarray, n: int
) -> Tuple[int, int, int]:
    """Score a candidate move; lexicographically lower is better.

    ``(new broadcasters, sum of squared reach sizes, max reach size)``:
    never finish if avoidable, then keep knowledge balanced (the convex
    penalty makes informing the already-informed expensive), then suppress
    the leader.  This is the score under which greedy play over *all*
    trees reproduces the exact game values for ``n <= 6``.
    """
    new = reach | reach[:, parent]
    rows = new.sum(axis=1)
    return (
        int((rows == n).sum()),
        int((rows.astype(np.int64) ** 2).sum()),
        int(rows.max()),
    )


class _ChainFanFamily(NamedTuple):
    """Index tables of the chain-fan pool, laid out as ``(start, direction, slot)``.

    Direction 0 walks the rotated order ``o_i = s + i`` and direction 1
    the order ``o_i = s - i`` (mod ``n``).  Slot 0 is the path (chain
    length ``m = n - 1``); the other slots pair every sampled ``m`` with a
    fan anchored at the root ``s`` and then at the chain tail ``o_m``.
    Each direction's order is unrolled twice (``unrolled``), so every
    chain ``o_0 .. o_m`` is one contiguous run ``lo .. hi - 1`` of the
    flattened per-direction prefix tables in :func:`_chain_fan_scores`.
    """

    n: int
    chain: np.ndarray  # (S,) chain length m of each slot
    unrolled: np.ndarray  # (2, 2n) node at each unrolled position
    lo: np.ndarray  # (n, 2) prefix-table row of o_0
    hi: np.ndarray  # (n, 2, S) prefix-table row just past o_m
    anchor: np.ndarray  # (n, 2, S) parent of every fan node


@functools.lru_cache(maxsize=64)
def _chain_fan_family(n: int, m_stride: int) -> _ChainFanFamily:
    ms = np.arange(1, n - 1, m_stride)
    chain = np.concatenate([[n - 1], np.repeat(ms, 2)])
    at_tail = np.concatenate([[False], np.tile([False, True], ms.size)])
    s = np.arange(n)[:, None, None]
    d = np.arange(2)[None, :, None]
    j = np.arange(2 * n)
    lo = d * (2 * n + 1) + np.where(d == 0, s, -s % n)
    return _ChainFanFamily(
        n=n,
        chain=chain,
        unrolled=np.stack([j % n, -j % n]),
        lo=lo[:, :, 0],
        hi=lo + chain + 1,
        anchor=np.where(at_tail, (s + (1 - 2 * d) * chain) % n, s),
    )


def _chain_fan_parents(fam: _ChainFanFamily, index: np.ndarray) -> np.ndarray:
    """Parent rows of the candidates at flat positions ``index``."""
    s, d, slot = np.unravel_index(index, fam.hi.shape)
    s, step = s[:, None], (1 - 2 * d)[:, None]
    v = np.arange(fam.n)
    pos = (v - s) * step % fam.n  # where v sits in the rotated order
    anchor = fam.anchor.reshape(-1)[index][:, None]
    parents = np.where(pos <= fam.chain[slot][:, None], (v - step) % fam.n, anchor)
    return np.where(pos == 0, s, parents)


@functools.lru_cache(maxsize=4)
def _chain_fan_pool(n: int, m_stride: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct candidates in generation order: ``(flat positions, parent rows)``."""
    fam = _chain_fan_family(n, m_stride)
    parents = _chain_fan_parents(fam, np.arange(fam.hi.size))
    _, first = np.unique(parents, axis=0, return_index=True)
    first.sort()
    pool = (first, parents[first])
    for a in pool:
        a.setflags(write=False)
    return pool


#: Elements of one block's candidate-by-row tensor in
#: :func:`_chain_fan_scores`; blocks hold whole start nodes, so memory
#: stays bounded at large ``n``.
_SCORE_BLOCK = 1 << 20


def _chain_fan_scores(fam: _ChainFanFamily, reach: np.ndarray) -> np.ndarray:
    """``(C, 3)`` :func:`quadratic_potential_score` of every candidate.

    Rows follow the flat ``(start, direction, slot)`` layout.  Nothing is
    composed: a tree turns row ``u`` into ``R_u ∪ {v : p(v) ∈ R_u}``, so
    the candidate with chain ``o_0 .. o_m`` and fan anchor ``a`` gives

        |R_u'| = |R_u| + B + [a ∈ R_u] · (n − |R_u| − (m + 1) + A)

    with ``A = |R_u ∩ {o_0 .. o_m}|`` and ``B = #{1 ≤ i ≤ m : o_{i−1} ∈
    R_u, o_i ∉ R_u}``, both differences of prefix sums along the unrolled
    orders.  Exact on every state; O(n) per candidate.
    """
    n = fam.n  # int16 tables hold for n < 8192, next_tree's int64 key for n < 6000
    inside = np.ascontiguousarray(reach.T, dtype=np.int16)  # [v, u]: v ∈ R_u
    member = inside.astype(bool)
    size = inside.sum(axis=0, dtype=np.int16)
    seq = inside[fam.unrolled]
    pa = np.zeros((2, 2 * n + 1, n), np.int16)  # pa[k] = A over seq[:k]
    np.cumsum(seq, axis=1, out=pa[:, 1:])
    pb = np.zeros_like(pa)  # pb[k] = B over seq[:k]
    np.cumsum(seq[:, :-1] > seq[:, 1:], axis=1, dtype=np.int16, out=pb[:, 2:])
    pa, pb = pa.reshape(-1, n), pb.reshape(-1, n)
    # Per-(start, direction) terms folded into the tables, m + 1 = hi - lo:
    #   anchor in R_u:  A + B + n - (m + 1) = fan[hi] - fan0[lo]
    #   otherwise:      |R_u| + B           = pb[hi] - out0[lo]
    lo = fam.lo
    fan = pa + pb - np.arange(len(pa), dtype=np.int16)[:, None]
    fan0 = (pa[lo] + pb[lo + 1] - (lo + n)[..., None]).astype(np.int16)[:, :, None]
    out0 = (pb[lo + 1] - size)[:, :, None]
    scores = np.zeros(fam.hi.shape + (3,), np.int64)
    starts = max(1, _SCORE_BLOCK // (fam.hi[0].size * n))
    for s0 in range(0, n, starts):
        blk = slice(s0, s0 + starts)
        hi = fam.hi[blk]
        rows = np.where(
            np.take(member, fam.anchor[blk], axis=0),
            np.take(fan, hi, axis=0) - fan0[blk],
            np.take(pb, hi, axis=0) - out0[blk],
        ).reshape(-1, n)
        out = scores[blk].reshape(-1, 3)
        out[:, 2] = rows.max(axis=1)
        out[:, 1] = np.einsum("ij,ij->i", rows, rows, dtype=np.int64)
        full = out[:, 2] == n  # only these can have broadcasters
        out[full, 0] = (rows[full] == n).sum(axis=1)
    return scores.reshape(-1, 3)


class CyclicFamilyAdversary(Adversary):
    """Greedy adversary over the cyclic chain-fan family.

    Candidate moves, for every start node ``s``:

    * the rotated forward and backward cyclic paths at ``s``;
    * for every chain length ``m`` (subsampled by ``m_stride`` for large
      ``n``): the chain-fan trees in both directions with the fan at the
      root and at the chain tail.

    Each round the candidate minimizing
    :func:`quadratic_potential_score` is played, ties going to the
    earliest candidate in generation order.  Reach sets then remain
    cyclic intervals throughout the run.  With the full pool
    (``m_stride=1``) the achieved broadcast time equals the Theorem 3.1
    lower-bound formula on every size checked, up to n = 128
    (``benchmarks/BENCH_cyclic.json``; pinned for n <= 24 in
    ``tests/fixtures/golden_tstar.json``).

    The pool is scored without composing any candidate: every score is
    read off per-round prefix sums along the rotated orders
    (:func:`_chain_fan_scores`, O(n) per candidate, exact on every state),
    about 0.2 s per run at n = 48 and 2 s at n = 128.  ``m_stride``
    defaults to 1 below 64 nodes and ``n // 32`` beyond, which loses
    rounds there (see the module docstring).
    """

    def __init__(self, n: int, m_stride: Optional[int] = None) -> None:
        if n < 2:
            raise AdversaryError("CyclicFamilyAdversary needs n >= 2")
        self._n = n
        if m_stride is None:
            m_stride = max(1, n // 32)
        if m_stride < 1:
            raise AdversaryError(f"m_stride must be >= 1, got {m_stride}")
        self._m_stride = m_stride
        self.name = f"CyclicFamily[stride={m_stride}]"
        super().__init__()

    def _candidate_parent_matrix(self) -> np.ndarray:
        """All distinct candidate moves as one ``(C, n)`` parent matrix.

        In generation order, built once per ``(n, m_stride)`` and shared
        read-only: the family is state-independent.
        """
        return _chain_fan_pool(self._n, self._m_stride)[1]

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        n = self._n
        if state.n != n:
            raise AdversaryError(
                f"adversary built for n={n}, driven with n={state.n}"
            )
        fam = _chain_fan_family(n, self._m_stride)
        done, squares, top = _chain_fan_scores(fam, state.reach_matrix_view()).T
        # The score tuple as one int64 key (squares <= n³, top <= n).
        # argmin keeps the first minimum, and a duplicate candidate always
        # follows its original: ties go to the earliest distinct candidate.
        best = np.argmin((done * (n**3 + 1) + squares) * (n + 1) + top)
        return RootedTree(_chain_fan_parents(fam, np.array([best]))[0].tolist())


class ZeinerStyleAdversary(Adversary):
    """Two-phase heuristic baseline: static path, then sorted re-rooting.

    Phase 1 (rounds ``1 .. ceil(n/2) - 1``) holds the identity path,
    building the staggered interval structure ``R_i = [i, i + t]``.
    Phase 2 re-roots adaptively: the path is ordered by reach size
    ascending, pushing nodes close to finishing to the leaf end where
    their reach sets align with path suffixes (the stallable sets of
    Lemma S).

    Measured: this only achieves ``n - 1`` -- staying inside *linear*
    path orders is not enough, which is why
    :class:`CyclicFamilyAdversary` works over *cyclic* rotations with
    fan-outs instead.  Kept as an instructive baseline (benchmark E8).
    """

    def __init__(self, n: int, phase1_rounds: Optional[int] = None) -> None:
        self._n = n
        if phase1_rounds is None:
            phase1_rounds = max(math.ceil(n / 2) - 1, 0)
        self._phase1 = phase1_rounds
        self._static = StaticPathAdversary(n)
        self.name = f"ZeinerStyle[p1={self._phase1}]"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        if round_index <= self._phase1:
            return self._static.next_tree(state, round_index)
        rows = state.reach_sizes()
        order = sorted(range(self._n), key=lambda v: (rows[v], v))
        return path_from_order(order)


class RunnerAdversary(Adversary):
    """Keep the least-heard-of node ("runner") at the root.

    Lemma R forces the root to gain every round; this heuristic hands the
    root slot to the node the fewest processes have reached, so the forced
    gain lands on the least advanced node.  The rest of the path is
    ordered by reach ascending.  Baseline: achieves ``n - 1``.
    """

    def __init__(self, n: int) -> None:
        self._n = n
        self.name = "Runner"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        rows = state.reach_sizes()
        cols = state.heard_of_sizes()
        runner = min(range(self._n), key=lambda v: (cols[v], rows[v], v))
        rest = [v for v in range(self._n) if v != runner]
        rest.sort(key=lambda v: (rows[v], v))
        return path_from_order([runner] + rest)


def portfolio(n: int, include_search: bool = True, seed: int = 0) -> List[Adversary]:
    """The standard adversary portfolio used by benchmarks and sweeps.

    Always contains the oblivious and constructive strategies (including
    the lower-bound-matching :class:`CyclicFamilyAdversary`);
    ``include_search`` adds the pool-based greedy/beam searchers.
    """
    from repro.adversaries.beam import BeamSearchAdversary
    from repro.adversaries.greedy import GreedyDelayAdversary
    from repro.adversaries.oblivious import RandomTreeAdversary

    advs: List[Adversary] = [
        StaticPathAdversary(n),
        AlternatingPathAdversary(n, period=1),
        RotatingPathAdversary(n, shift=1),
        SortedPathAdversary(n, ascending=True),
        SortedPathAdversary(n, ascending=False),
        TwoPhaseFlipAdversary(n, alpha=0.5),
        ZeinerStyleAdversary(n),
        RunnerAdversary(n),
        CyclicFamilyAdversary(n),
        RandomTreeAdversary(n, seed=seed),
    ]
    if include_search:
        advs.append(GreedyDelayAdversary(n, seed=seed))
        advs.append(BeamSearchAdversary(n, depth=2, width=6, seed=seed))
    return advs


def best_known_adversary(
    n: int,
    include_search: bool = True,
    seed: int = 0,
) -> Tuple[Adversary, BroadcastResult, Dict[str, int]]:
    """Run the portfolio and return the strongest adversary for ``n``.

    Returns
    -------
    (adversary, result, leaderboard)
        The adversary achieving the largest ``t*``, its full run result,
        and a name -> t* leaderboard over the whole portfolio.
    """
    best_adv: Optional[Adversary] = None
    best_result: Optional[BroadcastResult] = None
    leaderboard: Dict[str, int] = {}
    for adv in portfolio(n, include_search=include_search, seed=seed):
        result = run_adversary(adv, n)
        assert result.t_star is not None  # run_adversary enforces the n² cap
        leaderboard[adv.name] = result.t_star
        if best_result is None or result.t_star > best_result.t_star:
            best_adv, best_result = adv, result
    assert best_adv is not None and best_result is not None
    return best_adv, best_result, leaderboard
