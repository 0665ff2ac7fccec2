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
  direction.  No candidate is composed: sums of squared reach sizes come
  from GEMMs over per-round prefix sums, and a run takes 0.14 s at
  n = 48.

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
    flattened per-direction prefix tables in :func:`_prefix_tables`.
    """

    n: int
    chain: np.ndarray  # (S,) chain length m of each slot
    unrolled: np.ndarray  # (2, 2n) node at each unrolled position
    lo: np.ndarray  # (n, 2) prefix-table row of o_0
    hi: np.ndarray  # (n, 2, S) prefix-table row just past o_m
    anchor: np.ndarray  # (n, 2, S) parent of every fan node
    pair: np.ndarray  # (n, 2, S) (start, direction) pair 2 s + d
    tail: np.ndarray  # (4n + 2,) node just before each prefix-table row
    square_at: np.ndarray  # (n, 2, S) flat position in _gemm_squares' table


@functools.lru_cache(maxsize=64)
def _chain_fan_family(n: int, m_stride: int) -> _ChainFanFamily:
    ms = np.arange(1, n - 1, m_stride)
    chain = np.concatenate([[n - 1], np.repeat(ms, 2)])
    at_tail = np.concatenate([[False], np.tile([False, True], ms.size)])
    s = np.arange(n)[:, None, None]
    d = np.arange(2)[None, :, None]
    j = np.arange(2 * n)
    unrolled = np.stack([j % n, -j % n])
    lo = d * (2 * n + 1) + np.where(d == 0, s, -s % n)
    hi = lo + chain + 1
    # The tail o_m sits on unrolled row hi - 1, so a tail anchor is a
    # function of hi alone (row 0 of each direction is never a hi).
    tail = np.concatenate([unrolled[:, [-1]], unrolled], axis=1).reshape(-1)
    return _ChainFanFamily(
        n=n,
        chain=chain,
        unrolled=unrolled,
        lo=lo[:, :, 0],
        hi=hi,
        anchor=np.where(at_tail, (s + (1 - 2 * d) * chain) % n, s),
        pair=np.repeat(np.arange(2 * n), chain.size).reshape(hi.shape),
        tail=tail,
        square_at=(at_tail * tail.size + hi) * n + s,
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


class _PrefixTables(NamedTuple):
    """One state's prefix tables along the unrolled orders.

    Candidate ``c`` with (start, direction) pair ``l = 2 s + d`` turns row
    ``u`` into ``fan[hi, u] - fan0[l, u]`` if its anchor is in ``R_u``,
    else into ``pb[hi, u] - out0[l, u]`` (:func:`_candidate_rows`).
    """

    size: np.ndarray  # (n,) |R_u|
    member: np.ndarray  # (n, n) [v, u]: v ∈ R_u
    pb: np.ndarray  # (4n + 2, n)
    fan: np.ndarray  # (4n + 2, n)
    out0: np.ndarray  # (2n, n)
    fan0: np.ndarray  # (2n, n)


def _prefix_tables(fam: _ChainFanFamily, reach: np.ndarray) -> _PrefixTables:
    """Build :class:`_PrefixTables` for the state with reach matrix ``reach``.

    A tree turns row ``u`` into ``R_u ∪ {v : p(v) ∈ R_u}``, so the
    candidate with chain ``o_0 .. o_m`` and fan anchor ``a`` gives

        |R_u'| = |R_u| + B + [a ∈ R_u] · (n − |R_u| − (m + 1) + A)

    with ``A = |R_u ∩ {o_0 .. o_m}|`` and ``B = #{1 ≤ i ≤ m : o_{i−1} ∈
    R_u, o_i ∉ R_u}``, both differences of prefix sums along the unrolled
    orders.  int16 holds every entry for n < 8192.
    """
    n = fam.n
    inside = np.ascontiguousarray(reach.T, dtype=np.int16)  # [v, u]: v ∈ R_u
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
    lo = fam.lo.reshape(-1)
    return _PrefixTables(
        size=size,
        member=inside.astype(bool),
        pb=pb,
        fan=pa + pb - np.arange(len(pa), dtype=np.int16)[:, None],
        out0=pb[lo + 1] - size,
        fan0=(pa[lo] + pb[lo + 1] - (lo + n)[:, None]).astype(np.int16),
    )


def _candidate_rows(
    fam: _ChainFanFamily, tables: _PrefixTables, index: np.ndarray
) -> np.ndarray:
    """``(len(index), n)`` new row sizes of the candidates at flat positions ``index``."""
    pair = fam.pair.reshape(-1)[index]
    hi = fam.hi.reshape(-1)[index]
    return np.where(
        np.take(tables.member, fam.anchor.reshape(-1)[index], axis=0),
        np.take(tables.fan, hi, axis=0) - np.take(tables.fan0, pair, axis=0),
        np.take(tables.pb, hi, axis=0) - np.take(tables.out0, pair, axis=0),
    )


#: Elements of one block's candidate-by-row tensor in
#: :func:`_chain_fan_scores`; blocks hold whole start nodes, so memory
#: stays bounded at large ``n``.
_SCORE_BLOCK = 1 << 20


def _chain_fan_scores(fam: _ChainFanFamily, reach: np.ndarray) -> np.ndarray:
    """``(C, 3)`` :func:`quadratic_potential_score` of every candidate.

    Rows follow the flat ``(start, direction, slot)`` layout.  Nothing is
    composed: every candidate's rows are read off :func:`_prefix_tables`,
    n table lookups per candidate, exact on every state.
    """
    n = fam.n
    t = _prefix_tables(fam, reach)
    fan0 = t.fan0.reshape(n, 2, 1, n)
    out0 = t.out0.reshape(n, 2, 1, n)
    scores = np.zeros(fam.hi.shape + (3,), np.int64)
    starts = max(1, _SCORE_BLOCK // (fam.hi[0].size * n))
    for s0 in range(0, n, starts):
        blk = slice(s0, s0 + starts)
        hi = fam.hi[blk]
        rows = np.where(
            np.take(t.member, fam.anchor[blk], axis=0),
            np.take(t.fan, hi, axis=0) - fan0[blk],
            np.take(t.pb, hi, axis=0) - out0[blk],
        ).reshape(-1, n)
        out = scores[blk].reshape(-1, 3)
        out[:, 2] = rows.max(axis=1)
        out[:, 1] = np.einsum("ij,ij->i", rows, rows, dtype=np.int64)
        full = out[:, 2] == n  # only these can have broadcasters
        out[full, 0] = (rows[full] == n).sum(axis=1)
    return scores.reshape(-1, 3)


def _gemm_squares(fam: _ChainFanFamily, tables: _PrefixTables) -> np.ndarray:
    """``Σ_u |R_u'|²`` of every candidate (flat layout), from batched GEMMs.

    Row ``u`` of a candidate is ``x[hi] - x0[l]`` or ``f[hi] - f0[l]``
    (``x = pb``, ``f = fan``) as its anchor misses or hits ``R_u``.  A
    root anchor's membership mask depends on ``l`` alone and a tail
    anchor's on ``hi`` alone (:attr:`_ChainFanFamily.tail`), so expanding
    the squares leaves, per anchor kind and direction, one ``(2n + 1) ×
    (3n + 2)`` by ``(3n + 2) × n`` product; the two extra columns carry
    the per-``hi`` and per-``l`` sums.  Every table entry is an integer of
    magnitude at most ``4n + 1``, so every term and partial sum stays below
    ``128 n³`` and float64 is exact for n < 8192.
    """
    n = fam.n
    x, f = tables.pb.astype(float), tables.fan.astype(float)  # [hi, u]
    # [d, s, u]: the (start, direction) terms grouped by direction.
    x0, f0 = (
        np.ascontiguousarray(a.reshape(n, 2, n).transpose(1, 0, 2), dtype=float)
        for a in (tables.out0, tables.fan0)
    )
    x2, f2, x02, f02 = x * x, f * f, x0 * x0, f0 * f0
    lhs = np.empty((2, 4 * n + 2, 3 * n + 2))  # [kind, hi, :]
    rhs = np.empty((2, 2, n, 3 * n + 2))  # [kind, d, s, :]
    lhs[..., -1] = rhs[..., -2] = 1.0
    # Root anchors: mask m[s, u] = s ∈ R_u.
    m = tables.member
    mx0, mf0 = np.where(m, 0.0, x0), np.where(m, f0, 0.0)
    lhs[0, :, :n], lhs[0, :, n : 2 * n], lhs[0, :, 2 * n : -2] = f2 - x2, x, f
    lhs[0, :, -2] = x2.sum(axis=1)
    rhs[0, ..., :n], rhs[0, ..., n : 2 * n], rhs[0, ..., 2 * n : -2] = m, -2 * mx0, -2 * mf0
    rhs[0, ..., -1] = (mx0 * x0 + mf0 * f0).sum(axis=2)
    # Tail anchors: mask m[hi, u] = o_m ∈ R_u.
    m = tables.member[fam.tail]
    mx, mf = np.where(m, 0.0, x), np.where(m, f, 0.0)
    lhs[1, :, :n], lhs[1, :, n : 2 * n], lhs[1, :, 2 * n : -2] = m, mx, mf
    lhs[1, :, -2] = (mx * x + mf * f).sum(axis=1)
    rhs[1, ..., :n], rhs[1, ..., n : 2 * n], rhs[1, ..., 2 * n : -2] = f02 - x02, -2 * x0, -2 * f0
    rhs[1, ..., -1] = x02.sum(axis=2)
    # Only same-direction (hi, l) pairs are candidates: one GEMM each.
    table = lhs.reshape(2, 2, 2 * n + 1, -1) @ rhs.swapaxes(-1, -2)
    return table.reshape(-1)[fam.square_at.reshape(-1)].astype(np.int64)


#: Scores are exact below this many nodes: the int16 prefix tables and
#: the float64 GEMM squares hold for n < 8192, the int64 key of
#: :func:`_full_table_choice` for n < 6000.
_EXACT_N_LIMIT = 6000
#: Largest rows every candidate is checked against before the walk.
_PREFILTER_ROWS = 2
#: Candidates (rounded up to a whole squares group) given exact rows.
_WALK = 64
#: Pools below this many slots are scored on the full table, which is
#: cheaper there than the GEMMs and the walk (up to n = 16 at stride 1).
_FULL_TABLE_POOL = 1000


def _fills_largest_rows(fam: _ChainFanFamily, tables: _PrefixTables) -> np.ndarray:
    """Whether each candidate (flat layout) fills one of the largest rows.

    Exact new sizes of the :data:`_PREFILTER_ROWS` largest rows only,
    laid out row by row so every gather reads one short table.
    """
    k = min(_PREFILTER_ROWS, fam.n)
    cols = np.argpartition(tables.size, -k)[-k:]
    member, pb, fan, out0, fan0 = (np.ascontiguousarray(a[:, cols].T) for a in tables[1:])
    hi, pair = fam.hi.reshape(-1), fam.pair.reshape(-1)
    rows = np.where(
        np.take(member, fam.anchor.reshape(-1), axis=1),
        np.take(fan, hi, axis=1) - np.take(fan0, pair, axis=1),
        np.take(pb, hi, axis=1) - np.take(out0, pair, axis=1),
    )
    return (rows == fam.n).any(axis=0)


def _full_table_choice(fam: _ChainFanFamily, reach: np.ndarray) -> int:
    """Flat position minimizing ``(broadcasters, Σ rows², max row)``, full table.

    The score tuple as one int64 key (squares <= n³, top <= n).  argmin
    keeps the first minimum, and a duplicate candidate always follows its
    original: ties go to the earliest distinct candidate.
    """
    n = fam.n
    done, squares, top = _chain_fan_scores(fam, reach).T
    return int(np.argmin((done * (n**3 + 1) + squares) * (n + 1) + top))


def _gemm_choice(fam: _ChainFanFamily, reach: np.ndarray) -> int:
    """The position :func:`_full_table_choice` returns, mostly without the table.

    While any candidate finishes no row (broadcasters 0), one of those
    wins, so: squares for all from :func:`_gemm_squares`; drop every
    candidate that fills one of the largest rows
    (:func:`_fills_largest_rows`); exact rows for the :data:`_WALK`
    lowest-squares survivors; the first squares group holding a
    non-finishing candidate wins on (max row, position).  If that settles
    nothing -- in the last round every candidate finishes -- the full
    table decides.
    """
    tables = _prefix_tables(fam, reach)
    squares = _gemm_squares(fam, tables)
    alive = np.flatnonzero(~_fills_largest_rows(fam, tables))
    if alive.size > _WALK:
        cut = np.partition(squares[alive], _WALK - 1)[_WALK - 1]
        alive = alive[squares[alive] <= cut]
    order = alive[np.argsort(squares[alive], kind="stable")]
    rows = _candidate_rows(fam, tables, order)
    live = (rows < fam.n).all(axis=1)
    if not live.any():
        return _full_table_choice(fam, reach)
    group = live & (squares[order] == squares[order[live.argmax()]])
    return int(order[group][rows[group].max(axis=1).argmin()])


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

    The pool is scored without composing any candidate, from per-round
    prefix sums along the rotated orders (:func:`_prefix_tables`).  Pools
    of 1000 slots and more (n >= 17 at stride 1) take every candidate's
    sum of squares from batched GEMMs and build exact rows only for the
    lowest-squares candidates that fill none of the largest rows
    (:func:`_gemm_choice`); smaller pools and the last round, where every
    candidate finishes, read the full table (:func:`_chain_fan_scores`,
    n lookups per candidate).  Both are exact on every state.  A run
    takes 0.14 s at n = 48 and 1.6 s at n = 128 (2.3 s with
    ``m_stride=1``; ``benchmarks/BENCH_cyclic.json``).  ``m_stride``
    defaults to 1 below 64 nodes and ``n // 32`` beyond, which loses
    rounds there (see the module docstring).
    """

    def __init__(self, n: int, m_stride: Optional[int] = None) -> None:
        if n < 2:
            raise AdversaryError("CyclicFamilyAdversary needs n >= 2")
        if n >= _EXACT_N_LIMIT:
            raise AdversaryError(
                f"CyclicFamilyAdversary scores exactly only for n < {_EXACT_N_LIMIT}, got {n}"
            )
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
        choose = _gemm_choice if fam.hi.size >= _FULL_TABLE_POOL else _full_table_choice
        best = choose(fam, state.reach_matrix_view())
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
