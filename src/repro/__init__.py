"""repro -- reproduction of "Broadcasting Time in Dynamic Rooted Trees is
Linear" (El-Hayek, Henzinger, Schmid; PODC 2022, arXiv:2211.11352).

The library implements the paper's model exactly -- synchronous broadcast
over adversarial sequences of rooted trees, analysed through the evolution
of boolean adjacency matrices -- plus every substrate the reproduction
needs: the rooted-tree universe ``T_n``, adversary strategies (explicit
constructions, the lower-bound-matching cyclic adversary, and an exact
game solver for small ``n``), the bound formulas of Figure 1 and
Theorem 3.1, the E1..E8 experiments, and an execution layer served over
HTTP.

Quickstart
----------
>>> from repro import broadcast_time_adversary, run_adversary, upper_bound, lower_bound
>>> from repro.adversaries import StaticTreeAdversary
>>> from repro.trees import path
>>> n = 16
>>> t = broadcast_time_adversary(StaticTreeAdversary(path(n)), n)
>>> t == n - 1                      # the paper's static-path example
True
>>> lower_bound(n) <= upper_bound(n)
True

Matrix kernels run on a pluggable backend (``dense`` boolean matrices or
the word-packed ``bitset``; select via ``REPRO_BACKEND``, the CLI's
``--backend``, or explicitly):

>>> t == run_adversary(StaticTreeAdversary(path(n)), n, backend="bitset").t_star
True

Batch many runs into one vectorized step per round with
:class:`repro.engine.BatchExecutor`; see README.md for backend selection
and measured speedups.
"""

from repro._version import __version__
from repro.errors import (
    AdversaryError,
    DimensionMismatchError,
    InvalidGraphError,
    InvalidTreeError,
    ReproError,
    SearchBudgetExceeded,
    SimulationError,
    TraceError,
)
from repro.core import (
    BroadcastResult,
    BroadcastState,
    broadcast_time_adversary,
    lower_bound,
    run_adversary,
    run_sequence,
    sandwich,
    upper_bound,
)
from repro.trees import RootedTree

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "InvalidTreeError",
    "InvalidGraphError",
    "DimensionMismatchError",
    "AdversaryError",
    "SearchBudgetExceeded",
    "SimulationError",
    "TraceError",
    # core
    "BroadcastState",
    "BroadcastResult",
    "broadcast_time_adversary",
    "run_sequence",
    "run_adversary",
    "lower_bound",
    "upper_bound",
    "sandwich",
    # trees
    "RootedTree",
]
