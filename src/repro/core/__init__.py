"""Core model: product graphs, broadcast state, broadcast time, bounds.

This package implements Section 2 of the paper verbatim:

* :mod:`~repro.core.matrix` -- reflexive boolean adjacency matrices and the
  product ``A ∘ B`` of Definition 2.1;
* :mod:`~repro.core.backend` / :mod:`~repro.core.bitset` -- pluggable matrix
  backends (``dense`` boolean matrices or word-packed ``bitset``), selected
  via ``REPRO_BACKEND`` or :func:`~repro.core.backend.set_default_backend`;
* :mod:`~repro.core.state` -- :class:`~repro.core.state.BroadcastState`, the
  evolving product graph ``G(t) = G_1 ∘ ... ∘ G_t``;
* :mod:`~repro.core.broadcast` -- broadcast time ``t*`` (Definitions 2.2 and
  2.3) for fixed sequences and adversaries;
* :mod:`~repro.core.bounds` -- every bound in Figure 1 and Theorem 3.1;
* :mod:`~repro.core.theorem` -- executable checks of Theorem 3.1.
"""

from repro.core.backend import (
    MatrixBackend,
    available_backends,
    default_backend_name,
    get_backend,
    set_default_backend,
    use_backend,
)
from repro.core.matrix import (
    bool_product,
    compose_with_tree,
    identity_matrix,
    matrix_key,
    validate_adjacency,
)
from repro.core.state import BroadcastState
from repro.core.product import product_of_trees
from repro.core.broadcast import (
    BroadcastResult,
    broadcast_time_adversary,
    run_adversary,
    run_sequence,
)
from repro.core.bounds import (
    fugger_nowak_winkler_upper_bound,
    k_inner_upper_bound,
    k_leaves_upper_bound,
    lower_bound,
    nlogn_upper_bound,
    trivial_upper_bound,
    upper_bound,
)
from repro.core.theorem import sandwich

__all__ = [
    "MatrixBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "set_default_backend",
    "use_backend",
    "identity_matrix",
    "validate_adjacency",
    "bool_product",
    "compose_with_tree",
    "matrix_key",
    "BroadcastState",
    "product_of_trees",
    "BroadcastResult",
    "broadcast_time_adversary",
    "run_sequence",
    "run_adversary",
    "lower_bound",
    "upper_bound",
    "trivial_upper_bound",
    "nlogn_upper_bound",
    "fugger_nowak_winkler_upper_bound",
    "k_leaves_upper_bound",
    "k_inner_upper_bound",
    "sandwich",
]
