"""Boolean adjacency matrices and the product graph of Definition 2.1.

The paper's key analytical move is to watch the boolean adjacency matrix of
the accumulated communication graph evolve round by round.  Row ``x`` of the
matrix is the *reach set* of process ``x`` (everyone ``x`` has reached);
column ``y`` is the *heard-of set* of ``y`` (everyone that reached ``y``).
Broadcast completes when some row is all-ones.

Two composition routines are provided:

* :func:`bool_product` -- the generic ``A ∘ B`` of Definition 2.1 for
  arbitrary directed graphs (used by the nonsplit experiments and as a
  cross-check), computed via integer matmul;
* :func:`compose_with_tree` -- the O(n²) fast path for composing the current
  product graph with *a rooted tree plus self-loops*, which is the only
  composition the broadcast model ever performs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DimensionMismatchError, InvalidGraphError
from repro.trees.rooted_tree import RootedTree
from repro.types import validate_node_count


def identity_matrix(n: int) -> np.ndarray:
    """The reflexive diagonal matrix: every process knows only itself.

    This is ``G(0)``, the state before any communication round.
    """
    validate_node_count(n)
    return np.eye(n, dtype=np.bool_)


def validate_adjacency(a: np.ndarray, require_reflexive: bool = False) -> np.ndarray:
    """Validate an adjacency matrix and return it as a ``bool_`` array.

    Raises
    ------
    InvalidGraphError
        If ``a`` is not a square 2-D boolean-convertible matrix, or if
        ``require_reflexive`` and some diagonal entry is False.
    """
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidGraphError(f"adjacency matrix must be square 2-D, got {arr.shape}")
    if arr.dtype != np.bool_:
        # Coercing e.g. a weight matrix through astype(bool) would silently
        # turn every nonzero weight into an edge; only exact 0/1 is accepted.
        try:
            valid = (arr == 0) | (arr == 1)
            all_valid = bool(np.all(valid))
        except (TypeError, ValueError) as exc:
            raise InvalidGraphError(
                f"adjacency matrix of dtype {arr.dtype} is not boolean-comparable"
            ) from exc
        if not all_valid:
            raise InvalidGraphError(
                "adjacency matrix entries must all be 0 or 1 (or boolean); "
                "refusing to coerce other values"
            )
        arr = arr.astype(np.bool_)
    if require_reflexive and not bool(arr.diagonal().all()):
        raise InvalidGraphError(
            "matrix must be reflexive (self-loops on the diagonal); "
            "the model never forgets information"
        )
    return arr


def bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product graph ``A ∘ B`` of Definition 2.1.

    ``(x, y) ∈ A ∘ B`` iff there is a ``z`` with ``(x, z) ∈ A`` and
    ``(z, y) ∈ B``.  This is exactly boolean matrix multiplication.
    """
    a = validate_adjacency(a)
    b = validate_adjacency(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"cannot compose graphs over {a.shape[0]} and {b.shape[0]} nodes"
        )
    # int32 accumulation avoids uint8 overflow for n >= 256.
    return (a.astype(np.int32) @ b.astype(np.int32)) > 0


def compose_with_tree(reach: np.ndarray, tree: RootedTree) -> np.ndarray:
    """Compose the product graph with one round graph (tree + self-loops).

    For round graph ``T`` with self-loops, ``(x, y) ∈ R ∘ T`` iff
    ``y ∈ R_x`` (self-loop on ``y``) or ``parent_T(y) ∈ R_x`` (tree edge).
    Column-wise that is ``R' = R | R[:, parent]`` -- O(n²) and allocation
    light, versus the O(n³)-ish generic product.

    Returns a new matrix; ``reach`` is not modified.
    """
    reach = validate_adjacency(reach)
    if reach.shape[0] != tree.n:
        raise DimensionMismatchError(
            f"reach matrix over {reach.shape[0]} nodes composed with tree over {tree.n}"
        )
    parent = tree.parent_array_numpy()
    return reach | reach[:, parent]


def compose_with_tree_inplace(reach: np.ndarray, tree: RootedTree) -> np.ndarray:
    """In-place variant of :func:`compose_with_tree` for hot loops.

    ``reach`` must already be a validated boolean matrix of the right shape;
    no checks are performed.  Returns ``reach`` for chaining.
    """
    parent = tree.parent_array_numpy()
    np.logical_or(reach, reach[:, parent], out=reach)
    return reach


def full_rows(a: np.ndarray) -> np.ndarray:
    """Boolean vector: ``full[x]`` iff row ``x`` is all-ones.

    A full row means process ``x`` has reached everyone -- ``x`` is a
    *broadcaster* in the paper's sense.
    """
    return np.asarray(a, dtype=np.bool_).all(axis=1)


def has_broadcaster(a: np.ndarray) -> bool:
    """True iff some node has reached every node (Definition 2.2's event)."""
    return bool(full_rows(a).any())


def broadcasters(a: np.ndarray) -> Tuple[int, ...]:
    """All nodes whose rows are full, in increasing order."""
    return tuple(int(v) for v in np.nonzero(full_rows(a))[0])


def edge_count(a: np.ndarray) -> int:
    """Total number of edges including self-loops."""
    return int(np.asarray(a, dtype=np.bool_).sum())


def new_edges(before: np.ndarray, after: np.ndarray) -> int:
    """Number of edges in ``after`` missing from ``before``.

    Section 2 of the paper observes this is >= 1 every round while
    broadcast is unfinished (hence ``t* <= n²``).
    """
    before = np.asarray(before, dtype=np.bool_)
    after = np.asarray(after, dtype=np.bool_)
    if before.shape != after.shape:
        raise DimensionMismatchError(
            f"cannot diff matrices of shapes {before.shape} and {after.shape}"
        )
    return int((after & ~before).sum())


def matrix_key(a: np.ndarray) -> bytes:
    """A hashable, compact key for a boolean matrix (row-major packed bits).

    Used as the memoization key of the exact game solver.  The node count
    must be carried separately by the caller (packing pads to bytes).
    """
    arr = np.asarray(a, dtype=np.bool_)
    return np.packbits(arr, axis=None).tobytes()


def permute_matrix(a: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Apply a simultaneous row/column relabeling.

    ``perm[i]`` is the new name of node ``i``; the returned matrix ``B``
    satisfies ``B[perm[x], perm[y]] = A[x, y]``.
    """
    a = np.asarray(a, dtype=np.bool_)
    n = a.shape[0]
    inv = np.empty(n, dtype=np.int64)
    inv[np.asarray(perm, dtype=np.int64)] = np.arange(n)
    return a[np.ix_(inv, inv)]
