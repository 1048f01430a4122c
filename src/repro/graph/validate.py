"""Structural validation of CSR graphs.

The builders in :mod:`repro.graph.build` always emit canonical graphs,
but graphs can also arrive from disk (:mod:`repro.graph.io`) or be
constructed directly from arrays by callers. :func:`validate_csr` checks
every invariant the algorithms rely on and raises
:class:`~repro.errors.GraphValidationError` with a precise description
of the first violation found.

Invariants checked
------------------
1. ``indptr`` starts at 0, ends at ``len(indices)``, and is monotone.
2. All column indices are in ``[0, n)``.
3. No self-loops.
4. Each adjacency list is strictly increasing (sorted + deduplicated).
5. The adjacency structure is symmetric (``u → v`` implies ``v → u``).

:func:`as_vertex_id` checks one vertex id arriving from outside (a
query or a mutation batch) before anything indexes with it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmError, GraphValidationError
from repro.graph.csr import CSRGraph

__all__ = ["validate_csr", "is_symmetric", "as_vertex_id"]


def validate_csr(graph: CSRGraph) -> None:
    """Raise :class:`GraphValidationError` unless all invariants hold."""
    indptr, indices = graph.indptr, graph.indices
    n = graph.num_vertices

    if len(indptr) == 0 or indptr[0] != 0:
        raise GraphValidationError("indptr must start with 0")
    if indptr[-1] != len(indices):
        raise GraphValidationError(
            f"indptr[-1]={int(indptr[-1])} != len(indices)={len(indices)}"
        )
    if np.any(np.diff(indptr) < 0):
        v = int(np.flatnonzero(np.diff(indptr) < 0)[0])
        raise GraphValidationError(f"indptr decreases at vertex {v}")

    if len(indices):
        if indices.min() < 0 or indices.max() >= n:
            bad = int(indices[(indices < 0) | (indices >= n)][0])
            raise GraphValidationError(f"column index {bad} out of range [0, {n})")

    # Per-row sortedness, dedup, and self-loop check, vectorized: within a
    # row consecutive entries must strictly increase; at row boundaries the
    # comparison is skipped.
    if len(indices) > 1:
        increases = indices[1:] > indices[:-1]
        row_starts = np.zeros(len(indices), dtype=bool)
        # First entry of each later row; trailing isolated vertices have
        # indptr values equal to len(indices), which index no entry.
        starts = indptr[1:-1]
        row_starts[starts[starts < len(indices)]] = True
        bad = ~(increases | row_starts[1:])
        if np.any(bad):
            pos = int(np.flatnonzero(bad)[0]) + 1
            v = int(np.searchsorted(indptr, pos, side="right") - 1)
            raise GraphValidationError(
                f"adjacency list of vertex {v} is not strictly increasing "
                f"(duplicate or unsorted neighbour at offset {pos})"
            )

    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if np.any(row_of == indices):
        v = int(row_of[row_of == indices][0])
        raise GraphValidationError(f"self-loop at vertex {v}")

    if not is_symmetric(graph):
        raise GraphValidationError("adjacency structure is not symmetric")


def is_symmetric(graph: CSRGraph) -> bool:
    """Whether every arc ``u → v`` has a reverse arc ``v → u``.

    Implemented by encoding arcs as ``u * n + v`` scalars and comparing
    the sorted forward and reverse multisets — ``O(m log m)`` with no
    Python-level loops.
    """
    n = graph.num_vertices
    if n == 0 or len(graph.indices) == 0:
        return True
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    col = graph.indices.astype(np.int64)
    forward = row_of * n + col
    backward = col * n + row_of
    forward.sort()
    backward.sort()
    return bool(np.array_equal(forward, backward))


def as_vertex_id(value) -> int:
    """``value`` as a vertex id, or :class:`AlgorithmError`.

    Accepts Python and NumPy integers and decimal strings. Rejects
    ``bool`` and ``float`` (and anything else) instead of truncating
    them: ``int(2.7)`` would silently answer for vertex 2. Range checks
    are the caller's.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, np.integer, str)
    ):
        raise AlgorithmError(
            f"vertex id {value!r} is not an integer "
            f"({type(value).__name__})"
        )
    try:
        return int(value)
    except ValueError:
        raise AlgorithmError(f"vertex id {value!r} is not an integer") from None
