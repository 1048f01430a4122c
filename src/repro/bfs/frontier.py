"""Vectorized frontier primitives shared by all BFS engines.

The paper's parallel BFS distributes the current worklist across OpenMP
threads, each of which scans its chunk's adjacency lists and atomically
claims unvisited neighbours. In this reproduction the same per-level
data-parallel work is expressed as whole-frontier NumPy array operations
(the "vectorize the inner loop" idiom from the scientific-Python
optimization guide): a level's entire neighbour gather, visited filter,
and deduplication run as a handful of compiled array kernels instead of
a thread team. The amount and order of algorithmic work per level is
identical; only the execution vehicle differs.

The primitives here are:

* :func:`gather_rows` / :func:`gather_neighbors` — concatenate the
  adjacency lists of every frontier vertex (the "scan my chunk's edges"
  step). Both accept an optional ``pool`` (duck-typed
  :class:`~repro.bfs.kernel.Workspace`) whose cached ``arange`` scratch
  replaces the per-level ``np.arange(total)`` allocation.
* :func:`row_any` — per-row boolean reduction over a gathered range
  (the bottom-up "does any of my neighbours sit on the frontier?" test).
* :func:`compact_unique` — sorted deduplication of a fresh-neighbour
  set, the vectorized analog of the paper's atomic claim. Small sets
  scatter each entry's position into a pooled ``owner`` buffer and keep
  the entries whose slot still holds their own position (one survivor
  per id, no hashing), then sort only the survivors. Large sets are
  claimed into a flag array and compacted with ``np.flatnonzero``,
  which beats even that ``O(f log f)`` survivor sort once the fresh set
  is a sizable fraction of ``|V|``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "gather_neighbors",
    "gather_rows",
    "row_any",
    "compact_unique",
    "frontier_edge_count",
]

#: Fresh sets larger than this fraction of ``|V|`` are deduplicated by
#: claim + ``flatnonzero`` compaction instead of the owner claim's
#: survivor sort: the flag scan costs ``O(n)`` while the sort costs
#: ``O(f log f)``, so the crossover sits at a constant fraction of ``n``.
CLAIM_FRACTION = 0.125


def gather_rows(
    indices: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    *,
    pool=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``indices[starts[i]:stops[i]]`` for all rows ``i``.

    Returns ``(values, lengths)`` where ``values`` is the concatenation
    and ``lengths[i] = stops[i] - starts[i]``. The flat gather index is
    built with ``repeat``/``cumsum`` arithmetic so the whole operation is
    ``O(total)`` compiled work with no Python-level loop, including for
    empty rows.

    ``pool`` (any object with an ``arange(total)`` method, normally a
    :class:`~repro.bfs.kernel.Workspace`) supplies the ``0..total-1``
    base ramp from a cached scratch buffer instead of allocating a
    fresh ``np.arange`` per call; the scratch is only read.
    """
    lengths = (stops - starts).astype(np.int64, copy=False)
    ends = lengths.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64), lengths
    base = pool.arange(total) if pool is not None else np.arange(total, dtype=np.int64)
    # Row i occupies flat slots ends[i]-lengths[i] .. ends[i]-1, so its
    # offset into ``indices`` is starts[i] - (ends[i] - lengths[i]),
    # i.e. stops[i] - ends[i].
    flat = base + (stops - ends).repeat(lengths)
    return indices[flat].astype(np.int64, copy=False), lengths


def gather_neighbors(
    graph: CSRGraph, frontier: np.ndarray, *, pool=None
) -> np.ndarray:
    """All neighbours of the frontier vertices, concatenated (with repeats)."""
    values, _ = gather_rows(
        graph.indices,
        graph.indptr[frontier],
        graph.indptr[frontier + 1],
        pool=pool,
    )
    return values


def row_any(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row "any true" over a flat boolean array segmented by ``lengths``.

    Implemented with a cumulative sum and segment differencing rather
    than ``np.logical_or.reduceat`` because ``reduceat`` mishandles
    zero-length segments (it returns the element *at* the segment start
    instead of the reduction identity).
    """
    cum = np.concatenate(([0], np.cumsum(values.astype(np.int64))))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return (cum[ends] - cum[starts]) > 0


def compact_unique(
    values: np.ndarray, num_vertices: int, *, pool=None
) -> np.ndarray:
    """Sorted unique vertex ids of ``values`` (all in ``[0, num_vertices)``).

    Small sets are claimed through an ``owner`` buffer of ``num_vertices``
    ids: ``owner[values] = ramp`` leaves each touched slot holding the
    position of exactly one of its writers, so ``owner[values] == ramp``
    keeps one entry per distinct id, and only those survivors are
    sorted. Every slot the call reads was written earlier in the same
    call, so the buffer is never reset and may hold garbage between
    calls — ``pool.owner_buffer()`` serves it (plus ``pool.arange``
    for the ramp) when a pool is given, ``np.empty`` otherwise. This
    replaces ``np.unique``, which NumPy 2.x implements with hashing at
    about six times the cost on the thin levels of high-diameter BFS.

    Sets larger than ``CLAIM_FRACTION * num_vertices`` are claimed into
    a boolean flag array and compacted with ``np.flatnonzero`` —
    ``O(n)`` instead of ``O(f log f)``, which wins exactly when the
    fresh set is large. The flag comes from ``pool.claim_flag()`` when
    a pool is given (it must be all-``False`` on entry and is restored
    to all-``False`` before returning, so one pooled buffer serves
    every level of every traversal).
    """
    f = len(values)
    if f < max(64, int(num_vertices * CLAIM_FRACTION)):
        if pool is not None:
            owner, ramp = pool.owner_buffer(), pool.arange(f)
        else:
            owner = np.empty(num_vertices, dtype=np.int64)
            ramp = np.arange(f, dtype=np.int64)
        owner[values] = ramp
        kept = values[owner[values] == ramp]
        kept.sort()
        return kept
    flag = pool.claim_flag() if pool is not None else np.zeros(num_vertices, dtype=bool)
    try:
        flag[values] = True
        out = np.flatnonzero(flag)
        flag[out] = False  # restore the all-False contract
    except BaseException:
        # A compaction dying mid-way (out-of-memory, interrupt) must not
        # hand a dirty pooled claim flag to the next large-set
        # compaction; the full clear only runs on this cold path.
        flag[:] = False
        raise
    return out


def frontier_edge_count(graph: CSRGraph, frontier: np.ndarray) -> int:
    """Number of arcs leaving the frontier (work metric for cost models)."""
    return int((graph.indptr[frontier + 1] - graph.indptr[frontier]).sum())
