"""Top-down level-synchronous BFS step (vectorized).

This is the "conventional data-driven top-down BFS" of the paper's
Section 4.6: each level expands the current worklist by scanning the
adjacency lists of its vertices and claiming unvisited neighbours. The
paper's threads claim neighbours with atomic compare-and-swap; here the
claim is a vectorized visited-filter plus deduplication, which produces
exactly the same next frontier. Deduplication adapts to the fresh-set
size (see :func:`repro.bfs.frontier.compact_unique`): small sets
scatter their positions into a pooled never-reset owner buffer, keep
one writer per id and sort only those survivors; large ones are
claimed into a pooled flag array and compacted with
``np.flatnonzero``. Both are analogs of the paper's CAS claim — one
winner per vertex, no hashing — and both return the sorted frontier.
"""

from __future__ import annotations

import numpy as np

from repro.bfs.frontier import compact_unique, gather_neighbors
from repro.bfs.visited import VisitMarks
from repro.graph.csr import CSRGraph

__all__ = ["topdown_step"]


def topdown_step(
    graph: CSRGraph,
    frontier: np.ndarray,
    marks: VisitMarks,
    *,
    pool=None,
) -> tuple[np.ndarray, int]:
    """Expand one BFS level top-down.

    Parameters
    ----------
    graph:
        The graph being traversed.
    frontier:
        Sorted array of the current level's vertices (all already marked
        visited in the current epoch).
    marks:
        The run's shared visited marks.
    pool:
        Optional scratch pool (duck-typed
        :class:`~repro.bfs.kernel.Workspace`) providing the cached
        ``arange`` ramp for the neighbour gather, the owner buffer for
        small-set compaction and the claim flag for large-set
        compaction.

    Returns
    -------
    (next_frontier, edges_examined):
        The sorted array of newly discovered vertices and the number of
        arcs scanned (the out-degree sum of the frontier).
    """
    neigh = gather_neighbors(graph, frontier, pool=pool)
    edges_examined = len(neigh)
    if edges_examined == 0:
        return np.empty(0, dtype=np.int64), 0
    fresh = neigh[marks.marks[neigh] != marks.counter]
    if len(fresh) == 0:
        return np.empty(0, dtype=np.int64), edges_examined
    next_frontier = compact_unique(fresh, graph.num_vertices, pool=pool)
    marks.visit(next_frontier)
    return next_frontier, edges_examined

