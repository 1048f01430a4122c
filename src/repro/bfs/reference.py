"""Pure-Python serial BFS — the reference and "serial engine".

Two roles:

1. **Correctness oracle.** The vectorized engines are cross-checked
   against this straightforward deque implementation in the test suite.
2. **The serial F-Diam engine.** The paper evaluates both a serial and
   a parallel (OpenMP) implementation of F-Diam. In this reproduction,
   "F-Diam (ser)" runs its BFS levels through this scalar per-edge loop,
   while "F-Diam (par)" runs them through the vectorized kernels in
   :mod:`repro.bfs.hybrid` — the same serial-vs-data-parallel split as
   the paper's two codes, on a substrate where "parallel" means
   compiled whole-frontier array operations (see DESIGN.md §2).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.bfs.hybrid import BFSResult
from repro.bfs.visited import VisitMarks
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

__all__ = ["serial_bfs", "serial_distances"]


def serial_bfs(
    graph: CSRGraph,
    source: int,
    marks: VisitMarks | None = None,
    *,
    max_level: int | None = None,
    record_dist: bool = False,
    check: Callable[[], None] | None = None,
) -> BFSResult:
    """Level-synchronous BFS with a scalar Python inner loop.

    Semantically identical to :func:`repro.bfs.hybrid.run_bfs` (same
    result fields, same counter-based visited marks), just executed one
    edge at a time. ``check`` is an optional per-level hook (the
    kernel's deadline check), called before each level expands.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise AlgorithmError(f"BFS source {source} out of range [0, {n})")
    if marks is None:
        marks = VisitMarks(n)
    counter = marks.new_epoch()
    mark_arr = marks.marks
    mark_arr[source] = counter

    dist = np.full(n, -1, dtype=np.int64) if record_dist else None
    if dist is not None:
        dist[source] = 0

    # Native-list adjacency and marks: element-wise NumPy indexing boxes
    # every value, which dominates a scalar BFS loop.
    adj = graph.adjacency_lists()
    marks_list = mark_arr.tolist()
    marks_list[source] = counter
    frontier = [source]
    visited = 1
    level = 0
    last_nonempty = frontier

    while frontier:
        if max_level is not None and level >= max_level:
            break
        if check is not None:
            check()
        next_frontier: list[int] = []
        append = next_frontier.append
        for v in frontier:
            for w in adj[v]:
                if marks_list[w] != counter:
                    marks_list[w] = counter
                    append(w)
        if not next_frontier:
            break
        level += 1
        if dist is not None:
            for w in next_frontier:
                dist[w] = level
        visited += len(next_frontier)
        last_nonempty = next_frontier
        frontier = next_frontier

    return BFSResult(
        source=source,
        eccentricity=level,
        visited_count=visited,
        last_frontier=np.asarray(sorted(last_nonempty), dtype=np.int64),
        dist=dist,
        trace=None,
    )


def serial_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Distance array from ``source`` via a plain deque BFS.

    Independent of the level-synchronous machinery above — used as a
    second, structurally different oracle in tests.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise AlgorithmError(f"BFS source {source} out of range [0, {n})")
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    queue: deque[int] = deque([source])
    indptr, indices = graph.indptr, graph.indices
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for w in indices[indptr[v] : indptr[v + 1]]:
            w = int(w)
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
    return dist
