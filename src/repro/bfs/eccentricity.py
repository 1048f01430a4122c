"""Eccentricity primitives.

F-Diam computes the eccentricity of a vertex "by performing a parallel
level-synchronous BFS starting from v and counting the number of levels"
(Section 4) — :meth:`repro.bfs.kernel.TraversalKernel.bfs` returns it
as ``eccentricity``. This module provides the all-vertices variant that
the naive APSP baseline and the test oracles use.

It runs on one of the two single-source engines (see DESIGN.md §2):

* ``"parallel"`` — vectorized direction-optimized hybrid (the paper's
  OpenMP code analog), the kernel's own level loop.
* ``"serial"``   — scalar pure-Python level loop
  (:func:`repro.bfs.reference.serial_bfs`, the paper's serial code
  analog).
"""

from __future__ import annotations

import numpy as np

from repro.bfs.kernel import Engine, TraversalKernel, Workspace
from repro.bfs.visited import VisitMarks
from repro.graph.csr import CSRGraph

__all__ = ["Engine", "all_eccentricities"]


def all_eccentricities(
    graph: CSRGraph,
    *,
    engine: Engine = "parallel",
    marks: VisitMarks | None = None,
    batch_lanes: int = 0,
) -> np.ndarray:
    """Eccentricity of every vertex (one BFS per vertex).

    This is the quadratic APSP-style computation the paper's
    introduction motivates against; it backs the naive baseline and the
    exhaustive correctness oracle for small graphs. Isolated vertices
    get eccentricity 0. All ``n`` traversals run through one pooled
    kernel, so the scratch buffers are shared.

    ``batch_lanes > 0`` ignores ``engine`` and computes the spectrum in
    ``ceil(n / batch_lanes)`` bit-parallel sweeps of up to
    ``batch_lanes`` sources each (rounded up to whole 64-lane words by
    the sweep); every edge gather is shared by all lanes of a chunk, so
    the number of gather passes drops by roughly the lane count.
    """
    n = graph.num_vertices
    ecc = np.zeros(n, dtype=np.int64)
    kernel = TraversalKernel(graph, engine=engine, workspace=Workspace(n, marks=marks))
    if batch_lanes > 0:
        for start in range(0, n, batch_lanes):
            chunk = np.arange(start, min(start + batch_lanes, n), dtype=np.int64)
            ecc[chunk] = kernel.levels_batched64(chunk).eccentricities
        return ecc
    for v in range(n):
        ecc[v] = kernel.bfs(v).eccentricity
    return ecc
