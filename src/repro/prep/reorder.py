"""Vertex reordering for ``repro convert --reorder`` and the bytes-per-edge gate.

A permutation layer over :class:`~repro.graph.csr.CSRGraph`: relabel
vertices so the traversal kernels touch memory sequentially, run the
algorithm on the relabelled graph, and map any vertex-valued result
back through :attr:`Reordering.to_original`. The diameter itself is
permutation-invariant, so no correction term is involved — the layer
exists purely for locality:

* ``degree`` — degree-descending. Hub-heavy graphs spend most gather
  passes on the few high-degree rows; fronting them packs the hot rows
  into the first cache lines and makes the bottom-up switch scan them
  first.
* ``bfs`` — level order from the max-degree vertex. Frontiers of a
  level-synchronous BFS become (nearly) contiguous index ranges.
* ``rcm`` — reverse Cuthill-McKee. The classic bandwidth-minimizing
  order for meshes/roads: neighbors get nearby ids, shrinking the
  span every ``indices`` access jumps across.

:func:`edge_span` is a deterministic locality proxy — the sum over edges of
``|u - v|``, i.e. the total index distance the kernel's gathers cover
(halved, counting each undirected edge once).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.bfs.frontier import gather_rows
from repro.errors import AlgorithmError
from repro.graph.build import from_edge_arrays
from repro.graph.csr import CSRGraph

__all__ = [
    "ORDER_STRATEGIES",
    "Reordering",
    "apply_order",
    "bfs_order",
    "degree_order",
    "edge_span",
    "rcm_order",
]


@dataclass(frozen=True)
class Reordering:
    """A permuted graph plus both direction maps.

    ``to_original[i]`` is the original id of new vertex ``i`` (this is
    the permutation itself); ``from_original`` is its inverse.
    """

    graph: CSRGraph
    to_original: np.ndarray
    from_original: np.ndarray

    def map_back(self, vertices: np.ndarray) -> np.ndarray:
        """Translate vertex ids of :attr:`graph` to original ids."""
        return self.to_original[np.asarray(vertices, dtype=np.int64)]


def degree_order(graph: CSRGraph) -> np.ndarray:
    """Vertices in degree-descending order (stable, so id-ascending ties)."""
    return np.argsort(-graph.degrees.astype(np.int64), kind="stable")


def bfs_order(graph: CSRGraph, source: int | None = None) -> np.ndarray:
    """Level order of a BFS from ``source`` (default: max-degree vertex).

    Unreached vertices (other components) are appended in id order, so
    the result is always a full permutation.
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if source is None:
        source = graph.max_degree_vertex()
    indptr, indices = graph.indptr, graph.indices
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    while len(frontier):
        neigh, _ = gather_rows(indices, indptr[frontier], indptr[frontier + 1])
        fresh = neigh[~visited[neigh]]
        if len(fresh) == 0:
            break
        frontier = np.unique(fresh)
        visited[frontier] = True
        levels.append(frontier)
    unreached = np.flatnonzero(~visited)
    if len(unreached):
        levels.append(unreached)
    return np.concatenate(levels)


def rcm_order(graph: CSRGraph) -> np.ndarray:
    """Reverse Cuthill-McKee order (queue-based, lowest-degree seeds).

    Components are seeded at their lowest-degree vertex (id-ascending
    tie-break); within the queue, newly discovered neighbors enter in
    degree-ascending order, and the final Cuthill-McKee order is
    reversed — the standard bandwidth-reducing recipe.
    """
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees.astype(np.int64)
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    seeds = np.lexsort((np.arange(n), degrees))
    cursor = 0
    pos = 0
    queue: deque[int] = deque()
    while pos < n:
        while visited[seeds[cursor]]:
            cursor += 1
        seed = int(seeds[cursor])
        visited[seed] = True
        queue.append(seed)
        while queue:
            v = queue.popleft()
            order[pos] = v
            pos += 1
            row = indices[indptr[v]:indptr[v + 1]]
            fresh = row[~visited[row]]
            if len(fresh):
                fresh = fresh[np.lexsort((fresh, degrees[fresh]))]
                visited[fresh] = True
                queue.extend(fresh.tolist())
    return order[::-1].copy()


ORDER_STRATEGIES = {
    "degree": degree_order,
    "bfs": bfs_order,
    "rcm": rcm_order,
}


def apply_order(
    graph: CSRGraph, order: np.ndarray, name: str | None = None
) -> Reordering:
    """Relabel ``graph`` so new vertex ``i`` is old vertex ``order[i]``."""
    order = np.asarray(order, dtype=np.int64)
    n = graph.num_vertices
    if len(order) != n or (
        n > 0
        and (
            order.min() < 0
            or order.max() >= n
            or (np.bincount(order, minlength=n) != 1).any()
        )
    ):
        raise AlgorithmError(
            f"reorder permutation must be a bijection on 0..{n - 1}"
        )
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    permuted = from_edge_arrays(
        ranks[row_of],
        ranks[graph.indices.astype(np.int64)],
        num_vertices=n,
        name=name or f"{graph.name}:reordered",
    )
    return Reordering(
        graph=permuted, to_original=order.copy(), from_original=ranks
    )


def edge_span(graph: CSRGraph) -> int:
    """Total index distance covered by the adjacency structure.

    ``sum_{u~v} |u - v|`` over undirected edges — the deterministic
    locality proxy for before/after reorder comparisons (lower means
    gathers stay closer to the frontier's index range).
    """
    row_of = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.indptr)
    )
    return int(np.abs(row_of - graph.indices.astype(np.int64)).sum()) // 2
