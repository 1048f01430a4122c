"""Mirror-vertex collapsing — the second reduction of :func:`repro.prep.pipeline.preprocess`.

Two vertices are *open mirrors* (false twins) when they have identical
open neighborhoods ``N(u) = N(v)`` — they are then non-adjacent and,
having a common neighbor, sit at distance exactly 2. They are *closed
mirrors* (true twins) when ``N[u] = N[v]`` — then they are adjacent at
distance 1. Either way the twins are interchangeable: for every other
vertex ``w``, ``d(u, w) = d(v, w)``, because any shortest path from
``u`` can be rerouted through ``v``'s identical neighborhood. Deleting
all but one representative of each mirror class therefore preserves
every distance among survivors, and the only distances lost are the
intra-class ones — exactly 2 (open) or 1 (closed). Hence (DESIGN.md
§9.3):

``diam(G) = max(diam(G'), 2 if any open class collapsed else 0,
1 if any closed class collapsed else 0)``

whenever the reduced graph ``G'`` is non-trivial. Kronecker/R-MAT
generators produce many such duplicate neighborhoods (low-degree
vertices attached to the same hubs).

Detection is one exact pass: candidates are pre-bucketed by vectorized
``(degree, neighbor-sum)`` signatures (``(degree + 1, neighbor-sum +
id)`` for closed mirrors), then confirmed byte-exactly on the sorted
adjacency rows, so hash collisions cannot produce a wrong collapse.
Open classes are collapsed first; closed detection only considers
vertices not already in an open class of size >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.subgraph import induced_subgraph

__all__ = ["MirrorResult", "collapse_mirrors"]


@dataclass(frozen=True)
class MirrorResult:
    """Outcome of one mirror-collapsing pass.

    ``multiplicity[i]`` is how many original vertices the surviving
    vertex ``i`` stands for (1 when it was never part of a mirror
    class); ``to_parent[i]`` is its original id. ``correction`` is the
    intra-class distance floor described in the module docstring.
    """

    graph: CSRGraph
    to_parent: np.ndarray
    multiplicity: np.ndarray
    correction: int
    open_groups: int
    closed_groups: int
    max_multiplicity: int
    vertices_removed: int
    edges_removed: int

    @property
    def changed(self) -> bool:
        """Whether any mirror class was collapsed."""
        return self.vertices_removed > 0


def _duplicate_signature_mask(
    primary: np.ndarray, secondary: np.ndarray
) -> np.ndarray:
    """Mask of entries whose ``(primary, secondary)`` pair is not unique.

    Cheap vectorized pre-filter: only vertices sharing both signature
    components can possibly be mirrors, so the exact byte-level
    comparison below runs on a small candidate set.
    """
    order = np.lexsort((secondary, primary))
    a, b = primary[order], secondary[order]
    same_prev = np.zeros(len(a), dtype=bool)
    if len(a) > 1:
        same_prev[1:] = (a[1:] == a[:-1]) & (b[1:] == b[:-1])
    dup_sorted = same_prev.copy()
    dup_sorted[:-1] |= same_prev[1:]
    dup = np.zeros(len(a), dtype=bool)
    dup[order] = dup_sorted
    return dup


def collapse_mirrors(graph: CSRGraph, name: str | None = None) -> MirrorResult:
    """Collapse every open/closed mirror class to its smallest-id member."""
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees.astype(np.int64)
    nonzero = degrees > 0
    neighbor_sums = np.zeros(n, dtype=np.int64)
    if nonzero.any():
        # reduceat over the non-empty rows only: each start then reduces
        # exactly one adjacency row (empty rows would alias the next).
        neighbor_sums[nonzero] = np.add.reduceat(
            indices.astype(np.int64), indptr[:-1][nonzero]
        )

    keep = np.ones(n, dtype=bool)
    multiplicity = np.ones(n, dtype=np.int64)
    in_open = np.zeros(n, dtype=bool)
    open_groups = closed_groups = 0
    open_removed = closed_removed = 0

    # Open mirrors: N(u) == N(v). Exact key = the adjacency row bytes
    # (row length is implied by the byte length, so degree is encoded).
    open_candidates = np.flatnonzero(
        nonzero & _duplicate_signature_mask(degrees, neighbor_sums)
    )
    groups: dict[bytes, list[int]] = {}
    for v in open_candidates.tolist():
        key = indices[indptr[v]:indptr[v + 1]].tobytes()
        groups.setdefault(key, []).append(v)
    for members in groups.values():
        if len(members) < 2:
            continue
        open_groups += 1
        in_open[members] = True
        keep[members[1:]] = False  # members are in increasing-id order
        multiplicity[members[0]] = len(members)
        open_removed += len(members) - 1

    # Closed mirrors: N[u] == N[v]. Exact key = the row with the vertex
    # itself inserted in sorted position. Open-class members are
    # excluded — they were already collapsed.
    ids = np.arange(n, dtype=np.int64)
    closed_candidates = np.flatnonzero(
        nonzero
        & ~in_open
        & _duplicate_signature_mask(degrees + 1, neighbor_sums + ids)
    )
    closed: dict[bytes, list[int]] = {}
    index_type = indices.dtype.type
    for v in closed_candidates.tolist():
        row = indices[indptr[v]:indptr[v + 1]]
        pos = int(np.searchsorted(row, v))
        key = np.insert(row, pos, index_type(v)).tobytes()
        closed.setdefault(key, []).append(v)
    for members in closed.values():
        if len(members) < 2:
            continue
        closed_groups += 1
        keep[members[1:]] = False
        multiplicity[members[0]] = len(members)
        closed_removed += len(members) - 1

    removed = open_removed + closed_removed
    if removed == 0:
        return MirrorResult(
            graph=graph,
            to_parent=np.arange(n, dtype=np.int64),
            multiplicity=multiplicity,
            correction=0,
            open_groups=0,
            closed_groups=0,
            max_multiplicity=1,
            vertices_removed=0,
            edges_removed=0,
        )

    sub = induced_subgraph(graph, keep, name=name or f"{graph.name}:collapsed")
    mult = multiplicity[sub.to_parent]
    correction = 2 if open_removed else 1
    return MirrorResult(
        graph=sub.graph,
        to_parent=sub.to_parent,
        multiplicity=mult,
        correction=correction,
        open_groups=open_groups,
        closed_groups=closed_groups,
        max_multiplicity=int(mult.max()) if len(mult) else 1,
        vertices_removed=removed,
        edges_removed=graph.num_edges - sub.graph.num_edges,
    )
