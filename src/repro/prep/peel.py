"""Pendant-tree peeling — the first reduction of :func:`repro.prep.pipeline.preprocess`.

Chain Processing (paper §5.3) removes degree-1/degree-2 *paths*; this
stage generalizes it to whole pendant **trees**. Every vertex outside
the 2-core belongs to a tree that hangs off the core at a single
*anchor* (or forms a free-standing tree component). Such trees can be
removed before a single full BFS runs, provided two quantities are
recorded:

* per-anchor **height** ``h(a)`` — the depth of the deepest tree vertex
  hanging at anchor ``a``. A path realizing the diameter that ends
  inside the tree at ``a`` can always be extended to end at that
  deepest vertex, so replacing the whole tree by a single *spine path*
  of length ``h(a)`` preserves every anchor-crossing distance.
* the **internal correction** ``T`` — the largest distance between two
  vertices whose connecting path never leaves one pendant tree (or one
  free-standing tree component). For a tree rooted by the BFS that
  discovered it, that is the classic "top-two child heights" maximum
  over all internal vertices.

With ``G'`` the 2-core plus one spine per anchor, the exactness lemma
(DESIGN.md §9.2) is ``diam(G) = max(diam(G'), T)`` — and for
disconnected inputs the same identity holds per component.

Everything here is vectorized per BFS level; the only Python-level loop
is over tree depth (bounded by the longest pendant path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bfs.frontier import gather_rows
from repro.graph.build import from_edge_arrays
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph
from repro.graph.kcore import core_numbers
from repro.graph.subgraph import induced_subgraph

__all__ = ["PeelResult", "peel_pendant_trees"]


@dataclass(frozen=True)
class PeelResult:
    """Outcome of one peeling pass.

    Attributes
    ----------
    graph:
        The reduced graph: the 2-core (vertices relabelled ``0..k-1``)
        plus one synthetic spine path of length ``h(a)`` per anchor
        ``a``. Spine vertex ids start at ``num_core``.
    core_to_parent:
        Original id of each surviving core vertex (spine vertices are
        synthetic and have no original id).
    num_core:
        Number of 2-core vertices kept (``graph`` has
        ``num_core + spine_vertices`` vertices in total).
    correction:
        The internal correction ``T``: the largest pairwise distance
        realized entirely inside one pendant tree or free-standing tree
        component. ``diam(original) = max(diam(graph), correction)``
        per component.
    anchors:
        Number of core vertices with at least one pendant tree.
    spine_vertices:
        Synthetic path vertices added to stand in for the peeled trees.
    tree_components:
        Whole components that were trees (they vanish from ``graph``;
        their diameters are folded into ``correction``).
    vertices_removed / edges_removed:
        Net size reduction versus the input graph.
    """

    graph: CSRGraph
    core_to_parent: np.ndarray
    num_core: int
    correction: int
    anchors: int
    spine_vertices: int
    tree_components: int
    vertices_removed: int
    edges_removed: int

    @property
    def changed(self) -> bool:
        """Whether peeling removed anything."""
        return self.vertices_removed > 0


def _identity_result(graph: CSRGraph) -> PeelResult:
    return PeelResult(
        graph=graph,
        core_to_parent=np.arange(graph.num_vertices, dtype=np.int64),
        num_core=graph.num_vertices,
        correction=0,
        anchors=0,
        spine_vertices=0,
        tree_components=0,
        vertices_removed=0,
        edges_removed=0,
    )


def peel_pendant_trees(graph: CSRGraph, name: str | None = None) -> PeelResult:
    """Peel every pendant tree (and free tree component) off ``graph``.

    Returns the reduced graph (2-core + per-anchor spines) together
    with the internal correction ``T``; see the module docstring for
    the exactness statement. ``O(n + m)`` plus one vectorized pass per
    tree-depth level.
    """
    n = graph.num_vertices
    if n == 0:
        return _identity_result(graph)
    in_core = core_numbers(graph).core >= 2
    num_forest = int(n - np.count_nonzero(in_core))
    if num_forest == 0:
        return _identity_result(graph)

    indptr, indices = graph.indptr, graph.indices
    # depth = BFS depth inside the forest (0 on seeds, -1 undiscovered);
    # parent = the neighbor that discovered each forest vertex. Because
    # forest vertices have at most one neighbor closer to the seeds (a
    # second one would put them on a cycle, i.e. in the 2-core), the BFS
    # tree *is* the pendant tree and `parent` is its real tree parent.
    depth = np.where(in_core, 0, -1).astype(np.int64)
    parent = np.full(n, -1, dtype=np.int64)

    def wave(seeds: np.ndarray) -> list[np.ndarray]:
        """Level-synchronous BFS from ``seeds`` into undiscovered forest."""
        levels: list[np.ndarray] = []
        frontier = seeds
        while len(frontier):
            neigh, lengths = gather_rows(indices, indptr[frontier], indptr[frontier + 1])
            rows = np.repeat(frontier, lengths)
            undiscovered = depth[neigh] == -1
            cand, cand_parent = neigh[undiscovered], rows[undiscovered]
            if len(cand) == 0:
                break
            uniq, first = np.unique(cand, return_index=True)
            depth[uniq] = depth[frontier[0]] + 1
            parent[uniq] = cand_parent[first]
            levels.append(uniq)
            frontier = uniq
        return levels

    # Wave 1: grow pendant trees outward from the whole 2-core at once.
    waves: list[list[np.ndarray]] = []
    core_vertices = np.flatnonzero(in_core)
    if len(core_vertices):
        waves.append(wave(core_vertices))

    # Wave 2: anything still undiscovered lives in a free-standing tree
    # component. Root each such component at its smallest vertex id
    # (deterministic) and run the same wave.
    remaining = np.flatnonzero(depth == -1)
    tree_components = 0
    if len(remaining):
        rest = induced_subgraph(graph, remaining)
        labels = connected_components(rest.graph).labels
        tree_components = int(labels.max()) + 1 if len(labels) else 0
        _, first = np.unique(labels, return_index=True)
        roots = rest.to_parent[first]
        depth[roots] = 0
        waves.append(wave(roots))

    # Bottom-up DP: up[v] = height of the pendant subtree rooted at v.
    up = np.zeros(n, dtype=np.int64)
    for levels in waves:
        for level in reversed(levels):
            np.maximum.at(up, parent[level], up[level] + 1)

    # Group the child contributions (up[child] + 1) by parent. The top
    # value per group is the parent's height; top1 + top2 is the longest
    # path whose topmost vertex is that parent, and its maximum over all
    # parents is the internal correction T.
    children = np.flatnonzero(parent >= 0)
    correction = 0
    anchor_ids = np.empty(0, dtype=np.int64)
    heights = np.empty(0, dtype=np.int64)
    if len(children):
        vals = up[children] + 1
        par = parent[children]
        order = np.lexsort((-vals, par))
        par_sorted, vals_sorted = par[order], vals[order]
        starts = np.flatnonzero(
            np.concatenate(([True], par_sorted[1:] != par_sorted[:-1]))
        )
        seg_len = np.diff(np.concatenate((starts, [len(par_sorted)])))
        top1 = vals_sorted[starts]
        top2 = np.zeros(len(starts), dtype=np.int64)
        has_two = seg_len >= 2
        top2[has_two] = vals_sorted[starts[has_two] + 1]
        correction = int((top1 + top2).max())
        group_parents = par_sorted[starts]
        is_anchor = in_core[group_parents]
        anchor_ids = group_parents[is_anchor]
        heights = top1[is_anchor]

    # Reduced graph = induced 2-core + one spine path per anchor.
    sub = induced_subgraph(graph, in_core)
    k = sub.graph.num_vertices
    total_spine = int(heights.sum())
    reduced_name = name or f"{graph.name}:peeled"
    base_src = np.repeat(
        np.arange(k, dtype=np.int64), np.diff(sub.graph.indptr)
    )
    base_dst = sub.graph.indices.astype(np.int64)
    if total_spine:
        anchors_local = sub.from_parent[anchor_ids]
        offsets = np.concatenate(([0], np.cumsum(heights)[:-1])).astype(np.int64)
        spine_anchor = np.repeat(np.arange(len(anchor_ids)), heights)
        spine_ids = k + np.arange(total_spine, dtype=np.int64)
        spine_pos = np.arange(total_spine, dtype=np.int64) - offsets[spine_anchor]
        prev = np.where(
            spine_pos == 0, anchors_local[spine_anchor], spine_ids - 1
        )
        src = np.concatenate([base_src, prev])
        dst = np.concatenate([base_dst, spine_ids])
    else:
        src, dst = base_src, base_dst
    reduced = from_edge_arrays(src, dst, k + total_spine, name=reduced_name)

    return PeelResult(
        graph=reduced,
        core_to_parent=sub.to_parent,
        num_core=k,
        correction=correction,
        anchors=len(anchor_ids),
        spine_vertices=total_spine,
        tree_components=tree_components,
        vertices_removed=n - reduced.num_vertices,
        edges_removed=graph.num_edges - reduced.num_edges,
    )
