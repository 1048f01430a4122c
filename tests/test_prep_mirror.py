"""Mirror-vertex collapsing: eccentricity equality and counters.

Mirror classes (identical open or closed neighborhoods) are at mutual
distance exactly 2 (open) or 1 (closed), and every vertex outside the
class sees all members at the same distance; keeping one
representative therefore preserves every cross-class distance
(DESIGN.md §9.3): ``diam(G) = max(diam(G'), class floor)``.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.fdiam import fdiam
from repro.generators import complete_graph, star_graph
from repro.generators.kronecker import kronecker
from repro.generators.rmat import rmat
from repro.graph import from_edges, from_networkx
from repro.prep import PrepSpec, collapse_mirrors, preprocess

from conftest import nx_cc_diameter, to_nx


def collapsed_diameter(graph) -> int:
    """diam via the mirror stage alone (the equality, applied by hand)."""
    res = collapse_mirrors(graph)
    if res.graph.num_vertices == 0:
        return res.correction
    return max(fdiam(res.graph).diameter, res.correction)


class TestMirrorEquality:
    def test_star_leaves_are_one_open_class(self):
        graph = star_graph(30)
        res = collapse_mirrors(graph)
        assert res.open_groups == 1
        assert res.max_multiplicity == 29  # star-30 has 29 leaves
        # Two leaves are at distance 2: the open-class floor.
        assert res.correction == 2
        assert collapsed_diameter(graph) == 2

    def test_complete_graph_is_one_closed_class(self):
        graph = complete_graph(8)
        res = collapse_mirrors(graph)
        assert res.closed_groups == 1
        assert res.correction == 1
        assert collapsed_diameter(graph) == 1

    def test_bipartite_double_star(self):
        # Two hubs sharing all leaves: the leaves form one open class.
        edges = [(0, i) for i in range(2, 12)] + [(1, i) for i in range(2, 12)]
        graph = from_edges(edges)
        assert collapsed_diameter(graph) == nx_cc_diameter(to_nx(graph))

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_rmat_analog(self, seed):
        graph = rmat(9, edge_factor=4, seed=seed)
        assert collapsed_diameter(graph) == nx_cc_diameter(to_nx(graph))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_kronecker_analog(self, seed):
        graph = kronecker(8, edge_factor=5, seed=seed)
        res = collapse_mirrors(graph)
        # Power-law generators produce many degree-1 duplicates around
        # hubs — the stage should actually find mirror classes here.
        assert res.changed
        assert collapsed_diameter(graph) == nx_cc_diameter(to_nx(graph))

    def test_no_mirrors_is_identity(self):
        G = nx.path_graph(9)
        graph = from_networkx(G)
        res = collapse_mirrors(graph)
        # Path endpoints both attach to distinct interior vertices:
        # nothing shares a neighborhood, nothing collapses.
        assert not res.changed
        assert res.graph.num_vertices == graph.num_vertices


class TestMirrorCounters:
    def test_multiplicity_accounts_for_everyone(self):
        graph = star_graph(25)
        res = collapse_mirrors(graph)
        assert int(res.multiplicity.sum()) == graph.num_vertices
        assert len(res.to_parent) == res.graph.num_vertices
        assert (
            res.graph.num_vertices == graph.num_vertices - res.vertices_removed
        )

    def test_prepped_driver_counts_groups(self):
        graph = star_graph(40)
        plain = fdiam(graph)
        prepared = preprocess(graph, PrepSpec.parse("collapse"))
        reduced = fdiam(prepared.graph).diameter
        assert max(reduced, prepared.correction) == plain.diameter
        assert prepared.stats.mirror_open_groups >= 1
        assert prepared.stats.mirror_vertices_removed > 0
