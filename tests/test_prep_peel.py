"""Pendant-tree peeling: exactness lemma and structural counters.

The peel lemma (DESIGN.md §9.2): replacing every pendant tree by a
spine path of the tree's height, and folding purely-internal tree
distances into a correction term, preserves the per-component
diameter — ``diam(original) = max(diam(peeled), correction)``.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.fdiam import fdiam
from repro.generators import (
    balanced_tree,
    caterpillar,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.generators.road import road_network
from repro.graph import from_edges, from_networkx
from repro.prep import PrepSpec, peel_pendant_trees, preprocess

from conftest import nx_cc_diameter, to_nx


def peeled_diameter(graph) -> int:
    """diam via the peel stage alone (the lemma, applied by hand)."""
    res = peel_pendant_trees(graph)
    if res.graph.num_vertices == 0:
        return res.correction
    return max(fdiam(res.graph).diameter, res.correction)


class TestPeelLemma:
    def test_pure_path_becomes_correction(self):
        # A path is one big pendant tree: the whole component peels
        # away and its diameter survives only in the correction term.
        graph = path_graph(50)
        res = peel_pendant_trees(graph)
        assert res.graph.num_vertices == 0
        assert res.tree_components == 1
        assert res.correction == 49
        assert peeled_diameter(graph) == 49

    def test_star_is_a_tree_component(self):
        graph = star_graph(20)
        res = peel_pendant_trees(graph)
        assert res.graph.num_vertices == 0
        assert res.correction == 2 == fdiam(graph).diameter

    def test_cycle_is_untouched(self):
        # A cycle is its own 2-core: nothing to peel.
        graph = cycle_graph(12)
        res = peel_pendant_trees(graph)
        assert res.vertices_removed == 0
        assert res.spine_vertices == 0
        assert peeled_diameter(graph) == 6

    def test_cycle_with_pendant_path(self):
        # C6 with a 4-path hanging off vertex 0: the tree has height 4,
        # so the spine keeps the far tip's distance contribution alive.
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges += [(0, 6), (6, 7), (7, 8), (8, 9)]
        graph = from_edges(edges)
        res = peel_pendant_trees(graph)
        assert res.anchors == 1
        assert res.spine_vertices == 4
        assert peeled_diameter(graph) == nx_cc_diameter(to_nx(graph))

    def test_two_pendant_trees_same_anchor(self):
        # Both branches hang off the same core vertex; the internal
        # tree diameter (tip to tip through the anchor) must appear in
        # the correction, not be lost to the single spine.
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(0, 5), (5, 6), (6, 7)]  # height-3 branch
        edges += [(0, 8), (8, 9)]  # height-2 branch
        graph = from_edges(edges)
        res = peel_pendant_trees(graph)
        assert res.correction >= 5  # 3 + 2 through the anchor
        assert peeled_diameter(graph) == nx_cc_diameter(to_nx(graph))

    def test_balanced_tree_and_caterpillar(self):
        for graph in (balanced_tree(3, 4), caterpillar(12, 3)):
            assert peeled_diameter(graph) == nx_cc_diameter(to_nx(graph))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_core_with_random_trees(self, seed):
        # A random 2-core-ish base with random trees grafted on.
        rng_graph = nx.gnm_random_graph(40, 70, seed=seed)
        base = max(nx.connected_components(rng_graph), key=len)
        G = rng_graph.subgraph(base).copy()
        G = nx.convert_node_labels_to_integers(G)
        n = G.number_of_nodes()
        tree = nx.random_labeled_tree(15, seed=seed + 100)
        G = nx.disjoint_union(G, tree)
        G.add_edge(seed % n, n)  # graft the tree onto the core
        graph = from_networkx(G)
        assert peeled_diameter(graph) == nx_cc_diameter(G)

    def test_road_analog_pendants(self):
        graph = road_network(20, 20, seed=7)
        assert peeled_diameter(graph) == nx_cc_diameter(to_nx(graph))


class TestPeelCounters:
    def test_removal_bookkeeping_consistent(self):
        graph = caterpillar(10, 4)
        res = peel_pendant_trees(graph)
        # Every removed original vertex is either gone or replaced by a
        # synthetic spine vertex; the arithmetic must close.
        assert (
            res.graph.num_vertices
            == graph.num_vertices - res.vertices_removed + res.spine_vertices
        )
        assert res.num_core + res.spine_vertices == res.graph.num_vertices
        assert len(res.core_to_parent) == res.num_core

    def test_prepped_driver_uses_correction(self):
        # End to end through preprocess: a graph whose diameter lives
        # entirely inside a pendant tree.
        edges = [(0, 1), (1, 2), (2, 0)]  # triangle core, diameter 1
        edges += [(0, 3), (3, 4), (4, 5), (5, 6)]  # height-4 pendant path
        graph = from_edges(edges)
        plain = fdiam(graph)
        spec = PrepSpec.parse("peel")
        assert spec.tokens == ("peel",)
        prepared = preprocess(graph, spec)
        reduced = fdiam(prepared.graph).diameter
        assert max(reduced, prepared.correction) == plain.diameter
        assert prepared.stats.peel_anchors == 1
