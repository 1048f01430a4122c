"""Tests for Chain Processing."""

import numpy as np

from conftest import nx_cc_diameter, to_nx
from repro.bfs import all_eccentricities
from repro.core import FDiamConfig, FDiamState, Reason, follow_chain, process_chains
from repro.core.state import ACTIVE
from repro.generators import (
    attach_chains,
    broom,
    caterpillar,
    cycle_graph,
    lollipop,
    path_graph,
    star_graph,
)
from repro.graph import from_edges


def make_state(graph):
    return FDiamState(graph, FDiamConfig())


class TestFollowChain:
    def test_single_step(self):
        # Leaf 0 attached to a triangle vertex.
        g = from_edges([(0, 1), (1, 2), (1, 3), (2, 3)])
        state = make_state(g)
        anchor, length = follow_chain(state, 0)
        assert anchor == 1
        assert length == 1

    def test_long_chain(self):
        g = lollipop(4, 6)  # clique 0..3, stem 3-4-5-...-9
        state = make_state(g)
        anchor, length = follow_chain(state, 9)
        assert anchor == 3  # the clique attachment vertex
        assert length == 6

    def test_path_chain_ends_at_other_leaf(self):
        state = make_state(path_graph(5))
        anchor, length = follow_chain(state, 0)
        assert anchor == 4
        assert length == 4

    def test_two_vertex_path(self):
        state = make_state(path_graph(2))
        anchor, length = follow_chain(state, 0)
        assert anchor == 1
        assert length == 1


    def test_lockstep_walk_matches_one_tip_at_a_time(self):
        # All tips walk together, one edge per step; each must end
        # where a plain walk of its own chain ends, after as many edges.
        from repro.core.chain import walk_chains
        from repro.generators import add_tendrils, barabasi_albert
        from repro.graph.degrees import degree_one_vertices

        graph = add_tendrils(barabasi_albert(300, 1, seed=2), 40, 1, 9, seed=3)
        graph = from_edges(
            list(graph.iter_edges()) + [(400, 401), (402, 403), (403, 404)]
        )  # plus a 2-vertex and a 3-vertex path component
        tips = degree_one_vertices(graph)
        anchors, lengths = walk_chains(make_state(graph), tips)
        for tip, anchor, length in zip(tips.tolist(), anchors.tolist(), lengths.tolist()):
            prev, node, walked = tip, int(graph.neighbors(tip)[0]), 1
            while graph.degree(node) == 2:
                a, b = graph.neighbors(node).tolist()
                prev, node = node, (b if a == prev else a)
                walked += 1
            assert (anchor, length) == (node, walked), tip
        assert lengths.max() >= 9


class TestProcessChains:
    def test_no_degree_one_vertices(self):
        state = make_state(cycle_graph(8))
        assert process_chains(state) == 0
        assert state.active_count() == 8

    def test_lollipop_keeps_tip(self):
        g = lollipop(5, 4)
        state = make_state(g)
        process_chains(state)
        tip = g.num_vertices - 1
        assert state.status[tip] == ACTIVE
        # The anchor and the chain interior are removed.
        assert state.status[4] != ACTIVE  # clique attachment
        assert state.stats.removed_by[Reason.CHAIN] > 0

    def test_removal_radius_is_chain_length(self):
        g = lollipop(6, 3)  # chain of length 3 from clique vertex 5
        state = make_state(g)
        process_chains(state)
        # Everything within 3 of the anchor (vertex 5) except the tip
        # is removed; the whole clique is within 1.
        for v in range(6):
            assert state.status[v] != ACTIVE
        assert state.status[8] == ACTIVE  # tip

    def test_caterpillar_leaves_keep_one_witness(self):
        g = caterpillar(6, 1)
        ecc = all_eccentricities(g)
        diam = nx_cc_diameter(to_nx(g))
        state = make_state(g)
        process_chains(state)
        active = np.flatnonzero(state.active_mask())
        assert len(active) > 0
        assert ecc[active].max() == diam

    def test_broom_shared_anchor(self):
        g = broom(5, 3)  # bristles share anchor vertex 5
        state = make_state(g)
        chains = process_chains(state)
        assert chains == 4  # path start leaf + 3 bristles
        active = np.flatnonzero(state.active_mask())
        ecc = all_eccentricities(g)
        assert ecc[active].max() == ecc.max()

    def test_chain_safety_random_hosts(self):
        # Attaching chains to assorted hosts never loses all witnesses.
        for seed in range(6):
            host = cycle_graph(8 + seed)
            g = attach_chains(host, 3, 4, seed=seed)
            ecc = all_eccentricities(g)
            state = make_state(g)
            process_chains(state)
            active = np.flatnonzero(state.active_mask())
            assert ecc[active].max() == ecc.max(), f"seed={seed}"

    def test_star_leaves(self):
        # Every leaf is a length-1 chain anchored at the centre; after
        # processing, at least one leaf must survive as the witness.
        g = star_graph(7)
        state = make_state(g)
        process_chains(state)
        active = np.flatnonzero(state.active_mask())
        assert len(active) >= 1
        assert all(int(v) != 0 for v in active) or state.status[0] != ACTIVE
        ecc = all_eccentricities(g)
        assert ecc[active].max() == 2
