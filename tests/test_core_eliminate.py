"""Tests for the Eliminate operation and its bound invariant."""

import numpy as np

from conftest import random_gnp
from repro.bfs import TraversalKernel, all_eccentricities, serial_distances
from repro.core import FDiamConfig, FDiamState, Reason, eliminate
from repro.core.state import ACTIVE
from repro.generators import grid_2d, path_graph, star_graph


def make_state(graph):
    return FDiamState(graph, FDiamConfig())


class TestEliminateMechanics:
    def test_depth_zero_noop(self):
        state = make_state(path_graph(5))
        removed = eliminate(state, 2, ecc=4, bound=4)
        assert removed == 0
        assert state.active_count() == 5
        assert state.stats.eliminate_calls == 0

    def test_removes_ball_minus_source(self):
        g = grid_2d(6, 6)
        state = make_state(g)
        ecc_v, bound = 6, 8  # depth 2
        eliminate(state, 14, ecc=ecc_v, bound=bound)
        dist = serial_distances(g, 14)
        for v in range(g.num_vertices):
            if 1 <= dist[v] <= 2:
                assert state.status[v] != ACTIVE
            else:
                assert state.status[v] == ACTIVE  # includes the source

    def test_recorded_bounds_are_ecc_plus_distance(self):
        g = path_graph(9)
        state = make_state(g)
        eliminate(state, 4, ecc=4, bound=7)
        # Level k gets bound 4 + k.
        assert state.status[3] == 5 and state.status[5] == 5
        assert state.status[2] == 6 and state.status[6] == 6
        assert state.status[1] == 7 and state.status[7] == 7
        assert state.status[0] == ACTIVE  # beyond depth 3

    def test_mark_source(self):
        state = make_state(star_graph(5))
        removed = eliminate(state, 0, ecc=1, bound=2, mark_source=True)
        assert state.status[0] == 1
        assert removed == 5  # 4 leaves + source

    def test_reason_attribution(self):
        state = make_state(star_graph(5))
        eliminate(state, 0, ecc=1, bound=2, reason=Reason.CHAIN)
        assert state.stats.removed_by[Reason.CHAIN] == 4
        assert state.stats.removed_by[Reason.ELIMINATE] == 0

    def test_return_value_counts_writes(self):
        state = make_state(path_graph(7))
        removed = eliminate(state, 3, ecc=3, bound=5)
        assert removed == 4  # vertices 1,2,4,5

    def test_does_not_count_as_bfs_traversal(self):
        state = make_state(path_graph(7))
        eliminate(state, 3, ecc=3, bound=5)
        assert state.stats.bfs_traversals == 0
        assert state.stats.eliminate_calls == 1


class TestEliminateSafety:
    """Theorem 1 invariant: every recorded bound is >= the true
    eccentricity, so no vertex that could raise the bound is lost."""

    def test_bounds_dominate_true_ecc(self):
        for seed in range(8):
            g, G = random_gnp(35, 0.12, seed + 300)
            import networkx as nx

            if not nx.is_connected(G):
                continue
            ecc = all_eccentricities(g)
            diam = int(ecc.max())
            state = make_state(g)
            v = 0
            ecc_v = TraversalKernel(g).bfs(v).eccentricity
            eliminate(state, v, ecc=ecc_v, bound=diam)
            removed = np.flatnonzero(~state.active_mask())
            for w in removed:
                assert state.status[w] >= ecc[w], (
                    f"recorded bound {state.status[w]} < true ecc {ecc[w]}"
                )

    def test_eliminated_vertices_cannot_beat_bound(self):
        g, _ = random_gnp(40, 0.15, 77)
        ecc = all_eccentricities(g)
        state = make_state(g)
        bound = int(ecc.max())
        eliminate(state, 5, ecc=int(ecc[5]), bound=bound)
        removed = np.flatnonzero(~state.active_mask())
        assert (ecc[removed] <= bound).all()
