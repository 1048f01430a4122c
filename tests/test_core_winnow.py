"""Tests for the Winnow operation, including its safety theorem."""

import numpy as np
import pytest

from conftest import random_gnp, to_nx
from repro.bfs import TraversalKernel, all_eccentricities
from repro.core import FDiamConfig, FDiamState, Reason, winnow
from repro.core.state import ACTIVE, WINNOWED
from repro.errors import AlgorithmError
from repro.generators import grid_2d, path_graph, star_graph


def make_state(graph):
    return FDiamState(graph, FDiamConfig())


class TestWinnowMechanics:
    def test_removes_exactly_the_ball(self):
        g = grid_2d(7, 7)
        state = make_state(g)
        center = 24  # middle of the grid
        winnow(state, center, bound=6)  # radius 3
        expected = set(TraversalKernel(g).ball(center, 3).tolist()) - {center}
        removed = set(np.flatnonzero(state.status == WINNOWED).tolist())
        assert removed == expected
        assert state.stats.removed_by[Reason.WINNOW] == len(expected)

    def test_center_not_removed(self):
        state = make_state(path_graph(9))
        winnow(state, 4, bound=4)
        assert state.status[4] == ACTIVE

    def test_counts_one_call(self):
        state = make_state(star_graph(8))
        winnow(state, 0, bound=2)
        assert state.stats.winnow_calls == 1

    def test_radius_zero_not_counted(self):
        state = make_state(star_graph(8))
        winnow(state, 0, bound=1)  # radius 0: nothing to do
        assert state.stats.winnow_calls == 0
        assert state.active_count() == 8

    def test_incremental_extension_equals_fresh(self):
        g, _ = random_gnp(60, 0.08, 51)
        # Extend 2 -> 3 -> 5 incrementally.
        inc = make_state(g)
        winnow(inc, 0, bound=4)
        winnow(inc, 0, bound=6)
        winnow(inc, 0, bound=10)
        fresh = make_state(g)
        winnow(fresh, 0, bound=10)
        assert (inc.status == fresh.status).all()
        assert inc.stats.winnow_calls == 3
        assert fresh.stats.winnow_calls == 1

    def test_extension_noop_when_radius_unchanged(self):
        state = make_state(path_graph(20))
        winnow(state, 10, bound=6)
        calls = state.stats.winnow_calls
        winnow(state, 10, bound=7)  # radius still 3
        assert state.stats.winnow_calls == calls

    def test_second_center_rejected(self):
        # Winnowing from two centres is unsound (paper §4.2); the state
        # must refuse it.
        state = make_state(path_graph(10))
        winnow(state, 0, bound=4)
        with pytest.raises(AlgorithmError, match="single centre"):
            winnow(state, 9, bound=4)

    def test_ball_larger_than_component_stops(self):
        state = make_state(path_graph(5))
        levels = winnow(state, 2, bound=100)
        assert levels == 2  # graph exhausted after 2 levels
        assert state.active_count() == 1  # only the centre


class TestWinnowSafety:
    """Theorems 2+3: after winnowing B(u, bound/2) with bound <= diam,
    at least one vertex of maximum eccentricity must stay active."""

    @pytest.mark.parametrize("seed", range(12))
    def test_max_ecc_witness_survives(self, seed):
        g, G = random_gnp(30, 0.12, seed + 200)
        import networkx as nx

        if not nx.is_connected(G):
            return  # theorem is per-component; covered by fdiam tests
        ecc = all_eccentricities(g)
        diam = int(ecc.max())
        if diam == 0:
            return
        u = g.max_degree_vertex()
        # For bound < diam the guarantee is unconditional; at
        # bound == diam every witness may legitimately be winnowed
        # because the bound already equals the true diameter.
        for bound in range(1, diam):
            s = make_state(g)
            winnow(s, u, bound)
            witnesses = np.flatnonzero(ecc == diam)
            assert any(s.status[w] == ACTIVE for w in witnesses), (
                f"winnow(bound={bound}) removed every diameter witness"
            )

    def test_winnow_at_exact_diameter_may_remove_all_witnesses(self):
        # bound == diam: on a path, the radius-5 ball around the middle
        # swallows both endpoints. That is safe precisely because the
        # bound cannot grow further.
        g = path_graph(11)
        state = make_state(g)
        winnow(state, 5, bound=10)
        assert state.status[0] == WINNOWED
        assert state.status[10] == WINNOWED
        assert state.status[5] == ACTIVE
