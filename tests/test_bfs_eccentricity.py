"""Tests for eccentricity primitives and traversal instrumentation."""

import networkx as nx
import pytest

from conftest import random_gnp
from repro.bfs import BFSTrace, Direction, TraversalKernel, all_eccentricities
from repro.errors import AlgorithmError
from repro.generators import path_graph, star_graph


class TestEccentricity:
    @pytest.mark.parametrize("engine", ["parallel", "serial"])
    def test_path_endpoints_and_middle(self, engine):
        g = path_graph(9)
        kernel = TraversalKernel(g, engine=engine)
        assert kernel.bfs(0).eccentricity == 8
        assert kernel.bfs(4).eccentricity == 4

    def test_unknown_engine(self):
        g = path_graph(3)
        with pytest.raises(AlgorithmError, match="engine must be"):
            TraversalKernel(g, engine="gpu")
        with pytest.raises(AlgorithmError, match="engine must be"):
            all_eccentricities(g, engine="batched")

    def test_engine_dispatch(self, monkeypatch):
        # "serial" runs the scalar reference loop; "parallel" never does.
        import repro.bfs.reference as reference

        sources = []
        real = reference.serial_bfs

        def spy(graph, source, *args, **kwargs):
            sources.append(source)
            return real(graph, source, *args, **kwargs)

        monkeypatch.setattr(reference, "serial_bfs", spy)
        g = path_graph(5)
        assert TraversalKernel(g, engine="serial").bfs(1).eccentricity == 3
        assert TraversalKernel(g, engine="parallel").bfs(2).eccentricity == 2
        assert sources == [1]


class TestAllEccentricities:
    @pytest.mark.parametrize("engine", ["parallel", "serial"])
    def test_matches_networkx(self, engine):
        g, G = random_gnp(30, 0.15, 41)
        if not nx.is_connected(G):
            G = G.subgraph(max(nx.connected_components(G), key=len))
        ecc = all_eccentricities(g, engine=engine)
        nx_ecc = nx.eccentricity(G)
        for v, e in nx_ecc.items():
            assert ecc[v] == e

    def test_star(self):
        ecc = all_eccentricities(star_graph(5))
        assert ecc[0] == 1
        assert (ecc[1:] == 2).all()


class TestBFSTrace:
    def test_eccentricity_counts_productive_levels(self):
        trace = BFSTrace(source=0)
        trace.record(1, 3, Direction.TOP_DOWN, 3)
        trace.record(3, 6, Direction.TOP_DOWN, 2)
        trace.record(2, 4, Direction.TOP_DOWN, 0)  # exhausted level
        assert trace.eccentricity == 2
        assert trace.total_edges_examined == 13
        assert trace.total_discovered == 5

    def test_direction_switches(self):
        trace = BFSTrace(source=0)
        trace.record(1, 1, Direction.TOP_DOWN, 1)
        trace.record(5, 9, Direction.BOTTOM_UP, 4)
        trace.record(2, 2, Direction.TOP_DOWN, 1)
        assert trace.num_direction_switches == 2
        assert trace.frontier_sizes() == [1, 5, 2]
        assert trace.edge_counts() == [1, 9, 2]
