"""Tests for the concurrent-BFS study (paper §4.6's rejected strategy)."""

import pytest

import repro
from conftest import nx_cc_diameter, random_gnp, to_nx
from repro.core import FDiamConfig
from repro.core.concurrent import fdiam_concurrent
from repro.errors import AlgorithmError
from repro.generators import add_tendrils, barabasi_albert, grid_2d, road_network
from repro.graph import empty_graph


class TestCorrectness:
    @pytest.mark.parametrize("batch", [1, 2, 4, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_for_every_batch_size(self, batch, seed):
        g, G = random_gnp(40, 0.08, seed + 1200)
        report = fdiam_concurrent(g, batch)
        assert report.diameter == nx_cc_diameter(G)

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_structured_inputs(self, batch):
        for g in (grid_2d(10, 12), road_network(10, 10, seed=3)):
            assert fdiam_concurrent(g, batch).diameter == repro.fdiam(g).diameter

    def test_invalid_arguments(self):
        with pytest.raises(AlgorithmError):
            fdiam_concurrent(grid_2d(3, 3), 0)
        with pytest.raises(AlgorithmError):
            fdiam_concurrent(empty_graph(0), 1)


class TestRedundancy:
    def test_batch_one_equals_sequential_fdiam(self):
        g = add_tendrils(barabasi_albert(3000, 5, seed=9), 15, 3, 8, seed=9)
        report = fdiam_concurrent(g, 1)
        sequential = repro.fdiam(g, FDiamConfig(ecc_lanes="off"))
        assert report.diameter == sequential.diameter
        assert report.stats.eccentricity_bfs == sequential.stats.eccentricity_bfs
        assert report.stats.edges_examined == sequential.stats.edges_examined
        assert report.redundant_evaluations == 0

    def test_larger_batches_do_redundant_work(self):
        # The paper's observation: concurrent Eliminates overlap, so
        # wide batches evaluate vertices a serial order would prune.
        # A grid maximizes Eliminate overlap.
        g = grid_2d(40, 40)
        seq = fdiam_concurrent(g, 1)
        wide = fdiam_concurrent(g, 32)
        assert wide.diameter == seq.diameter
        assert wide.stats.eccentricity_bfs >= seq.stats.eccentricity_bfs
        assert wide.redundant_evaluations > 0
        assert 0 < wide.redundancy_fraction <= 1

    def test_monotone_traversal_growth(self):
        g = road_network(25, 25, seed=10)
        counts = [
            fdiam_concurrent(g, b).stats.eccentricity_bfs for b in (1, 8, 64)
        ]
        assert counts[0] <= counts[1] <= counts[2]
