"""Tests for partial and multi-source BFS (:meth:`TraversalKernel.levels`
and :meth:`TraversalKernel.ball`)."""

import numpy as np
import pytest

from conftest import random_gnp
from repro.bfs import TraversalKernel, serial_distances
from repro.errors import AlgorithmError
from repro.generators import grid_2d, path_graph, star_graph


class TestPartialBFSLevels:
    def test_level_contents_path(self):
        levels = TraversalKernel(path_graph(7)).levels([3], 2)
        assert sorted(levels[0].tolist()) == [2, 4]
        assert sorted(levels[1].tolist()) == [1, 5]
        assert len(levels) == 2

    def test_unbounded_runs_to_exhaustion(self):
        levels = TraversalKernel(path_graph(5)).levels([0], None)
        assert len(levels) == 4

    def test_zero_levels(self):
        assert TraversalKernel(path_graph(5)).levels([0], 0) == []

    def test_multi_source(self):
        levels = TraversalKernel(path_graph(9)).levels([0, 8], 2)
        assert sorted(levels[0].tolist()) == [1, 7]
        assert sorted(levels[1].tolist()) == [2, 6]

    def test_multi_source_matches_min_distance(self):
        g, _ = random_gnp(50, 0.08, 31)
        sources = [0, 17, 33]
        levels = TraversalKernel(g).levels(sources, None)
        dists = np.stack([serial_distances(g, s) for s in sources])
        masked = np.where(dists < 0, np.iinfo(np.int64).max, dists)
        min_dist = masked.min(axis=0)
        for k, level in enumerate(levels, start=1):
            assert (min_dist[level] == k).all()

    def test_duplicate_sources_deduplicated(self):
        levels = TraversalKernel(path_graph(5)).levels([2, 2], 1)
        assert sorted(levels[0].tolist()) == [1, 3]

    def test_out_of_range_source(self):
        with pytest.raises(AlgorithmError):
            TraversalKernel(path_graph(3)).levels([9], 1)

    def test_levels_disjoint_and_exclude_sources(self):
        g = grid_2d(8, 8)
        levels = TraversalKernel(g).levels([0], 5)
        seen = {0}
        for level in levels:
            s = set(level.tolist())
            assert not (s & seen)
            seen |= s


class TestBall:
    def test_radius_zero(self):
        assert TraversalKernel(path_graph(5)).ball(2, 0).tolist() == [2]

    def test_radius_zero_without_center(self):
        assert len(TraversalKernel(path_graph(5)).ball(2, 0, include_center=False)) == 0

    def test_path_ball(self):
        assert TraversalKernel(path_graph(9)).ball(4, 2).tolist() == [2, 3, 4, 5, 6]

    def test_star_ball_covers_all(self):
        g = star_graph(6)
        assert len(TraversalKernel(g).ball(0, 1)) == 6

    def test_ball_matches_distances(self):
        g, _ = random_gnp(40, 0.1, 32)
        dist = serial_distances(g, 7)
        for radius in (1, 2, 3):
            b = set(TraversalKernel(g).ball(7, radius).tolist())
            expected = {v for v in range(40) if 0 <= dist[v] <= radius}
            assert b == expected
