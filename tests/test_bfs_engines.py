"""Tests for the BFS engines: top-down, bottom-up, hybrid, serial.

The hybrid runs through :meth:`TraversalKernel.bfs`.

All four expansion strategies must agree level-for-level with each
other and with networkx shortest-path lengths.
"""

import networkx as nx
import numpy as np
import pytest

from conftest import random_gnp
from repro.bfs import (
    TraversalKernel,
    VisitMarks,
    Workspace,
    bottomup_step,
    serial_bfs,
    serial_distances,
    topdown_step,
)
from repro.errors import AlgorithmError
from repro.generators import grid_2d, path_graph, star_graph
from repro.graph import from_edges


class TestTopdownStep:
    def test_single_level(self):
        g = star_graph(5)
        marks = VisitMarks(5)
        marks.new_epoch()
        marks.visit(0)
        frontier, edges = topdown_step(g, np.array([0]), marks)
        assert sorted(frontier.tolist()) == [1, 2, 3, 4]
        assert edges == 4

    def test_does_not_revisit(self):
        g = path_graph(3)
        marks = VisitMarks(3)
        marks.new_epoch()
        marks.visit(np.array([0, 1]))
        frontier, _ = topdown_step(g, np.array([1]), marks)
        assert frontier.tolist() == [2]

    def test_empty_frontier_from_isolated(self):
        g = from_edges([(0, 1)], num_vertices=3)
        marks = VisitMarks(3)
        marks.new_epoch()
        marks.visit(2)
        frontier, edges = topdown_step(g, np.array([2]), marks)
        assert len(frontier) == 0
        assert edges == 0


class TestBottomupStep:
    def test_matches_topdown(self):
        g, _ = random_gnp(40, 0.15, 21)
        # Run one top-down level then compare a bottom-up second level
        # against a fresh top-down second level.
        marks_td = VisitMarks(40)
        marks_td.new_epoch()
        marks_td.visit(0)
        f1, _ = topdown_step(g, np.array([0]), marks_td)
        marks_bu = VisitMarks(40)
        marks_bu.marks[:] = marks_td.marks
        marks_bu.counter = marks_td.counter

        td2, _ = topdown_step(g, f1, marks_td)
        flag = np.zeros(40, dtype=bool)
        flag[f1] = True
        bu2, _ = bottomup_step(g, flag, marks_bu)
        assert sorted(td2.tolist()) == sorted(bu2.tolist())

    def test_no_candidates(self):
        g = path_graph(2)
        marks = VisitMarks(2)
        marks.new_epoch()
        marks.visit(np.array([0, 1]))
        frontier, edges = bottomup_step(g, np.ones(2, dtype=bool), marks)
        assert len(frontier) == 0


class TestRunBFS:
    @pytest.mark.parametrize("directions", [True, False])
    def test_eccentricity_path(self, directions):
        g = path_graph(10)
        res = TraversalKernel(g, directions=directions).bfs(0)
        assert res.eccentricity == 9
        assert res.visited_count == 10
        assert res.last_frontier.tolist() == [9]

    def test_middle_of_path(self):
        res = TraversalKernel(path_graph(9)).bfs(4)
        assert res.eccentricity == 4

    def test_isolated_source(self):
        g = from_edges([(0, 1)], num_vertices=3)
        res = TraversalKernel(g).bfs(2)
        assert res.eccentricity == 0
        assert res.visited_count == 1
        assert res.last_frontier.tolist() == [2]

    def test_source_out_of_range(self):
        with pytest.raises(AlgorithmError):
            TraversalKernel(path_graph(3)).bfs(3)

    def test_max_level_caps_traversal(self):
        res = TraversalKernel(path_graph(10)).bfs(0, max_level=3)
        assert res.eccentricity == 3
        assert res.visited_count == 4

    def test_record_dist_matches_networkx(self):
        g, G = random_gnp(50, 0.1, 22)
        res = TraversalKernel(g).bfs(0, record_dist=True)
        lengths = nx.single_source_shortest_path_length(G, 0)
        for v in range(50):
            expected = lengths.get(v, -1)
            assert res.dist[v] == expected

    def test_trace_recorded(self):
        res = TraversalKernel(grid_2d(5, 5)).bfs(0, record_trace=True)
        assert res.trace is not None
        assert res.trace.eccentricity == res.eccentricity
        assert res.trace.total_discovered == res.visited_count - 1

    def test_hybrid_switches_direction_on_grid(self):
        # A 30x30 grid from a corner has frontiers larger than 10% of n
        # in the middle of the traversal.
        kernel = TraversalKernel(grid_2d(30, 30), threshold=0.02)
        res = kernel.bfs(0, record_trace=True)
        directions = {lv.direction for lv in res.trace.levels}
        assert len(directions) == 2
        assert res.eccentricity == 58

    def test_shared_marks_reusable(self):
        g = path_graph(6)
        kernel = TraversalKernel(g, workspace=Workspace(6, marks=VisitMarks(6)))
        assert kernel.bfs(0).eccentricity == 5
        assert kernel.bfs(3).eccentricity == 3


class TestSerialBFS:
    def test_agrees_with_vectorized(self):
        for seed in range(5):
            g, _ = random_gnp(40, 0.08, seed)
            for src in (0, 7, 39):
                a = TraversalKernel(g).bfs(src)
                b = serial_bfs(g, src)
                assert a.eccentricity == b.eccentricity
                assert a.visited_count == b.visited_count
                assert sorted(a.last_frontier.tolist()) == b.last_frontier.tolist()

    def test_record_dist(self):
        g, G = random_gnp(30, 0.12, 23)
        res = serial_bfs(g, 5, record_dist=True)
        lengths = nx.single_source_shortest_path_length(G, 5)
        for v in range(30):
            assert res.dist[v] == lengths.get(v, -1)

    def test_max_level(self):
        res = serial_bfs(path_graph(10), 0, max_level=2)
        assert res.eccentricity == 2

    def test_source_out_of_range(self):
        with pytest.raises(AlgorithmError):
            serial_bfs(path_graph(3), -1)


class TestSerialDistances:
    def test_matches_networkx(self):
        g, G = random_gnp(40, 0.1, 24)
        dist = serial_distances(g, 3)
        lengths = nx.single_source_shortest_path_length(G, 3)
        for v in range(40):
            assert dist[v] == lengths.get(v, -1)

    def test_three_engines_agree(self):
        g, _ = random_gnp(35, 0.1, 25)
        for src in range(0, 35, 7):
            d_ref = serial_distances(g, src)
            d_vec = TraversalKernel(g).bfs(src, record_dist=True).dist
            d_ser = serial_bfs(g, src, record_dist=True).dist
            assert (d_ref == d_vec).all()
            assert (d_ref == d_ser).all()
