"""Unit tests for the traversal kernel and its pooled workspace."""

import time

import networkx as nx
import numpy as np
import pytest

from conftest import random_gnp
import repro.bfs.kernel as kernel_mod
from repro.bfs import TraversalKernel, VisitMarks, Workspace
from repro.bfs.bitparallel import lane_distances
from repro.bfs.reference import serial_distances
from repro.errors import AlgorithmError, BenchmarkTimeout
from repro.generators import path_graph, star_graph
from repro.graph import from_edges


class TestWorkspace:
    def test_adopts_external_marks(self):
        marks = VisitMarks(10)
        ws = Workspace(10, marks=marks)
        assert ws.marks is marks

    def test_rejects_mismatched_marks(self):
        with pytest.raises(AlgorithmError):
            Workspace(10, marks=VisitMarks(5))

    def test_dist_buffer_reuse(self):
        ws = Workspace(8)
        a = ws.acquire_dist()
        assert (a == -1).all()
        a[3] = 7
        ws.release_dist(a)
        b = ws.acquire_dist()
        assert b is a
        assert (b == -1).all()  # re-acquired buffers come back clean
        assert ws.stats.buffer_requests == 2
        assert ws.stats.buffer_reuses == 1
        assert ws.stats.hit_rate == 0.5

    def test_release_tolerates_none_and_foreign_arrays(self):
        ws = Workspace(8)
        ws.release_dist(None)
        ws.release_dist(np.zeros(3, dtype=np.int64))  # wrong size
        ws.release_dist(np.zeros(8, dtype=np.float64))  # wrong dtype
        ws.acquire_dist()
        assert ws.stats.buffer_reuses == 0

    def test_dist_pool_is_capped(self):
        ws = Workspace(4)
        buffers = [np.full(4, -1, dtype=np.int64) for _ in range(10)]
        for buf in buffers:
            ws.release_dist(buf)
        assert len(ws._dist_pool) == 4

    def test_peak_scratch_accounting(self):
        ws = Workspace(16)
        base = ws.stats.peak_scratch_bytes
        assert base == ws.marks.marks.nbytes
        ws.acquire_dist()
        ws.frontier_flag()
        assert ws.stats.peak_scratch_bytes > base
        # Reuse must not grow the peak.
        peak = ws.stats.peak_scratch_bytes
        ws.frontier_flag()
        assert ws.stats.peak_scratch_bytes == peak

    def test_epoch_counting(self):
        ws = Workspace(6)
        ws.new_epoch()
        ws.new_epoch()
        assert ws.stats.epochs == 2


class TestKernelBFS:
    def test_matches_wrapper_function(self):
        # A held kernel reusing its pooled buffers answers exactly like
        # a single-use kernel built for one call.
        g, _ = random_gnp(50, 0.08, 17)
        kernel = TraversalKernel(g)
        for v in (0, 13, 42):
            a = kernel.bfs(v, record_dist=True)
            b = TraversalKernel(g).bfs(v, record_dist=True)
            assert a.eccentricity == b.eccentricity
            assert a.visited_count == b.visited_count
            assert (a.dist == b.dist).all()

    def test_repeated_bfs_reuses_dist_buffers(self):
        g, _ = random_gnp(40, 0.1, 23)
        kernel = TraversalKernel(g)
        for v in range(10):
            res = kernel.bfs(v, record_dist=True)
            kernel.workspace.release_dist(res.dist)
        stats = kernel.workspace.stats
        assert stats.buffer_reuses >= 9
        assert stats.hit_rate > 0.5

    def test_workspace_graph_size_mismatch(self):
        g = path_graph(5)
        with pytest.raises(AlgorithmError):
            TraversalKernel(g, workspace=Workspace(6))

    def test_source_out_of_range(self):
        kernel = TraversalKernel(path_graph(5))
        with pytest.raises(AlgorithmError):
            kernel.bfs(5)
        with pytest.raises(AlgorithmError):
            kernel.bfs(-1)

    def test_deadline_aborts_mid_traversal(self):
        # One single long traversal must abort at a level boundary, not
        # only between BFS calls: the deadline is already expired when
        # the (only) BFS starts. Both engines check it per level.
        for engine in ("parallel", "serial"):
            kernel = TraversalKernel(
                path_graph(2000), engine=engine, deadline=time.perf_counter() - 1.0
            )
            with pytest.raises(BenchmarkTimeout):
                kernel.bfs(0)

    @pytest.mark.parametrize("engine", ["batched", "bitparallel", "gpu", ""])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(AlgorithmError, match="engine must be"):
            TraversalKernel(path_graph(3), engine=engine)

    def test_deadline_aborts_levels_and_wave(self):
        kernel = TraversalKernel(
            path_graph(2000), deadline=time.perf_counter() - 1.0
        )
        with pytest.raises(BenchmarkTimeout):
            kernel.levels([0], None)
        with pytest.raises(BenchmarkTimeout):
            kernel.staggered_wave({0: [0]}, 5)

    def test_no_deadline_runs_to_completion(self):
        kernel = TraversalKernel(path_graph(100))
        assert kernel.bfs(0).eccentricity == 99

    def test_levels_unsorted_duplicate_sources(self):
        # Sources arrive unsorted and repeated (Eliminate passes level
        # sets straight through); the kernel deduplicates them itself
        # and must expand exactly the distinct multi-source wave.
        g, G = random_gnp(60, 0.06, 7)
        sources = [41, 3, 41, 17, 3, 59, 0, 17]
        distinct = sorted(set(sources))
        got = TraversalKernel(g).levels(np.array(sources), None)
        want = TraversalKernel(g).levels(distinct, None)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == np.int64
            np.testing.assert_array_equal(a, b)
        # Ground truth: multi-source BFS depth from networkx.
        depth = nx.multi_source_dijkstra_path_length(G, distinct)
        for k, level in enumerate(got, start=1):
            assert level.tolist() == sorted(v for v, d in depth.items() if d == k)
        with pytest.raises(AlgorithmError):
            TraversalKernel(g).levels([5, 60, 5], None)
        with pytest.raises(AlgorithmError):
            TraversalKernel(g).levels([-1, 5], None)

    def test_eccentricity_and_ball(self):
        g = star_graph(7)  # hub 0, leaves 1..6
        kernel = TraversalKernel(g)
        assert kernel.bfs(0).eccentricity == 1
        assert kernel.bfs(3).eccentricity == 2
        assert kernel.ball(0, 1).tolist() == list(range(7))
        assert kernel.ball(3, 1).tolist() == [0, 3]
        assert kernel.ball(3, 1, include_center=False).tolist() == [0]


class TestLoneRow:
    """A chunk of one source runs the scalar hybrid BFS, not a lane sweep."""

    @pytest.fixture
    def no_lanes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a lone source must not run a lane sweep")

        monkeypatch.setattr(kernel_mod, "lane_distances", refuse)

    def test_row_matches_reference_and_one_lane_sweep(self, no_lanes):
        # A path, a star and two isolated vertices (4 and 8).
        g = from_edges([(0, 1), (1, 2), (2, 3), (5, 6), (5, 7)], num_vertices=9)
        kernel = TraversalKernel(g)
        for s in range(g.num_vertices):
            want = serial_distances(g, s)
            lanes, _ = lane_distances(g, [s])
            dist, sweeps = kernel.distance_batch([s])
            assert dist.dtype == np.int32 and dist.shape == (1, 9)
            assert dist[0].tolist() == want.tolist() == lanes[0].tolist()
            assert len(sweeps) == 1 and sweeps[0].lane_count == 1
        assert kernel.distance_batch([8])[0][0].tolist() == [-1] * 8 + [0]

    def test_record_carries_eccentricity_levels_and_arcs(self, no_lanes):
        kernel = TraversalKernel(path_graph(10))
        before = kernel.workspace.stats.edges_examined
        _, (sweep,) = kernel.distance_batch([3])
        assert sweep.sources.tolist() == [3]
        assert sweep.eccentricities.tolist() == [6]
        assert sweep.levels == 6
        assert sweep.edges_examined == kernel.workspace.stats.edges_examined - before
        assert sweep.edges_examined > 0
        lonely = TraversalKernel(from_edges([(0, 1)], num_vertices=3))
        _, (sweep,) = lonely.distance_batch([2])
        assert sweep.eccentricities.tolist() == [0] and sweep.levels == 0

    def test_dist_buffer_goes_back_to_the_pool(self, no_lanes):
        kernel = TraversalKernel(path_graph(20))
        kernel.distance_batch([0])
        stats = kernel.workspace.stats
        reuses = stats.buffer_reuses
        kernel.workspace.acquire_dist()  # the row's buffer, pooled
        assert stats.buffer_reuses == reuses + 1

    def test_lone_tail_chunk(self, seeded_rng):
        g, _ = random_gnp(120, 0.04, seed=11)
        sources = seeded_rng.integers(0, g.num_vertices, size=257)
        dist, sweeps = TraversalKernel(g).distance_batch(sources, max_lanes=256)
        assert [s.lane_count for s in sweeps] == [256, 1]
        want = np.stack([serial_distances(g, int(s)) for s in sources])
        np.testing.assert_array_equal(dist, want)
        lanes, _ = lane_distances(g, sources[256:])
        np.testing.assert_array_equal(dist[256:], lanes)
        flat = [int(e) for s in sweeps for e in s.eccentricities]
        assert flat == [int(row.max()) for row in dist]

    def test_deadline_aborts_a_lone_row(self, no_lanes):
        kernel = TraversalKernel(path_graph(2000), deadline=time.perf_counter() - 1.0)
        with pytest.raises(BenchmarkTimeout):
            kernel.distance_batch([0])

    def test_source_out_of_range(self):
        with pytest.raises(AlgorithmError):
            TraversalKernel(path_graph(5)).distance_batch([5])


class TestStaggeredWave:
    def test_single_injection_matches_levels(self):
        g, _ = random_gnp(30, 0.1, 31)
        kernel = TraversalKernel(g)
        seen = {}

        def record(step, vertices):
            for v in vertices.tolist():
                seen.setdefault(v, step)

        kernel.staggered_wave({0: [4]}, 3, on_discover=record)
        assert seen[4] == 0
        expected = kernel.levels([4], 3)
        for depth, level in enumerate(expected, start=1):
            for v in level.tolist():
                assert seen[v] == depth

    def test_staggered_injection_takes_minimum(self):
        # Path 0-1-2-3-4-5: source 0 at offset 0, source 5 at offset 2.
        # Vertex 3 is 3 steps from 0 (wave step 3) but only 2 steps from
        # the offset-2 injection at 5 (wave step 2 + 2 = 4); the earlier
        # wave wins.
        kernel = TraversalKernel(path_graph(6))
        first_touch = {}

        def record(step, vertices):
            for v in vertices.tolist():
                first_touch.setdefault(v, step)

        discovered = kernel.staggered_wave({0: [0], 2: [5]}, 4, on_discover=record)
        assert discovered == 6
        assert first_touch == {0: 0, 1: 1, 2: 2, 5: 2, 3: 3, 4: 3}

    def test_already_visited_injection_is_skipped(self):
        kernel = TraversalKernel(path_graph(4))
        steps = []

        def record(step, vertices):
            steps.append((step, sorted(vertices.tolist())))

        # 1 is discovered by the wave from 0 at step 1; injecting it
        # again at step 2 must be a no-op.
        kernel.staggered_wave({0: [0], 2: [1]}, 3, on_discover=record)
        assert steps == [(0, [0]), (1, [1]), (2, [2]), (3, [3])]
