"""Tests for the SweepExecutor dispatch layer and shared-memory backend.

The contract under test is the one every refactored caller leans on:
distance rows depend only on the graph and the source list — never on
the backend, the worker count, the start method, or the chunk
partitioning — and no shared-memory segment outlives its executor,
even when workers die mid-round.
"""

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.bfs.kernel import TraversalKernel
from repro.core.extremes import eccentricity_spectrum
from repro.errors import AlgorithmError
from repro.generators import barabasi_albert, watts_strogatz
from repro.parallel import (
    BitparallelSweepExecutor,
    LevelSynchronousCostModel,
    MultiprocessSweepExecutor,
    ScalingStudy,
    SerialSweepExecutor,
    create_executor,
    process_map,
    shm_available,
)
from repro.parallel.shm import SHM_PREFIX, SharedCSR, create_segment, destroy_segment

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


def _leaked_segments() -> list[str]:
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return []
    return [f for f in os.listdir(shm_dir) if f.startswith(SHM_PREFIX)]


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(600, 3, seed=11)


@pytest.fixture(scope="module")
def sources(graph):
    rng = np.random.default_rng(5)
    return np.sort(rng.choice(graph.num_vertices, size=20, replace=False))


class TestSharedCSR:
    def test_roundtrip_attach(self, graph):
        with SharedCSR(graph) as shared:
            view, seg = SharedCSR.attach(shared.spec)
            try:
                assert view.num_vertices == graph.num_vertices
                np.testing.assert_array_equal(view.indptr, graph.indptr)
                np.testing.assert_array_equal(view.indices, graph.indices)
            finally:
                seg.close()
        assert _leaked_segments() == []

    def test_destroy_segment_idempotent(self):
        seg = create_segment(128)
        destroy_segment(seg)
        destroy_segment(seg)  # second unlink must be a no-op
        assert _leaked_segments() == []


class TestBackendEquivalence:
    def test_serial_vs_bitparallel(self, graph, sources):
        with SerialSweepExecutor(graph) as serial:
            d_serial, i_serial = serial.distance_rows(sources)
        with BitparallelSweepExecutor(graph) as lanes:
            d_lanes, i_lanes = lanes.distance_rows(sources)
        np.testing.assert_array_equal(d_serial, d_lanes)
        np.testing.assert_array_equal(
            i_serial.eccentricities, i_lanes.eccentricities
        )
        # Lane amortization: same traversals, far fewer gather passes.
        assert i_lanes.traversals == i_serial.traversals == len(sources)
        assert i_lanes.sweeps < i_serial.sweeps

    @pytest.mark.parametrize("method", START_METHODS)
    def test_multiprocess_matches_serial(self, graph, sources, method):
        with SerialSweepExecutor(graph) as serial:
            d_serial, i_serial = serial.distance_rows(sources)
        executor = MultiprocessSweepExecutor(
            graph, workers=2, start_method=method
        )
        try:
            d_mp, i_mp = executor.distance_rows(sources)
            assert executor.start_method == method
        finally:
            executor.close()
        np.testing.assert_array_equal(d_serial, d_mp)
        np.testing.assert_array_equal(i_serial.eccentricities, i_mp.eccentricities)
        assert i_mp.backend == "multiprocess"
        assert i_mp.workers == 2
        assert _leaked_segments() == []

    def test_multiprocess_rounds_reuse_pool(self, graph, sources):
        with MultiprocessSweepExecutor(graph, workers=2) as executor:
            first, _ = executor.distance_rows(sources[:7])
            second, _ = executor.distance_rows(sources[:7])
        np.testing.assert_array_equal(first, second)
        assert _leaked_segments() == []

    def test_empty_round(self, graph):
        with MultiprocessSweepExecutor(graph, workers=2) as executor:
            dist, info = executor.distance_rows(np.empty(0, dtype=np.int64))
        assert dist.shape == (0, graph.num_vertices)
        assert info.traversals == 0

    def test_source_out_of_range(self, graph):
        with SerialSweepExecutor(graph) as executor:
            with pytest.raises(AlgorithmError):
                executor.distance_rows([graph.num_vertices])


class TestShmLifecycle:
    def test_close_releases_segments(self, graph, sources):
        executor = MultiprocessSweepExecutor(graph, workers=2)
        stats = executor.kernel.workspace.stats
        assert stats.shm_segments >= 1
        assert stats.shm_resident > 0
        executor.distance_rows(sources[:4])
        executor.close()
        assert stats.shm_resident == 0
        assert stats.shm_bytes > 0  # peak survives for reporting
        assert _leaked_segments() == []

    def test_killed_workers_raise_and_do_not_leak(self, graph, sources):
        """The ISSUE's regression: SIGKILL workers mid-sweep, then assert
        the round fails loudly and /dev/shm holds no repro segments."""
        executor = MultiprocessSweepExecutor(graph, workers=2)
        try:
            for proc in executor._procs:
                os.kill(proc.pid, signal.SIGKILL)
            with pytest.raises(AlgorithmError, match="died mid-round"):
                executor.distance_rows(sources)
            # The failed round closed the executor; reuse is refused.
            with pytest.raises(AlgorithmError, match="closed"):
                executor.distance_rows(sources[:2])
        finally:
            executor.close()
        assert _leaked_segments() == []


class TestCreateExecutor:
    def test_serial_and_bitparallel_pinned(self, graph):
        assert create_executor(graph, backend="serial").backend == "serial"
        assert create_executor(graph, backend="bitparallel").backend == "bitparallel"

    def test_unknown_backend(self, graph):
        with pytest.raises(AlgorithmError):
            create_executor(graph, backend="openmp")

    def test_multiprocess_single_worker_degrades(self, graph):
        executor = create_executor(graph, backend="multiprocess", workers=1)
        assert executor.backend == "bitparallel"

    def test_multiprocess_without_shm_degrades(self, graph, monkeypatch):
        import repro.parallel.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "shm_available", lambda: False)
        with pytest.warns(UserWarning, match="falling back to bitparallel"):
            executor = create_executor(graph, backend="multiprocess", workers=2)
        assert executor.backend == "bitparallel"

    def test_kernel_factory_shares_workspace(self, graph):
        kernel = TraversalKernel(graph)
        with kernel.sweep_executor(backend="serial") as executor:
            assert executor.kernel is kernel

    def test_invalid_arguments(self, graph):
        with pytest.raises(AlgorithmError):
            create_executor(graph, workers=0)
        with pytest.raises(AlgorithmError):
            create_executor(graph, batch_lanes=0)
        with pytest.raises(AlgorithmError):
            MultiprocessSweepExecutor(graph, workers=1)


class TestChooseBackend:
    def setup_method(self):
        self.model = LevelSynchronousCostModel()
        # A hub-heavy million-edge shape: big enough that a 128-source
        # round dwarfs the process overhead.
        self.big = dict(
            num_vertices=200_000, num_directed_edges=2_000_000, max_degree=5_000
        )

    def test_multiprocess_when_team_and_work(self):
        assert (
            self.model.choose_backend(num_sources=128, workers=4, **self.big)
            == "multiprocess"
        )

    def test_no_team_means_in_process(self):
        assert (
            self.model.choose_backend(num_sources=128, workers=1, **self.big)
            == "bitparallel"
        )

    def test_no_shm_means_in_process(self):
        assert (
            self.model.choose_backend(
                num_sources=128, workers=4, shm_ok=False, **self.big
            )
            == "bitparallel"
        )

    def test_tiny_round_stays_serial(self):
        assert (
            self.model.choose_backend(
                num_sources=1,
                workers=4,
                num_vertices=100,
                num_directed_edges=400,
                max_degree=10,
            )
            == "serial"
        )

    def test_small_graph_overhead_rule(self):
        # The round's modeled serial time is microseconds; forking a
        # pool can never pay for itself, whatever the team size.
        assert (
            self.model.choose_backend(
                num_sources=64,
                workers=8,
                num_vertices=500,
                num_directed_edges=2_000,
                max_degree=40,
            )
            != "multiprocess"
        )

    def test_verdict_reasons_are_stable(self):
        ok, reason = self.model.lane_batch_verdict(5, 1)
        assert not ok and "single lane" in reason
        ok, reason = self.model.lane_batch_verdict(10_000, 64)
        assert not ok and "lane level cap" in reason
        ok, reason = self.model.lane_batch_verdict(5, 64)
        assert ok and reason == ""


class TestCallerEquality:
    def test_spectrum_workers_match_scalar(self, graph):
        scalar = eccentricity_spectrum(graph, batch_lanes=0)
        multi = eccentricity_spectrum(graph, batch_lanes=64, workers=2)
        np.testing.assert_array_equal(
            scalar.eccentricities, multi.eccentricities
        )
        assert multi.diameter == scalar.diameter
        assert multi.workers >= 1
        assert multi.backend in ("scalar", "serial", "bitparallel", "multiprocess")

    def test_query_engine_workers_match(self, graph):
        from repro.query import QueryEngine

        queries = ["diam", "ecc 5", "dist 0 17", "ecc 40", "dist 3 9"]
        serial_engine = QueryEngine(batch_lanes=64)
        multi_engine = QueryEngine(batch_lanes=64, workers=2)
        try:
            a1, _ = serial_engine.run(serial_engine.add_graph(graph), queries)
            a2, _ = multi_engine.run(multi_engine.add_graph(graph), queries)
        finally:
            serial_engine.close()
            multi_engine.close()
        assert a1 == a2
        assert _leaked_segments() == []

    def test_fuzz_workers_match_serial_campaign(self):
        from repro.verify.runner import fuzz

        serial = fuzz(seed=3, budget=60.0, max_trials=4, shrink=False)
        multi = fuzz(seed=3, budget=60.0, max_trials=4, shrink=False, workers=2)
        assert multi.trials == serial.trials == 4
        assert multi.families == serial.families
        assert multi.ok and serial.ok


class TestProcessMap:
    def test_in_process_paths(self):
        assert process_map(len, [], workers=4) == []
        assert process_map(len, [[1, 2, 3]], workers=4) == [3]
        assert process_map(len, [[1], [1, 2]], workers=1) == [1, 2]

    def test_pool_preserves_order(self):
        items = [[0] * i for i in range(10)]
        assert process_map(len, items, workers=2) == list(range(10))


class TestMeasureSweep:
    def test_points_and_checksum(self):
        graph = watts_strogatz(500, 6, 0.1, seed=9)
        study = ScalingStudy()
        points = study.measure_sweep(graph, workers=(1, 2), num_sources=16)
        assert [p.workers for p in points] == [1, 2]
        assert points[0].backend == "bitparallel"
        assert points[1].backend == "multiprocess"
        assert points[0].ecc_checksum == points[1].ecc_checksum > 0
        assert points[0].speedup == pytest.approx(1.0)
        assert study.measured == points
        assert _leaked_segments() == []
