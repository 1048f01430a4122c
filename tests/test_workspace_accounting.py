"""Workspace memory accounting, pool guards, and lane auto-fallback.

Covers the ``owned_bytes`` resident-memory view, the double-release
guards on the distance/lane pools, the claim-flag restore contract,
``edges_examined`` accounting of the spectrum, and the cost-model-driven
lane fallback of the eccentricity spectrum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs.kernel import TraversalKernel, Workspace
from repro.bfs.topdown import topdown_step
from repro.core.config import FDiamConfig
from repro.core.extremes import eccentricity_spectrum
from repro.core.fdiam import fdiam
from repro.generators import caterpillar, cycle_graph, path_graph, star_graph
from repro.generators.grid import grid_2d
from repro.generators.rmat import rmat
from repro.parallel.costmodel import LevelSynchronousCostModel


class TestOwnedBytes:
    def test_fresh_workspace_owns_only_marks(self):
        ws = Workspace(100)
        assert ws.owned_bytes() == ws.marks.marks.nbytes
        assert ws.stats.owned_bytes == ws.owned_bytes()

    def test_pooled_buffers_are_resident(self):
        ws = Workspace(100)
        base = ws.owned_bytes()
        dist = ws.acquire_dist()
        # Lent out: not resident (allocated_bytes covers it instead).
        assert ws.owned_bytes() == base
        assert ws.stats.allocated_bytes >= dist.nbytes
        ws.release_dist(dist)
        assert ws.owned_bytes() == base + dist.nbytes
        assert ws.stats.owned_bytes == ws.owned_bytes()

    def test_lane_matrices_counted_on_release(self):
        ws = Workspace(64)
        lanes = ws.acquire_lanes(4)
        base = ws.owned_bytes()
        ws.release_lanes(lanes)
        assert ws.owned_bytes() == base + lanes.nbytes

    def test_singletons_counted_once(self):
        ws = Workspace(50)
        ws.frontier_flag()
        ws.claim_flag()
        ws.owner_buffer()
        ws.arange(10)
        owned = ws.owned_bytes()
        assert owned == ws.marks.marks.nbytes + 50 + 50 + 50 * 8 + ws._arange.nbytes
        ws.frontier_flag()  # reuse: nothing new resident
        ws.owner_buffer()
        assert ws.owned_bytes() == owned

    def test_owner_buffer_counted_after_topdown_step(self):
        graph = grid_2d(12, 12)
        ws = Workspace(graph.num_vertices)
        assert ws._owner is None
        base_owned = ws.owned_bytes()
        base_peak = ws.stats.peak_scratch_bytes
        ws.new_epoch()
        ws.marks.visit(0)
        # A corner's two neighbours are far below the claim-flag
        # threshold, so the step dedups through the owner buffer.
        topdown_step(graph, np.array([0], dtype=np.int64), ws.marks, pool=ws)
        owner = ws._owner
        assert owner is not None
        assert owner.dtype == np.int64 and len(owner) == graph.num_vertices
        ramp = ws._arange.nbytes
        assert ws.owned_bytes() == base_owned + owner.nbytes + ramp
        assert ws.stats.owned_bytes == ws.owned_bytes()
        assert ws.stats.peak_scratch_bytes == base_peak + owner.nbytes + ramp
        # Later steps reuse the same buffer: nothing new resident.
        owned, peak = ws.owned_bytes(), ws.stats.peak_scratch_bytes
        topdown_step(graph, np.array([1, 12], dtype=np.int64), ws.marks, pool=ws)
        assert ws._owner is owner
        assert ws.owned_bytes() == owned
        assert ws.stats.peak_scratch_bytes == peak

    def test_run_reports_owned_bytes(self):
        res = fdiam(grid_2d(8, 8))
        ws = res.stats.workspace
        assert ws is not None
        assert ws.owned_bytes > 0
        assert ws.owned_bytes <= ws.peak_scratch_bytes or ws.peak_scratch_bytes == 0


class TestPoolGuards:
    def test_double_release_dist_is_noop(self):
        ws = Workspace(40)
        dist = ws.acquire_dist()
        ws.release_dist(dist)
        pooled = ws.owned_bytes()
        ws.release_dist(dist)  # second release: identity guard
        assert ws.owned_bytes() == pooled
        # The pool must hand the buffer out once, not twice.
        a = ws.acquire_dist()
        b = ws.acquire_dist()
        assert a is not b

    def test_double_release_lanes_is_noop(self):
        ws = Workspace(40)
        lanes = ws.acquire_lanes(2)
        ws.release_lanes(lanes)
        ws.release_lanes(lanes)
        a = ws.acquire_lanes(2)
        b = ws.acquire_lanes(2)
        assert a is not b

    def test_foreign_buffers_rejected(self):
        ws = Workspace(40)
        before = ws.owned_bytes()
        ws.release_dist(np.zeros(7, dtype=np.int64))  # wrong length
        ws.release_dist(np.zeros(40, dtype=np.float64))  # wrong dtype
        ws.release_lanes(np.zeros((40,), dtype=np.uint64))  # wrong ndim
        ws.release_dist(None)
        ws.release_lanes(None)
        assert ws.owned_bytes() == before

    def test_claim_flag_left_clean_after_run(self):
        # compact_unique's contract: the pooled claim flag is restored
        # to all-False even on the mid-level early-return paths.
        graph = rmat(8, edge_factor=6, seed=4)
        kernel = TraversalKernel(graph)
        kernel.bfs(graph.max_degree_vertex())
        flag = kernel.workspace._claim
        if flag is not None:
            assert not flag.any()


class TestEdgeParity:
    def test_spectrum_counts_edges(self):
        spec = eccentricity_spectrum(cycle_graph(20))
        assert spec.edges_examined > 0
        assert spec.sweeps == spec.bfs_traversals  # scalar: 1 sweep each


class TestLaneFallback:
    def test_spectrum_fallback_flag(self):
        # High estimated diameter: the model vetoes the requested lanes
        # (a 2000-path estimates ~68 levels, past the 64-level cap).
        spec = eccentricity_spectrum(path_graph(2000), batch_lanes=64)
        assert spec.lane_fallback
        assert spec.lane_occupancy == pytest.approx(1.0)  # scalar path ran

    def test_spectrum_fallback_can_be_forced_off(self):
        spec = eccentricity_spectrum(
            grid_2d(16, 16), batch_lanes=64, auto_fallback=False
        )
        assert not spec.lane_fallback
        assert spec.sweeps < spec.bfs_traversals  # lanes actually shared
        assert spec.diameter == 30

    def test_low_diameter_graph_keeps_lanes(self):
        graph = star_graph(300)
        model = LevelSynchronousCostModel()
        est = model.estimate_diameter(
            graph.num_vertices, graph.num_directed_edges, graph.max_degree()
        )
        assert model.lane_batch_advisable(est, 64)
        spec = eccentricity_spectrum(graph, batch_lanes=64)
        assert not spec.lane_fallback
        assert spec.diameter == 2


class TestChainTipBatch:
    def test_tip_batch_exactness_on_tendril_graphs(self):
        # Pendant chains of assorted lengths around small cores — the
        # shape chain-tip batching exists for. Forced on, it must agree
        # with the scalar path everywhere.
        for seed in range(5):
            graph = rmat(7, edge_factor=3, seed=seed)
            plain = fdiam(graph)
            forced = fdiam(graph, FDiamConfig(chain_tip_batch=True))
            assert forced.diameter == plain.diameter, seed
            assert forced.infinite == plain.infinite, seed

    def test_tip_batch_reduces_traversals_on_caterpillar(self):
        graph = caterpillar(6, 8)  # many pendant legs, tiny diameter
        plain = fdiam(graph)
        forced = fdiam(graph, FDiamConfig(chain_tip_batch=True))
        assert forced.diameter == plain.diameter
        assert forced.stats.bfs_traversals <= plain.stats.bfs_traversals
