"""Lane-batched main-loop eccentricities (``FDiamConfig.ecc_lanes``)."""

import time

import numpy as np
import pytest

from conftest import nx_cc_diameter, random_gnp
from repro.bfs.kernel import TraversalKernel
from repro.core import (
    ACTIVE,
    FDiamConfig,
    FDiamState,
    fdiam,
    fdiam_with_state,
)
from repro.core import chain
from repro.core.concurrent import fdiam_concurrent
from repro.core.fdiam import _claim
from repro.errors import AlgorithmError, BenchmarkTimeout
from repro.generators import (
    add_tendrils,
    barabasi_albert,
    delaunay_graph,
    grid_2d,
    road_network,
    star_graph,
)
from repro.verify.oracle import InvariantOracle, InvariantViolation

ON = FDiamConfig(ecc_lanes="on")
OFF = FDiamConfig(ecc_lanes="off")


def _hub_graph():
    return add_tendrils(barabasi_albert(2000, 3, seed=4), 12, 3, 7, seed=4)


class TestExactness:
    @pytest.mark.parametrize("seed", range(8))
    def test_on_matches_networkx(self, seed):
        g, G = random_gnp(50, 0.04 + 0.01 * seed, seed + 3100)
        assert fdiam(g, ON).diameter == nx_cc_diameter(G)

    @pytest.mark.parametrize("mode", ["auto", "on"])
    def test_logical_count_rises_by_the_redundancy(self, mode):
        g = _hub_graph()
        result = fdiam(g, FDiamConfig(ecc_lanes=mode))
        batched = result.stats
        serial = fdiam(g, OFF)
        assert batched.ecc_sweeps > 0
        assert result.diameter == serial.diameter
        assert batched.bfs_traversals == (
            serial.stats.bfs_traversals + batched.redundant_evaluations
        )
        assert batched.bound_updates == serial.stats.bound_updates

    def test_same_schedule_as_the_scalar_concurrent_study(self):
        # Lanes change how a batch is evaluated, never which vertices
        # are claimed or how the results are applied.
        g = _hub_graph()
        lanes = fdiam(g, ON)
        study = fdiam_concurrent(g, 64)
        assert lanes.diameter == study.diameter
        assert lanes.stats.eccentricity_bfs == study.stats.eccentricity_bfs
        assert lanes.stats.redundant_evaluations == study.redundant_evaluations
        assert study.stats.ecc_sweeps == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(AlgorithmError, match="ecc_lanes"):
            FDiamConfig(ecc_lanes="always")


class TestOracle:
    def test_every_lane_is_checked(self, monkeypatch):
        checked = []
        original = InvariantOracle.check_computed

        def record(self, state, vertex, ecc):
            checked.append(vertex)
            return original(self, state, vertex, ecc)

        monkeypatch.setattr(InvariantOracle, "check_computed", record)
        res = fdiam(_hub_graph(), ON.ablate(verify=True))
        assert res.stats.ecc_sweeps > 0
        # Every main-loop evaluation, redundant lanes included; the
        # 2-sweep's two BFS are checked by the stage hooks instead.
        assert len(checked) == res.stats.eccentricity_bfs - 2
        assert len(set(checked)) == len(checked)

    def test_a_wrong_lane_is_caught(self, monkeypatch):
        original = FDiamState.ecc_lanes

        def off_by_one(self, vertices):
            eccs = original(self, vertices).copy()
            eccs[-1] += 1
            return eccs

        monkeypatch.setattr(FDiamState, "ecc_lanes", off_by_one)
        with pytest.raises(InvariantViolation, match="ecc-bfs"):
            fdiam(_hub_graph(), ON.ablate(verify=True))

    def test_a_wrong_tip_lane_is_caught(self, monkeypatch):
        # Corrupt only the chain-tip anchor sweep: a tip's value rises
        # with its anchor's, stays a valid upper bound, and may sit
        # below the diameter, so only the per-lane check can see it.
        in_tips = []
        original_tips = chain.batch_tip_eccentricities
        original_lanes = FDiamState.ecc_lanes

        def tips(state, batch):
            in_tips.append(len(batch))
            return original_tips(state, batch)

        def off_by_one(self, vertices):
            eccs = original_lanes(self, vertices).copy()
            if in_tips and self.stats.ecc_sweeps == 1:
                eccs[-1] += 1
            return eccs

        monkeypatch.setattr(chain, "batch_tip_eccentricities", tips)
        monkeypatch.setattr(FDiamState, "ecc_lanes", off_by_one)
        with pytest.raises(InvariantViolation, match="ecc-bfs") as caught:
            fdiam(_hub_graph(), ON.ablate(verify=True))
        assert in_tips
        assert "eccentricity BFS from" in str(caught.value)


class TestDeadline:
    def test_aborts_inside_a_lane_sweep(self, monkeypatch):
        original = TraversalKernel.levels_batched64
        entered = []

        def expire_then_sweep(self, sources, *args, **kwargs):
            # The budget runs out as the sweep starts: the per-level
            # check inside the sweep must raise, not the main loop.
            entered.append(len(sources))
            self.deadline = time.perf_counter() - 1.0
            return original(self, sources, *args, **kwargs)

        monkeypatch.setattr(TraversalKernel, "levels_batched64", expire_then_sweep)
        with pytest.raises(BenchmarkTimeout, match="traversal kernel"):
            fdiam(_hub_graph(), ON, deadline=time.perf_counter() + 60)
        assert entered and entered[0] > 1


class TestGate:
    def test_batches_a_hub_heavy_graph(self):
        res = fdiam(barabasi_albert(3000, 3, seed=1))
        assert res.stats.ecc_batch == 64
        assert res.stats.ecc_batch_reason.startswith("hub-heavy, bound ")
        assert res.stats.ecc_sweeps > 0

    @pytest.mark.parametrize(
        "graph",
        [grid_2d(30, 30), delaunay_graph(1500, seed=2), road_network(30, 30, seed=2)],
        ids=["grid", "delaunay", "road"],
    )
    def test_low_skew_graphs_stay_scalar(self, graph):
        res = fdiam(graph)
        serial = fdiam(graph, OFF)
        assert res.stats.ecc_batch == 1
        assert res.stats.ecc_batch_reason.startswith("degree skew ")
        assert res.stats.ecc_batch_reason.endswith("below hub skew 4.0")
        assert res.stats.ecc_sweeps == 0
        assert res.stats.bfs_traversals == serial.stats.bfs_traversals
        assert res.stats.edges_examined == serial.stats.edges_examined

    def test_off_records_its_reason(self):
        res = fdiam(barabasi_albert(3000, 3, seed=1), OFF)
        assert (res.stats.ecc_batch, res.stats.ecc_batch_reason) == (
            1,
            "ecc_lanes='off'",
        )
        assert res.stats.ecc_sweeps == 0

    def test_single_pending_vertex_runs_scalar(self, monkeypatch):
        # A star leaves exactly one vertex for the main loop.
        calls = []
        original = FDiamState.ecc_bfs

        def count(self, vertex):
            calls.append(vertex)
            return original(self, vertex)

        monkeypatch.setattr(FDiamState, "ecc_bfs", count)
        res, state = fdiam_with_state(star_graph(8), ON)
        assert res.diameter == 2
        assert res.stats.ecc_batch == 64
        assert res.stats.ecc_sweeps == 0
        assert len(calls) == 3  # the 2-sweep, then the lone pending vertex


class TestClaim:
    def test_claims_only_still_active_pending_vertices(self):
        status = np.full(10, ACTIVE)
        status[[1, 2, 5]] = 3  # pruned after `pending` was built
        pending = np.arange(10)
        members, cursor = _claim(status, pending, 0, 4)
        assert (members.tolist(), cursor) == ([0, 3, 4, 6], 7)
        members, cursor = _claim(status, pending, cursor, 4)
        assert (members.tolist(), cursor) == ([7, 8, 9], 10)
        assert len(_claim(status, pending, cursor, 4)[0]) == 0

    def test_single_claims_skip_pruned_vertices(self):
        status = np.full(6, ACTIVE)
        status[[0, 1, 3]] = 2
        pending = np.array([5, 0, 1, 3, 4])
        members, cursor = _claim(status, pending, 0, 1)
        assert (members.tolist(), cursor) == ([5], 1)
        members, cursor = _claim(status, pending, cursor, 1)
        assert (members.tolist(), cursor) == ([4], 5)
        assert len(_claim(status, pending, cursor, 1)[0]) == 0
