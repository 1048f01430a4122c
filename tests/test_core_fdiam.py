"""End-to-end tests for the F-Diam driver."""

import numpy as np
import pytest

from conftest import nx_cc_diameter, random_gnp, to_nx
from repro.baselines import ifub_diameter
from repro.core import ABLATIONS, FDiamConfig, Reason, fdiam
from repro.errors import AlgorithmError, BenchmarkTimeout
from repro.generators import (
    add_isolated_vertices,
    barbell,
    caterpillar,
    complete_graph,
    cycle_graph,
    disjoint_union,
    grid_2d,
    lollipop,
    path_graph,
    star_graph,
    watts_strogatz,
)
from repro.generators.registry import build_analog
from repro.graph import empty_graph, from_edges


class TestKnownDiameters:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(2), 1),
            (path_graph(100), 99),
            (cycle_graph(30), 15),
            (cycle_graph(31), 15),
            (star_graph(12), 2),
            (complete_graph(9), 1),
            (grid_2d(11, 17), 26),
            (barbell(6, 7), 9),
            (lollipop(8, 9), 10),
            (caterpillar(10, 2), 11),
        ],
    )
    def test_exact(self, graph, expected):
        result = fdiam(graph)
        assert result.diameter == expected
        assert result.connected
        assert not result.infinite

    def test_single_vertex(self):
        result = fdiam(empty_graph(1))
        assert result.diameter == 0
        assert result.connected

    def test_single_edge(self):
        result = fdiam(path_graph(2))
        assert result.diameter == 1

    def test_empty_graph_raises(self):
        with pytest.raises(AlgorithmError):
            fdiam(empty_graph(0))


class TestRandomGraphOracle:
    @pytest.mark.parametrize("seed", range(15))
    def test_gnp(self, seed):
        g, G = random_gnp(45, 0.05 + 0.02 * seed, seed + 500)
        result = fdiam(g)
        assert result.diameter == nx_cc_diameter(G)
        import networkx as nx

        assert result.connected == nx.is_connected(G)

    @pytest.mark.parametrize("rewire", [0.0, 0.05, 0.3])
    def test_watts_strogatz(self, rewire):
        g = watts_strogatz(80, 4, rewire, seed=9)
        result = fdiam(g)
        assert result.diameter == nx_cc_diameter(to_nx(g))


class TestDisconnectedGraphs:
    def test_reports_infinite_with_largest_cc_ecc(self):
        g = disjoint_union([path_graph(5), path_graph(9)])
        result = fdiam(g)
        assert result.infinite
        assert not result.connected
        assert result.diameter == 8  # largest eccentricity over CCs
        assert "infinite" in str(result)

    def test_diameter_in_smaller_component(self):
        # The larger component (clique) has a smaller diameter than the
        # small path component.
        g = disjoint_union([complete_graph(30), path_graph(10)])
        assert fdiam(g).diameter == 9

    def test_isolated_vertices_only(self):
        result = fdiam(empty_graph(5))
        assert result.diameter == 0
        assert result.infinite

    def test_isolated_plus_component(self):
        g = add_isolated_vertices(path_graph(6), 3)
        result = fdiam(g)
        assert result.diameter == 5
        assert result.infinite
        assert result.stats.removed_by[Reason.DEGREE_ZERO] == 3

    def test_many_small_components(self):
        g = disjoint_union([path_graph(k) for k in range(2, 9)])
        assert fdiam(g).diameter == 7


class TestEngines:
    @pytest.mark.parametrize("seed", range(6))
    def test_engines_agree(self, seed):
        g, _ = random_gnp(40, 0.08, seed + 600)
        par = fdiam(g, FDiamConfig(engine="parallel"))
        ser = fdiam(g, FDiamConfig(engine="serial"))
        assert par.diameter == ser.diameter
        # The algorithms are deterministic given the same order, so the
        # traversal counts must also coincide.
        assert par.stats.bfs_traversals == ser.stats.bfs_traversals

    def test_no_directions_matches(self):
        g = grid_2d(20, 20)
        a = fdiam(g, FDiamConfig(directions=False))
        b = fdiam(g)
        assert a.diameter == b.diameter == 38


class TestAblations:
    @pytest.mark.parametrize("name", list(ABLATIONS))
    @pytest.mark.parametrize("seed", range(4))
    def test_all_variants_exact(self, name, seed):
        g, G = random_gnp(35, 0.1, seed + 700)
        result = fdiam(g, ABLATIONS[name])
        assert result.diameter == nx_cc_diameter(G), name

    def test_no_winnow_needs_more_bfs(self):
        g = watts_strogatz(200, 6, 0.1, seed=2)
        full = fdiam(g)
        ablated = fdiam(g, FDiamConfig(use_winnow=False))
        assert ablated.diameter == full.diameter
        assert ablated.stats.bfs_traversals > full.stats.bfs_traversals

    def test_random_order_exact(self):
        g, G = random_gnp(40, 0.1, 999)
        result = fdiam(g, FDiamConfig(order="random", seed=3))
        assert result.diameter == nx_cc_diameter(G)


class TestStats:
    def test_removal_counts_cover_graph(self):
        g = grid_2d(12, 12)
        result = fdiam(g)
        assert result.stats.removed_by.sum() == g.num_vertices
        assert result.stats.removed_by[Reason.ACTIVE] == 0

    def test_fractions_sum_to_one(self):
        g, _ = random_gnp(60, 0.07, 42)
        fracs = fdiam(g).stats.removal_fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_initial_bound_le_diameter(self):
        for seed in range(5):
            g, G = random_gnp(40, 0.1, seed + 800)
            result = fdiam(g)
            assert result.stats.initial_bound <= result.diameter

    def test_stage_times_recorded(self):
        result = fdiam(grid_2d(15, 15))
        assert result.stats.times.total() > 0
        fracs = result.stats.times.fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)

    def test_traces_opt_in(self):
        g = grid_2d(8, 8)
        without = fdiam(g)
        assert without.stats.traces == []
        with_traces = fdiam(g, FDiamConfig(keep_traces=True))
        assert len(with_traces.stats.traces) == with_traces.stats.eccentricity_bfs


class TestPinnedAnalogCounts:
    """Exact work counts on two pinned paper analogs.

    Values recorded before the level step's dedup moved off
    ``np.unique``. The frontier dedup, every tie-break and the BFS
    schedule feed these numbers, so a dedup that loses sortedness or a
    reordered tie-break shows up here even when the diameter stays
    right.
    """

    @pytest.mark.parametrize(
        "name,config,diameter,infinite,bfs,edges",
        [
            pytest.param(
                "USA-road-d.NY", FDiamConfig(), 121, True, 32, 645_464,
                id="USA-road-d.NY-121-True-32-645464",
            ),
            # The paper's one-BFS-at-a-time loop; the default sweeps
            # internet's chain tips in lanes (see the lane-batched pins
            # below).
            pytest.param(
                "internet", FDiamConfig(ecc_lanes="off"), 28, False, 24, 714_697,
                id="internet-28-False-24-714697",
            ),
        ],
    )
    def test_counts_match_recorded(
        self, name, config, diameter, infinite, bfs, edges
    ):
        res = fdiam(build_analog(name), config)
        assert res.diameter == diameter
        assert res.infinite == infinite
        assert res.stats.bfs_traversals == bfs
        assert res.stats.edges_examined == edges
        assert res.stats.ecc_sweeps == 0

    @pytest.mark.parametrize(
        "name,diameter,infinite,bfs,edges,sweeps,redundant,batch",
        [
            # Same logical count as the scalar pin above: the 21
            # surviving chain tips' anchors share one lane sweep, and
            # the one vertex left for the main loop runs scalar.
            ("internet", 28, False, 24, 256_702, 1, 0, 1),
            # A 10-lane tip sweep, then one main-loop sweep: 15 members
            # an earlier member pruned.
            ("rmat16.sym", 13, True, 43, 627_868, 2, 15, 64),
        ],
    )
    def test_lane_batched_default_counts(
        self, name, diameter, infinite, bfs, edges, sweeps, redundant, batch
    ):
        # Recorded when chain tips joined the main loop's ecc_lanes rule;
        # edges re-recorded when wide lane levels went pull-only.
        res = fdiam(build_analog(name))
        st = res.stats
        assert res.diameter == diameter
        assert res.infinite == infinite
        assert st.bfs_traversals == bfs
        assert st.edges_examined == edges
        assert st.ecc_sweeps == sweeps
        assert st.redundant_evaluations == redundant
        assert st.ecc_batch == batch
        # Redundant lanes are the only extra logical work.
        scalar = fdiam(build_analog(name), FDiamConfig(ecc_lanes="off")).stats
        assert st.bfs_traversals == scalar.bfs_traversals + redundant

    def test_kron_tips_waste_no_evaluations(self):
        # Only the 64 longest-chain tips are swept before the main loop;
        # the others wait for its Eliminates, which prune most of them.
        # Sweeping all 1,057 surviving tips up front took 1,061 logical
        # BFS here against 873 for the one-at-a-time loop.
        graph = build_analog("kron_g500-logn21")
        res = fdiam(graph)
        scalar = fdiam(graph, FDiamConfig(ecc_lanes="off"))
        assert res.diameter == scalar.diameter == 6
        assert res.stats.bfs_traversals <= 1.05 * scalar.stats.bfs_traversals

    @pytest.mark.parametrize(
        "name,bfs", [("USA-road-d.NY", 100), ("internet", 9)]
    )
    def test_ifub_sweep_tie_breaks(self, name, bfs):
        # iFUB starts every sweep from ``last_frontier[0]``, so an
        # unsorted deepest level changes its BFS count.
        assert ifub_diameter(build_analog(name)).bfs_traversals == bfs


class TestDeadline:
    def test_deadline_raises(self):
        import time

        g = grid_2d(40, 40)
        with pytest.raises(BenchmarkTimeout):
            fdiam(g, deadline=time.perf_counter() - 1.0)

    def test_serial_engine_aborts_inside_first_bfs(self):
        # The deadline reaches the scalar engine's level loop: an expired
        # budget aborts the very first 2-sweep traversal.
        import time

        from repro.core.state import FDiamState
        from repro.core.sweep import two_sweep

        state = FDiamState(
            path_graph(3000),
            FDiamConfig(engine="serial"),
            deadline=time.perf_counter() - 1.0,
        )
        with pytest.raises(BenchmarkTimeout):
            two_sweep(state, 0)
        assert state.stats.eccentricity_bfs == 1

    @pytest.mark.parametrize("engine", ["batched", "bitparallel", "gpu"])
    def test_unknown_engine_fails_before_any_bfs(self, engine):
        with pytest.raises(AlgorithmError, match="engine must be"):
            fdiam(path_graph(10), FDiamConfig(engine=engine))

    def test_generous_deadline_completes(self):
        import time

        g = grid_2d(10, 10)
        result = fdiam(g, deadline=time.perf_counter() + 60)
        assert result.diameter == 18
