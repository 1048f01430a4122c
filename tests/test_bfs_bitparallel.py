"""Tests for the bit-parallel 64-lane multi-source BFS engine.

Covers the primitive (``segmented_or``), the lane sweep against the
scalar reference oracle across awkward lane counts (1, 63, 64, 65,
130 — one bit, a nearly-full word, exactly one word, word + 1 bit, and
three words), the scalar multi-source wave the lanes sit beside
(winnow-style resumed boolean marks, early stop), the routed consumers
(``all_eccentricities``, the eccentricity spectrum, ``fdiam`` chain-tip
batching), the workspace lane-buffer
pool, and the headline edge-gather saving on a power-law graph.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bfs.bitparallel import (
    LANE_WIDTH,
    lane_distances,
    lane_sweep,
    segmented_or,
)
from repro.bfs.eccentricity import all_eccentricities
from repro.bfs.kernel import TraversalKernel, Workspace
from repro.bfs.reference import serial_distances
from repro.core.extremes import eccentricity_spectrum
from repro.core.winnow import _BoolMarks
from repro.errors import AlgorithmError
from repro.generators import barabasi_albert, path_graph
from repro.graph import from_edges


def random_graph(n, num_edges, seed, extra_isolated=0):
    """Random multi-component graph with optional isolated vertices."""
    rng = np.random.default_rng(seed)
    pairs = {
        (min(u, v), max(u, v))
        for u, v in rng.integers(0, n, size=(num_edges, 2))
        if u != v
    }
    return from_edges(sorted(pairs), num_vertices=n + extra_isolated)


class TestSegmentedOr:
    def test_basic(self):
        values = np.array([1, 2, 4, 8], dtype=np.uint64)
        out = segmented_or(values, [2, 2])
        assert out[:, 0].tolist() == [3, 12]

    def test_zero_length_segments_are_identity(self):
        # np.bitwise_or.reduceat returns the element *at* an empty
        # segment's start; this wrapper must return 0 instead.
        values = np.array([7, 9], dtype=np.uint64)
        out = segmented_or(values, [1, 0, 1, 0])
        assert out[:, 0].tolist() == [7, 0, 9, 0]

    def test_no_segments(self):
        out = segmented_or(np.empty(0, dtype=np.uint64), [])
        assert out.shape == (0, 1)

    def test_all_empty_segments(self):
        out = segmented_or(np.empty(0, dtype=np.uint64), [0, 0, 0])
        assert out[:, 0].tolist() == [0, 0, 0]

    def test_high_bit_survives(self):
        top = np.uint64(1) << np.uint64(63)
        values = np.array([top, 1], dtype=np.uint64)
        out = segmented_or(values, [2])
        assert out[0, 0] == top | np.uint64(1)

    def test_multi_word_rows(self):
        values = np.array([[1, 0], [0, 2], [4, 4]], dtype=np.uint64)
        out = segmented_or(values, [2, 1])
        assert out.tolist() == [[1, 2], [4, 4]]


class TestLaneSweepVsSerial:
    @pytest.mark.parametrize("lanes", [1, 63, 64, 65, 130])
    def test_distances_match_serial_oracle(self, lanes):
        g = random_graph(150, 300, seed=lanes, extra_isolated=3)
        rng = np.random.default_rng(lanes)
        sources = rng.integers(0, g.num_vertices, size=lanes)
        dist, sweep = lane_distances(g, sources)
        assert dist.shape == (lanes, g.num_vertices)
        assert sweep.lane_count == lanes
        assert sweep.width == -(-lanes // LANE_WIDTH)
        for j, s in enumerate(sources):
            ref = serial_distances(g, int(s))
            np.testing.assert_array_equal(dist[j], ref)
            assert sweep.eccentricities[j] == ref.max(initial=0)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_gathers_change_nothing(self, chunk, monkeypatch):
        # Wide levels are gathered in slices of about _GATHER_CHUNK arcs;
        # shrinking the slice forces many per level (and rows longer
        # than a slice), which must not change any distance or count.
        import repro.bfs.bitparallel as bitparallel

        g = random_graph(150, 400, seed=chunk, extra_isolated=2)
        sources = np.random.default_rng(chunk).integers(0, g.num_vertices, size=70)
        whole_dist, whole = lane_distances(g, sources)
        monkeypatch.setattr(bitparallel, "_GATHER_CHUNK", chunk)
        dist, sweep = lane_distances(g, sources)
        np.testing.assert_array_equal(dist, whole_dist)
        np.testing.assert_array_equal(sweep.eccentricities, whole.eccentricities)
        assert (sweep.levels, sweep.edges_examined) == (
            whole.levels,
            whole.edges_examined,
        )

    def test_empty_source_set(self):
        g = path_graph(5)
        dist, sweep = lane_distances(g, np.empty(0, dtype=np.int64))
        assert dist.shape == (0, 5)
        assert sweep.lane_count == 0
        assert sweep.levels == 0

    def test_duplicate_sources_get_independent_lanes(self):
        g = path_graph(6)
        dist, _ = lane_distances(g, [2, 2, 0])
        np.testing.assert_array_equal(dist[0], dist[1])
        assert dist[2, 5] == 5

    def test_level_cap(self):
        g = path_graph(10)
        dist, sweep = lane_distances(g, [0], max_level=3)
        assert dist[0].max() == 3
        assert (dist[0] >= 0).sum() == 4
        assert sweep.levels == 3

    def test_out_of_range_source_rejected(self):
        g = path_graph(4)
        with pytest.raises(AlgorithmError):
            lane_sweep(g, [4])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 60),
        lanes=st.integers(1, 70),
    )
    def test_property_random_graphs(self, seed, n, lanes):
        g = random_graph(n, 2 * n, seed=seed, extra_isolated=seed % 3)
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, g.num_vertices, size=lanes)
        dist, sweep = lane_distances(g, sources)
        for j in rng.choice(lanes, size=min(lanes, 5), replace=False):
            ref = serial_distances(g, int(sources[j]))
            np.testing.assert_array_equal(dist[j], ref)


class TestMergedMode:
    """The scalar multi-source wave that the fdiam pruning passes run."""

    def test_resumed_bool_marks(self):
        # The winnow-resume pattern: a persistent boolean ball expanded
        # in two increments, pre-visited vertices never rediscovered.
        g = path_graph(12)
        kernel = TraversalKernel(g)
        visited = np.zeros(12, dtype=bool)
        visited[[5, 6]] = True
        first = kernel.levels(
            [5, 6], 2, marks=_BoolMarks(visited), new_epoch=False,
            mark_sources=False,
        )
        assert [lv.tolist() for lv in first] == [[4, 7], [3, 8]]
        second = kernel.levels(
            first[-1], 2, marks=_BoolMarks(visited), new_epoch=False,
            mark_sources=False,
        )
        assert [lv.tolist() for lv in second] == [[2, 9], [1, 10]]

    def test_on_level_early_stop(self):
        g = path_graph(10)
        kernel = TraversalKernel(g)
        levels = kernel.levels([0], None, on_level=lambda depth, fresh: depth < 2)
        assert len(levels) == 2


class TestRoutedConsumers:
    def test_all_eccentricities_batched(self):
        g = random_graph(90, 160, seed=5, extra_isolated=2)
        ref = all_eccentricities(g)
        for lanes in (1, 64, 130):
            np.testing.assert_array_equal(
                all_eccentricities(g, batch_lanes=lanes), ref
            )

    def test_spectrum_batched_equals_scalar(self):
        for g in (barabasi_albert(200, 2, seed=4), random_graph(90, 150, seed=9)):
            a = eccentricity_spectrum(g)
            b = eccentricity_spectrum(g, batch_lanes=64)
            np.testing.assert_array_equal(a.eccentricities, b.eccentricities)
            assert (a.radius, a.diameter) == (b.radius, b.diameter)
            np.testing.assert_array_equal(np.sort(a.center), np.sort(b.center))
            np.testing.assert_array_equal(
                np.sort(a.periphery), np.sort(b.periphery)
            )
            assert b.sweeps < a.sweeps
            assert 0 < b.lane_occupancy <= 1

    def test_fdiam_with_lanes(self):
        # fdiam's lane consumers: chain tips resolved by anchor sweeps,
        # then the main loop's batches.
        from repro.core.config import FDiamConfig
        from repro.core.fdiam import fdiam

        g = barabasi_albert(150, 1, seed=6)  # a tree: every leaf is a tip
        ref = fdiam(g, config=FDiamConfig(ecc_lanes="off"))
        lanes = fdiam(g, config=FDiamConfig(ecc_lanes="on"))
        assert lanes.diameter == ref.diameter
        assert lanes.stats.workspace.lane_requests > 0


class TestLanePool:
    def test_reuse_hits(self):
        g = barabasi_albert(100, 2, seed=1)
        kernel = TraversalKernel(g)
        for _ in range(4):
            kernel.levels_batched64([0, 5, 9])
        stats = kernel.workspace.stats
        assert stats.lane_requests >= 4
        assert stats.lane_reuses >= 3
        assert 0 < stats.lane_hit_rate <= 1
        assert stats.lane_words_allocated >= g.num_vertices

    def test_acquire_release_roundtrip(self):
        ws = Workspace(10)
        lanes = ws.acquire_lanes(2)
        assert lanes.shape == (10, 2)
        lanes[3, 1] = np.uint64(5)
        ws.release_lanes(lanes)
        again = ws.acquire_lanes(2)
        assert again is lanes
        assert not again.any()  # re-zeroed on reuse

    def test_bad_width_rejected(self):
        ws = Workspace(4)
        with pytest.raises(AlgorithmError):
            ws.acquire_lanes(0)


class TestGatherSaving:
    def test_powerlaw_spectrum_gather_passes(self):
        # The acceptance benchmark in miniature: batching the spectrum's
        # traversals 64 to a sweep must cut the number of edge-gather
        # passes (level-synchronous sweeps) at least 4x on a power-law
        # graph.
        g = barabasi_albert(400, 2, seed=8)
        scalar = eccentricity_spectrum(g)
        lanes = eccentricity_spectrum(g, batch_lanes=64)
        np.testing.assert_array_equal(scalar.eccentricities, lanes.eccentricities)
        assert scalar.sweeps >= 4 * lanes.sweeps
        assert scalar.edges_examined > lanes.edges_examined
