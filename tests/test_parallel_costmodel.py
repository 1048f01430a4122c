"""Tests for the level-synchronous parallel cost model."""

import pytest

from repro.bfs import BFSTrace, Direction
from repro.errors import AlgorithmError
from repro.parallel import CostModelParams, LevelSynchronousCostModel


def trace_of(levels):
    """Build a BFSTrace from (frontier_size, edges) pairs."""
    t = BFSTrace(source=0)
    for f, e in levels:
        t.record(f, e, Direction.TOP_DOWN, f)
    return t


class TestLevelTime:
    def test_monotone_in_threads_until_ceiling(self):
        model = LevelSynchronousCostModel()
        big = trace_of([(10_000, 500_000)])
        times = [model.trace_time(big, t) for t in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)

    def test_bandwidth_ceiling(self):
        params = CostModelParams(bandwidth_threads=4.0, barrier_base=0.0)
        model = LevelSynchronousCostModel(params)
        big = trace_of([(100_000, 5_000_000)])
        t4 = model.trace_time(big, 4)
        t64 = model.trace_time(big, 64)
        assert t64 == pytest.approx(t4)

    def test_small_frontier_limits_parallelism(self):
        params = CostModelParams(chunk_size=64, barrier_base=0.0)
        model = LevelSynchronousCostModel(params)
        # A 10-vertex frontier fits in one chunk: 1 thread's worth of work.
        small = trace_of([(10, 1_000)])
        assert model.trace_time(small, 32) == pytest.approx(
            model.trace_time(small, 1)
        )

    def test_barriers_penalize_high_thread_counts(self):
        params = CostModelParams(barrier_base=1e-3)
        model = LevelSynchronousCostModel(params)
        # Many tiny levels (a road network): barrier cost dominates.
        road = trace_of([(4, 12)] * 500)
        assert model.trace_time(road, 64) > model.trace_time(road, 1)

    def test_invalid_thread_count(self):
        with pytest.raises(AlgorithmError):
            LevelSynchronousCostModel().level_time(1, 1, 0)

    def test_invalid_params(self):
        with pytest.raises(AlgorithmError):
            CostModelParams(edge_rate=0)


class TestSpeedupShape:
    """The paper's Figure 7 shape: speedup grows with threads, is larger
    for big-frontier (power-law) traces than for high-diameter traces,
    and saturates past the bandwidth ceiling."""

    def test_powerlaw_scales_better_than_road(self):
        model = LevelSynchronousCostModel()
        powerlaw = [trace_of([(1, 50), (500, 80_000), (20_000, 400_000), (5_000, 60_000)])]
        road = [trace_of([(3, 8)] * 800)]
        assert model.speedup(powerlaw, 16) > model.speedup(road, 16)

    def test_speedup_saturates(self):
        model = LevelSynchronousCostModel()
        traces = [trace_of([(2_000, 60_000)] * 10)]
        s32 = model.speedup(traces, 32)
        s64 = model.speedup(traces, 64)
        assert s64 <= s32 * 1.05  # flat (or slightly worse via barriers)

    def test_one_thread_speedup_is_one(self):
        model = LevelSynchronousCostModel()
        traces = [trace_of([(10, 100)])]
        assert model.speedup(traces, 1) == pytest.approx(1.0)


class TestMemoryModeVerdict:
    def test_no_budget_decodes(self):
        model = LevelSynchronousCostModel()
        mode, reason = model.choose_memory_mode(
            decoded_bytes=1 << 30, budget_bytes=None
        )
        assert mode == "decode"
        assert "no memory budget" in reason

    def test_ample_budget_decodes(self):
        # 1.5x headroom: the image plus its decode transient must fit.
        model = LevelSynchronousCostModel()
        mode, _ = model.choose_memory_mode(
            decoded_bytes=1000, budget_bytes=1500
        )
        assert mode == "decode"
        mode, _ = model.choose_memory_mode(
            decoded_bytes=1000, budget_bytes=1499
        )
        assert mode != "decode"

    def test_mid_budget_caches(self):
        model = LevelSynchronousCostModel()
        mode, reason = model.choose_memory_mode(
            decoded_bytes=1 << 20, budget_bytes=1 << 18
        )
        assert mode == "cached"
        assert "block cache" in reason

    def test_starved_budget_streams(self):
        # Below cache_min_fraction (1/16384) of the image, a cache is
        # all misses: stream instead.
        model = LevelSynchronousCostModel()
        decoded = 1 << 30
        mode, _ = model.choose_memory_mode(
            decoded_bytes=decoded, budget_bytes=decoded // 32768
        )
        assert mode == "stream"
        mode, _ = model.choose_memory_mode(
            decoded_bytes=decoded, budget_bytes=decoded // 16384
        )
        assert mode == "cached"

    def test_boundary_params_respected(self):
        params = CostModelParams(decode_headroom=2.0, cache_min_fraction=0.5)
        model = LevelSynchronousCostModel(params)
        assert model.choose_memory_mode(
            decoded_bytes=100, budget_bytes=199
        )[0] == "cached"
        assert model.choose_memory_mode(
            decoded_bytes=100, budget_bytes=49
        )[0] == "stream"
