"""Tests for the thread-scaling study (Figure 7 machinery)."""

import pytest

from repro.errors import AlgorithmError
from repro.generators import grid_2d, watts_strogatz
from repro.parallel import PAPER_THREAD_COUNTS, ScalingStudy


class TestScalingStudy:
    def test_run_input_produces_all_thread_counts(self):
        study = ScalingStudy()
        points = study.run_input(watts_strogatz(400, 6, 0.1, seed=3))
        assert [p.num_threads for p in points] == list(PAPER_THREAD_COUNTS)
        assert all(p.modeled_seconds > 0 for p in points)

    def test_hub_heavy_input_models_every_paper_bfs(self):
        # The default config batches main-loop eccentricities on
        # hub-heavy graphs, and lane sweeps leave no traces: the study
        # must trace the paper's one-BFS-at-a-time loop instead.
        from repro.core import FDiamConfig, fdiam
        from repro.generators import barabasi_albert
        from repro.parallel import LevelSynchronousCostModel

        g = barabasi_albert(2000, 3, seed=1)
        study = ScalingStudy()
        points = study.run_input(g)
        paper = fdiam(g, FDiamConfig(keep_traces=True, ecc_lanes="off")).stats
        assert len(paper.traces) == paper.eccentricity_bfs
        model = LevelSynchronousCostModel(study.params)
        assert points[0].modeled_seconds == pytest.approx(
            model.run_time(paper.traces, points[0].num_threads)
        )

    def test_speedup_monotone_to_core_count(self):
        # A graph with substantial per-level work (the regime the model
        # is calibrated for; tiny toy graphs are barrier-dominated).
        study = ScalingStudy()
        study.run_input(watts_strogatz(4000, 16, 0.2, seed=4))
        speed = study.geomean_speedup()
        assert speed[1] == pytest.approx(1.0)
        assert speed[2] > speed[1]
        assert speed[32] > speed[2]

    def test_throughput_geomean_over_inputs(self):
        study = ScalingStudy()
        study.run_input(grid_2d(60, 60))
        study.run_input(watts_strogatz(3000, 10, 0.2, seed=5))
        geo = study.geomean_throughput()
        assert set(geo) == set(PAPER_THREAD_COUNTS)
        assert geo[32] > geo[1]

    def test_figure7_shape_saturates_past_bandwidth(self):
        study = ScalingStudy()
        study.run_input(watts_strogatz(800, 8, 0.3, seed=6))
        geo = study.geomean_throughput()
        # Past the modeled bandwidth ceiling (14 threads) the gain from
        # 32 -> 64 must be marginal.
        assert geo[64] <= geo[32] * 1.1

    def test_trivial_graph_rejected(self):
        from repro.graph import empty_graph

        study = ScalingStudy()
        with pytest.raises(AlgorithmError):
            study.run_input(empty_graph(0))

    def test_run_input_accepts_config(self):
        # keep_traces is forced on even when the caller's config left it
        # off, so any parallel-engine config models cleanly.
        from repro.core.config import FDiamConfig

        study = ScalingStudy()
        points = study.run_input(
            watts_strogatz(400, 6, 0.1, seed=3),
            FDiamConfig(engine="parallel", use_eliminate=False),
        )
        assert [p.num_threads for p in points] == list(PAPER_THREAD_COUNTS)

    def test_empty_trace_error_names_engine(self):
        # Only the parallel engine records per-level traces; asking the
        # study to model any other engine must say which engine failed
        # instead of silently assuming engine="parallel".
        from repro.core.config import FDiamConfig

        study = ScalingStudy()
        with pytest.raises(AlgorithmError, match="engine 'serial'"):
            study.run_input(
                watts_strogatz(400, 6, 0.1, seed=3), FDiamConfig(engine="serial")
            )
