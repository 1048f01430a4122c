"""Unit tests for FDiamStats, StageTimes, Reason, and FDiamConfig."""

import time

import numpy as np
import pytest

from repro.core import ABLATIONS, FDiamConfig, FDiamStats, Reason, StageTimes


class TestStageTimes:
    def test_total_and_fractions(self):
        t = StageTimes(init_bfs=1.0, winnow=0.5, ecc_bfs=2.5)
        assert t.total() == pytest.approx(4.0)
        fr = t.fractions()
        assert fr["init_bfs"] == pytest.approx(0.25)
        assert fr["ecc_bfs"] == pytest.approx(0.625)
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_zero_total(self):
        fr = StageTimes().fractions()
        assert all(v == 0.0 for v in fr.values())


class TestFDiamStats:
    def test_bfs_traversal_convention(self):
        s = FDiamStats()
        s.eccentricity_bfs = 5
        s.winnow_calls = 2
        s.eliminate_calls = 100  # excluded per the paper's Table 3 rule
        assert s.bfs_traversals == 7

    def test_removal_fractions_normalized(self):
        s = FDiamStats(num_vertices=10)
        s.removed_by[Reason.WINNOW] = 7
        s.removed_by[Reason.COMPUTED] = 3
        fr = s.removal_fractions()
        assert fr["winnow"] == pytest.approx(0.7)
        assert fr["computed"] == pytest.approx(0.3)

    def test_empty_graph_fractions_safe(self):
        fr = FDiamStats(num_vertices=0).removal_fractions()
        assert all(v == 0.0 for v in fr.values())

    def test_timing_context_accumulates(self):
        s = FDiamStats()
        with s.timing("winnow"):
            time.sleep(0.01)
        with s.timing("winnow"):
            time.sleep(0.01)
        assert s.times.winnow >= 0.02

    def test_timing_survives_exception(self):
        s = FDiamStats()
        with pytest.raises(ValueError):
            with s.timing("other"):
                raise ValueError
        assert s.times.other > 0

    def test_merge_keeps_every_workspace_field(self):
        from dataclasses import fields

        from repro.bfs.kernel import WorkspaceStats

        names = [f.name for f in fields(WorkspaceStats)]
        parts = []
        for base in (1, 10):
            ws = WorkspaceStats(**{n: base + i for i, n in enumerate(names)})
            parts.append(FDiamStats(workspace=ws))
        total = FDiamStats()
        for part in parts:
            total.merge_from(part)
        high_water = {"peak_scratch_bytes", "owned_bytes", "shm_bytes"}
        for i, name in enumerate(names):
            got = getattr(total.workspace, name)
            want = 10 + i if name in high_water else (1 + i) + (10 + i)
            assert got == want, name


class TestFDiamConfig:
    def test_defaults_are_full_algorithm(self):
        c = FDiamConfig()
        assert c.use_winnow and c.use_eliminate and c.use_chain
        assert c.use_max_degree_start
        assert c.engine == "parallel"
        assert c.order == "sequential"

    def test_ablate_returns_modified_copy(self):
        c = FDiamConfig()
        c2 = c.ablate(use_winnow=False, engine="serial")
        assert not c2.use_winnow and c2.engine == "serial"
        assert c.use_winnow  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            FDiamConfig().engine = "serial"

    def test_ablation_registry_matches_paper(self):
        assert set(ABLATIONS) == {"F-Diam", "no Winnow", "no Elim.", "no 'u'"}
        assert not ABLATIONS["no Winnow"].use_winnow
        assert not ABLATIONS["no Elim."].use_eliminate
        assert not ABLATIONS["no 'u'"].use_max_degree_start


class TestReason:
    def test_distinct_values(self):
        values = [r.value for r in Reason]
        assert len(values) == len(set(values))

    def test_active_is_zero(self):
        assert Reason.ACTIVE == 0

    def test_array_indexing(self):
        arr = np.zeros(len(Reason))
        arr[Reason.CHAIN] = 1
        assert arr[Reason.CHAIN] == 1
