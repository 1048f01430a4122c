"""Tests for the invariant oracle and the deliberate fault injectors.

The oracle is only worth its weight if (a) it stays silent on correct
runs across every configuration, and (b) it demonstrably fires on the
realistic off-by-one faults in :mod:`repro.verify.faults`. Both halves
are exercised here on seeded fuzz-family graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FDiamConfig, fdiam
from repro.errors import AlgorithmError, InvariantViolation
from repro.generators.registry import build_fuzz_graph
from repro.graph import from_edges
from repro.verify import InvariantOracle, available_faults, inject_fault

CONFIGS = [
    FDiamConfig(verify=True),
    FDiamConfig(verify=True, engine="serial"),
    FDiamConfig(verify=True, prep="auto"),
    FDiamConfig(verify=True, use_winnow=False),
    FDiamConfig(verify=True, use_eliminate=False),
    FDiamConfig(verify=True, use_chain=False),
    FDiamConfig(verify=True, chain_tip_batch=True),
]


class TestOracleCleanRuns:
    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_silent_on_fuzz_graphs(self, seed):
        graph, _family = build_fuzz_graph(seed, max_vertices=48)
        want = None
        for config in CONFIGS:
            result = fdiam(graph, config)
            if want is None:
                want = (result.diameter, result.infinite)
            assert (result.diameter, result.infinite) == want

    def test_silent_on_paper_graphs(self, tiny_graph, paper_fig2_graph):
        assert fdiam(tiny_graph, FDiamConfig(verify=True)).diameter == 2
        for graph in (tiny_graph, paper_fig2_graph):
            verified = fdiam(graph, FDiamConfig(verify=True))
            plain = fdiam(graph, FDiamConfig())
            assert verified.diameter == plain.diameter

    def test_oracle_attached_only_when_asked(self, tiny_graph):
        from repro.core.state import FDiamState

        assert FDiamState(tiny_graph, FDiamConfig()).oracle is None
        assert (
            FDiamState(tiny_graph, FDiamConfig(verify=True)).oracle is not None
        )


class TestOracleChecks:
    def test_final_diameter_mismatch_detected(self):
        from types import SimpleNamespace

        graph = from_edges([(0, 1), (1, 2), (2, 3)], name="p4")
        oracle = InvariantOracle(graph)
        with pytest.raises(InvariantViolation):
            # An impossible lower bound: true diameter is 3.
            oracle.check_bound(SimpleNamespace(bound=5), "test")

    def test_truth_table(self):
        graph = from_edges([(0, 1), (1, 2), (2, 3)], name="p4")
        oracle = InvariantOracle(graph)
        assert oracle.true_diameter == 3
        np.testing.assert_array_equal(oracle.true_ecc, [3, 2, 2, 3])
        assert oracle.connected

    def test_disconnected_truth(self):
        graph = from_edges([(0, 1)], num_vertices=4, name="pair+iso")
        oracle = InvariantOracle(graph)
        assert not oracle.connected
        assert oracle.true_diameter == 1  # largest-component convention


class TestFaultInjection:
    def test_faults_are_listed(self):
        names = available_faults()
        assert "eliminate-off-by-one" in names
        assert "winnow-overgrow" in names

    def test_unknown_fault_rejected(self):
        with pytest.raises(AlgorithmError):
            with inject_fault("no-such-fault"):
                pass

    @pytest.mark.parametrize("fault", sorted(available_faults("static")))
    def test_fault_is_caught_by_oracle(self, fault):
        # Static faults only: dynamic repair-rule faults never touch a
        # plain fdiam run — test_verify_mutation covers them.
        caught = 0
        with inject_fault(fault):
            for seed in range(40):
                graph, _ = build_fuzz_graph(seed, max_vertices=48)
                try:
                    fdiam(graph, FDiamConfig(verify=True))
                except InvariantViolation:
                    caught += 1
        assert caught > 0, f"{fault} never triggered the oracle in 40 seeds"

    def test_fault_restored_after_block(self):
        graph, _ = build_fuzz_graph(1, max_vertices=48)
        with inject_fault("eliminate-off-by-one"):
            pass
        # Outside the block every configuration is clean again.
        fdiam(graph, FDiamConfig(verify=True))

    def test_fault_restored_after_raise(self):
        with pytest.raises(RuntimeError):
            with inject_fault("winnow-overgrow"):
                raise RuntimeError("boom")
        graph, _ = build_fuzz_graph(2, max_vertices=48)
        fdiam(graph, FDiamConfig(verify=True))
