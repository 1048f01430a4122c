"""Tests for the differential trial runner and metamorphic relations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators.registry import FUZZ_FAMILIES, build_fuzz_graph
from repro.graph import from_edges
from repro.verify import (
    CONFIG_LATTICE,
    inject_fault,
    reference_eccentricities,
    run_trial,
)
from repro.verify.metamorphic import (
    check_disjoint_union,
    check_edge_addition_monotone,
    check_relabel_invariance,
)


class TestTrialCleanliness:
    @pytest.mark.parametrize("seed", range(0, 24, 2))
    def test_fuzz_seeds_agree_everywhere(self, seed):
        graph, _family = build_fuzz_graph(seed, max_vertices=40)
        disagreements = run_trial(graph, np.random.default_rng(seed))
        assert disagreements == [], [str(d) for d in disagreements]

    def test_disconnected_input_path(self):
        """Components of different diameters plus an isolated vertex."""
        graph = from_edges(
            [(0, 1), (1, 2), (2, 3), (4, 5)], num_vertices=7, name="disco"
        )
        disagreements = run_trial(graph, np.random.default_rng(0))
        assert disagreements == [], [str(d) for d in disagreements]

    def test_trivial_graphs(self):
        for n in (0, 1, 2):
            graph = from_edges([], num_vertices=n, name=f"empty{n}")
            disagreements = run_trial(graph, np.random.default_rng(n))
            assert disagreements == [], [str(d) for d in disagreements]

    def test_lattice_covers_every_axis(self):
        labels = {label for label, _config in CONFIG_LATTICE}
        # Engines, lanes, order, and each ablation must all appear.
        for expected in (
            "fdiam/par",
            "fdiam/ser",
            "fdiam/ecc-lanes",
            "fdiam/random-order",
            "fdiam/no-winnow",
            "fdiam/no-elim",
            "fdiam/no-chain",
        ):
            assert expected in labels
        configs = [config for _label, config in CONFIG_LATTICE]
        assert any(not c.use_winnow for c in configs)
        assert any(c.ecc_lanes == "on" for c in configs)
        assert {c.engine for c in configs} == {"parallel", "serial"}

    def test_trial_detects_injected_fault(self):
        # A trial (not just a bare fdiam call) must surface the fault
        # as labeled disagreements rather than crash.
        with inject_fault("eliminate-off-by-one"):
            found = []
            for seed in range(20):
                graph, _ = build_fuzz_graph(seed, max_vertices=48)
                found = run_trial(graph, np.random.default_rng(seed))
                if found:
                    break
        assert found, "no trial surfaced the injected fault"
        assert any("InvariantViolation" in d.message for d in found)

    def test_lone_queries_catch_a_wrong_row(self):
        # The mixed query batch never forms a one-source chunk; the
        # trial's lone dist/ecc batches must still reach that path.
        graph, _ = build_fuzz_graph(5, max_vertices=40)
        with inject_fault("row-off-by-one"):
            found = run_trial(graph, np.random.default_rng(5), metamorphic=False)
        labels = {d.label for d in found}
        assert "query/ecc" in labels, [str(d) for d in found]
        assert not labels - {"query/dist", "query/ecc"}

    def test_reference_eccentricities(self):
        graph = from_edges([(0, 1), (1, 2)], name="p3")
        np.testing.assert_array_equal(
            reference_eccentricities(graph), [2, 1, 2]
        )


class TestMetamorphic:
    @pytest.mark.parametrize("seed", range(6))
    def test_relations_hold_on_fuzz_graphs(self, seed):
        graph, _ = build_fuzz_graph(seed + 100, max_vertices=32)
        rng = np.random.default_rng(seed)
        for check in (
            check_relabel_invariance,
            check_edge_addition_monotone,
            check_disjoint_union,
        ):
            found = check(graph, rng)
            assert found == [], [str(d) for d in found]

    def test_union_flags_infinite(self):
        graph = from_edges([(0, 1), (1, 2)], name="p3")
        found = check_disjoint_union(graph, np.random.default_rng(3))
        assert found == []


class TestFuzzFamilies:
    def test_families_deterministic(self):
        for seed in range(25):
            a, fam_a = build_fuzz_graph(seed)
            b, fam_b = build_fuzz_graph(seed)
            assert fam_a == fam_b
            assert a.num_vertices == b.num_vertices
            np.testing.assert_array_equal(a.indptr, b.indptr)
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_every_family_reachable(self):
        seen = set()
        for seed in range(400):
            _, family = build_fuzz_graph(seed)
            seen.add(family)
            if seen == set(FUZZ_FAMILIES):
                break
        assert seen == set(FUZZ_FAMILIES)

    def test_size_cap_respected(self):
        for seed in range(50):
            graph, _ = build_fuzz_graph(seed, max_vertices=24)
            # +3 covers the optional isolated-vertex decoration.
            assert graph.num_vertices <= 24 + 3
