"""End-to-end prep pipeline: spec grammar, planner, and equivalence.

The contract under test is the acceptance criterion: for every graph
family, ``fdiam(graph, FDiamConfig(prep=...))`` returns the identical
diameter and infinity convention as the plain path, for every prep
spec the grammar accepts.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.config import FDiamConfig
from repro.core.fdiam import fdiam
from repro.errors import AlgorithmError
from repro.core import chain
from repro.generators import (
    add_isolated_vertices,
    add_tendrils,
    balanced_tree,
    barabasi_albert,
    barbell,
    caterpillar,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from repro.generators.grid import grid_2d
from repro.generators.kronecker import kronecker
from repro.generators.rmat import rmat
from repro.generators.road import road_network
from repro.parallel.costmodel import CostModelParams, LevelSynchronousCostModel
from repro.prep import PrepSpec, plan_component, preprocess

from conftest import random_gnp

SPECS = (
    "off",
    "auto",
    "peel",
    "collapse",
    "reorder=degree",
    "reorder=bfs",
    "reorder=rcm",
    "peel,collapse",
    "peel,collapse,reorder,plan",
)


def family_graphs():
    yield path_graph(50)
    yield star_graph(24)
    yield cycle_graph(15)
    yield complete_graph(6)
    yield balanced_tree(2, 5)
    yield caterpillar(10, 3)
    yield barbell(5, 7)
    yield grid_2d(8, 9)
    yield rmat(8, edge_factor=4, seed=6)
    yield kronecker(7, edge_factor=5, seed=2)
    yield road_network(12, 12, seed=3)
    yield random_gnp(70, 0.05, seed=8)[0]
    # Disconnected inputs: multiple nontrivial components + isolates.
    yield disjoint_union([cycle_graph(9), path_graph(14)])
    yield add_isolated_vertices(star_graph(10), 5)


class TestSpecGrammar:
    def test_off_variants(self):
        for text in (None, "", "off", "none", "  OFF  "):
            spec = PrepSpec.parse(text)
            assert not spec.enabled
            assert spec.tokens == ()

    def test_auto_expands_to_everything(self):
        spec = PrepSpec.parse("auto")
        assert spec == PrepSpec(peel=True, collapse=True, reorder="auto", plan=True)

    def test_comma_list_and_aliases(self):
        spec = PrepSpec.parse("peel, mirror, components")
        assert spec.peel and spec.collapse and spec.plan
        assert spec.reorder == "off"
        assert PrepSpec.parse("reorder").reorder == "auto"
        assert PrepSpec.parse("reorder=rcm").reorder == "rcm"

    def test_tokens_round_trip(self):
        for text in SPECS:
            spec = PrepSpec.parse(text)
            assert PrepSpec.parse(",".join(spec.tokens)) == spec

    @pytest.mark.parametrize("junk", ["bogus", "reorder=hilbert", "peel,xyz"])
    def test_junk_rejected(self, junk):
        with pytest.raises(AlgorithmError):
            PrepSpec.parse(junk)


def _record_tip_sweeps(monkeypatch) -> list[int]:
    """Record the tip count of every chain-tip lane batch F-Diam runs."""
    swept: list[int] = []
    original = chain.batch_tip_eccentricities

    def record(state, tips):
        swept.append(len(tips))
        return original(state, tips)

    monkeypatch.setattr(chain, "batch_tip_eccentricities", record)
    return swept


class TestPlanner:
    def test_low_diameter_component_gets_tip_batch(self, monkeypatch):
        # Hub-heavy with a short bound: the planner picks degree order,
        # and the component's run sweeps its chain tips in lanes under
        # the same ecc_lanes rule as a plain run.
        graph = add_tendrils(barabasi_albert(2000, 3, seed=4), 12, 3, 7, seed=4)
        plan = plan_component(graph, spec=PrepSpec.parse("auto"))
        assert plan.reorder == "degree"  # hub skew picks degree order
        swept = _record_tip_sweeps(monkeypatch)
        prepped = fdiam(graph, FDiamConfig(prep="auto"))
        assert swept and min(swept) >= 8
        assert prepped.diameter == fdiam(graph, FDiamConfig(ecc_lanes="off")).diameter

    def test_high_diameter_component_stays_scalar(self, monkeypatch):
        # A road mesh with tendrils: low skew, so the tips and the main
        # loop both stay scalar.
        graph = add_tendrils(road_network(30, 30, seed=2), 12, 3, 7, seed=4)
        plan = plan_component(graph, spec=PrepSpec.parse("auto"))
        assert plan.reorder == "bfs"  # low skew picks BFS level order
        swept = _record_tip_sweeps(monkeypatch)
        prepped = fdiam(graph, FDiamConfig(prep="auto"))
        assert swept == []
        assert prepped.stats.ecc_sweeps == 0

    def test_without_plan_stage_nothing_is_second_guessed(self):
        graph = path_graph(3000)
        plan = plan_component(graph, spec=PrepSpec.parse("reorder=rcm"))
        assert plan.reorder == "rcm"

    def test_model_threshold_is_respected(self):
        # With a hub skew of 1 the same path counts as hub-heavy.
        graph = path_graph(3000)
        model = LevelSynchronousCostModel(CostModelParams(hub_skew=1.0))
        plan = plan_component(graph, spec=PrepSpec.parse("auto"), model=model)
        assert plan.reorder == "degree"


class TestEquivalence:
    @pytest.mark.parametrize("spec", SPECS)
    def test_every_family_every_spec(self, spec):
        for graph in family_graphs():
            plain = fdiam(graph)
            prepped = fdiam(graph, FDiamConfig(prep=spec))
            assert prepped.diameter == plain.diameter, (graph.name, spec)
            assert prepped.connected == plain.connected, (graph.name, spec)
            assert prepped.infinite == plain.infinite, (graph.name, spec)

    def test_forced_tip_batch_matches(self):
        # The chain-tip lane batch (normally gated by the ecc_lanes
        # rule) must be exact wherever it is forced on.
        for graph in family_graphs():
            plain = fdiam(graph, FDiamConfig(ecc_lanes="off"))
            forced = fdiam(graph, FDiamConfig(ecc_lanes="on"))
            assert forced.diameter == plain.diameter, graph.name
            assert forced.infinite == plain.infinite, graph.name

    def test_disconnected_keeps_infinity_convention(self):
        graph = disjoint_union([cycle_graph(8), star_graph(6)])
        res = fdiam(graph, FDiamConfig(prep="auto"))
        assert res.infinite and not res.connected
        assert res.diameter == 4  # largest component eccentricity

    def test_single_vertex_graph(self):
        graph = add_isolated_vertices(path_graph(1), 0)
        res = fdiam(graph, FDiamConfig(prep="auto"))
        assert res.diameter == 0 and res.connected


class TestPrepStats:
    def test_counters_populated_on_explicit_stages(self):
        # An explicit stage list without "plan" bypasses the payoff
        # gate (a command, not a suggestion) and exercises every
        # counter on the road analog.
        graph = road_network(12, 12, seed=3)
        res = fdiam(graph, FDiamConfig(prep="peel,collapse,reorder"))
        prep = res.stats.prep
        assert prep is not None
        assert prep.stages == ("peel", "collapse", "reorder=auto")
        assert prep.stages_gated == ()
        assert prep.components_solved >= 1
        assert prep.vertices_removed > 0  # road analog has pendant chains
        assert sum(prep.reorder_strategies.values()) == prep.components_solved
        assert prep.edge_span_after <= prep.edge_span_before

    def test_skipped_components_counted(self):
        graph = disjoint_union([grid_2d(8, 8), complete_graph(3)])
        res = fdiam(graph, FDiamConfig(prep="peel,collapse,reorder"))
        prep = res.stats.prep
        # The K3 (diameter <= 2) can never beat the grid's diameter.
        assert prep.components_skipped >= 1

    def test_gate_vetoes_all_stages_on_structureless_graph(self):
        # A mesh has no pendant trees, no mirror classes, and fits in
        # cache, so under "plan" the payoff gate withholds every
        # structural stage — and the result must still be exact.
        graph = grid_2d(8, 8)
        res = fdiam(graph, FDiamConfig(prep="auto"))
        prep = res.stats.prep
        assert prep.stages_gated == ("peel", "collapse", "reorder")
        assert prep.vertices_removed == 0
        assert res.diameter == fdiam(graph).diameter

    def test_gate_keeps_peel_on_pendant_rich_graph(self):
        from repro.prep.pipeline import gate_spec

        graph = caterpillar(10, 3)  # 3 of every 4 vertices are pendant
        spec, gated = gate_spec(graph, PrepSpec.parse("auto"))
        assert spec.peel
        assert "peel" not in gated

    def test_gate_is_a_noop_without_plan(self):
        from repro.prep.pipeline import gate_spec

        spec = PrepSpec.parse("peel,collapse,reorder")
        assert gate_spec(grid_2d(8, 8), spec) == (spec, ())

    def test_preprocess_alone_is_consistent(self):
        graph = caterpillar(10, 3)
        prepared = preprocess(graph, PrepSpec.parse("peel,collapse"))
        assert prepared.graph.num_vertices < graph.num_vertices
        assert prepared.stats.vertices_removed == (
            prepared.stats.peel_vertices_removed
            + prepared.stats.mirror_vertices_removed
        )


class TestCLISmoke:
    def test_prep_flag_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        G = nx.grid_2d_graph(6, 6)
        G = nx.convert_node_labels_to_integers(G)
        path = tmp_path / "grid.el"
        path.write_text("".join(f"{u} {v}\n" for u, v in G.edges()))
        assert main([str(path), "--prep=auto", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "diameter : 10" in out
        assert "prep stages    : peel, collapse, reorder=auto, plan" in out

    def test_bad_prep_spec_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.el"
        path.write_text("0 1\n1 2\n")
        assert main([str(path), "--prep=bogus"]) == 1
        assert "unknown prep stage" in capsys.readouterr().err
