"""The reductions F-Diam no longer calls, and the per-run planning it keeps.

The contract under test: for every graph family and every spec the
grammar accepts, plain F-Diam on :func:`preprocess`'s reduced graph,
combined with the recorded correction, returns the identical diameter
and infinity convention as plain F-Diam on the input.
"""

from __future__ import annotations

import numpy as np
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
from repro.graph.components import connected_components
from repro.parallel.costmodel import CostModelParams, LevelSynchronousCostModel
from repro.prep import ORDER_STRATEGIES, PrepSpec, apply_order, collapse_mirrors, preprocess

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


def reduced_diameter(graph, text: str) -> tuple[int, bool]:
    """Diameter and connectivity of ``graph`` read off its reduced form.

    Per DESIGN.md §9.2–9.3 the diameter is the larger of the reduced
    graph's and the recorded correction, and the components are the
    reduced graph's plus the tree components the peel absorbed. A
    reorder stage only permutes vertex ids, so it is applied here.
    """
    spec = PrepSpec.parse(text)
    prepared = preprocess(graph, spec)
    work = prepared.graph
    diameter, components = prepared.correction, prepared.removed_components
    if work.num_vertices:
        if spec.reorder != "off":
            strategy = "bfs" if spec.reorder == "auto" else spec.reorder
            work = apply_order(work, ORDER_STRATEGIES[strategy](work)).graph
        diameter = max(diameter, fdiam(work).diameter)
        components += connected_components(work).num_components
    return diameter, components == 1


def gates_for(graph):
    """The cost model's reduction verdicts, fed from ``graph`` itself."""
    return LevelSynchronousCostModel().reduction_gates(
        num_vertices=graph.num_vertices,
        num_directed_edges=graph.num_directed_edges,
        deg1_count=int(np.count_nonzero(graph.degrees == 1)),
        graph_bytes=graph.memory_bytes(),
        mirror_candidates=lambda: collapse_mirrors(graph).vertices_removed,
    )


def _record_tip_sweeps(monkeypatch) -> list[int]:
    """Record the tip count of every chain-tip lane batch F-Diam runs."""
    swept: list[int] = []
    original = chain.batch_tip_eccentricities

    def record(state, tips):
        swept.append(len(tips))
        return original(state, tips)

    monkeypatch.setattr(chain, "batch_tip_eccentricities", record)
    return swept


def _hub_heavy(graph, model=None) -> bool:
    model = model or LevelSynchronousCostModel()
    return model.hub_heavy(graph.num_vertices, graph.num_directed_edges, graph.max_degree())


class TestPlanner:
    """The per-run planning F-Diam keeps: the skew test and the lane rule."""

    def test_low_diameter_component_gets_tip_batch(self, monkeypatch):
        # Hub-heavy with a short bound: the run sweeps its chain tips in
        # lanes under the ecc_lanes rule.
        graph = add_tendrils(barabasi_albert(2000, 3, seed=4), 12, 3, 7, seed=4)
        assert _hub_heavy(graph)
        swept = _record_tip_sweeps(monkeypatch)
        result = fdiam(graph)
        assert swept and min(swept) >= 8
        assert result.diameter == fdiam(graph, FDiamConfig(ecc_lanes="off")).diameter

    def test_high_diameter_component_stays_scalar(self, monkeypatch):
        # A road mesh with tendrils: low skew, so the tips and the main
        # loop both stay scalar.
        graph = add_tendrils(road_network(30, 30, seed=2), 12, 3, 7, seed=4)
        assert not _hub_heavy(graph)
        swept = _record_tip_sweeps(monkeypatch)
        result = fdiam(graph)
        assert swept == []
        assert result.stats.ecc_sweeps == 0

    def test_model_threshold_is_respected(self):
        # With a hub skew of 1 the same path counts as hub-heavy.
        graph = path_graph(3000)
        assert not _hub_heavy(graph)
        model = LevelSynchronousCostModel(CostModelParams(hub_skew=1.0))
        assert _hub_heavy(graph, model)


class TestEquivalence:
    @pytest.mark.parametrize("spec", SPECS)
    def test_every_family_every_spec(self, spec):
        for graph in family_graphs():
            plain = fdiam(graph)
            assert reduced_diameter(graph, spec) == (plain.diameter, plain.connected), (
                graph.name,
                spec,
            )

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
        # The star is absorbed whole; the cycle's diameter dominates.
        assert reduced_diameter(graph, "auto") == (4, False)

    def test_single_vertex_graph(self):
        graph = add_isolated_vertices(path_graph(1), 0)
        assert reduced_diameter(graph, "auto") == (0, True)


class TestPrepStats:
    def test_counters_populated_on_explicit_stages(self):
        graph = road_network(12, 12, seed=3)
        prepared = preprocess(graph, PrepSpec.parse("peel,collapse,reorder"))
        stats = prepared.stats
        assert stats.stages == ("peel", "collapse", "reorder=auto")
        assert stats.vertices_removed > 0  # road analog has pendant chains
        assert stats.peel_anchors > 0
        assert prepared.graph.num_vertices < graph.num_vertices

    def test_gate_vetoes_all_stages_on_structureless_graph(self):
        # A mesh has no pendant trees, no mirror classes, and fits in
        # cache, so the payoff gate withholds every structural stage.
        assert gates_for(grid_2d(8, 8)).gated == ("peel", "collapse", "reorder")

    def test_gate_keeps_peel_on_pendant_rich_graph(self):
        graph = caterpillar(10, 3)  # 3 of every 4 vertices are pendant
        gates = gates_for(graph)
        assert gates.peel
        assert "peel" not in gates.gated

    def test_preprocess_alone_is_consistent(self):
        graph = caterpillar(10, 3)
        prepared = preprocess(graph, PrepSpec.parse("peel,collapse"))
        assert prepared.graph.num_vertices < graph.num_vertices
        assert prepared.stats.vertices_removed == (
            prepared.stats.peel_vertices_removed
            + prepared.stats.mirror_vertices_removed
        )


class TestCLISmoke:
    def test_bad_prep_spec_is_an_error(self, tmp_path, capsys):
        # F-Diam takes no prep spec any more: argparse rejects the flag.
        from repro.cli import main

        path = tmp_path / "p.el"
        path.write_text("0 1\n1 2\n")
        with pytest.raises(SystemExit) as exc:
            main([str(path), "--prep=auto"])
        assert exc.value.code == 2
        assert "--prep" in capsys.readouterr().err
