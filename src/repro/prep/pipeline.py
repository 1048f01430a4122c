"""The prep pipeline driver: peel → collapse → split → reorder → plan.

:func:`fdiam_prepped` is what :func:`repro.core.fdiam.fdiam` routes
through when ``config.prep`` enables any stage. The contract is exact
equality with the plain path:

* ``diameter`` — identical, by the peel lemma (DESIGN.md §9.2), the
  mirror eccentricity equality (§9.3), and the fact that the largest
  eccentricity over a disconnected graph is the max over its
  components' diameters.
* ``connected`` / ``infinite`` — identical: peeling and collapsing
  never change the number of connected components (a pendant tree
  stays attached through its anchor's spine; a collapsed mirror class
  keeps a representative), so components of the original = components
  of the reduced graph + whole tree components the peel absorbed.

Per component the planner may reorder vertices (locality only;
diameters are permutation-invariant); components too small to beat the
running bound are skipped outright (a component of ``s`` vertices has
diameter at most ``s - 1``). Each component's run keeps the caller's
``ecc_lanes``, whose one rule decides its lane sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import FDiamConfig
from repro.core.fdiam import DiameterResult, fdiam_with_state
from repro.core.stats import FDiamStats, PrepStats, Reason
from repro.errors import AlgorithmError
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph
from repro.graph.subgraph import induced_subgraph
from repro.parallel.costmodel import LevelSynchronousCostModel
from repro.prep.mirror import MirrorResult, collapse_mirrors, mirror_potential
from repro.prep.peel import PeelResult, peel_pendant_trees
from repro.prep.plan import PrepSpec, plan_component
from repro.prep.reorder import ORDER_STRATEGIES, apply_order, edge_span

__all__ = ["Prepared", "preprocess", "fdiam_prepped", "gate_spec"]


@dataclass(frozen=True)
class Prepared:
    """A reduced graph plus everything needed to interpret its diameter.

    ``diam(original component) = max(diam(reduced component),
    correction)`` per surviving component; ``removed_components`` whole
    components (trees the peel absorbed) have their diameters folded
    into ``correction`` already.
    """

    graph: CSRGraph
    correction: int
    removed_components: int
    peel: PeelResult | None
    mirror: MirrorResult | None
    stats: PrepStats


def preprocess(graph: CSRGraph, spec: PrepSpec) -> Prepared:
    """Run the enabled reduction stages (peel, then collapse)."""
    stats = PrepStats(stages=spec.tokens)
    work = graph
    correction = 0
    removed_components = 0
    peel_result = None
    mirror_result = None
    if spec.peel and work.num_vertices:
        peel_result = peel_pendant_trees(work)
        work = peel_result.graph
        correction = max(correction, peel_result.correction)
        removed_components += peel_result.tree_components
        stats.peel_vertices_removed = peel_result.vertices_removed
        stats.peel_edges_removed = peel_result.edges_removed
        stats.peel_spine_vertices = peel_result.spine_vertices
        stats.peel_anchors = peel_result.anchors
        stats.peel_tree_components = peel_result.tree_components
        stats.peel_correction = peel_result.correction
    if spec.collapse and work.num_vertices:
        mirror_result = collapse_mirrors(work)
        work = mirror_result.graph
        correction = max(correction, mirror_result.correction)
        stats.mirror_vertices_removed = mirror_result.vertices_removed
        stats.mirror_edges_removed = mirror_result.edges_removed
        stats.mirror_open_groups = mirror_result.open_groups
        stats.mirror_closed_groups = mirror_result.closed_groups
        stats.mirror_max_multiplicity = mirror_result.max_multiplicity
        stats.mirror_correction = mirror_result.correction
    return Prepared(
        graph=work,
        correction=correction,
        removed_components=removed_components,
        peel=peel_result,
        mirror=mirror_result,
        stats=stats,
    )


def gate_spec(
    graph: CSRGraph,
    spec: PrepSpec,
    model: LevelSynchronousCostModel | None = None,
) -> tuple[PrepSpec, tuple[str, ...]]:
    """Drop stages whose modeled cost exceeds their plausible payoff.

    Only consulted when the ``plan`` stage is on (``--prep auto`` or an
    explicit spec including ``plan``): each structural stage's O(n + m)
    pass costs real wall-clock, and on graphs where the stage can touch
    only a sliver of the vertices that cost is pure regression versus
    the plain path. Returns the surviving spec plus the tokens of the
    vetoed stages (recorded in :attr:`PrepStats.stages_gated`). Specs
    without ``plan`` are returned untouched — an explicit stage list is
    a command, not a suggestion.
    """
    if not spec.plan:
        return spec, ()
    model = model or LevelSynchronousCostModel()
    gates = model.reduction_gates(
        num_vertices=graph.num_vertices,
        num_directed_edges=graph.num_directed_edges,
        deg1_count=int(np.count_nonzero(graph.degrees == 1)),
        graph_bytes=graph.memory_bytes(),
        mirror_candidates=lambda: mirror_potential(graph),
    )
    gated: list[str] = []
    if spec.peel and not gates.peel:
        gated.append("peel")
        spec = replace(spec, peel=False)
    if spec.collapse and not gates.collapse:
        gated.append("collapse")
        spec = replace(spec, collapse=False)
    if spec.reorder != "off" and not gates.reorder:
        gated.append("reorder")
        spec = replace(spec, reorder="off")
    return spec, tuple(gated)


def fdiam_prepped(
    graph: CSRGraph,
    config: FDiamConfig,
    *,
    deadline: float | None = None,
) -> DiameterResult:
    """Exact diameter via the reduction pipeline (see module docstring)."""
    if graph.num_vertices == 0:
        raise AlgorithmError("fdiam() requires a graph with at least one vertex")
    requested = PrepSpec.parse(config.prep)
    base_config = config.ablate(prep="off")
    if not requested.enabled:
        result, _ = fdiam_with_state(graph, base_config, deadline=deadline)
        return result

    model = LevelSynchronousCostModel()
    gate_started = time.perf_counter()
    spec, stages_gated = gate_spec(graph, requested, model)
    gate_elapsed = time.perf_counter() - gate_started

    if spec.plan and not (spec.peel or spec.collapse or spec.reorder != "off"):
        # Every structural stage was vetoed: skip the reductions and the
        # component split entirely (plain fdiam is exact on disconnected
        # graphs too) and run the whole graph without paying a single
        # O(n + m) reduction pass.
        result, _ = fdiam_with_state(graph, base_config, deadline=deadline)
        result.stats.prep = PrepStats(
            stages=requested.tokens,
            stages_gated=stages_gated,
            components_total=1,
            components_solved=1,
        )
        result.stats.times.other += gate_elapsed
        return result

    total = FDiamStats(
        num_vertices=graph.num_vertices, num_edges=graph.num_edges
    )
    started = time.perf_counter()
    prepared = preprocess(graph, spec)
    prep_stats = prepared.stats
    prep_stats.stages = requested.tokens
    prep_stats.stages_gated = stages_gated
    total.prep = prep_stats
    total.removed_by[Reason.PREP] += prep_stats.vertices_removed
    total.times.other += gate_elapsed + time.perf_counter() - started

    work = prepared.graph
    best = prepared.correction
    num_components = prepared.removed_components
    have_initial_bound = False

    if work.num_vertices:
        components = connected_components(work)
        num_components += components.num_components
        prep_stats.components_total = components.num_components
        # Largest first: its diameter usually dominates, so later
        # (smaller) components can be skipped against the running bound.
        order = np.argsort(-components.sizes, kind="stable")
        for comp in order.tolist():
            size = int(components.sizes[comp])
            if size - 1 <= best:
                prep_stats.components_skipped += 1
                total.removed_by[Reason.PREP] += size
                continue
            with total.timing("other"):
                if components.num_components == 1:
                    comp_graph = work
                else:
                    comp_graph = induced_subgraph(
                        work, components.vertices_of(comp)
                    ).graph
                plan = plan_component(comp_graph, spec=spec, model=model)
                if plan.reorder in ORDER_STRATEGIES:
                    prep_stats.edge_span_before += edge_span(comp_graph)
                    reordering = apply_order(
                        comp_graph, ORDER_STRATEGIES[plan.reorder](comp_graph)
                    )
                    comp_graph = reordering.graph
                    prep_stats.edge_span_after += edge_span(comp_graph)
                    prep_stats.reorder_strategies[plan.reorder] = (
                        prep_stats.reorder_strategies.get(plan.reorder, 0) + 1
                    )
            sub_result, _ = fdiam_with_state(
                comp_graph, base_config, deadline=deadline
            )
            prep_stats.components_solved += 1
            if not have_initial_bound:
                total.initial_bound = sub_result.stats.initial_bound
                have_initial_bound = True
            best = max(best, sub_result.diameter)
            total.merge_from(sub_result.stats)

    connected = num_components == 1
    return DiameterResult(
        diameter=best,
        connected=connected,
        infinite=not connected,
        stats=total,
    )
