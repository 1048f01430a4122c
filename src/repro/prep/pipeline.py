"""The exactness-preserving reductions, peel then collapse.

:func:`preprocess` shrinks a graph without changing its diameter, by
the peel lemma (DESIGN.md §9.2) and the mirror eccentricity equality
(§9.3). F-Diam no longer calls it (DESIGN.md §9 says why); it stays
because ``perfbench/instrument.py`` imports this module and patches
:func:`preprocess` by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.csr import CSRGraph
from repro.prep.mirror import MirrorResult, collapse_mirrors
from repro.prep.peel import PeelResult, peel_pendant_trees
from repro.prep.plan import PrepSpec

__all__ = ["PrepStats", "Prepared", "preprocess"]


@dataclass
class PrepStats:
    """Structural counters of :func:`preprocess`.

    Every field is a count — vertices/edges removed, spine vertices
    synthesized, mirror groups found — so comparisons stay
    wall-clock-independent.
    """

    #: Canonical stage tokens the reductions were configured with.
    stages: tuple[str, ...] = ()

    # Pendant-tree peeling.
    peel_vertices_removed: int = 0
    peel_edges_removed: int = 0
    peel_spine_vertices: int = 0
    peel_anchors: int = 0
    peel_tree_components: int = 0
    peel_correction: int = 0

    # Mirror-vertex collapsing.
    mirror_vertices_removed: int = 0
    mirror_edges_removed: int = 0
    mirror_open_groups: int = 0
    mirror_closed_groups: int = 0
    mirror_max_multiplicity: int = 0
    mirror_correction: int = 0

    @property
    def vertices_removed(self) -> int:
        """Original vertices the reductions deleted (peel + mirror)."""
        return self.peel_vertices_removed + self.mirror_vertices_removed

    @property
    def edges_removed(self) -> int:
        """Net edge reduction over both reduction stages."""
        return self.peel_edges_removed + self.mirror_edges_removed


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


# No caller in src/; kept because perfbench/instrument.py patches it.
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
