"""Concurrent-BFS study — the parallelization strategy the paper rejected.

Paper §4.6: "As an alternative, we also tried running multiple BFS
traversals in parallel. However, this did not yield a speedup because it
resulted in too much redundant work, as concurrent Eliminate operations
would overlap in removing vertices from consideration."

This module reproduces that experiment. :func:`fdiam_concurrent` runs
F-Diam's own main loop (:func:`repro.core.fdiam.main_loop`) with a
forced batch of ``batch_size`` scalar eccentricity evaluations: the
vertices of a batch are claimed from the active set up-front and all
evaluated before any of their Eliminate operations are applied —
exactly the information structure of ``batch_size`` BFS traversals
running simultaneously (none sees the removals the others are about to
cause). The report counts the **redundant evaluations**: batch members
that the preceding members' Eliminates would have removed had they run
serially. Batch size 1 is exactly the sequential F-Diam main loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import FDiamConfig
from repro.core.fdiam import initial_stages, main_loop
from repro.core.state import FDiamState
from repro.core.stats import FDiamStats
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

__all__ = ["ConcurrentReport", "fdiam_concurrent"]


@dataclass(frozen=True)
class ConcurrentReport:
    """Outcome of a concurrent-batch F-Diam run."""

    diameter: int
    connected: bool
    batch_size: int
    stats: FDiamStats

    @property
    def redundant_evaluations(self) -> int:
        """Eccentricity BFS calls that a serial order would have skipped —
        the paper's "redundant work"."""
        return self.stats.redundant_evaluations

    @property
    def redundancy_fraction(self) -> float:
        """Share of eccentricity traversals that were redundant."""
        total = self.stats.eccentricity_bfs
        return self.redundant_evaluations / total if total else 0.0


def fdiam_concurrent(
    graph: CSRGraph,
    batch_size: int,
    config: FDiamConfig | None = None,
) -> ConcurrentReport:
    """F-Diam with ``batch_size`` simultaneous eccentricity traversals.

    The result is still exact — concurrency only defers pruning, never
    weakens it — but the traversal count grows with the batch size,
    which is precisely why the paper parallelized *within* each BFS
    instead of across BFS calls.
    """
    if batch_size < 1:
        raise AlgorithmError("batch_size must be >= 1")
    if graph.num_vertices == 0:
        raise AlgorithmError("fdiam_concurrent requires a non-empty graph")
    state = FDiamState(graph, config or FDiamConfig())
    start, connected = initial_stages(state)
    main_loop(state, start, batch_size, lanes=False)
    return ConcurrentReport(
        diameter=state.bound,
        connected=connected,
        batch_size=batch_size,
        stats=state.stats,
    )
