"""Shared scaffolding for the baseline diameter algorithms.

All baselines (paper §2, §5) are implemented against the same CSR
substrate and BFS engines as F-Diam so runtime comparisons measure
algorithmic differences, exactly as in the paper's evaluation where all
codes run on the same machine and graph representation.

Common behaviours provided here:

* a :class:`BaselineResult` mirroring F-Diam's result shape,
* per-connected-component driving (the paper: "F-Diam and all other
  tested codes support disconnected graphs and report the largest
  eccentricity among all connected components"),
* deadline handling — baselines can run for hours on inputs where
  F-Diam takes milliseconds (paper Table 2's ``T/O`` entries), so every
  BFS loop checks an optional deadline and raises
  :class:`~repro.errors.BenchmarkTimeout`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bfs.eccentricity import Engine
from repro.bfs.kernel import TraversalKernel
from repro.errors import AlgorithmError, BenchmarkTimeout
from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph

__all__ = ["BaselineResult", "BaselineContext", "component_representatives"]


@dataclass(frozen=True)
class BaselineResult:
    """Result of a baseline diameter computation.

    Field meanings match :class:`repro.core.fdiam.DiameterResult`:
    ``diameter`` is the largest eccentricity over all connected
    components, and ``infinite`` flags disconnected inputs.
    """

    algorithm: str
    diameter: int
    connected: bool
    infinite: bool
    bfs_traversals: int


class BaselineContext:
    """Per-run helper bundling a traversal kernel, BFS counter, and deadline.

    All baselines share one :class:`~repro.bfs.kernel.TraversalKernel`
    per run, so they benefit from the same pooled workspace (epoch
    marks, recycled distance buffers) as the F-Diam driver, and the
    kernel's per-level deadline checks bound even a single huge BFS.
    """

    def __init__(
        self,
        graph: CSRGraph,
        engine: Engine = "parallel",
        deadline: float | None = None,
    ):
        if graph.num_vertices == 0:
            raise AlgorithmError("diameter of an empty graph is undefined")
        self.graph = graph
        self.deadline = deadline
        self.bfs_count = 0
        self.kernel = TraversalKernel(graph, engine=engine, deadline=deadline)

    def check_deadline(self) -> None:
        """Raise :class:`BenchmarkTimeout` once the deadline has passed."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BenchmarkTimeout(
                f"baseline exceeded its time budget after {self.bfs_count} BFS calls"
            )

    def run_bfs(self, source: int, *, record_dist: bool = False):
        """One counted BFS through the configured engine."""
        self.check_deadline()
        self.bfs_count += 1
        return self.kernel.bfs(source, record_dist=record_dist)

    def release_dist(self, dist) -> None:
        """Recycle a finished distance buffer into the workspace pool."""
        self.kernel.workspace.release_dist(dist)

    def result(self, algorithm: str, diameter: int, connected: bool) -> BaselineResult:
        """Package a finished run."""
        return BaselineResult(
            algorithm=algorithm,
            diameter=diameter,
            connected=connected,
            infinite=not connected,
            bfs_traversals=self.bfs_count,
        )


def component_representatives(graph: CSRGraph) -> tuple[list[np.ndarray], bool]:
    """Vertex sets of all non-trivial components, plus connectivity.

    Components of size 1 have eccentricity 0 and never contribute to the
    reported CC diameter (unless the graph has no edges at all, in which
    case the diameter is 0 anyway), so baselines skip them.
    """
    cc = connected_components(graph)
    connected = cc.num_components <= 1
    groups = [
        cc.vertices_of(comp)
        for comp in range(cc.num_components)
        if cc.sizes[comp] >= 2
    ]
    return groups, connected
