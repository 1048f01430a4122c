"""Level-synchronous BFS engines.

The traversal surface is unified behind
:class:`~repro.bfs.kernel.TraversalKernel` (single-source BFS on the
``"parallel"`` direction-optimized hybrid or the ``"serial"`` scalar
reference loop, the scalar multi-source level wave, bit-parallel
64-lane multi-source sweeps, staggered waves) with a pooled
:class:`~repro.bfs.kernel.Workspace` of scratch buffers. A held kernel
is the only way to run a traversal; the counter-based visited marks
(:class:`VisitMarks`), the scalar reference engine
(:func:`serial_bfs`), and traversal instrumentation all build on it.
"""

from repro.bfs.bitparallel import (
    LANE_WIDTH,
    LaneSweep,
    lane_distances,
    lane_sweep,
    segmented_or,
)
from repro.bfs.bottomup import bottomup_step
from repro.bfs.eccentricity import Engine, all_eccentricities
from repro.bfs.frontier import (
    compact_unique,
    frontier_edge_count,
    gather_neighbors,
    gather_rows,
    row_any,
)
from repro.bfs.instrumentation import BFSTrace, Direction, LevelTrace
from repro.bfs.kernel import (
    DEFAULT_THRESHOLD,
    BFSResult,
    TraversalKernel,
    Workspace,
    WorkspaceStats,
)
from repro.bfs.reference import serial_bfs, serial_distances
from repro.bfs.topdown import topdown_step
from repro.bfs.visited import VisitMarks

__all__ = [
    "BFSResult",
    "BFSTrace",
    "DEFAULT_THRESHOLD",
    "Direction",
    "Engine",
    "LANE_WIDTH",
    "LaneSweep",
    "LevelTrace",
    "TraversalKernel",
    "VisitMarks",
    "Workspace",
    "WorkspaceStats",
    "all_eccentricities",
    "bottomup_step",
    "compact_unique",
    "frontier_edge_count",
    "gather_neighbors",
    "gather_rows",
    "lane_distances",
    "lane_sweep",
    "row_any",
    "segmented_or",
    "serial_bfs",
    "serial_distances",
    "topdown_step",
]
