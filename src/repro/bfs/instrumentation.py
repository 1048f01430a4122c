"""Instrumentation for BFS traversals.

The paper's evaluation reasons about traversal-level quantities:
Section 6.2 discusses frontier sizes and direction switches, and the
parallel cost model (Figure 7) needs per-level frontier/edge traces.
All of that is captured here. Instrumentation is opt-in and adds only a few scalar appends per
level, so it is cheap enough to leave enabled in benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Direction", "LevelTrace", "BFSTrace"]


class Direction(str, Enum):
    """Which direction a level-synchronous BFS step executed in."""

    TOP_DOWN = "top-down"
    BOTTOM_UP = "bottom-up"


@dataclass(frozen=True)
class LevelTrace:
    """Measurements of a single BFS level.

    Attributes
    ----------
    level:
        1-based level index (level ``k`` discovers vertices at distance
        ``k`` from the source set).
    frontier_size:
        Number of vertices on the input frontier of this step.
    edges_examined:
        Arcs scanned while expanding this level. For top-down steps this
        is the out-degree sum of the frontier; for bottom-up steps it is
        the number of arcs of unvisited vertices that were inspected
        before each one found a frontier neighbour (or exhausted its
        list), matching the paper's "wasted work" discussion.
    direction:
        Whether the step ran top-down or bottom-up.
    discovered:
        Number of new vertices discovered by this step.
    """

    level: int
    frontier_size: int
    edges_examined: int
    direction: Direction
    discovered: int


@dataclass
class BFSTrace:
    """Complete per-level trace of one BFS traversal."""

    source: int
    levels: list[LevelTrace] = field(default_factory=list)

    def record(
        self,
        frontier_size: int,
        edges_examined: int,
        direction: Direction,
        discovered: int,
    ) -> None:
        """Append one level's measurements."""
        self.levels.append(
            LevelTrace(
                level=len(self.levels) + 1,
                frontier_size=frontier_size,
                edges_examined=edges_examined,
                direction=direction,
                discovered=discovered,
            )
        )

    @property
    def eccentricity(self) -> int:
        """Levels that discovered at least one vertex."""
        return sum(1 for lv in self.levels if lv.discovered > 0)

    @property
    def total_edges_examined(self) -> int:
        """Total arcs scanned by the traversal."""
        return sum(lv.edges_examined for lv in self.levels)

    @property
    def total_discovered(self) -> int:
        """Vertices discovered, excluding the source set."""
        return sum(lv.discovered for lv in self.levels)

    @property
    def num_direction_switches(self) -> int:
        """How many times the hybrid engine changed direction."""
        return sum(
            1
            for a, b in zip(self.levels, self.levels[1:])
            if a.direction != b.direction
        )

    def frontier_sizes(self) -> list[int]:
        """Frontier size per level (input of the parallel cost model)."""
        return [lv.frontier_size for lv in self.levels]

    def edge_counts(self) -> list[int]:
        """Edges examined per level (input of the parallel cost model)."""
        return [lv.edges_examined for lv in self.levels]
