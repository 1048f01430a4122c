"""The Winnow operation (paper §4.2, Algorithm 3) — F-Diam's key novelty.

Safety argument (Theorems 2 + 3): let ``bound`` be a lower bound on the
diameter and ``v`` any vertex. Every pair of vertices inside the ball
``B(v, ⌊bound/2⌋)`` is at most ``bound`` apart (both can route through
``v``). Hence if some pair realizes a distance ``> bound``, at least one
endpoint lies *outside* the ball — and by Theorem 2 a diameter-realizing
eccentricity always has at least two witnesses, so discarding the whole
ball still leaves a witness of the true diameter under consideration.
This is why Winnow may discard vertices whose eccentricity is *higher*
than the current bound, which no earlier pruning technique could do.

Crucially, winnowing is only sound from **one** centre per run: balls
around two different centres could each contain one endpoint of the
critical pair. The state therefore pins the centre on first use, and
later calls (after bound increases) merely *extend* the same ball — the
partial BFS resumes from the saved frontier instead of restarting
(§4.5: "Incrementally extending the winnowed region is trivial as it is
centered around one starting vertex").
"""

from __future__ import annotations

import numpy as np

from repro.core.state import WINNOWED, FDiamState
from repro.core.stats import Reason
from repro.errors import AlgorithmError

__all__ = ["winnow", "restore_winnow"]


def restore_winnow(
    state: FDiamState,
    center: int,
    radius: int,
    visited: np.ndarray,
    frontier: np.ndarray,
) -> None:
    """Adopt a previously grown winnow ball (warm start, §4.5 extended).

    The caller guarantees the ball belongs to the *same* graph (content
    digest match) and that ``radius <= state.bound // 2`` under the
    run's fresh witness bound — under those conditions the ball is
    exactly what :func:`winnow` would have grown, so adopting its
    visited set and resume frontier is sound, and a later
    :func:`winnow` call extends it incrementally as usual. Pins the
    centre; must run before any winnowing in this run.
    """
    if state.winnow_center is not None:
        raise AlgorithmError(
            "cannot restore a winnow ball after winnowing has started "
            f"(centre already pinned to {state.winnow_center})"
        )
    state.winnow_center = int(center)
    state.winnow_radius = int(radius)
    state.winnow_visited = np.asarray(visited, dtype=bool).copy()
    state.winnow_frontier = np.asarray(frontier, dtype=np.int64).copy()


def winnow(state: FDiamState, center: int, bound: int) -> int:
    """(Re-)winnow the ball of radius ``⌊bound/2⌋`` around ``center``.

    On the first call the centre is pinned and the ball is grown from
    scratch; on later calls the saved frontier is advanced by the
    radius increase. Counts one Winnow call (Table 3 convention) iff at
    least one level is actually expanded.

    Returns the number of levels expanded by this call.
    """
    if state.winnow_center is None:
        state.winnow_center = center
        # The centre vertex itself is NOT written: the driver has
        # already recorded its true eccentricity during the 2-sweep
        # (or will evaluate it). Mark it visited so the BFS never
        # rediscovers it.
        state.winnow_visited[center] = True
        state.winnow_frontier = np.array([center], dtype=np.int64)
        state.winnow_radius = 0
    elif center != state.winnow_center:
        raise AlgorithmError(
            "Winnow is only sound from a single centre per run "
            f"(pinned {state.winnow_center}, got {center})"
        )

    target_radius = bound // 2
    levels_to_expand = target_radius - state.winnow_radius
    if levels_to_expand <= 0 or len(state.winnow_frontier) == 0:
        return 0

    state.stats.winnow_calls += 1
    # The ball expansion is the kernel's scalar multi-source wave
    # resumed from the saved frontier: no new epoch (a dedicated boolean
    # visited array persists across extensions of the one winnow ball)
    # and the frontier is already marked.
    levels = state.kernel.levels(
        state.winnow_frontier,
        levels_to_expand,
        marks=_BoolMarks(state.winnow_visited),
        new_epoch=False,
        mark_sources=False,
    )
    for level in levels:
        state.remove(level, WINNOWED, Reason.WINNOW)
    expanded = len(levels)
    # Save the resume frontier: the last expanded level, or empty once
    # the ball has swallowed its whole component.
    if expanded == levels_to_expand:
        state.winnow_frontier = levels[-1]
    else:
        state.winnow_frontier = np.empty(0, dtype=np.int64)
    state.winnow_radius = target_radius
    if state.oracle is not None:
        state.oracle.check_stage(state, "winnow")
    return expanded


class _BoolMarks:
    """Adapter giving a persistent boolean array the VisitMarks protocol.

    The winnow ball must stay marked across incremental extensions, so
    it cannot share the run's epoch counter (every ``new_epoch`` would
    forget it). Duck-types the members :func:`topdown_step` uses.
    """

    __slots__ = ("marks", "counter")

    def __init__(self, visited: np.ndarray):
        self.marks = visited
        self.counter = True  # visited entries equal True

    def visit(self, vertices: np.ndarray | int) -> None:
        self.marks[vertices] = True
